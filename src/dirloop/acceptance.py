"""The package's acceptance suite: ten exact criteria, no tolerances.

Each criterion is a function that raises on the first violation and
returns a one line summary otherwise.  The same list backs the pytest
acceptance tests and the ``selftest`` CLI command, so a green table here
means the same thing everywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from .corpus import (
    circle_complex,
    interval_complex,
    random_interior_point,
    random_loop,
    random_reparam,
    random_xprime_letters,
    torus_complex,
    two_component_complex,
    wedge_of_circles,
)
from .cubical import RealizationPoint, _Frozen, in_collar, snap_coordinate, suspension_model
from .homology import RATIONALS, FieldSpec, betti
from .james import crossing_word, multiply, retract_word, word_loop
from .loop_algebra import (
    count_words_by_enumeration,
    loop_space_homology,
    verify_tensor_characterization,
)
from .paths import MoorePath, STAR, Suspension, TrackSeg, is_strictly_increasing
from .straighten import contract_to_constant, full_straighten

FIELDS = (RATIONALS, FieldSpec(2))


class CriterionResult(_Frozen):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str):
        _Frozen.__init__(self, name, ok, detail)


def homology_base_complexes(seed: int) -> str:
    cases = [
        (circle_complex(), (1, 1)),
        (wedge_of_circles(2), (1, 2)),
        (torus_complex(), (1, 2, 1)),
    ]
    for K, dims in cases:
        for field in FIELDS:
            got = betti(K, field).as_tuple()
            assert got == dims, f"dims {got} != {dims} over {field}"
    return "circle, wedge, torus over both coefficient fields"


def suspension_isomorphism(seed: int) -> str:
    for K in (circle_complex(), wedge_of_circles(2), torus_complex()):
        model = suspension_model(K)
        for field in FIELDS:
            base = betti(K, field, truncation=4).reduced()
            lifted = betti(model.complex, field, truncation=5).reduced()
            assert lifted.get(0) == 0
            for k in range(5):
                assert lifted.get(k + 1) == base.get(k), (
                    f"degree {k + 1} of the suspension disagrees over {field}"
                )
    return "reduced dims shift by one for three bases, two fields"


def loop_space_series(seed: int) -> str:
    cases = [
        (circle_complex(), 10, tuple([1] * 11)),
        (wedge_of_circles(2), 10, tuple(2**k for k in range(11))),
        (torus_complex(), 5, (1, 2, 5, 12, 29, 70)),
    ]
    for K, degree, want in cases:
        series = loop_space_homology(K, RATIONALS, truncation=degree)
        got = tuple(series.get(k) for k in range(degree + 1))
        assert got == want, f"series {got} != {want}"
        generators = betti(K, RATIONALS, truncation=degree).reduced()
        degrees = [k for k, d in generators.nonzero() for _ in range(d)]
        oracle = tuple(count_words_by_enumeration(degrees, k) for k in range(degree + 1))
        assert got == oracle, "word enumeration oracle disagrees"
        assert verify_tensor_characterization(series, generators)
    return "three series, each matching the word enumeration oracle"


def word_loop_crossings(seed: int) -> str:
    rng = random.Random(seed + 4)
    suspensions = [
        Suspension(circle_complex()),
        Suspension(wedge_of_circles(2)),
        Suspension(torus_complex()),
    ]
    for i in range(100):
        sus = suspensions[i % 3]
        letters = random_xprime_letters(sus.base, rng, max_len=6)
        loop = word_loop(sus, letters)
        assert crossing_word(sus, loop) == retract_word(sus.base, letters), (
            f"letters not recovered for word {i}"
        )
    return "100 random words over three bases, letters recovered in order"


def crossing_word_monoid(seed: int) -> str:
    rng = random.Random(seed + 5)
    sus = Suspension(wedge_of_circles(2))
    for i in range(100):
        a = random_loop(sus, rng)
        b = random_loop(sus, rng)
        ab = sus.concat(a, b)
        left = crossing_word(sus, ab)
        right = multiply(sus.base, crossing_word(sus, a), crossing_word(sus, b))
        assert left == right, f"concatenation {i} is not multiplicative"
        table = random_reparam(ab.duration, rng)
        assert crossing_word(sus, sus.reparam(ab, table)) == left, (
            f"reparametrization {i} changed the word"
        )
    return "100 random pairs: multiplicative and reparametrization stable"


def strict_increase_map(seed: int) -> str:
    rng = random.Random(seed + 6)
    sus = Suspension(circle_complex())
    for i in range(100):
        loop = random_loop(sus, rng)
        word = crossing_word(sus, loop)
        for eps in (F(1, 4), F(1, 2)):
            out = sus.make_increasing(loop, eps)
            assert is_strictly_increasing(out), f"loop {i} not strict at eps={eps}"
            assert out.duration == loop.duration
            assert crossing_word(sus, out) == word, f"loop {i} word moved at eps={eps}"
    quarter, three_quarters = (F(1, 4),), (F(3, 4),)
    plateau = sus.path(
        [
            TrackSeg(F(1), F(-1), F(0), "e", quarter, quarter),
            TrackSeg(F(1), F(0), F(0), "e", quarter, three_quarters),
            TrackSeg(F(1), F(0), F(1), "e", three_quarters, three_quarters),
        ]
    )
    lifted = sus.make_increasing(plateau, F(1, 2))
    assert is_strictly_increasing(lifted)
    assert len(sus.middle_crossings(lifted)) == 1
    return "100 loops at two heights of shear, plus a moving plateau"


def straightening_retraction(seed: int) -> str:
    rng = random.Random(seed + 7)
    sus = Suspension(wedge_of_circles(2))
    for i in range(100):
        loop = sus.make_increasing(random_loop(sus, rng), F(1, 4))
        word = crossing_word(sus, loop)
        result, frames = full_straighten(sus, loop)
        _, runs = sus.pauses_and_runs(loop)
        expected = sus.path(
            [
                TrackSeg(sum(s.duration for s in r), F(-1), F(1), pt.cube, pt.coords, pt.coords)
                for r, pt in zip(runs, word.letters)
            ]
        )
        assert result == expected, f"loop {i} did not straighten to its word loop"
        for frame in frames:
            assert sus.is_loop(frame)
            assert not sus.verify_directed(frame, "total")
            assert crossing_word(sus, frame) == word, f"frame of loop {i} changed the word"
        again, _ = full_straighten(sus, result)
        assert again == result, f"loop {i} straightening is not a retraction"
        letters = word_loop(sus, word.letters)
        fixed, _ = full_straighten(sus, letters)
        assert fixed == letters, f"word loop of {i} moved under straightening"
    return "100 loops: exact retraction onto word loops, frames word stable"


def contraction_connectedness(seed: int) -> str:
    rng = random.Random(seed + 8)
    empty = MoorePath((), STAR)
    suspensions = [
        Suspension(circle_complex()),
        Suspension(wedge_of_circles(2)),
        Suspension(interval_complex()),
    ]
    for i in range(50):
        sus = suspensions[i % 3]
        loop = random_loop(sus, rng)
        trail = contract_to_constant(sus, loop)
        assert trail[0] == loop and trail[-1] == empty, f"trail {i} has wrong endpoints"
        for frame in trail:
            assert sus.is_loop(frame)
            assert not sus.verify_directed(frame, "total"), f"trail {i} leaves directedness"
    split = Suspension(two_component_complex())
    try:
        contract_to_constant(split, split.basic_loop(RealizationPoint("f", (F(1, 2),))))
    except ValueError as err:
        assert "connected" in str(err)
    else:
        raise AssertionError("disconnected base must be rejected")
    return "50 trails reach the constant loop; disconnected base rejected"


def _same_pointwise(sus: Suspension, a: MoorePath, b: MoorePath, samples: int) -> bool:
    if a.duration != b.duration:
        return False
    total = a.duration
    return all(
        sus.evaluate(a, total * k / (samples - 1)) == sus.evaluate(b, total * k / (samples - 1))
        for k in range(samples)
    )


def homotopy_endpoints(seed: int) -> str:
    rng = random.Random(seed + 9)
    sus = Suspension(circle_complex())
    for i in range(10):
        loop = random_loop(sus, rng)
        x = random_interior_point(sus.base, rng)
        assert _same_pointwise(sus, sus.attach_then_detach(x, loop, 0), loop, 20)
        y, core = sus.detach_letter(sus.attach_letter(x, loop))
        assert y == x
        assert _same_pointwise(sus, sus.attach_then_detach(x, loop, 1), core, 20), (
            f"attach/detach {i} missed its endpoint"
        )
        into_middle = sus.concat(loop, sus.ramp(x, F(-1), F(0)))
        assert _same_pointwise(sus, sus.detach_then_attach(into_middle, 0), into_middle, 20)
        z, rest = sus.detach_letter(into_middle)
        assert z == x
        assert _same_pointwise(
            sus, sus.detach_then_attach(into_middle, 1), sus.attach_letter(z, rest), 20
        ), f"detach/attach {i} missed its endpoint"
    return "10 paths, endpoints of both round trips match at 20 times"


def collar_retraction(seed: int) -> str:
    for k in range(13):
        s = F(k, 12)
        if s <= F(1, 3):
            want = F(0)
        elif s >= F(2, 3):
            want = F(1)
        else:
            want = 3 * s - 1
        assert snap_coordinate(s) == want, f"snap({s}) != {want}"
    model = suspension_model(circle_complex())
    K = model.complex
    upper, lower = model.upper, model.lower
    assert in_collar(K, RealizationPoint("(hi|e)", (F(19, 20), F(1, 2))), upper)
    assert not in_collar(K, RealizationPoint("(lo|e)", (F(1, 2), F(1, 2))), upper)
    assert in_collar(K, RealizationPoint("(lo|e)", (F(1, 2), F(1, 2))), lower)
    assert in_collar(K, RealizationPoint("(mid|e)", (F(1, 2),)), upper)
    assert in_collar(K, RealizationPoint("(mid|e)", (F(1, 2),)), lower)
    # membership reaches one third past the shared middle slice
    assert in_collar(K, RealizationPoint("(lo|e)", (F(5, 6), F(1, 2))), upper)
    assert in_collar(K, RealizationPoint("(lo|e)", (F(2, 3), F(1, 2))), upper)
    assert not in_collar(K, RealizationPoint("(lo|e)", (F(7, 12), F(1, 2))), upper)
    for num in range(1, 8):
        assert in_collar(K, RealizationPoint("(hi|e)", (F(num, 8), F(3, 8))), upper)
    return "snap formula exact on a grid; half cone membership with margin"


CRITERIA = [
    ("homology_base_complexes", homology_base_complexes),
    ("suspension_isomorphism", suspension_isomorphism),
    ("loop_space_series", loop_space_series),
    ("word_loop_crossings", word_loop_crossings),
    ("crossing_word_monoid", crossing_word_monoid),
    ("strict_increase_map", strict_increase_map),
    ("straightening_retraction", straightening_retraction),
    ("contraction_connectedness", contraction_connectedness),
    ("homotopy_endpoints", homotopy_endpoints),
    ("collar_retraction", collar_retraction),
]


def run_acceptance(seed: int = 0) -> list[CriterionResult]:
    """Run every criterion; failures become FAIL rows, never exceptions."""
    results = []
    for name, fn in CRITERIA:
        try:
            detail = fn(seed)
        except Exception as err:  # noqa: BLE001 - the table must always complete
            results.append(CriterionResult(name, False, f"{type(err).__name__}: {err}"))
        else:
            results.append(CriterionResult(name, True, detail))
    return results

"""Straightening and contraction of directed loops."""

import json
import random
from collections import deque
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirloop.cli import _sample_grid
from dirloop.corpus import (
    circle_complex,
    interval_complex,
    point_complex,
    random_loop,
    torus_complex,
    two_component_complex,
    wedge_of_circles,
)
from dirloop.cubical import CubicalSet, FaceRef, RealizationPoint, suspension_model, tensor_product
from dirloop.homology import betti
from dirloop.james import IntervalLetter, crossing_word, word_loop
from dirloop.paths import Interior, MoorePath, STAR, StarSeg, Suspension, TrackSeg, _slice
from dirloop.serialize import dump_complex, load_complex
from dirloop.straighten import (
    chain_split,
    contract_straightened,
    contract_to_constant,
    _legs,
    _routes_home,
    full_straighten,
    straighten_step,
    word_climbs,
)

CIRCLE = Suspension(circle_complex())


def loops(sus):
    return st.builds(lambda seed: random_loop(sus, seed), st.randoms(use_true_random=False))


def _rejoined(chain):
    """The segments of the loop a chain was cut from: each nonzero pause is
    one pause segment of the canonical loop, each excursion its own run."""
    assert len(chain.pauses) == len(chain.excursions) + 1
    segs = [StarSeg(chain.pauses[0])] if chain.pauses[0] else []
    for exc, pause in zip(chain.excursions, chain.pauses[1:]):
        segs.extend(exc.segments)
        if pause:
            segs.append(StarSeg(pause))
    return tuple(segs)


def test_chain_split_round_trip_basic():
    loop = CIRCLE.concat(
        CIRCLE.path([StarSeg(F(1))]),
        CIRCLE.basic_loop(RealizationPoint("e", (F(1, 2),))),
    )
    chain = chain_split(CIRCLE, loop)
    assert chain.pauses == (F(1), F(0))
    assert len(chain.excursions) == 1
    assert chain.excursions[0].duration == 2
    assert _rejoined(chain) == loop.segments


@given(loops(CIRCLE))
@settings(max_examples=60, deadline=None)
def test_chain_split_round_trip_random(loop):
    assert _rejoined(chain_split(CIRCLE, loop)) == loop.segments


def test_straighten_step_endpoints():
    x = RealizationPoint("e", (F(1, 2),))
    run = chain_split(CIRCLE, CIRCLE.basic_loop(x)).excursions[0]
    assert straighten_step(CIRCLE, run, 0) == run
    assert straighten_step(CIRCLE, run, 1) == CIRCLE.path(
        [StarSeg(F(1, 2)), TrackSeg(F(1), F(-1), F(1), "e", (F(1, 2),), (F(1, 2),)), StarSeg(F(1, 2))]
    )


def test_straighten_step_midway_on_plain_climb():
    # shifting a straight climb just re-slopes it, so the cut pieces fuse back
    x = RealizationPoint("e", (F(1, 2),))
    run = chain_split(CIRCLE, CIRCLE.basic_loop(x)).excursions[0]
    assert straighten_step(CIRCLE, run, F(1, 2)) == CIRCLE.path(
        [StarSeg(F(1, 3)), TrackSeg(F(4, 3), F(-1), F(1), "e", (F(1, 2),), (F(1, 2),)), StarSeg(F(1, 3))]
    )


def test_straighten_step_preserves_duration_and_crossing():
    sus = Suspension(interval_complex())
    x = RealizationPoint("e", (F(3, 4),))
    loop = sus.concat(
        sus.ramp(x, F(-1), F(1, 4)),
        sus.path([TrackSeg(F(1), F(1, 4), F(1), "e", (F(3, 4),), (F(1, 4),))]),
    )
    run = chain_split(sus, loop).excursions[0]
    for t in (F(1, 4), F(2, 3), F(1)):
        out = straighten_step(sus, run, t)
        assert out.duration == run.duration
        assert sus.middle_crossings(out)[0][1] == sus.middle_crossings(run)[0][1]


def _crossings_by_oracle(sus, path):
    # the middle slice passages on Fractions, one segment at a time: each
    # track with h0 <= 0 <= h1 meets height 0 at s = -h0 / (h1 - h0); the
    # point there counts unless it is the cone point, and a passage at the
    # same time as the one before it is the same passage
    out, acc = [], F(0)
    for seg in path.segments:
        if isinstance(seg, TrackSeg) and seg.h0 <= 0 <= seg.h1:
            if seg.h0 == seg.h1:
                raise ValueError("height plateau on the middle slice; apply make_increasing first")
            s = -seg.h0 / (seg.h1 - seg.h0)
            t = acc + seg.duration * s
            pt = sus.point(F(0), seg.cube, tuple(a + (b - a) * s for a, b in zip(seg.c0, seg.c1)))
            if isinstance(pt, Interior) and (not out or out[-1][0] != t):
                out.append((t, pt.point))
        acc += seg.duration
    return out


def _legs_by_oracle(sus, run):
    # the crossing from the oracle scan, the stretches from two slices
    crossings = _crossings_by_oracle(sus, run)
    if len(crossings) != 1:
        raise ValueError(
            f"excursion crosses the middle slice {len(crossings)} times; "
            "straightening needs exactly one"
        )
    ((b, xb),) = crossings
    return b, xb, run.duration, _slice(run, 0, b), _slice(run, b, run.duration)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return ("raised", str(err))


def _random_run(rng):
    # raw tracks of the circle, heights on a coarse grid so that ends at
    # height 0, plateaus, descents and the vertex (coordinate 0 or 1, the
    # cone point at height 0) all come up; pauses in between
    heights = [F(-1), F(-1, 2), F(0), F(1, 3), F(1)]
    coords = [F(0), F(1, 4), F(1, 2), F(1)]
    segs, h, c = [], rng.choice(heights), rng.choice(coords)
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.15:
            segs.append(StarSeg(F(rng.randint(1, 3), rng.randint(1, 3))))
            continue
        h1, c1 = rng.choice(heights), rng.choice(coords)
        segs.append(TrackSeg(F(rng.randint(1, 4), rng.randint(1, 3)), h, h1, "e", (c,), (c1,)))
        h, c = h1, c1
    return MoorePath(tuple(segs))


def test_legs_cut_once_as_the_slices_do():
    rng = random.Random(5)
    seen = set()
    for _ in range(3000):
        run = _random_run(rng)
        want = _outcome(_legs_by_oracle, CIRCLE, run)
        assert _outcome(_legs, CIRCLE, run) == want, run
        if want[0] == "raised":
            seen.add(want[1].split(";")[0])
        else:
            seen.add("at a junction" if want[0] in run.times else "inside a segment")
    assert seen == {
        "excursion crosses the middle slice 0 times",
        "excursion crosses the middle slice 2 times",
        "excursion crosses the middle slice 3 times",
        "height plateau on the middle slice",
        "at a junction",
        "inside a segment",
    }


def _cube3():
    interval = interval_complex()
    return tensor_product(tensor_product(interval, interval), interval)


CROSSING_BASES = {
    "circle": CIRCLE,
    "wedge2": Suspension(wedge_of_circles(2)),
    "torus": Suspension(torus_complex()),
    "cube3": Suspension(_cube3()),
    "sus-circle": Suspension(suspension_model(circle_complex()).complex),
}
_GRID_HEIGHTS = [F(-1), F(-1, 2), F(0), F(1, 3), F(1)]
_GRID_COORDS = [F(0), F(1, 4), F(1, 2), F(1)]


@st.composite
def raw_runs(draw):
    """A base and raw tracks in its cubes: heights and coordinates on a
    grid, so that ends at height 0, plateaus, faces and vertices come up,
    or drawn freely; pauses in between."""
    name = draw(st.sampled_from(sorted(CROSSING_BASES)))
    sus = CROSSING_BASES[name]
    cubes = sorted(sus.base.cubes)
    value = st.one_of(st.sampled_from(_GRID_HEIGHTS), st.fractions(-1, 1, max_denominator=12))
    coord = st.one_of(st.sampled_from(_GRID_COORDS), st.fractions(0, 1, max_denominator=12))
    segs = []
    for _ in range(draw(st.integers(1, 6))):
        dur = draw(st.fractions(F(1, 8), 4, max_denominator=9))
        if draw(st.integers(0, 9)) == 0:
            segs.append(StarSeg(dur))
            continue
        cube = draw(st.sampled_from(cubes))
        n = sus.base.cubes[cube]
        c0 = tuple(draw(coord) for _ in range(n))
        c1 = c0 if draw(st.booleans()) else tuple(draw(coord) for _ in range(n))
        segs.append(TrackSeg(dur, draw(value), draw(value), cube, c0, c1))
    return sus, MoorePath(tuple(segs))


@given(raw_runs())
@settings(max_examples=250, deadline=None)
def test_crossings_and_legs_match_the_fraction_scan(case):
    sus, run = case
    assert _outcome(sus.middle_crossings, run) == _outcome(_crossings_by_oracle, sus, run)
    assert _outcome(_legs, sus, run) == _outcome(_legs_by_oracle, sus, run)


X = (F(1, 4),)
Y = (F(1, 2),)


@pytest.mark.parametrize(
    "segments, cut",
    [
        # the first track ends on the middle slice: s = 1 there, and the
        # second track's start at s = 0 is the same crossing
        ([TrackSeg(F(1), F(-1), F(0), "e", X, Y), TrackSeg(F(2), F(0), F(1), "e", Y, Y)], 1),
        # a descent to the middle slice does not cross it: s = 0 in the climb
        ([TrackSeg(F(1), F(1, 3), F(0), "e", X, Y), TrackSeg(F(2), F(0), F(1), "e", Y, Y)], 1),
        # inside a track, after a crossing at the vertex, which does not count
        ([TrackSeg(F(1), F(-1), F(1), "e", (F(0),), (F(0),)), TrackSeg(F(2), F(-1), F(1), "e", X, Y)], 2),
    ],
)
def test_legs_cut_where_the_crossing_is(segments, cut):
    run = MoorePath(tuple(segments))
    b, xb, a, pre, post = _legs(CIRCLE, run)
    assert (b, xb, a, pre, post) == _legs_by_oracle(CIRCLE, run)
    assert len(pre) == cut and pre[:-1] == list(segments[: cut - 1])


@pytest.mark.parametrize(
    "segments, message",
    [
        ([StarSeg(F(1))], "excursion crosses the middle slice 0 times; straightening needs exactly one"),
        (
            [TrackSeg(F(1), F(-1), F(1), "e", X, X), TrackSeg(F(1), F(-1), F(1), "e", Y, Y)],
            "excursion crosses the middle slice 2 times; straightening needs exactly one",
        ),
        (
            [TrackSeg(F(1), F(-1), F(0), "e", X, X), TrackSeg(F(1), F(0), F(0), "e", X, Y)],
            "height plateau on the middle slice; apply make_increasing first",
        ),
    ],
)
def test_legs_error_texts(segments, message):
    with pytest.raises(ValueError) as err:
        _legs(CIRCLE, MoorePath(tuple(segments)))
    assert str(err.value) == message


def test_straighten_step_rejects_bad_stage():
    x = RealizationPoint("e", (F(1, 2),))
    run = chain_split(CIRCLE, CIRCLE.basic_loop(x)).excursions[0]
    with pytest.raises(ValueError, match="stage"):
        straighten_step(CIRCLE, run, 2)


def test_full_straighten_frames_on_basic_loop():
    x = RealizationPoint("e", (F(1, 2),))
    loop = CIRCLE.basic_loop(x)

    def four_phase(edge):
        return CIRCLE.path(
            [
                StarSeg(edge),
                TrackSeg(2 - 2 * edge, F(-1), F(1), "e", (F(1, 2),), (F(1, 2),)),
                StarSeg(edge),
            ]
        )

    result, frames = full_straighten(CIRCLE, loop)
    assert result == loop
    assert frames == [loop, four_phase(F(1, 3)), four_phase(F(1, 2)), four_phase(F(1, 4)), loop]


def test_full_straighten_is_word_loop_of_crossing_word():
    sus = Suspension(interval_complex())
    rng = random.Random(7)
    for _ in range(20):
        loop = sus.make_increasing(random_loop(sus, rng), F(1, 2))
        result, _ = full_straighten(sus, loop)
        pauses, runs = sus.pauses_and_runs(loop)
        letters = [sus.middle_crossings(sus.path(r))[0][1] for r in runs]
        expected = sus.path(
            [
                TrackSeg(sum(s.duration for s in r), F(-1), F(1), pt.cube, pt.coords, pt.coords)
                for r, pt in zip(runs, letters)
            ]
            or [],
        )
        assert result.duration == sum(sum(s.duration for s in r) for r in runs)
        assert result == expected


@pytest.mark.parametrize("name", sorted(CROSSING_BASES))
def test_word_read_off_the_climbs_is_the_crossing_word(name):
    # the word that straighten prints as "sec" without scanning again
    sus = CROSSING_BASES[name]
    rng = random.Random(name)
    for _ in range(10):
        result, _ = full_straighten(sus, random_loop(sus, rng, max_runs=4))
        letters = tuple(RealizationPoint(tr.cube, tr.c0) for tr in word_climbs(sus, result))
        assert letters == crossing_word(sus, result).letters


def test_full_straighten_drops_interval_letters():
    sus = Suspension(interval_complex())
    x = RealizationPoint("e", (F(1, 2),))
    y = RealizationPoint("e", (F(1, 4),))
    loop = word_loop(sus, [x, IntervalLetter(F(1, 2)), y])
    result, frames = full_straighten(sus, loop)
    assert result == word_loop(sus, [x, y])
    assert all(sus.is_loop(f) for f in frames)


@given(loops(CIRCLE))
@settings(max_examples=40, deadline=None)
def test_full_straighten_idempotent_and_word_preserving(loop):
    loop = CIRCLE.make_increasing(loop, F(1, 2))
    result, _ = full_straighten(CIRCLE, loop)
    assert crossing_word(CIRCLE, result) == crossing_word(CIRCLE, loop)
    again, _ = full_straighten(CIRCLE, result)
    assert again == result


def test_full_straighten_rejects_crossingless_excursion():
    # climbs in from the side above the middle slice, so it never crosses
    loop = CIRCLE.path([TrackSeg(F(1), F(1, 4), F(1), "e", (F(0),), (F(1, 2),))])
    assert CIRCLE.is_loop(loop)
    with pytest.raises(ValueError, match="exactly one"):
        full_straighten(CIRCLE, loop)


def test_full_straighten_rejects_plateau_and_undirected():
    x = ("e", (F(1, 2),))
    plateau = CIRCLE.path(
        [
            TrackSeg(F(1), F(-1), F(0), "e", x[1], x[1]),
            TrackSeg(F(1), F(0), F(0), "e", x[1], x[1]),
            TrackSeg(F(1), F(0), F(1), "e", x[1], x[1]),
        ]
    )
    with pytest.raises(ValueError, match="plateau"):
        full_straighten(CIRCLE, plateau)
    wobble = CIRCLE.path(
        [
            TrackSeg(F(1), F(-1), F(1, 2), "e", x[1], x[1]),
            TrackSeg(F(1), F(1, 2), F(-1), "e", x[1], x[1]),
        ]
    )
    with pytest.raises(ValueError, match="directed"):
        full_straighten(CIRCLE, wobble)
    with pytest.raises(ValueError, match="loop"):
        full_straighten(CIRCLE, CIRCLE.ramp(RealizationPoint("e", (F(1, 2),)), F(-1), F(0)))


def _late_pieces(b, xb, a, u):
    # the second half of the clock on one excursion of duration a crossing
    # at time b over xb: pause until p, climb from -1 to the middle slice
    # until q, on to the top until r, pause until a; at u = 0 the
    # breakpoints are b/2, b and (a + b)/2, at u = 1 they are 0, a/2 and a
    p = (1 - u) * b / 2
    q = (1 - u) * b + u * a / 2
    r = (1 - u) * (a + b) / 2 + u * a
    return [
        StarSeg(p),
        TrackSeg(q - p, F(-1), F(0), xb.cube, xb.coords, xb.coords),
        TrackSeg(r - q, F(0), F(1), xb.cube, xb.coords, xb.coords),
        StarSeg(a - r),
    ]


def _stage_by_stage(sus, loop, t):
    # one frame of the full deformation: straighten_step, which shifts the
    # pieces, on each excursion for the first half of the clock including
    # the half-way stage, the breakpoint pieces above for the second half
    chain = chain_split(sus, loop)
    segs = [StarSeg(chain.pauses[0] * (1 - t))]
    for exc, pause in zip(chain.excursions, chain.pauses[1:]):
        if t <= F(1, 2):
            segs.extend(straighten_step(sus, exc, 2 * t).segments)
        else:
            ((b, xb),) = sus.middle_crossings(exc)
            segs.extend(_late_pieces(b, xb, exc.duration, 2 * t - 1))
        segs.append(StarSeg(pause * (1 - t)))
    return sus.path(segs)


@pytest.mark.parametrize(
    "samples",
    [
        [F(1, 2), F(1, 4), F(1, 2)],
        [F(0), F(3, 4), F(0)],
        [F(1, 3), F(2, 3)],
        [F(1), F(1), F(5, 8)],
        [F(0)],
    ],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_each_stage_is_built_once_and_matches_the_stage_maps(samples, seed):
    rng = random.Random(seed)
    for sus in (CIRCLE, Suspension(torus_complex())):
        loop = random_loop(sus, rng)
        result, frames = full_straighten(sus, loop, samples)
        assert result == _stage_by_stage(sus, loop, F(1))
        seen = {F(1): result}
        for t, fr in zip(samples, frames):
            assert fr == _stage_by_stage(sus, loop, t), t
            if t == 0:
                assert fr is loop
            assert seen.setdefault(t, fr) is fr


def _wandering_loop(sus, rng):
    # excursions whose base coordinates move inside one cube along every
    # track, heights rising through distinct levels, so the one crossing
    # falls inside a track or at a junction
    cubes = sorted(c for c, d in sus.base.cubes.items() if d > 0)
    pool = [F(-2, 3), F(-1, 3), F(0), F(1, 4), F(1, 2)]
    segs = [StarSeg(F(rng.randint(0, 2), 2))]
    for _ in range(rng.randint(1, 4)):
        cube = rng.choice(cubes)
        n = sus.base.cubes[cube]
        levels = [F(-1), *sorted(rng.sample(pool, rng.randint(0, 3))), F(1)]
        c = tuple(F(rng.randint(1, 7), 8) for _ in range(n))
        for h0, h1 in zip(levels, levels[1:]):
            c1 = tuple(F(rng.randint(1, 7), 8) for _ in range(n))
            segs.append(TrackSeg(F(rng.randint(1, 4), 2), h0, h1, cube, c, c1))
            c = c1
        segs.append(StarSeg(F(rng.randint(0, 2), 2)))
    return sus.path(segs)


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_stages_match_the_shifting_construction(seed):
    # from stage 1/2 on, frames come from each excursion's crossing and
    # duration alone; at 2t = 1 the shifted pieces all clamp into pauses
    rng = random.Random(seed)
    bases = (wedge_of_circles(3), torus_complex(), suspension_model(circle_complex()).complex)
    samples = [F(1, 4), F(1, 2), F(5, 8), F(1)]
    for K in bases:
        sus = Suspension(K)
        for _ in range(5):
            loop = _wandering_loop(sus, rng)
            result, frames = full_straighten(sus, loop, samples)
            assert result == _stage_by_stage(sus, loop, F(1))
            assert frames == [_stage_by_stage(sus, loop, t) for t in samples]


_LATE_BASES = (wedge_of_circles(3), torus_complex(), suspension_model(circle_complex()).complex)
# the frame counts of ``--samples`` the late frames are checked on
_GRIDS = (2, 3, 5, 9, 17)


def _excursion(cube, points, levels, durations):
    # climbs through the height levels from -1 to 1 over the points in turn
    return [
        TrackSeg(d, h0, h1, cube, c0, c1)
        for d, h0, h1, c0, c1 in zip(durations, levels, levels[1:], points, points[1:])
    ]


@st.composite
def _late_loops(draw):
    # excursions through random levels, some balanced (as long before the
    # crossing as after it, so b = a/2), with pauses that may be 0 at the
    # start, between excursions and at the end; no excursion at all leaves
    # a loop of pauses
    sus = Suspension(draw(st.sampled_from(_LATE_BASES)))
    cubes = sorted(c for c, d in sus.base.cubes.items() if d > 0)
    durations = st.integers(1, 6).map(lambda n: F(n, 3))
    pauses = st.one_of(st.just(F(0)), durations)
    segs = [StarSeg(draw(pauses))]
    for _ in range(draw(st.integers(0, 4))):
        cube = draw(st.sampled_from(cubes))
        if draw(st.booleans()):
            levels = [F(-1), F(0), F(1)]
            d = draw(durations)
            times = [d, d]
        else:
            inner = st.sampled_from([F(-2, 3), F(-1, 3), F(0), F(1, 4), F(1, 2)])
            levels = [F(-1), *sorted(draw(st.sets(inner, max_size=3))), F(1)]
            times = [draw(durations) for _ in levels[1:]]
        coord = st.integers(1, 7).map(lambda n: F(n, 8))
        n = sus.base.cubes[cube]
        points = [tuple(draw(coord) for _ in range(n)) for _ in levels]
        segs += _excursion(cube, points, levels, times)
        segs.append(StarSeg(draw(pauses)))
    return sus, sus.path(segs)


@settings(max_examples=60, deadline=None)
@given(_late_loops(), st.sampled_from(_GRIDS))
def test_late_frames_from_gaps_match_the_stage_maps(drawn, count):
    sus, loop = drawn
    samples = _sample_grid(count)
    result, frames = full_straighten(sus, loop, samples)
    assert result == _stage_by_stage(sus, loop, F(1))
    assert frames == [_stage_by_stage(sus, loop, t) for t in samples]


def _late_edge_loop(case):
    # one loop per edge case of the late frames, over the wedge of three circles
    sus = Suspension(_LATE_BASES[0])
    x, y = (F(1, 2),), (F(1, 4),)
    if case == "track_first":
        segs = [*_excursion("e0", [x, y, x], [F(-1), F(0), F(1)], [F(1), F(2)]), StarSeg(F(1))]
    elif case == "pauses_only":
        segs = [StarSeg(F(5, 2))]
    elif case == "balanced":
        segs = [StarSeg(F(1)), *_excursion("e1", [x, y, x], [F(-1), F(0), F(1)], [F(3, 2), F(3, 2)])]
    else:  # "back_to_back": no pause between two excursions
        segs = [
            StarSeg(F(1, 3)),
            *_excursion("e0", [x, y, y], [F(-1), F(-1, 3), F(1)], [F(1), F(2)]),
            *_excursion("e2", [y, x, x], [F(-1), F(1, 2), F(1)], [F(2), F(1)]),
            StarSeg(F(1)),
        ]
    return sus, sus.path(segs)


@pytest.mark.parametrize("count", _GRIDS)
@pytest.mark.parametrize("case", ["track_first", "pauses_only", "balanced", "back_to_back"])
def test_late_frames_from_gaps_on_edge_cases(case, count):
    sus, loop = _late_edge_loop(case)
    chain = chain_split(sus, loop)
    # each loop has the shape its case names
    assert {
        "track_first": lambda: chain.pauses[0] == 0,
        "pauses_only": lambda: loop.segments == (StarSeg(F(5, 2)),) and not chain.excursions,
        "balanced": lambda: [2 * b for b, _ in sus.middle_crossings(chain.excursions[0])] == [3],
        "back_to_back": lambda: len(chain.excursions) == 2 and chain.pauses[1] == 0,
    }[case]()
    samples = _sample_grid(count)
    result, frames = full_straighten(sus, loop, samples)
    assert result == _stage_by_stage(sus, loop, F(1))
    assert frames == [_stage_by_stage(sus, loop, t) for t in samples]
    if case == "balanced" and F(1, 2) in samples:
        # the two climbs of the half-way frame are one track from -1 to 1
        half = frames[samples.index(F(1, 2))]
        assert [s.h0 for s in half.segments if isinstance(s, TrackSeg)] == [F(-1)]


@pytest.mark.parametrize("seed", range(3))
def test_equal_durations_in_a_late_frame_are_one_object(seed):
    # the pauses and climbs past the half-way stage come from one table per
    # frame, so two pieces of equal duration share the object; the loop
    # repeats an excursion, so every frame has equal durations.  The join
    # merges the two climbs of a balanced excursion (b = a/2) into a new
    # track from -1 to 1, which is left out
    rng = random.Random(seed)
    for K in _LATE_BASES:
        sus = Suspension(K)
        once = [seg for seg in _wandering_loop(sus, rng).segments if isinstance(seg, TrackSeg)]
        loop = sus.path([StarSeg(F(1)), *once, StarSeg(F(1)), *once, StarSeg(F(1))])
        _, frames = full_straighten(sus, loop, [F(1, 2), F(5, 8), F(2, 3), F(3, 4), F(7, 8)])
        for frame in frames:
            seen = {}
            table = [seg for seg in frame.segments if isinstance(seg, StarSeg) or seg.h0 != -1 or seg.h1 != 1]
            for seg in table:
                assert seen.setdefault(seg.duration, seg.duration) is seg.duration
            assert len(seen) < len(table)


def _reference_leg(sus, exc, u):
    """One excursion at stage ``u`` of ``straighten_step``, on Fractions alone.

    The excursion is cut at its crossing (time b over xb, from the oracle
    scan); every piece before it is shifted down by u and every piece after
    it up by u, each duration is scaled by 1/(1 + u), and the climbs over xb
    from -u to 0 and from 0 to u fill the time the clock gained.  Heights may
    overshoot the poles: ``_reference_at`` clamps them by definition.
    """
    ((b, xb),) = _crossings_by_oracle(sus, exc)
    f = 1 / (1 + u)
    pre, post, acc = [], [], F(0)
    for seg in exc.segments:
        end = acc + seg.duration
        for lo, hi, shift, side in ((acc, min(end, b), -u, pre), (max(acc, b), end, u, post)):
            if lo >= hi:
                continue
            if isinstance(seg, StarSeg):
                side.append(StarSeg((hi - lo) * f))
                continue
            sa, sb = (lo - acc) / seg.duration, (hi - acc) / seg.duration
            h0, h1 = (seg.h0 + (seg.h1 - seg.h0) * s + shift for s in (sa, sb))
            c0, c1 = (tuple(p + (q - p) * s for p, q in zip(seg.c0, seg.c1)) for s in (sa, sb))
            side.append(TrackSeg((hi - lo) * f, h0, h1, seg.cube, c0, c1))
        acc = end
    x = xb.coords
    climbs = [TrackSeg(u * b * f, -u, F(0), xb.cube, x, x), TrackSeg(u * (acc - b) * f, F(0), u, xb.cube, x, x)]
    return pre + climbs + post


def _reference_at(sus, segs, t):
    # the point of raw segments at time t, a height at or past a pole being
    # the cone point
    acc = F(0)
    for seg in segs:
        if seg.duration and t <= acc + seg.duration:
            if isinstance(seg, StarSeg):
                return STAR
            s = (t - acc) / seg.duration
            h = seg.h0 + (seg.h1 - seg.h0) * s
            if h <= -1 or h >= 1:
                return STAR
            return sus.point(h, seg.cube, tuple(p + (q - p) * s for p, q in zip(seg.c0, seg.c1)))
        acc += seg.duration
    assert t == acc == 0, t  # only a loop of empty pauses ends up here
    return STAR


def _check_against_reference(sus, frame, segs):
    # both are affine between the breakpoints of either and the times where
    # a raw height meets a pole, so agreeing at those and at the midpoints
    # between them means agreeing everywhere
    times, acc = {F(0)}, F(0)
    for seg in segs:
        if isinstance(seg, TrackSeg) and seg.h0 != seg.h1:
            for pole in (-1, 1):
                s = (pole - seg.h0) / (seg.h1 - seg.h0)
                if 0 < s < 1:
                    times.add(acc + seg.duration * s)
        acc += seg.duration
        times.add(acc)
    assert frame.duration == acc
    times.update(frame.times)
    ts = sorted(times)
    for t in ts + [(p + q) / 2 for p, q in zip(ts, ts[1:])]:
        assert sus.evaluate(frame, t) == _reference_at(sus, segs, t), t


# the stages below 1/2 that ``--samples 5``, 7 and 9 put frames at, and 3/8
_EARLY_STAGES = (F(1, 6), F(1, 4), F(1, 3), F(3, 8))


def _check_early_frames(sus, loop):
    # each full_straighten frame below 1/2 against the reference legs at 2t
    # between pauses scaled by 1 - t, and straighten_step at each stage
    chain = chain_split(sus, loop)
    _, frames = full_straighten(sus, loop, _EARLY_STAGES)
    for t, frame in zip(_EARLY_STAGES, frames):
        segs = [StarSeg(chain.pauses[0] * (1 - t))]
        for exc, pause in zip(chain.excursions, chain.pauses[1:]):
            segs += _reference_leg(sus, exc, 2 * t)
            segs.append(StarSeg(pause * (1 - t)))
        _check_against_reference(sus, frame, segs)
    for exc in chain.excursions:
        for u in _EARLY_STAGES:
            _check_against_reference(sus, straighten_step(sus, exc, u), _reference_leg(sus, exc, u))


@pytest.mark.parametrize("seed", range(4))
def test_early_frames_match_a_fraction_reference(seed):
    # the stages that shift, clamp and rescale pieces, including the
    # non-dyadic shifts 1/3 and 2/3 and scales 3/4 and 3/5 of seven samples
    rng = random.Random(seed)
    for K in _LATE_BASES:
        sus = Suspension(K)
        for _ in range(4):
            _check_early_frames(sus, _wandering_loop(sus, rng))


@settings(max_examples=30, deadline=None)
@given(_late_loops())
def test_early_frames_match_a_fraction_reference_on_random_levels(drawn):
    _check_early_frames(*drawn)


def test_contract_trail_on_circle_basic_loop():
    x = RealizationPoint("e", (F(1, 2),))
    loop = CIRCLE.basic_loop(x)
    trail = contract_to_constant(CIRCLE, loop)
    assert trail[0] == loop
    assert trail[-1] == MoorePath((), STAR)
    # after the straightening frames the letter slides to e(1/4), hits the
    # vertex (which is the basepoint), and the leftover pause drains
    tail = trail[5:]
    assert tail == [
        CIRCLE.path([TrackSeg(F(2), F(-1), F(1), "e", (F(1, 4),), (F(1, 4),))]),
        CIRCLE.path([StarSeg(F(2))]),
        MoorePath((), STAR),
    ]
    assert all(CIRCLE.is_loop(f) for f in trail)
    assert all(a != b for a, b in zip(trail, trail[1:]))


def test_contract_walks_the_one_skeleton():
    K = CubicalSet(
        cubes={"a": 0, "m": 0, "z": 0, "e1": 1, "e2": 1},
        faces={
            ("e1", 1, 0): FaceRef("a"),
            ("e1", 1, 1): FaceRef("m"),
            ("e2", 1, 0): FaceRef("m"),
            ("e2", 1, 1): FaceRef("z"),
        },
        basepoint="a",
    )
    sus = Suspension(K)
    x = RealizationPoint("e2", (F(1, 2),))
    trail = contract_to_constant(sus, sus.basic_loop(x))

    def at(pos_cube, coords):
        return sus.path([TrackSeg(F(2), F(-1), F(1), pos_cube, coords, coords)])

    assert trail[5:] == [
        at("e2", (F(1, 4),)),
        at("m", ()),
        at("e1", (F(1, 2),)),
        sus.path([StarSeg(F(2))]),
        MoorePath((), STAR),
    ]


def test_contract_requires_connected_base():
    sus = Suspension(two_component_complex())
    loop = sus.basic_loop(RealizationPoint("f", (F(1, 2),)))
    with pytest.raises(ValueError, match="connected"):
        contract_to_constant(sus, loop)


def _route_by_bfs_from_start(K, start):
    # one BFS from the start, neighbours in sorted (vertex, edge) order,
    # path read back from the basepoint; None when it is out of reach
    adj = {}
    for e in sorted(c for c, d in K.cubes.items() if d == 1):
        a, b = K.faces[(e, 1, 0)].base, K.faces[(e, 1, 1)].base
        adj.setdefault(a, []).append((b, e))
        adj.setdefault(b, []).append((a, e))
    parent = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w, e in sorted(adj.get(v, ())):
            if w not in parent:
                parent[w] = (v, e)
                queue.append(w)
    if K.basepoint not in parent:
        return None
    hops, v = [], K.basepoint
    while parent[v]:
        prev, e = parent[v]
        hops.append((e, v))
        v = prev
    return hops[::-1]


@st.composite
def one_skeletons(draw):
    # loops, parallel edges and vertices no edge reaches are all allowed
    n = draw(st.integers(1, 7))
    names = draw(st.permutations([f"v{k}" for k in range(n)]))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    cubes = {v: 0 for v in names}
    faces = {}
    for k, (a, b) in enumerate(ends):
        edge = draw(st.sampled_from(["e", "f", "g"])) + str(k)
        cubes[edge] = 1
        faces[(edge, 1, 0)], faces[(edge, 1, 1)] = FaceRef(names[a]), FaceRef(names[b])
    return CubicalSet(cubes, faces, names[draw(st.integers(0, n - 1))])


def _connected(K):
    try:
        _routes_home(K)
    except ValueError as err:
        assert "not connected" in str(err)
        return False
    return True


@given(one_skeletons())
@settings(max_examples=300, deadline=None)
def test_routes_home_match_a_bfs_from_each_start(K):
    vertices = [v for v, d in K.cubes.items() if d == 0]
    reference = {v: _route_by_bfs_from_start(K, v) for v in vertices}
    assert _connected(K) == all(r is not None for r in reference.values())
    if _connected(K):
        route = _routes_home(K)
        for v in vertices:
            assert route(v) == reference[v]


@pytest.mark.parametrize(
    "make",
    [lambda: wedge_of_circles(3), torus_complex, lambda: tensor_product(torus_complex(), interval_complex())],
)
def test_contract_over_a_parsed_base_reads_rows_not_faces(make):
    K = make()
    parsed = load_complex(json.loads(json.dumps(dump_complex(K))))
    sus = Suspension(parsed)
    loop = random_loop(sus, random.Random(3))
    trail = contract_to_constant(sus, loop)
    assert trail[-1] == MoorePath((), STAR)
    # the face mapping of a parsed complex is built only when read
    assert "faces" not in vars(parsed)
    route, built = _routes_home(parsed), _routes_home(K)
    for v in (c for c, d in K.cubes.items() if d == 0):
        assert route(v) == built(v)


def test_connectivity_verdict_matches_betti_zero():
    corpus = [
        point_complex(),
        interval_complex(),
        circle_complex(),
        wedge_of_circles(3),
        torus_complex(),
        two_component_complex(),
    ]
    complexes = corpus + [tensor_product(A, B) for A in corpus for B in corpus]
    complexes += [suspension_model(K).complex for K in corpus]
    assert any(not _connected(K) for K in complexes)
    for K in complexes:
        assert _connected(K) == (betti(K).get(0) == 1)


def test_contract_straightened_needs_a_word_loop():
    # the splice takes the letters after the moving one as they stand, so
    # each letter must already be one full climb over a fixed point
    x = (F(1, 2),)
    kinked = CIRCLE.path([TrackSeg(F(1), F(-1), F(0), "e", x, x), TrackSeg(F(2), F(0), F(1), "e", x, x)])
    bent = CIRCLE.path([TrackSeg(F(2), F(-1), F(1), "e", (F(1, 4),), (F(3, 4),))])
    for loop in (kinked, bent):
        with pytest.raises(ValueError, match="word loop"):
            contract_straightened(CIRCLE, loop, [])


def test_contract_trivial_loop():
    assert contract_to_constant(CIRCLE, MoorePath((), STAR)) == [MoorePath((), STAR)]


@given(loops(CIRCLE))
@settings(max_examples=25, deadline=None)
def test_contract_trail_properties(loop):
    loop = CIRCLE.make_increasing(loop, F(1, 2))
    trail = contract_to_constant(CIRCLE, loop)
    assert trail[0] == loop
    assert trail[-1] == MoorePath((), STAR)
    assert all(CIRCLE.is_loop(f) for f in trail)
    assert all(a != b for a, b in zip(trail, trail[1:]))

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dirloop.corpus import (
    circle_complex,
    interval_complex,
    torus_complex,
    two_component_complex,
    wedge_of_circles,
)
from dirloop.cubical import (
    ONE,
    ZERO,
    CubicalSet,
    FaceRef,
    RealizationPoint,
    Violation,
    apply_face,
    boundary_snap,
    compose_degens,
    in_collar,
    insert_degen,
    normalize_point,
    quotient_collapse,
    snap_coordinate,
    snap_thirds,
    strip_boundary,
    suspension_model,
    tensor_product,
    validate,
)
from dirloop.homology import RATIONALS, FieldSpec, betti

F = Fraction


def test_insert_degen_interchange():
    # s_i s_j = s_{j+1} s_i for i <= j, composition order
    for j in range(1, 5):
        for i in range(1, j + 1):
            assert compose_degens((i,), (j,)) == (j + 1, i)


def test_insert_degen_keeps_normal_form():
    assert insert_degen((3, 1), 1) == (4, 2, 1)
    assert insert_degen((3, 1), 2) == (4, 2, 1)
    assert insert_degen((2,), 5) == (5, 2)
    assert insert_degen((), 1) == (1,)


def test_apply_face_cancels_matching_degeneracy():
    K = circle_complex()
    assert apply_face(K, FaceRef("v", (1,)), 1, 0) == FaceRef("v")
    # d_1 of the degenerate square on e hits e itself
    assert apply_face(K, FaceRef("e", (1,)), 1, 0) == FaceRef("e")
    assert apply_face(K, FaceRef("e", (2,)), 1, 0) == FaceRef("v", (1,))


def test_validate_accepts_stock_complexes():
    for K in (interval_complex(), circle_complex(), wedge_of_circles(3), torus_complex()):
        assert validate(K) == []


def test_validate_accepts_suspension_models():
    for base in (circle_complex(), wedge_of_circles(2), torus_complex()):
        assert validate(suspension_model(base).complex) == []


def test_validate_reports_broken_square():
    faces = {
        ("f", 1, 0): FaceRef("p"),
        ("f", 1, 1): FaceRef("q"),
        ("g", 1, 0): FaceRef("q"),
        ("g", 1, 1): FaceRef("p"),
        ("Q", 1, 0): FaceRef("f"),
        ("Q", 1, 1): FaceRef("f"),
        ("Q", 2, 0): FaceRef("g"),
        ("Q", 2, 1): FaceRef("f"),
    }
    K = CubicalSet({"p": 0, "q": 0, "f": 1, "g": 1, "Q": 2}, faces, "p")
    report = validate(K)
    assert any(v.kind == "relation" and v.cube == "Q" and v.indices == (1, 2, 0, 0) for v in report)


def test_validate_reports_structural_defects():
    K = CubicalSet({"v": 0, "e": 1}, {("e", 1, 0): FaceRef("v")}, "v")
    kinds = {(v.kind, v.cube) for v in validate(K)}
    assert ("structure", "e") in kinds

    K2 = CubicalSet(
        {"v": 0, "e": 1},
        {("e", 1, 0): FaceRef("v"), ("e", 1, 1): FaceRef("ghost")},
        "v",
    )
    assert any("ghost" in v.detail for v in validate(K2))

    # degeneracy word out of normal form
    K3 = CubicalSet(
        {"v": 0, "e": 1, "S": 2},
        {
            ("e", 1, 0): FaceRef("v"),
            ("e", 1, 1): FaceRef("v"),
            ("S", 1, 0): FaceRef("e"),
            ("S", 1, 1): FaceRef("e"),
            ("S", 2, 0): FaceRef("v", (1, 1)),
            ("S", 2, 1): FaceRef("e"),
        },
        "v",
    )
    assert any("not strictly decreasing" in v.detail for v in validate(K3))


def test_basepoint_must_be_a_vertex():
    with pytest.raises(ValueError):
        CubicalSet({"v": 0, "e": 1}, {("e", 1, 0): FaceRef("v"), ("e", 1, 1): FaceRef("v")}, "e")
    with pytest.raises(ValueError):
        CubicalSet({"v": 0}, {}, "missing")


def test_tensor_product_shape():
    T = torus_complex()
    dims = sorted(T.cubes.values())
    assert dims == [0, 1, 1, 2]
    assert T.basepoint == "(v|v)"
    assert validate(T) == []


def test_quotient_collapse_checks_closure():
    K = interval_complex()
    with pytest.raises(ValueError):
        quotient_collapse(K, ["e"])  # endpoints missing
    Q = quotient_collapse(K, ["a", "b", "e"])
    assert Q.cubes == {"*": 0}


def test_quotient_collapse_avoids_name_collision():
    K = CubicalSet(
        {"*": 0, "v": 0, "e": 1},
        {("e", 1, 0): FaceRef("v"), ("e", 1, 1): FaceRef("v")},
        "*",
    )
    Q = quotient_collapse(K, ["v", "e"])
    assert Q.basepoint == "*'"
    assert "*" in Q.cubes


def test_suspension_model_of_circle_counts():
    S = suspension_model(circle_complex())
    by_dim: dict[int, int] = {}
    for d in S.complex.cubes.values():
        by_dim[d] = by_dim.get(d, 0) + 1
    assert by_dim == {0: 1, 1: 1, 2: 2}
    assert S.lower & S.upper == frozenset({S.star, "(mid|e)"})


def test_normalize_point_on_interval():
    K = interval_complex()
    assert normalize_point(K, "e", (F(0),)) == RealizationPoint("a", ())
    assert normalize_point(K, "e", (F(1),)) == RealizationPoint("b", ())
    p = normalize_point(K, "e", (F(1, 2),))
    assert p == RealizationPoint("e", (F(1, 2),))


def test_normalize_point_through_degeneracies():
    S = suspension_model(circle_complex())
    K = S.complex
    sq = "(lo|e)"
    assert normalize_point(K, sq, (F(1, 2), F(0))) == RealizationPoint(S.star, ())
    assert normalize_point(K, sq, (F(0), F(1, 2))) == RealizationPoint(S.star, ())
    assert normalize_point(K, sq, (F(1), F(1, 2))) == RealizationPoint("(mid|e)", (F(1, 2),))


def test_normalize_point_input_checks():
    K = interval_complex()
    with pytest.raises(ValueError):
        normalize_point(K, "nope", ())
    with pytest.raises(ValueError):
        normalize_point(K, "e", ())
    with pytest.raises(ValueError):
        normalize_point(K, "e", (F(3, 2),))


coord = st.sampled_from([F(0), F(1, 4), F(1, 2), F(3, 4), F(1)])


@given(st.tuples(coord, coord))
def test_normalize_point_order_independent_on_torus(coords):
    K = torus_complex()
    direct = normalize_point(K, "(e|e)", coords)
    # strip the *last* boundary slot first, then let normalize finish
    hit = max((i for i, c in enumerate(coords) if c in (0, 1)), default=None)
    if hit is None:
        assert direct == RealizationPoint("(e|e)", coords)
        return
    ref = K.faces[("(e|e)", hit + 1, 0 if coords[hit] == 0 else 1)]
    rest = coords[:hit] + coords[hit + 1:]
    for j in ref.degens:
        rest = rest[: j - 1] + rest[j:]
    assert normalize_point(K, ref.base, rest) == direct


@given(st.tuples(coord, coord))
def test_normalize_point_idempotent(coords):
    S = suspension_model(circle_complex())
    p = normalize_point(S.complex, "(hi|e)", coords)
    assert normalize_point(S.complex, p.cube, p.coords) == p


def test_snap_coordinate_breakpoints():
    assert snap_coordinate(F(1, 3)) == 0
    assert snap_coordinate(F(1, 4)) == 0
    assert snap_coordinate(F(2, 3)) == 1
    assert snap_coordinate(F(3, 4)) == 1
    assert snap_coordinate(F(1, 2)) == F(1, 2)
    assert snap_coordinate(F(5, 12)) == F(1, 4)
    assert snap_coordinate(F(7, 12)) == F(3, 4)


def _snap_by_formula(s):
    # the retraction as first written, on Fraction arithmetic
    if s <= F(1, 3):
        return F(0)
    if s >= F(2, 3):
        return F(1)
    return 3 * (s - F(1, 2)) + F(1, 2)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.fractions(0, 1), st.sampled_from([F(0), F(1), F(1, 3), F(2, 3)])))
def test_snap_coordinate_matches_the_formula(s):
    got = snap_coordinate(s)
    assert type(got) is Fraction
    assert got == _snap_by_formula(s)
    assert snap_thirds(s.numerator, s.denominator) == got
    # the ends are the shared constants, also on unreduced integers
    assert snap_thirds(7 * s.numerator, 7 * s.denominator) == got
    if got == 0 or got == 1:
        assert got is (ZERO if got == 0 else ONE)


def test_snap_coordinate_of_other_number_types():
    assert snap_coordinate(0) is ZERO
    assert snap_coordinate(1) is ONE
    assert snap_coordinate("1/2") == F(1, 2)
    assert type(snap_coordinate(0.5)) is Fraction


def test_boundary_snap_and_collar():
    K = interval_complex()
    p = RealizationPoint("e", (F(1, 4),))
    assert boundary_snap(K, p) == RealizationPoint("a", ())
    assert in_collar(K, p, {"a"})
    assert not in_collar(K, RealizationPoint("e", (F(1, 2),)), {"a"})
    assert in_collar(K, RealizationPoint("e", (F(5, 6),)), {"b"})


def test_two_component_complex_is_well_formed():
    assert validate(two_component_complex()) == []


def test_repr_counts_cubes_by_dimension():
    assert repr(torus_complex()) == "CubicalSet(1,2,1; basepoint='(v|v)')"
    assert repr(CubicalSet({"p": 0}, {}, "p")) == "CubicalSet(1; basepoint='p')"


# ----------------------------------------------------------------------
# partially degenerate faces: products with the suspended circle, whose
# collapsed slices make totally degenerate faces that a product extends
# by a plain block


def _suspended_circle():
    return suspension_model(circle_complex()).complex


def test_apply_face_past_a_smaller_degeneracy():
    P = tensor_product(_suspended_circle(), interval_complex())
    # face 2 of the collapsed column over e passes the degeneracy at 1 and
    # lands on the stored face 1 of '(*|e)', which the word then degenerates
    assert apply_face(P, FaceRef("(*|e)", (1,)), 2, 0) == FaceRef("(*|a)", (1,))
    assert apply_face(P, FaceRef("(*|e)", (1,)), 2, 1) == FaceRef("(*|b)", (1,))


@pytest.mark.parametrize(
    "make_b, dims",
    [
        (interval_complex, (1, 0, 1, 0)),
        (circle_complex, (1, 1, 1, 1)),
        (_suspended_circle, (1, 0, 2, 0, 1)),
    ],
)
@pytest.mark.parametrize("field", [RATIONALS, FieldSpec(2)])
def test_products_with_the_suspended_circle(make_b, dims, field):
    # Kunneth: the suspended circle is a 2-sphere
    S, B = _suspended_circle(), make_b()
    for P in (tensor_product(S, B), tensor_product(B, S)):
        assert validate(P) == []
        assert betti(P, field).as_tuple() == dims


def test_missing_face_under_a_degenerate_face_is_one_defect():
    P = tensor_product(_suspended_circle(), interval_complex())
    faces = dict(P.faces)
    del faces[("(*|e)", 1, 0)]
    broken = CubicalSet(P.cubes, faces, P.basepoint)
    # the cubes whose degenerate faces need the missing one compare a hole
    # there, which is no relation defect of theirs
    assert validate(broken) == [Violation("structure", "(*|e)", "missing face d0_1")]


def test_relations_read_the_present_faces_of_a_degenerate_face():
    # d1_1 of '(*|e)' is bad and d0_1 missing.  The plain face '(*|e)' of
    # '((mid|e)|e)' contributes no faces, so none of its relations is
    # compared; the degenerate faces of '((hi|e)|e)' and '((lo|e)|e)' that
    # pass through '(*|e)' still read its present faces, and the bad one
    # shows up in their relations
    P = tensor_product(_suspended_circle(), interval_complex())
    faces = dict(P.faces)
    del faces[("(*|e)", 1, 0)]
    faces[("(*|e)", 1, 1)] = FaceRef("(*|a)")
    broken = CubicalSet(P.cubes, faces, P.basepoint)
    assert [(v.kind, v.cube, v.indices) for v in validate(broken)] == [
        ("structure", "(*|e)", ()),
        ("relation", "((hi|e)|e)", (1, 3, 1, 1)),
        ("relation", "((hi|e)|e)", (2, 3, 0, 1)),
        ("relation", "((hi|e)|e)", (2, 3, 1, 1)),
        ("relation", "((lo|e)|e)", (1, 3, 0, 1)),
        ("relation", "((lo|e)|e)", (2, 3, 0, 1)),
        ("relation", "((lo|e)|e)", (2, 3, 1, 1)),
    ]
    assert validate(broken)[1].detail == "face d1_1 of d1_3 and face d1_2 of d1_1 disagree"


# ----------------------------------------------------------------------
# the interchange relations against their definition


def _well_formed(K, ref, expect):
    base_dim = K.cubes.get(ref.base)
    word = ref.degens
    return (
        base_dim is not None
        and all(a > b for a, b in zip(word, word[1:]))
        and all(j >= 1 for j in word)
        and base_dim + len(word) == expect
        and all(j <= base_dim + p + 1 for p, j in enumerate(reversed(word)))
    )


def _reference_relations(K):
    # every relation (i < j, eps, eta) of every cube whose faces are all
    # present and well formed, as face i of face j against face j - 1 of
    # face i; one that needs a missing face is skipped.  validate skips
    # every face of a plain face whose cube misses one; after one edit no
    # such cube has a face that disagrees, so the two rules agree here
    out = []
    for name in sorted(K.cubes):
        n = K.cubes[name]
        keys = [(name, i, eps) for i in range(1, n + 1) for eps in (0, 1)]
        if not all(k in K.faces and _well_formed(K, K.faces[k], n - 1) for k in keys):
            continue
        c = FaceRef(name)
        for j in range(2, n + 1):
            for i in range(1, j):
                for eps in (0, 1):
                    for eta in (0, 1):
                        try:
                            one = apply_face(K, apply_face(K, c, j, eta), i, eps)
                            two = apply_face(K, apply_face(K, c, i, eps), j - 1, eta)
                        except KeyError:
                            continue
                        if one != two:
                            detail = f"face d{eps}_{i} of d{eta}_{j} and face d{eta}_{j - 1} of d{eps}_{i} disagree"
                            out.append(Violation("relation", name, detail, (i, j, eps, eta)))
    return out


def _relations(K):
    return [v for v in validate(K) if v.kind == "relation"]


_RELATION_BASES = {
    "interval": interval_complex,
    "circle": circle_complex,
    "wedge3": lambda: wedge_of_circles(3),
    "torus": torus_complex,
    "two-component": two_component_complex,
    "cube3": lambda: tensor_product(tensor_product(interval_complex(), interval_complex()), interval_complex()),
    "sus-circle": lambda: suspension_model(circle_complex()).complex,
    "sus-wedge2": lambda: suspension_model(wedge_of_circles(2)).complex,
    "sus-torus": lambda: suspension_model(torus_complex()).complex,
    "sus-sus-circle": lambda: suspension_model(suspension_model(circle_complex()).complex).complex,
    "sus-circle*interval": lambda: tensor_product(suspension_model(circle_complex()).complex, interval_complex()),
}


@pytest.mark.parametrize("which", sorted(_RELATION_BASES))
def test_relations_match_their_definition_on_stock_complexes(which):
    K = _RELATION_BASES[which]()
    assert _relations(K) == _reference_relations(K) == []


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_RELATION_BASES)), st.data())
def test_relations_match_their_definition_after_one_face_edit(which, data):
    # one face replaced, mostly by a face of the right dimension, or removed
    K = _RELATION_BASES[which]()
    key = data.draw(st.sampled_from(sorted(K.faces)))
    n = K.cubes[key[0]]
    fits = [FaceRef(b) for b, d in K.cubes.items() if d == n - 1]
    fits += [FaceRef(b, (j,)) for b, d in K.cubes.items() if d == n - 2 for j in range(1, n)]
    odd = [FaceRef("ghost"), FaceRef(K.basepoint, (1, 1)), FaceRef(K.basepoint, (0,))]
    faces = dict(K.faces)
    choice = data.draw(st.sampled_from(["fit", "fit", "fit", "odd", "remove"]))
    if choice == "remove":
        del faces[key]
    else:
        faces[key] = data.draw(st.sampled_from(sorted(fits) or odd if choice == "fit" else odd))
    broken = CubicalSet(K.cubes, faces, K.basepoint)
    assert _relations(broken) == _reference_relations(broken)


# ----------------------------------------------------------------------
# strip_boundary against its definition, on every input representation


def _strip_by_definition(K, cube, tuples):
    # strip the first slot where all tuples hold the same 0 or 1, comparing
    # Fractions as numbers, until no such slot is left
    ts = [tuple(Fraction(c) for c in cs) for cs in tuples]
    if any(len(cs) != K.cubes[cube] or not all(0 <= c <= 1 for c in cs) for cs in ts):
        return "rejected"
    while True:
        slots = [
            i for i, c in enumerate(ts[0]) if c in (0, 1) and all(cs[i] == c for cs in ts)
        ]
        if not slots:
            return cube, tuple(ts)
        i = slots[0]
        ref = K.faces[(cube, i + 1, int(ts[0][i]))]
        stripped = []
        for cs in ts:
            rest = list(cs[:i] + cs[i + 1:])
            for j in ref.degens:
                del rest[j - 1]
            stripped.append(tuple(rest))
        ts, cube = stripped, ref.base


def _represent(kind, x):
    if kind == "int" and x.denominator == 1:
        return int(x)
    return str(x) if kind == "str" else x


_STRIP_BASES = {
    "cube3": lambda: tensor_product(tensor_product(interval_complex(), interval_complex()), interval_complex()),
    "torus": torus_complex,
    "suspended_circle": lambda: suspension_model(circle_complex()).complex,
}
_strip_value = st.sampled_from([F(0), F(1), F(0), F(1), F(1, 4), F(1, 2), F(2, 3), F(-1, 2), F(3, 2)])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_STRIP_BASES)), st.data())
def test_strip_boundary_matches_definition_on_any_representation(which, data):
    K = _STRIP_BASES[which]()
    cube = data.draw(st.sampled_from(sorted(c for c, d in K.cubes.items() if d > 0)))
    n = K.cubes[cube]
    first = data.draw(st.lists(_strip_value, min_size=n, max_size=n))
    # the second tuple often repeats a slot of the first, as path ends do
    second = [
        c if data.draw(st.booleans()) else data.draw(_strip_value) for c in first
    ]
    for tuples in ([first], [first, second]):
        want = _strip_by_definition(K, cube, tuples)
        for kind in ("fraction", "int", "str"):
            given_tuples = [tuple(_represent(kind, c) for c in cs) for cs in tuples]
            try:
                got = strip_boundary(K, cube, given_tuples)
            except ValueError:
                got = "rejected"
            assert got == want, kind
            if got != "rejected":
                assert all(type(c) is Fraction for cs in got[1] for c in cs)

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from dirloop.corpus import (
    circle_complex,
    interval_complex,
    point_complex,
    torus_complex,
    two_component_complex,
    wedge_of_circles,
)
from dirloop.cubical import CubicalSet, FaceRef, suspension_model, tensor_product, validate
from dirloop.homology import (
    MAX_CHARACTERISTIC,
    FieldSpec,
    GradedDims,
    RATIONALS,
    betti,
    chain_complex,
    rank,
)


def test_field_spec_parse():
    assert FieldSpec.parse("q") == FieldSpec(0)
    assert FieldSpec.parse("Q") == FieldSpec(0)
    assert FieldSpec.parse("zp:7") == FieldSpec(7)
    # primes far past trial division parse at once
    assert FieldSpec.parse("zp:1000000000000000003") == FieldSpec(1000000000000000003)
    assert FieldSpec.parse("zp:2") == FieldSpec(2)
    assert FieldSpec.parse(f"zp:{2**61 - 1}").characteristic == 2**61 - 1
    # 561 is a Carmichael number, 10^18 + 1 = 101 * 9901 * 999999000001, and
    # 318665857834031151167461 is a strong pseudoprime to every prime base up to 37
    bad_specs = ("zp:4", "zp:1", "zp:x", "real", "", "zp:561", "zp:1000000000000000001", "zp:0")
    beyond = ("zp:318665857834031151167461", f"zp:{MAX_CHARACTERISTIC}", f"zp:{2**89 - 1}", "zp:-7")
    for bad in bad_specs + beyond:
        with pytest.raises(ValueError):
            FieldSpec.parse(bad)
    # zp:0 names no prime field, though characteristic 0 is the rationals
    with pytest.raises(ValueError, match="bad field spec 'zp:0'"):
        FieldSpec.parse("zp:0")
    assert FieldSpec(0) == FieldSpec() == FieldSpec.parse("q")


def columns(matrix: list[list[int]]) -> list[dict[int, int]]:
    """Sparse columns of a dense row-major integer matrix."""
    width = len(matrix[0]) if matrix else 0
    return [{i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(width)]


def dense_rank(matrix: list[list[int]], p: int) -> int:
    """Textbook row reduction over Q (p = 0, with Fractions) or mod p."""
    rows = [[Fraction(x) if p == 0 else x % p for x in row] for row in matrix]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c] if p == 0 else pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv if p == 0 else x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if p == 0 else (x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def test_rank_small_matrices():
    assert rank([]) == 0
    assert rank(columns([[0, 0], [0, 0]])) == 0
    assert rank([{}, {}]) == 0
    assert rank(columns([[1, 2], [2, 4]])) == 1
    assert rank(columns([[1, 2], [3, 4]])) == 2
    # rank drops mod 2
    m = columns([[2, 0], [0, 1]])
    assert m == [{0: 2}, {1: 1}]
    assert rank(m, RATIONALS) == 2
    assert rank(m, FieldSpec(2)) == 1


@given(
    st.integers(1, 7).flatmap(
        lambda w: st.lists(st.lists(st.integers(-6, 6), min_size=w, max_size=w), max_size=7)
    ),
    st.sampled_from([0, 2, 3]),
)
def test_rank_matches_dense_elimination(matrix, p):
    field = FieldSpec(p)
    assert rank(columns(matrix), field) == dense_rank(matrix, p)
    # the column order does not change the rank
    assert rank(columns(matrix)[::-1], field) == dense_rank(matrix, p)


def test_rank_fraction_free_update():
    # the pivot 15 does not divide the entry 6 below it, so the
    # fraction-free update runs; the result must still be exact
    m = [[6, 10, 15, 1], [10, 15, 6, 2], [15, 6, 10, 3]]
    assert rank(columns(m)) == dense_rank(m, 0) == 3
    assert rank(columns(m), FieldSpec(5)) == dense_rank(m, 5)


def test_betti_stock_complexes():
    assert betti(point_complex()).as_tuple() == (1,)
    assert betti(interval_complex()).as_tuple() == (1, 0)
    assert betti(circle_complex()).as_tuple() == (1, 1)
    assert betti(wedge_of_circles(2)).as_tuple() == (1, 2)
    assert betti(torus_complex()).as_tuple() == (1, 2, 1)
    assert betti(two_component_complex()).as_tuple() == (2, 2)


def test_betti_suspensions():
    assert betti(suspension_model(circle_complex()).complex).as_tuple() == (1, 0, 1)
    assert betti(suspension_model(wedge_of_circles(2)).complex).as_tuple() == (1, 0, 2)
    assert betti(suspension_model(torus_complex()).complex).as_tuple() == (1, 0, 2, 1)


def pinched_square() -> CubicalSet:
    # one loop edge, one square glued along it twice with degenerate sides;
    # its middle homology depends on the characteristic
    return CubicalSet(
        {"v": 0, "e": 1, "Q": 2},
        {
            ("e", 1, 0): FaceRef("v"),
            ("e", 1, 1): FaceRef("v"),
            ("Q", 1, 0): FaceRef("e"),
            ("Q", 1, 1): FaceRef("v", (1,)),
            ("Q", 2, 0): FaceRef("v", (1,)),
            ("Q", 2, 1): FaceRef("e"),
        },
        "v",
    )


def test_betti_depends_on_characteristic():
    K = pinched_square()
    assert validate(K) == []
    assert betti(K).as_tuple() == (1, 0, 0)
    assert betti(K, FieldSpec(2)).as_tuple() == (1, 1, 1)
    assert betti(K, FieldSpec(3)).as_tuple() == (1, 0, 0)


def test_chain_complex_drops_degenerate_faces():
    cc = chain_complex(pinched_square())
    # boundary of the square is -2 times the loop edge
    assert cc.boundary[2] == [{0: -2}]
    # the loop edge has boundary v - v, an empty column
    assert cc.boundary[1] == [{}]


def broken_square() -> CubicalSet:
    """A square whose sides do not meet: ``validate`` rejects its relations."""
    return CubicalSet(
        {"a": 0, "b": 0, "e": 1, "g": 1, "Q": 2},
        {
            ("e", 1, 0): FaceRef("a"),
            ("e", 1, 1): FaceRef("b"),
            ("g", 1, 0): FaceRef("a"),
            ("g", 1, 1): FaceRef("a"),
            ("Q", 1, 0): FaceRef("e"),
            ("Q", 1, 1): FaceRef("g"),
            ("Q", 2, 0): FaceRef("g"),
            ("Q", 2, 1): FaceRef("g"),
        },
        "a",
    )


def test_chain_complex_rejects_non_complex():
    K = broken_square()
    assert any(v.kind == "relation" for v in validate(K))
    with pytest.raises(ValueError, match="square to zero at dimension 2.*'Q'"):
        chain_complex(K)


def test_graded_dims_helpers():
    g = GradedDims({0: 2, 1: 3, 2: 0}, 2)
    assert g.get(5) == 0
    assert g.nonzero() == [(0, 2), (1, 3)]
    assert g.reduced().as_tuple() == (1, 3, 0)
    assert g.reduced().reduced().get(0) == 0


def test_truncation_extends_with_zeros():
    g = betti(circle_complex(), truncation=4)
    assert g.as_tuple() == (1, 1, 0, 0, 0)


def cube_power(n: int) -> CubicalSet:
    return reduce(tensor_product, [interval_complex()] * n)


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("field", [RATIONALS, FieldSpec(3)])
def test_cube_powers_are_acyclic(n, field):
    K = cube_power(n)
    assert len(K.cubes) == 3**n
    assert betti(K, field).as_tuple() == (1,) + (0,) * n


CORPUS = [
    point_complex,
    interval_complex,
    circle_complex,
    lambda: wedge_of_circles(3),
    torus_complex,
    two_component_complex,
    pinched_square,
]

FIELDS = [RATIONALS, FieldSpec(2), FieldSpec(3), FieldSpec(5)]


def poincare(K: CubicalSet, field: FieldSpec) -> list[int]:
    return list(betti(K, field).as_tuple())


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@given(st.sampled_from(CORPUS), st.sampled_from(CORPUS), st.sampled_from(FIELDS))
def test_kunneth_for_tensor_products(make_a, make_b, field):
    A, B = make_a(), make_b()
    assert poincare(tensor_product(A, B), field) == poly_mul(poincare(A, field), poincare(B, field))


def products_and_suspensions():
    out = []
    for make_a in CORPUS:
        out.append(lambda make_a=make_a: suspension_model(make_a()).complex)
        for make_b in CORPUS:
            out.append(lambda make_a=make_a, make_b=make_b: tensor_product(make_a(), make_b()))
    out.append(lambda: suspension_model(tensor_product(torus_complex(), pinched_square())).complex)
    return out


@given(st.sampled_from(CORPUS + products_and_suspensions()), st.sampled_from(FIELDS))
def test_suspension_shifts_reduced_homology(make, field):
    K = make()
    top = K.top_dim + 1
    shifted = betti(suspension_model(K).complex, field, top).reduced().as_tuple()
    assert shifted == (0,) + betti(K, field, top - 1).reduced().as_tuple()


@given(st.sampled_from(CORPUS + products_and_suspensions()), st.sampled_from(FIELDS))
def test_euler_characteristic_matches_cube_counts(make, field):
    K = make()
    counts = {}
    for d in K.cubes.values():
        counts[d] = counts.get(d, 0) + 1
    chi_cells = sum((-1) ** k * n for k, n in counts.items())
    b = betti(K, field)
    chi_homology = sum((-1) ** k * b.get(k) for k in range(K.top_dim + 1))
    assert chi_cells == chi_homology

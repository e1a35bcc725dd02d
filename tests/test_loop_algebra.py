import pytest
from hypothesis import given, strategies as st

from dirloop.corpus import circle_complex, torus_complex, two_component_complex, wedge_of_circles
from dirloop.homology import FieldSpec, GradedDims
from dirloop.loop_algebra import (
    HilbertSeries,
    count_words_by_enumeration,
    loop_space_homology,
    tensor_algebra_dims,
    verify_tensor_characterization,
)


def test_enumeration_oracle_hand_counts():
    assert count_words_by_enumeration([1], 3) == 1
    assert count_words_by_enumeration([1, 1], 2) == 4
    assert count_words_by_enumeration([1, 2], 3) == 3
    assert count_words_by_enumeration([2], 3) == 0
    assert count_words_by_enumeration([2], 0) == 1
    with pytest.raises(ValueError):
        count_words_by_enumeration([0], 1)


@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=4),
    st.integers(min_value=0, max_value=7),
)
def test_recurrence_matches_enumeration(degrees, total):
    counts: dict[int, int] = {}
    for d in degrees:
        counts[d] = counts.get(d, 0) + 1
    V = GradedDims(counts, max(counts, default=0))
    series = tensor_algebra_dims(V, total)
    assert series.get(total) == count_words_by_enumeration(degrees, total)


def _per_degree_convolution(generators, truncation):
    # every degree j <= k in turn, generators or not
    coeffs = [1]
    for k in range(1, truncation + 1):
        coeffs.append(sum(generators.get(j) * coeffs[k - j] for j in range(1, k + 1)))
    return tuple(coeffs)


@given(
    st.dictionaries(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2), max_size=4),
    st.integers(min_value=0, max_value=16),
)
def test_dims_match_the_per_degree_convolution_and_word_counts(counts, truncation):
    # generators in several degrees, gaps between them, and degrees listed
    # with no generator at all
    V = GradedDims(counts, max(counts, default=0))
    series = tensor_algebra_dims(V, truncation)
    assert series.coefficients == _per_degree_convolution(V, truncation)
    degrees = [d for d, n in counts.items() for _ in range(n)]
    for k in range(min(truncation, 9) + 1):
        assert series.get(k) == count_words_by_enumeration(degrees, k)


def test_series_frozen_values():
    # expected numbers computed with count_words_by_enumeration
    one_loop = tensor_algebra_dims(GradedDims({1: 1}, 1), 5)
    assert one_loop.coefficients == (1, 1, 1, 1, 1, 1)
    torus_like = tensor_algebra_dims(GradedDims({1: 2, 2: 1}, 2), 5)
    assert torus_like.coefficients == (1, 2, 5, 12, 29, 70)


def test_degree_zero_generators_rejected():
    with pytest.raises(ValueError):
        tensor_algebra_dims(GradedDims({0: 1, 1: 1}, 1), 3)


def test_hilbert_series_constraints():
    with pytest.raises(ValueError):
        HilbertSeries((2, 1))
    with pytest.raises(ValueError):
        HilbertSeries(())
    with pytest.raises(ValueError):
        HilbertSeries((1, -1))
    s = HilbertSeries((1, 3))
    assert s.get(1) == 3 and s.get(9) == 0


def test_verify_tensor_characterization():
    V = GradedDims({1: 2, 2: 1}, 2)
    good = tensor_algebra_dims(V, 5)
    assert verify_tensor_characterization(good, V)
    tampered = HilbertSeries(good.coefficients[:-1] + (good.coefficients[-1] + 1,))
    assert not verify_tensor_characterization(tampered, V)
    assert not verify_tensor_characterization(good, GradedDims({0: 1}, 0))


def test_loop_space_homology_stock_bases():
    assert loop_space_homology(circle_complex(), truncation=4).coefficients == (1, 1, 1, 1, 1)
    assert loop_space_homology(wedge_of_circles(2), truncation=4).coefficients == (1, 2, 4, 8, 16)
    assert loop_space_homology(torus_complex(), truncation=5).coefficients == (1, 2, 5, 12, 29, 70)


def test_loop_space_homology_mod_p_agrees_here():
    # these bases have torsion free homology, so the series is field independent
    for base in (circle_complex(), torus_complex()):
        assert (
            loop_space_homology(base, FieldSpec(2), truncation=4).coefficients
            == loop_space_homology(base, truncation=4).coefficients
        )


def test_loop_space_homology_requires_connected_base():
    with pytest.raises(ValueError, match="connected"):
        loop_space_homology(two_component_complex())

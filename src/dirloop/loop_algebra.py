"""Hilbert series of based loop spaces of suspensions.

For a connected base, the loop space of its suspension has the homology of
the tensor algebra on the reduced homology of the base.  This module keeps
two independent ways to obtain the graded dimensions: an explicit word
enumeration (used as the oracle in the test suite) and the convolution
recurrence (used for real computation).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from .cubical import CubicalSet
from .homology import FieldSpec, GradedDims, RATIONALS, betti


@dataclass(frozen=True)
class HilbertSeries:
    """Graded dimension sequence, degree 0 upward, constant term 1."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coefficients or self.coefficients[0] != 1:
            raise ValueError("series must start with constant term 1")
        if any(c < 0 for c in self.coefficients):
            raise ValueError("series coefficients must be nonnegative")

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1

    def get(self, k: int) -> int:
        return self.coefficients[k] if 0 <= k <= self.truncation else 0


def count_words_by_enumeration(
    degrees: Sequence[int], total: int, max_length: int | None = None
) -> int:
    """Number of words in given generators whose degrees sum to ``total``.

    Plain depth first enumeration, deliberately free of the convolution
    recurrence so it can serve as an independent check of it.
    """
    if any(d <= 0 for d in degrees):
        raise ValueError("generator degrees must be positive")
    if total < 0:
        raise ValueError("total degree must be nonnegative")

    def go(remaining: int, length: int) -> int:
        if remaining == 0:
            return 1
        if max_length is not None and length >= max_length:
            return 0
        acc = 0
        for d in degrees:
            if d <= remaining:
                acc += go(remaining - d, length + 1)
        return acc

    return go(total, 0)


def tensor_algebra_coefficients(generators: GradedDims) -> Iterator[int]:
    """Graded dimensions of the free associative algebra on ``generators``,
    degree 0 upward, one at a time and without end.

    Convolution: each degree counts words, split off by their last letter.
    Only the degrees that hold generators are visited, and only the last
    coefficients that the recurrence reads are kept, so the work grows with
    the degree reached times the number of generator degrees.
    """
    if generators.get(0) > 0:
        raise ValueError("generators in degree 0 are not allowed")
    gens = [(j, n) for j, n in generators.nonzero() if j > 0]
    # the coefficients of the last ``top`` degrees, 0 below degree 0
    top = max([j for j, _ in gens], default=1)
    last = deque([0] * (top - 1) + [1], maxlen=top)
    yield 1
    while True:
        c = sum(n * last[-j] for j, n in gens)
        last.append(c)
        yield c


def tensor_algebra_dims(generators: GradedDims, truncation: int) -> HilbertSeries:
    """The first ``truncation + 1`` of :func:`tensor_algebra_coefficients`."""
    coeffs = tensor_algebra_coefficients(generators)
    return HilbertSeries(tuple(c for _, c in zip(range(max(truncation, 0) + 1), coeffs)))


def verify_tensor_characterization(series: HilbertSeries, generators: GradedDims) -> bool:
    """Check that ``series`` satisfies the tensor algebra recurrence."""
    if generators.get(0) > 0:
        return False
    for k in range(1, series.truncation + 1):
        expected = sum(generators.get(j) * series.get(k - j) for j in range(1, k + 1))
        if series.get(k) != expected:
            return False
    return True


def loop_space_homology(
    base: CubicalSet, field: FieldSpec = RATIONALS, truncation: int = 6
) -> HilbertSeries:
    """Hilbert series of the loop space of the suspension of ``base``.

    The base must be connected; the generators of the answer are the
    reduced homology classes of the base, in their own degrees.
    """
    return tensor_algebra_dims(loop_space_generators(base, field), truncation)


def loop_space_generators(base: CubicalSet, field: FieldSpec = RATIONALS) -> GradedDims:
    """The generators of :func:`loop_space_homology`: the reduced homology
    of a connected base, in its own degrees."""
    b = betti(base, field)
    if b.get(0) != 1:
        raise ValueError(
            f"base must be connected, found {b.get(0)} components over {field}"
        )
    return b.reduced()

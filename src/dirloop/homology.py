"""Homology of finitely presented cubical sets by sparse exact elimination.

Chains are taken in the normalized sense: degenerate faces contribute
nothing to the boundary.  Boundaries are stored as sparse integer columns,
one ``{row index: nonzero coefficient}`` dict per cube, because an n-cube
has at most 2n nondegenerate faces.  Coefficients live in the rationals or
in a prime field, selected by a :class:`FieldSpec`.  Ranks come from column
elimination on plain Python ints: modulo p over a prime field, and without
leaving the integers over the rationals, where a pivot that divides the
entry to clear is subtracted directly and any other update
``a*col - b*pivot`` is followed by division by the gcd of the column.
All arithmetic is exact; there is no floating point anywhere in the ranks.

The complex is taken as well formed: its presentation is checked by
:func:`dirloop.cubical.validate`, which loading a complex runs.  Only the
vanishing of the squared boundary is checked here, as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .cubical import CubicalSet

# Miller-Rabin with the first thirteen primes as bases is deterministic for
# every n below MAX_CHARACTERISTIC (Sorenson and Webster, 2015).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic primality test for ``p < MAX_CHARACTERISTIC``."""
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 for the rationals, else a prime.

    Primes are accepted up to ``MAX_CHARACTERISTIC`` (about 3.3e24), the
    range in which primality is decided exactly.
    """

    characteristic: int = 0

    def __post_init__(self) -> None:
        p = self.characteristic
        if p >= MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic {p} exceeds the supported bound {MAX_CHARACTERISTIC}")
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or a prime, got {p}")

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Accepts ``"q"`` for the rationals or ``"zp:<prime>"``."""
        t = text.strip().lower()
        if t == "q":
            return cls(0)
        if t.startswith("zp:"):
            try:
                p = int(t[3:])
            except ValueError:
                raise ValueError(f"bad field spec {text!r}") from None
            return cls(p)
        raise ValueError(f"bad field spec {text!r}; expected 'q' or 'zp:<prime>'")

    def __str__(self) -> str:
        return "q" if self.characteristic == 0 else f"zp:{self.characteristic}"


RATIONALS = FieldSpec(0)


def _content(col: dict[int, int]) -> dict[int, int]:
    """The column divided by the gcd of its entries."""
    g = gcd(*col.values())
    return col if g == 1 else {r: v // g for r, v in col.items()}


def _reduce_q(col: dict[int, int], pivots: dict[int, dict[int, int]]) -> None:
    """Reduction over the rationals of one integer column, in integers only."""
    while col:
        low = max(col)
        piv = pivots.get(low)
        if piv is None:
            pivots[low] = _content(col)
            return
        a, b = col[low], piv[low]
        if a % b:
            g = gcd(a, b)
            a, b = a // g, b // g
            col = {r: b * v for r, v in col.items()}
        else:
            a //= b
        for r, v in piv.items():
            w = col.get(r, 0) - a * v
            if w:
                col[r] = w
            else:
                del col[r]
        if col:
            col = _content(col)


def _reduce_mod(col: dict[int, int], pivots: dict[int, dict[int, int]], p: int) -> None:
    """Reduction of one column mod ``p``; stored pivots have leading entry 1."""
    while col:
        low = max(col)
        piv = pivots.get(low)
        if piv is None:
            inv = pow(col[low], -1, p)
            pivots[low] = {r: v * inv % p for r, v in col.items()}
            return
        a = col[low]
        for r, v in piv.items():
            w = (col.get(r, 0) - a * v) % p
            if w:
                col[r] = w
            else:
                del col[r]


def rank(columns: list[dict[int, int]], field: FieldSpec = RATIONALS) -> int:
    """Rank over ``field`` of an integer matrix given as sparse columns.

    Each column maps row indices to coefficients.  Columns are reduced left
    to right by their largest nonzero row; the rank is the number of
    distinct pivot rows left.
    """
    p = field.characteristic
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        if p:
            _reduce_mod({r: v % p for r, v in col.items() if v % p}, pivots, p)
        else:
            _reduce_q({r: v for r, v in col.items() if v}, pivots)
    return len(pivots)


@dataclass(frozen=True)
class ChainComplex:
    """Ordered cube bases per dimension and sparse integer boundaries.

    ``boundary[n]`` is a list with one column per n-cube, in the order of
    ``basis[n]``.  A column is a dict from row index (the position of an
    (n-1)-cube in ``basis[n - 1]``) to its nonzero integer coefficient.
    """

    basis: dict[int, list[str]]
    boundary: dict[int, list[dict[int, int]]]


def chain_complex(K: CubicalSet) -> ChainComplex:
    """Normalized chain complex of ``K`` with integer coefficients.

    The boundary of an n-cube alternates over coordinate directions, taking
    the start face minus the end face: one sign per slot of the cube's row.
    Faces carrying a degeneracy word are dropped, and each basis comes out
    of one sorted pass over the cubes.  ``K`` must be a complex that
    :func:`~dirloop.cubical.validate` accepts, as every loaded complex is.
    The squared boundary is checked to vanish, column by column, before
    returning: an oracle, and the one check a complex built in code gets
    here.
    """
    top = K.top_dim
    basis: dict[int, list[str]] = {n: [] for n in range(top + 1)}
    for c in sorted(K.cubes):
        basis[K.cubes[c]].append(c)
    signs = [-1, 1, 1, -1] * ((top + 1) // 2)  # by slot 2*(i-1)+eps: (-1)**i, negated at eps = 1
    boundary: dict[int, list[dict[int, int]]] = {}
    for n in range(1, top + 1):
        index = {c: i for i, c in enumerate(basis[n - 1])}
        columns = []
        for c in basis[n]:
            col: dict[int, int] = {}
            for face, s in zip(K.rows[c], signs):
                if not face[1]:
                    r = index[face[0]]
                    col[r] = col.get(r, 0) + s
            columns.append({r: v for r, v in col.items() if v})
        boundary[n] = columns
    for n in range(2, top + 1):
        lower = boundary[n - 1]
        for j, col in enumerate(boundary[n]):
            acc: dict[int, int] = {}
            for k, a in col.items():
                for r, b in lower[k].items():
                    acc[r] = acc.get(r, 0) + a * b
            if any(acc.values()):
                raise ValueError(
                    f"boundary does not square to zero at dimension {n} (cube {basis[n][j]!r})"
                )
    return ChainComplex(basis, boundary)


@dataclass(frozen=True)
class GradedDims:
    """Dimensions of a graded vector space up to a truncation degree."""

    dims: dict[int, int]
    truncation: int

    def get(self, k: int) -> int:
        return self.dims.get(k, 0)

    def nonzero(self) -> list[tuple[int, int]]:
        return [(k, d) for k, d in sorted(self.dims.items()) if d > 0]

    def reduced(self) -> "GradedDims":
        out = dict(self.dims)
        out[0] = max(out.get(0, 0) - 1, 0)
        return GradedDims(out, self.truncation)

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.get(k) for k in range(self.truncation + 1))


def betti(K: CubicalSet, field: FieldSpec = RATIONALS, truncation: int | None = None) -> GradedDims:
    """Homology dimensions of ``K`` over ``field`` in degrees 0..truncation."""
    cc = chain_complex(K)
    top = K.top_dim
    if truncation is None:
        truncation = top
    ranks = {n: rank(cc.boundary[n], field) for n in range(1, top + 1)}
    dims = {}
    for k in range(truncation + 1):
        n_k = len(cc.basis.get(k, []))
        dims[k] = n_k - ranks.get(k, 0) - ranks.get(k + 1, 0)
    return GradedDims(dims, truncation)

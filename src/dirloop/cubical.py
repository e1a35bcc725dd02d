"""Finitely presented cubical sets with exact rational realization points.

A complex stores its nondegenerate cubes only.  Every face assignment is a
``FaceRef``: a base cube together with a degeneracy word in normal form
(strictly decreasing indices).  Keeping the normal form everywhere makes
equality of iterated faces decidable, so the cubical interchange relations
can be checked mechanically and realization points can be pushed into a
canonical carrier cube by stripping boundary coordinates.

:func:`strip_boundary` is the one place that strips: it carries points
(:func:`normalize_point`) and the two ends of a path segment alike, and is
the only code that deletes slots named by a degeneracy word.

All coordinates are ``fractions.Fraction``; no floats enter the kernel.
Values that already are ``Fraction`` are used as they are (``as_fraction``),
and the [0, 1] and 0/1 tests of :func:`strip_boundary` read a value's
numerator and denominator, which a ``Fraction`` keeps in lowest terms with
a positive denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

ONE_THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)


class FormatError(ValueError):
    """Malformed input data, as opposed to a violated domain precondition."""


@dataclass(frozen=True)
class FaceRef:
    """A possibly degenerate cube: base cube plus a degeneracy word.

    The word lists collapsed coordinate slots of the carrier, strictly
    decreasing.  An empty word is a plain nondegenerate cube.
    """

    base: str
    degens: tuple[int, ...] = ()


@dataclass(frozen=True)
class Violation:
    """One defect found by :func:`validate`.

    ``kind`` is ``"structure"`` (missing or malformed data) or ``"relation"``
    (a face interchange identity fails).  For relation entries ``indices``
    holds ``(i, j, eps, eta)`` of the failing identity.
    """

    kind: str
    cube: str
    detail: str
    indices: tuple[int, ...] = ()


class CubicalSet:
    """A pointed cubical complex presented by nondegenerate cubes.

    ``cubes`` maps cube name to dimension; ``faces`` maps ``(name, i, eps)``
    with ``1 <= i <= dim`` and ``eps in (0, 1)`` to a :class:`FaceRef`.
    Instances are treated as immutable after construction.
    """

    def __init__(self, cubes: Mapping[str, int], faces: Mapping, basepoint: str):
        self.cubes = dict(cubes)
        self.faces = dict(faces)
        self.basepoint = basepoint
        if basepoint not in self.cubes:
            raise ValueError(f"basepoint {basepoint!r} is not a cube of the complex")
        if self.cubes[basepoint] != 0:
            raise ValueError("basepoint must be a vertex")
        for name, d in self.cubes.items():
            if not isinstance(name, str) or not name:
                raise ValueError("cube names must be nonempty strings")
            if d < 0:
                raise ValueError(f"cube {name!r} has negative dimension")

    def cubes_of_dim(self, n: int) -> list[str]:
        return sorted(c for c, d in self.cubes.items() if d == n)

    @property
    def top_dim(self) -> int:
        return max(self.cubes.values(), default=0)

    def __repr__(self) -> str:
        counts = {}
        for d in self.cubes.values():
            counts[d] = counts.get(d, 0) + 1
        shape = ",".join(f"{counts.get(k, 0)}" for k in range(self.top_dim + 1))
        return f"CubicalSet({shape}; basepoint={self.basepoint!r})"


def insert_degen(word: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Normal form of one more degeneracy applied outside ``word``.

    Uses the interchange rule: passing the new index inward past a larger
    or equal one bumps that index up by one.
    """
    out = []
    for pos, a in enumerate(word):
        if a >= j:
            out.append(a + 1)
        else:
            return tuple(out) + (j,) + word[pos:]
    return tuple(out) + (j,)


def compose_degens(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    """Normal form of the composite word ``outer`` after ``inner``."""
    word = inner
    for j in reversed(outer):
        word = insert_degen(word, j)
    return word


def apply_face(K: CubicalSet, ref: FaceRef, i: int, eps: int) -> FaceRef:
    """Face ``i`` (end ``eps``) of a possibly degenerate cube, normalized.

    The face index is pushed through the degeneracy word; if it meets a
    matching degeneracy the two cancel, otherwise the stored face of the
    base cube is substituted and the words are recombined.
    """
    out: list[int] = []
    word = ref.degens
    k = i
    for pos, j in enumerate(word):
        if k == j:
            return FaceRef(ref.base, tuple(out) + word[pos + 1:])
        if k > j:
            out.append(j)
            k -= 1
        else:
            out.append(j - 1)
    stored = K.faces[(ref.base, k, eps)]
    return FaceRef(stored.base, compose_degens(tuple(out), stored.degens))


def validate(K: CubicalSet) -> list[Violation]:
    """Check a presentation; empty report means the complex is well formed.

    Structural defects (dangling names, missing faces, words out of normal
    form, dimension mismatches) are reported separately from failures of the
    face interchange relations on cubes of dimension two and up.
    """
    report: list[Violation] = []

    def ref_ok(owner: str, ref: FaceRef, expect_dim: int) -> bool:
        ok = True
        if ref.base not in K.cubes:
            report.append(Violation("structure", owner, f"face base {ref.base!r} is not a cube"))
            return False
        if any(a <= b for a, b in zip(ref.degens, ref.degens[1:])) or any(
            j < 1 for j in ref.degens
        ):
            report.append(
                Violation("structure", owner, f"degeneracy word {ref.degens} is not strictly decreasing")
            )
            ok = False
        base_dim = K.cubes[ref.base]
        if base_dim + len(ref.degens) != expect_dim:
            report.append(
                Violation(
                    "structure",
                    owner,
                    f"face has dimension {base_dim + len(ref.degens)}, expected {expect_dim}",
                )
            )
            ok = False
        for p, j in enumerate(reversed(ref.degens)):
            if j > base_dim + p + 1:
                report.append(
                    Violation("structure", owner, f"degeneracy index {j} exceeds its bound")
                )
                ok = False
                break
        return ok

    clean = set()
    for name, n in sorted(K.cubes.items()):
        good = True
        for i in range(1, n + 1):
            for eps in (0, 1):
                ref = K.faces.get((name, i, eps))
                if ref is None:
                    report.append(Violation("structure", name, f"missing face ({i},{eps})"))
                    good = False
                    continue
                good = ref_ok(name, ref, n - 1) and good
        if good:
            clean.add(name)

    for (name, i, eps) in sorted(K.faces):
        if name not in K.cubes:
            report.append(Violation("structure", name, f"face entry for unknown cube ({i},{eps})"))
        elif not 1 <= i <= K.cubes[name]:
            report.append(Violation("structure", name, f"face index {i} out of range"))

    for name in sorted(clean):
        n = K.cubes[name]
        for j in range(2, n + 1):
            for i in range(1, j):
                for eps in (0, 1):
                    for eta in (0, 1):
                        try:
                            lhs = apply_face(K, K.faces[(name, j, eta)], i, eps)
                            rhs = apply_face(K, K.faces[(name, i, eps)], j - 1, eta)
                        except KeyError:
                            continue
                        if lhs != rhs:
                            report.append(
                                Violation(
                                    "relation",
                                    name,
                                    f"faces ({i},{eps}) of ({j},{eta}) and ({j - 1},{eta}) of ({i},{eps}) disagree",
                                    (i, j, eps, eta),
                                )
                            )
    return report


def is_face_closed(K: CubicalSet, names: Iterable[str]) -> bool:
    """True when every face of every listed cube has its base in the list."""
    sub = frozenset(names)
    for c in sub:
        for i in range(1, K.cubes[c] + 1):
            for eps in (0, 1):
                if K.faces[(c, i, eps)].base not in sub:
                    return False
    return True


def pair_name(a: str, b: str) -> str:
    return f"({a}|{b})"


def tensor_product(A: CubicalSet, B: CubicalSet) -> CubicalSet:
    """Product complex: nondegenerate cubes are pairs, coordinates concatenated.

    Faces in the first block keep their degeneracy words; faces in the second
    block shift their words past the first factor's coordinates.
    """
    cubes = {}
    faces = {}
    for a, da in A.cubes.items():
        for b, db in B.cubes.items():
            name = pair_name(a, b)
            cubes[name] = da + db
            for i in range(1, da + db + 1):
                for eps in (0, 1):
                    if i <= da:
                        r = A.faces[(a, i, eps)]
                        faces[(name, i, eps)] = FaceRef(pair_name(r.base, b), r.degens)
                    else:
                        r = B.faces[(b, i - da, eps)]
                        faces[(name, i, eps)] = FaceRef(
                            pair_name(a, r.base), tuple(da + j for j in r.degens)
                        )
    return CubicalSet(cubes, faces, pair_name(A.basepoint, B.basepoint))


def quotient_collapse(K: CubicalSet, collapse: Iterable[str], star_name: str = "*") -> CubicalSet:
    """Collapse a face-closed set of cubes to a single new basepoint vertex.

    Faces that used to land in the collapsed set become totally degenerate
    copies of the new vertex, which is the unique normal form in each
    dimension.
    """
    sub = frozenset(collapse)
    if not sub:
        raise ValueError("collapse target is empty")
    for c in sub:
        if c not in K.cubes:
            raise ValueError(f"collapse target names unknown cube {c!r}")
    if not is_face_closed(K, sub):
        raise ValueError("collapse target is not closed under faces")
    star = star_name
    survivors = set(K.cubes) - sub
    while star in survivors:
        star += "'"
    cubes = {star: 0}
    faces = {}
    for c, d in K.cubes.items():
        if c in sub:
            continue
        cubes[c] = d
        for i in range(1, d + 1):
            for eps in (0, 1):
                ref = K.faces[(c, i, eps)]
                if ref.base in sub:
                    faces[(c, i, eps)] = FaceRef(star, tuple(range(d - 1, 0, -1)))
                else:
                    faces[(c, i, eps)] = ref
    return CubicalSet(cubes, faces, star)


@dataclass(frozen=True)
class SuspensionModel:
    """Cubical model of a reduced suspension with its two half cones.

    ``lower`` carries the heights in [-1,0], ``upper`` the heights in [0,1];
    both contain the collapsed vertex ``star`` and overlap in the middle
    copy of the base complex.
    """

    complex: CubicalSet
    star: str
    lower: frozenset[str]
    upper: frozenset[str]


def height_interval_chain() -> CubicalSet:
    """Two edges glued end to end: the height axis [-1,1] with marked middle."""
    return CubicalSet(
        cubes={"bot": 0, "mid": 0, "top": 0, "lo": 1, "hi": 1},
        faces={
            ("lo", 1, 0): FaceRef("bot"),
            ("lo", 1, 1): FaceRef("mid"),
            ("hi", 1, 0): FaceRef("mid"),
            ("hi", 1, 1): FaceRef("top"),
        },
        basepoint="bot",
    )


def suspension_model(B: CubicalSet) -> SuspensionModel:
    """Suspension of a pointed complex as a quotient of a product.

    The height chain is crossed with the base; the column over the base
    vertex and the two extreme slices are collapsed to the new basepoint.
    """
    E = height_interval_chain()
    T = tensor_product(E, B)
    collapse = {pair_name(a, B.basepoint) for a in E.cubes}
    collapse |= {pair_name(v, b) for v in ("bot", "top") for b in B.cubes}
    K = quotient_collapse(T, collapse)
    lower = frozenset(
        c for c in K.cubes if c == K.basepoint or c.startswith(("(lo|", "(mid|", "(bot|"))
    )
    upper = frozenset(
        c for c in K.cubes if c == K.basepoint or c.startswith(("(hi|", "(mid|", "(top|"))
    )
    return SuspensionModel(K, K.basepoint, lower, upper)


@dataclass(frozen=True)
class RealizationPoint:
    """A point of the realization in canonical form.

    Canonical means: the carrier is nondegenerate and every coordinate is
    strictly between 0 and 1 (vertices have no coordinates at all).
    """

    cube: str
    coords: tuple[Fraction, ...]


def as_fraction(x) -> Fraction:
    """``x`` itself when it already is a ``Fraction``, else ``Fraction(x)``."""
    return x if type(x) is Fraction else Fraction(x)


def strip_boundary(K: CubicalSet, cube: str, tuples) -> tuple[str, tuple]:
    """Push coordinate tuples into the smallest carrier they share.

    A slot where every tuple holds the same 0 or 1 is stripped through the
    stored face; degeneracy words met on the way delete the matching slots.
    Returns the carrier and the stripped tuples.  For a well formed complex
    the outcome does not depend on the stripping order.
    """
    if cube not in K.cubes:
        raise ValueError(f"unknown cube {cube!r}")
    n = K.cubes[cube]
    ts = [tuple(map(as_fraction, cs)) for cs in tuples]
    for cs in ts:
        if len(cs) != n:
            raise ValueError(f"cube {cube!r} has dimension {n}, got {len(cs)} coordinates")
        for c in cs:
            # 0 <= c <= 1 on the integers: a denominator is always positive
            if c.numerator < 0 or c.numerator > c.denominator:
                raise ValueError("coordinates must lie in [0,1]")
    first = ts[0]
    while True:
        # in [0, 1] a coordinate is 0 or 1 exactly when its denominator is 1
        for hit, c in enumerate(first):
            if c.denominator == 1 and all(cs[hit] == c for cs in ts):
                break
        else:
            return cube, tuple(ts)
        ref = K.faces[(cube, hit + 1, c.numerator)]
        for k, cs in enumerate(ts):
            rest = cs[:hit] + cs[hit + 1:]
            for j in ref.degens:
                rest = rest[: j - 1] + rest[j:]
            ts[k] = rest
        cube, first = ref.base, ts[0]


def normalize_point(K: CubicalSet, cube: str, coords) -> RealizationPoint:
    """Push a coordinate tuple into its canonical carrier."""
    carrier, (cs,) = strip_boundary(K, cube, (coords,))
    return RealizationPoint(carrier, cs)


def snap_coordinate(s: Fraction) -> Fraction:
    """Retract one coordinate: the outer thirds land on the ends exactly."""
    s = Fraction(s)
    if s <= ONE_THIRD:
        return Fraction(0)
    if s >= TWO_THIRDS:
        return Fraction(1)
    return 3 * (s - Fraction(1, 2)) + Fraction(1, 2)


def boundary_snap(K: CubicalSet, p: RealizationPoint) -> RealizationPoint:
    """Apply the coordinate retraction and renormalize the carrier."""
    return normalize_point(K, p.cube, tuple(snap_coordinate(c) for c in p.coords))


def in_collar(K: CubicalSet, p: RealizationPoint, sub: Iterable[str]) -> bool:
    """Membership in the snap collar of a face-closed subcomplex.

    The collar is the preimage of the subcomplex under the snap retraction;
    it contains the subcomplex itself plus a margin of one third along each
    coordinate.
    """
    return boundary_snap(K, p).cube in frozenset(sub)

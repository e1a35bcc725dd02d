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

Each cube's faces sit in one row, in slot order ``2*(i-1)+eps``; the
parser builds the rows as it reads a document, a complex built in code gets
them from its ``faces`` mapping, and :func:`validate`, ``chain_complex`` and
:func:`strip_boundary` index them.  :func:`validate` is the one checker of
a presentation: structure (names, missing faces, normal form, dimensions,
degeneracy bounds) and the interchange relations, read off each row once.
Its lazy form :func:`iter_violations` lets ``serialize.load_complex`` stop
at the first violation; the work grows with the face entries present, never
with a declared dimension.  The relations of a cube are compared at once:
its grid of faces of faces is flattened into one tuple, and two
``operator.itemgetter`` objects, built once per cube dimension, pick the
two sides of every relation; only a cube where they differ is listed
relation by relation.  Code past the loader takes a complex as well
formed.

All coordinates are ``fractions.Fraction``; no floats enter the kernel.
Values that already are ``Fraction`` are used as they are (``as_fraction``),
and the [0, 1] and 0/1 tests of :func:`strip_boundary` read a value's
numerator and denominator, which a ``Fraction`` keeps in lowest terms with
a positive denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

# the ends of the coordinate retraction: shared, so a caller can tell a
# snapped end by identity
ZERO, ONE = Fraction(0), Fraction(1)


class FormatError(ValueError):
    """Malformed input data, as opposed to a violated domain precondition."""


class _Fields:
    """A value whose fields are its ``__slots__``, in order, shown by its
    ``repr``.

    The value classes are written out rather than made by ``dataclasses``,
    whose import (it loads ``inspect``) and per-class code generation
    would add to the start of every command.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join([f'{n}={getattr(self, n)!r}' for n in self.__slots__])})"


class _Frozen(_Fields):
    """A frozen record: assigning to or deleting a field raises
    ``AttributeError``.

    Records of one class compare and hash by their field values, read at
    C speed by one ``attrgetter`` per class: contraction compares frames.
    Unlike ``_Fields`` the base keeps an instance dict, where
    ``functools.cached_property`` stores its values.
    """

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls.__slots__, "__class__")  # a tuple, even for one field

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return self._key(self) == other._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")

    __delattr__ = __setattr__


class FaceRef(NamedTuple):
    """A possibly degenerate cube: base cube plus a degeneracy word.

    The word lists collapsed coordinate slots of the carrier, strictly
    decreasing.  An empty word is a plain nondegenerate cube.  Being a
    tuple, it compares and unpacks as ``(base, degens)`` at C speed.
    """

    base: str
    degens: tuple[int, ...] = ()


class Violation(_Frozen):
    """One defect found by :func:`validate`.

    ``kind`` is ``"structure"`` (missing or malformed data) or ``"relation"``
    (a face interchange identity fails).  For relation entries ``indices``
    holds ``(i, j, eps, eta)`` of the failing identity.
    """

    __slots__ = ("kind", "cube", "detail", "indices")

    def __init__(self, kind: str, cube: str, detail: str, indices: tuple[int, ...] = ()):
        _Frozen.__init__(self, kind, cube, detail, indices)


class CubicalSet:
    """A pointed cubical complex presented by nondegenerate cubes.

    ``cubes`` maps cube name to dimension; ``rows[name]`` holds the cube's
    faces (:class:`FaceRef`) in slot order ``2*(i-1)+eps``, the one face
    layout: a tuple when all ``2*dim`` are present, else a dict of those
    that are.  A complex built in code gives ``faces``, mapping
    ``(name, i, eps)`` to the same, and gets its rows from them; ``faces`` of
    a parsed complex (:meth:`from_rows`) is worked out from its rows when
    first read.  Instances are treated as immutable after construction.
    """

    def __init__(self, cubes: Mapping[str, int], faces: Mapping, basepoint: str):
        slots: dict = {name: {} for name in cubes}
        stray = {}  # the entries in no slot of a cube
        for (name, i, eps), ref in faces.items():
            if eps in (0, 1) and name in slots and 1 <= i <= cubes[name]:
                slots[name][2 * i - 2 + eps] = ref
            else:
                stray[name, i, eps] = ref
        rows = {
            c: tuple(map(own.__getitem__, range(len(own)))) if len(own) == 2 * cubes[c] else own
            for c, own in slots.items()
        }
        self._setup(dict(cubes), rows, stray, basepoint)

    @classmethod
    def from_rows(cls, cubes: dict, rows: dict, stray: dict, basepoint: str) -> "CubicalSet":
        """The complex with these rows; ``stray`` holds the entries in no slot."""
        K = cls.__new__(cls)
        K._setup(cubes, rows, stray, basepoint)
        return K

    def _setup(self, cubes: dict, rows: dict, stray: dict, basepoint: str) -> None:
        self.cubes, self.rows, self._stray, self.basepoint = cubes, rows, stray, basepoint
        if basepoint not in cubes:
            raise ValueError(f"basepoint {basepoint!r} is not a cube of the complex")
        if cubes[basepoint] != 0:
            raise ValueError("basepoint must be a vertex")
        for name, d in cubes.items():
            if not isinstance(name, str) or not name:
                raise ValueError("cube names must be nonempty strings")
            if d < 0:
                raise ValueError(f"cube {name!r} has negative dimension")

    @cached_property
    def faces(self) -> dict:
        faces = {
            (name, s // 2 + 1, s % 2): ref
            for name, row in self.rows.items()
            for s, ref in (row.items() if type(row) is dict else enumerate(row))
        }
        faces.update(self._stray)
        return faces

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


def face_key(i: int, eps: int) -> str:
    """The JSON key ``d<eps>_<i>`` of face ``i`` at end ``eps``."""
    return f"d{eps}_{i}"


def apply_face(K: CubicalSet, ref: FaceRef, i: int, eps: int) -> FaceRef:
    """Face ``i`` (end ``eps``) of a possibly degenerate cube, normalized.

    The face index is pushed through the degeneracy word; if it meets a
    matching degeneracy the two cancel, otherwise the stored face of the
    base cube is substituted and the words are recombined.  Face indices
    above a degeneracy drop by one as they pass it, so the faces of a
    partially degenerate cube, as in a product with a suspension, reach
    the stored faces of its base, read from its row.  A plain cube gets a
    ``FaceRef`` equal to its stored face; :func:`validate` reads those from
    the rows and calls this for degenerate faces only.
    """
    word = ref.degens
    out: list[int] = []
    k = i
    for pos, j in enumerate(word):
        if k == j:
            return FaceRef(ref.base, tuple(out) + word[pos + 1:])
        if k > j:
            out.append(j)
            k -= 1
        else:
            out.append(j - 1)
    stored = K.rows[ref.base][2 * k - 2 + eps]
    return FaceRef(stored.base, compose_degens(tuple(out), stored.degens))


def _ref_problems(cubes: Mapping[str, int], base: str, word: tuple, expect: int) -> Iterator[str]:
    """What is wrong with one face assignment of an ``expect + 1``-cube."""
    base_dim = cubes.get(base)
    if base_dim is None:
        yield f"references unknown cube {base!r}"
        return
    if any(a <= b for a, b in zip(word, word[1:])) or any(j < 1 for j in word):
        yield f"degeneracy word {word} is not strictly decreasing"
    if base_dim + len(word) != expect:
        yield f"has dimension {base_dim + len(word)}, expected {expect}"
    for p, j in enumerate(reversed(word)):
        if j > base_dim + p + 1:
            yield f"degeneracy index {j} exceeds its bound"
            break


_base, _word = itemgetter(0), itemgetter(1)


def _degenerate_faces(K: CubicalSet, ref: FaceRef, m: int, memo: dict) -> tuple:
    # the faces of a degenerate face by slot, None where one is missing;
    # each distinct (ref, m) is worked out once per memo
    key = (ref, m)
    if key not in memo:
        out = []
        for r in range(m):
            try:
                out.append(apply_face(K, ref, r // 2 + 1, r % 2))
            except KeyError:
                out.append(None)
        memo[key] = tuple(out)
    return memo[key]


@cache
def _relation_getters(m: int) -> tuple:
    """The two sides of every relation of a cube with ``m + 2`` faces, as
    getters of its flattened grid of ``m + 2`` rows of ``m``.

    Index data only, the same for every complex, so it is kept for the
    process: one entry per cube dimension met.
    """
    pairs = [(s * m + r, r * m + s - 2) for s in range(2, m + 2) for r in range(s & ~1)]
    return tuple(itemgetter(*side) for side in zip(*pairs))


def iter_violations(K: CubicalSet) -> Iterator[Violation]:
    """The defects :func:`validate` reports, one at a time and in its order.

    All structural defects come first, cube by cube in name order, then the
    face entries of no cube, then the relations.  The work grows with the
    face entries present, not with the declared dimensions: a cube missing
    faces is one violation naming the first missing key and the count of
    the others.  Each cube's faces are read from its row, the one face
    layout; only faces that are not a plain (n-1)-cube are checked one by
    one.  Relations are checked on cubes whose faces are all present and
    well formed.  A plain face whose cube misses faces contributes no faces
    at all, so every relation that reads one of its faces is skipped.  The
    faces of a degenerate face are worked out through ``apply_face``, and
    only those that reach a missing face are skipped: the relations that
    read its present faces are still compared.
    """
    cubes = K.cubes
    rows = K.rows
    full = rows  # the rows with no face missing
    clean = []
    for name in sorted(cubes):
        n = cubes[name]
        row = rows[name]
        if type(row) is tuple:
            # the usual case, every face a plain (n-1)-cube, without a loop
            if not any(map(_word, row)) and list(map(cubes.get, map(_base, row))).count(n - 1) == 2 * n:
                clean.append(name)
                continue
            good, present = True, enumerate(row)
        else:
            # the first gap lies within the len(row) + 1 first slots
            s = next(s for s in range(len(row) + 1) if s not in row)
            missing = 2 * n - len(row)
            more = f" and {missing - 1} more" if missing > 1 else ""
            yield Violation("structure", name, f"missing face {face_key(s // 2 + 1, s % 2)}{more}")
            if full is rows:
                full = {c: r for c, r in rows.items() if type(r) is tuple}
            good, present = False, sorted(row.items())
        for s, (base, word) in present:
            if word or cubes.get(base) != n - 1:
                for problem in _ref_problems(cubes, base, word, n - 1):
                    yield Violation("structure", name, f"face {face_key(s // 2 + 1, s % 2)} {problem}")
                    good = False
        if good:
            clean.append(name)

    for name, i, eps in sorted(K._stray, key=repr):
        where = f"exceeds dimension {cubes[name]}" if name in cubes else "belongs to no cube"
        yield Violation("structure", name, f"face {face_key(i, eps)} {where}")

    memo: dict = {}
    for name in clean:
        fs = rows[name]
        m = len(fs) - 2
        if m < 2:
            continue
        # grid[s] lists the faces of face s by slot.  Relation (i, j, eps, eta)
        # is grid[s][r] == grid[r][s - 2] with s = 2*(j-1)+eta and
        # r = 2*(i-1)+eps < s & ~1: a row of the grid against a column,
        # compared at once on the flattened grid
        holes = (None,) * m
        grid = [_degenerate_faces(K, f, m, memo) if f[1] else full.get(f[0], holes) for f in fs]
        rows_side, cols_side = _relation_getters(m)
        flat = tuple(chain.from_iterable(grid))
        if rows_side(flat) == cols_side(flat):
            continue
        cols = list(zip(*grid))
        for j, i, eps, eta in sorted(
            (s // 2 + 1, r // 2 + 1, r % 2, s % 2)
            for s in range(2, m + 2)
            for r, (x, y) in enumerate(zip(grid[s][: s & ~1], cols[s - 2]))
            if x != y and x is not None and y is not None
        ):
            one, two = face_key(i, eps), face_key(j, eta)
            detail = f"face {one} of {two} and face {face_key(j - 1, eta)} of {one} disagree"
            yield Violation("relation", name, detail, (i, j, eps, eta))


def validate(K: CubicalSet) -> list[Violation]:
    """Check a presentation; empty report means the complex is well formed.

    Structural defects (dangling names, missing faces, words out of normal
    form, dimension mismatches, degeneracy indices out of bound) are
    reported separately from failures of the face interchange relations on
    cubes of dimension two and up.  This is the one checker of a complex:
    ``serialize.load_complex`` stops at its first violation.
    """
    return list(iter_violations(K))


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
            for s, r in enumerate(A.rows[a]):
                faces[(name, s // 2 + 1, s % 2)] = FaceRef(pair_name(r.base, b), r.degens)
            for s, r in enumerate(B.rows[b]):
                faces[(name, da + s // 2 + 1, s % 2)] = FaceRef(
                    pair_name(a, r.base), tuple(da + j for j in r.degens)
                )
    return CubicalSet(cubes, faces, pair_name(A.basepoint, B.basepoint))


def quotient_collapse(K: CubicalSet, collapse: Iterable[str]) -> CubicalSet:
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
    if any(f.base not in sub for c in sub for f in K.rows[c]):
        raise ValueError("collapse target is not closed under faces")
    star = "*"
    survivors = set(K.cubes) - sub
    while star in survivors:
        star += "'"
    cubes = {star: 0}
    faces = {}
    for c, d in K.cubes.items():
        if c in sub:
            continue
        cubes[c] = d
        for s, ref in enumerate(K.rows[c]):
            if ref.base in sub:
                ref = FaceRef(star, tuple(range(d - 1, 0, -1)))
            faces[(c, s // 2 + 1, s % 2)] = ref
    return CubicalSet(cubes, faces, star)


class SuspensionModel(_Frozen):
    """Cubical model of a reduced suspension with its two half cones.

    ``lower`` carries the heights in [-1,0], ``upper`` the heights in [0,1];
    both contain the collapsed vertex ``star`` and overlap in the middle
    copy of the base complex.
    """

    __slots__ = ("complex", "star", "lower", "upper")

    def __init__(self, complex: CubicalSet, star: str, lower: frozenset[str], upper: frozenset[str]):
        _Frozen.__init__(self, complex, star, lower, upper)


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


class RealizationPoint(_Fields):
    """A point of the realization in canonical form.

    Canonical means: the carrier is nondegenerate and every coordinate is
    strictly between 0 and 1 (vertices have no coordinates at all).
    """

    __slots__ = ("cube", "coords")

    def __init__(self, cube: str, coords: tuple[Fraction, ...]):
        self.cube = cube
        self.coords = coords

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.cube, self.coords) == (other.cube, other.coords)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.cube, self.coords))


def as_fraction(x) -> Fraction:
    """``x`` itself when it already is a ``Fraction``, else ``Fraction(x)``."""
    return x if type(x) is Fraction else Fraction(x)


def _is_fraction_tuple(cs) -> bool:
    if type(cs) is not tuple:
        return False
    for c in cs:
        if type(c) is not Fraction:
            return False
    return True


def strip_boundary(K: CubicalSet, cube: str, tuples) -> tuple[str, tuple]:
    """Push coordinate tuples into the smallest carrier they share.

    A slot where every tuple holds the same 0 or 1 is stripped through the
    stored face; degeneracy words met on the way delete the matching slots.
    Returns the carrier and the stripped tuples.  For a well formed complex
    the outcome does not depend on the stripping order.  When nothing is
    stripped, a given tuple of ``Fraction`` values comes back as the very
    same object, not rebuilt.  Such a tuple passed twice in a row (the ends
    of a held track) is checked once and stripped once, so its two results
    are one object too.
    """
    n = K.cubes.get(cube)
    if n is None:
        raise ValueError(f"unknown cube {cube!r}")
    ts = [cs if _is_fraction_tuple(cs) else tuple(map(as_fraction, cs)) for cs in tuples]
    for k, cs in enumerate(ts):
        if k and cs is ts[k - 1]:
            continue
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
        ref = K.rows[cube][2 * hit + c.numerator]
        last = rest = None
        for k, cs in enumerate(ts):
            if cs is not last:
                last, rest = cs, cs[:hit] + cs[hit + 1:]
                for j in ref.degens:
                    rest = rest[: j - 1] + rest[j:]
            ts[k] = rest
        cube, first = ref.base, ts[0]


def normalize_point(K: CubicalSet, cube: str, coords) -> RealizationPoint:
    """Push a coordinate tuple into its canonical carrier."""
    carrier, (cs,) = strip_boundary(K, cube, (coords,))
    return RealizationPoint(carrier, cs)


def snap_thirds(n: int, m: int) -> Fraction:
    """The coordinate retraction at n/m (m > 0), on the integers.

    The outer thirds land on the ends exactly: 3n <= m gives ``ZERO`` and
    3n >= 2m gives ``ONE``, the shared constants; the middle third is
    stretched onto (0, 1) as (3n - m)/m, the one value built.
    """
    if 3 * n <= m:
        return ZERO
    if 3 * n >= 2 * m:
        return ONE
    return Fraction(3 * n - m, m)


def snap_coordinate(s: Fraction) -> Fraction:
    """Retract one coordinate: the outer thirds land on the ends exactly."""
    s = as_fraction(s)
    return snap_thirds(s.numerator, s.denominator)


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

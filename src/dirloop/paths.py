"""Exact Moore paths in the directed suspension of a pointed complex.

A point of the suspension is either the collapsed cone point ``STAR`` or a
height in (-1, 1) paired with a point of the base; heights -1 and +1 and
the whole column over the base's own basepoint all land on ``STAR``.

Paths are finite strings of affine segments with rational data.  Untrusted
segments enter through :meth:`Suspension.path`, the boundary canonicalizer:
it checks each segment and strips its constant boundary coordinates through
:func:`~dirloop.cubical.strip_boundary`, then joins them.  The join drops
empty pieces, converts tracks stuck at the cone point into pauses, merges
collinear neighbours and rejects discontinuous junctions, naming the
offending input segment.  A path document gets the same checks, strip and
join from :func:`~dirloop.serialize.load_path`, in one pass over the
document.  Two paths are therefore equal as maps exactly
when they are equal as values.  The value objects (``TrackSeg``,
``StarSeg``, ``Interior`` and ``RealizationPoint``) are slotted classes,
cheap to build, whose ``__init__`` is written out as ``dataclasses`` would
generate it; no module imports ``dataclasses``, which loads ``inspect``
and would add milliseconds to every command's start.  Their fields are
their ``__slots__``, in constructor order, and they compare, hash and
pickle by them through the one value base, ``cubical._Fields``.  They are
mutable only in principle: segments are shared by identity across paths,
frames and trails, so no code assigns to one outside its constructor,
which a test checks by walking the AST of every module of the package.
``MoorePath`` is a frozen record on the shared base in ``cubical``.

Transforms join, and only segments from outside are canonicalized.  The
module level builders (``_slice``, ``_mapped``) return plain segment
lists, and each public transform hands its list to the join once.  Every
piece they build is cut, shifted, clamped or rescaled from a
canonical segment, or is a climb over a normalized point, so it already
sits in its carrier with ``Fraction`` values: a moving coordinate is held
on no piece of its track, and the clamp keeps every height within the
poles.  No transform's output passes through :meth:`Suspension.path`, and
no intermediate result is wrapped in a ``MoorePath`` only to be joined
again.

Each concept has one mechanism underneath.  Every height deformation and
every change of clock is one integer map, ``_mapped``, which sends the
height h at old time t to a*h + b + c*t and multiplies each duration by f:
``height_affine``, ``shift_heights``, ``make_increasing``, ``shrink_cone``
through ``height_affine``, the letter round trips, ``scale_time``,
``reparam``, the ramps (the identity map, for their overshoot) and the
early straightening frames (a shift with a new clock).  Its one pole clamp,
``_clamp``, cuts a track once per pole it crosses.
Every point inside a segment comes from one integer interpolator,
``_lerp``, save the collar truncation's cut points, which are snapped
straight from the integers (below).  The passages through the middle slice
come from one scan, ``Suspension._crossings``, which ``middle_crossings``
and the straightening both read.

The kernel stays exact and cheap per segment.  Range and pole tests on
durations and heights read the integers of a ``Fraction`` rather than
comparing ``Fraction`` objects, and values that already are ``Fraction``
are not rebuilt.  The join is one loop that reads each piece's duration
and heights as integers once.  A run of pauses is summed on integers and
built as one pause when a track or the end closes it, the junction, pole
and height-rate tests run on the last track's integers, and a coordinate
rate is one integer cross-multiplication, none where the coordinate is
held.  ``_mapped`` works out the mapped heights and the scaled duration as
integer pairs, not necessarily reduced, with a and b over one denominator,
so a pure shift (a = 1, c = 0) adds b to each height and nothing more.  It
reads no clock unless c is not 0, and then the path's own breakpoints.
The clamp builds a ``Fraction`` only for a value that survives it, once: a
pole height is the shared constant, the identity height map keeps the
heights' objects and f = 1 the duration's.  Two tracks that meet with the
same data in the same carrier are continuous without normalizing their end
points, and a track end with every coordinate strictly inside (0, 1) is no
cone point unless at a pole, so ``pauses_and_runs`` normalizes only the
other ends.  A track that stays within the poles is clamped without
computing cuts; one that crosses a pole is cut there on the integers of its
end heights, with the pole as the height at the cut and only moving
coordinates interpolated.
The collar truncation works on the same integers.  A value from n0/d0 to
n1/d1 meets the level l/3 at s = (l*d0 - 3*n0)*d1 / (3*(n1*d0 - n0*d1)),
and only a cut with 0 < s < 1 is built.  Each piece between cuts lies in
one third of every value, so its ends decide it: it is silenced when both
ends snap to the same pole, or when the slots where both snap to the same
0 or 1 strip it onto the basepoint, worked out once per cube and pattern of
slots in a call.  The snap of n/d is 0 when 3n <= d, 1 when 3n >= 2d, and
(3n - d)/d between, with shared constants for the ends.
A path keeps its breakpoint times (``MoorePath.times``, computed once and
summed on integers over the running lcm of the denominators), so
``evaluate``, ``slice_path`` and ``reparam`` find segments by bisection.
The crossing scan sums the same way and builds only each crossing time and
the duration.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

from .cubical import (
    ONE as _ONE,
    ZERO as _ZERO,
    CubicalSet,
    RealizationPoint,
    _Fields,
    _Frozen,
    as_fraction,
    boundary_snap,
    normalize_point,
    snap_thirds,
    strip_boundary,
)

_MINUS_ONE, _HALF = Fraction(-1), Fraction(1, 2)
# the collar levels l/3 of a height and of a base coordinate, by l
_HEIGHT_LEVELS = (-2, -1, 1, 2)
_COORD_LEVELS = (1, 2)


class _StarType:
    """The collapsed cone point.  A single shared instance, ``STAR``, which
    pickle and ``copy`` give back by name."""

    __slots__ = ()

    def __reduce__(self) -> str:
        return "STAR"

    def __repr__(self) -> str:
        return "Star"


STAR = _StarType()


class Interior(_Fields):
    """A suspension point away from the cone point: height plus base point."""

    __slots__ = ("height", "point")

    def __init__(self, height: Fraction, point: RealizationPoint):
        self.height = height
        self.point = point


def classify_point(p) -> str:
    """One of ``"star"``, ``"lower"``, ``"middle"``, ``"upper"``."""
    if p is STAR:
        return "star"
    if p.height < 0:
        return "lower"
    if p.height > 0:
        return "upper"
    return "middle"


class StarSeg(_Fields):
    """A pause at the cone point."""

    __slots__ = ("duration",)

    def __init__(self, duration: Fraction):
        self.duration = duration


class TrackSeg(_Fields):
    """An affine stretch inside one base cube.

    Height runs from ``h0`` to ``h1`` and the base coordinates from ``c0``
    to ``c1``, all linearly in time.
    """

    __slots__ = ("duration", "h0", "h1", "cube", "c0", "c1")

    def __init__(self, duration: Fraction, h0: Fraction, h1: Fraction, cube: str, c0: tuple, c1: tuple):
        self.duration = duration
        self.h0 = h0
        self.h1 = h1
        self.cube = cube
        self.c0 = c0
        self.c1 = c1


class MoorePath(_Frozen):
    """A canonical segment string; ``empty_at`` locates a zero length path.

    ``times`` and ``duration`` are computed once per path and cached; they
    are not fields, so equality and hashing see only the segments and
    ``empty_at``.
    """

    __slots__ = ("segments", "empty_at")

    def __init__(self, segments: tuple = (), empty_at: object = STAR):
        # written out: every transform and frame builds a path
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "empty_at", empty_at)

    @cached_property
    def times(self) -> tuple:
        """Breakpoints: 0, then the end time of each segment in turn.

        Summed on integers over a running common denominator, the lcm of
        the durations' denominators so far; each breakpoint is one
        ``Fraction``.
        """
        out = [_ZERO]
        num, den = 0, 1
        for seg in self.segments:
            n, q = seg.duration.numerator, seg.duration.denominator
            if den % q:
                m = lcm(den, q)
                num, den = num * (m // den), m
            num += n * (den // q)
            out.append(Fraction(num, den))
        return tuple(out)

    @cached_property
    def duration(self) -> Fraction:
        return self.times[-1]


def is_strictly_increasing(path: MoorePath) -> bool:
    """True when every track gains height; pauses at the cone point are fine."""
    return all(
        seg.h1 > seg.h0 for seg in path.segments if isinstance(seg, TrackSeg)
    )


def _lerp(a: Fraction, b: Fraction, p: int, q: int) -> Fraction:
    """The value at parameter p/q (q > 0) on the way from ``a`` to ``b``.

    Built once from integers; a value held constant, the common case for
    coordinates, is ``a`` itself.
    """
    if a == b:
        return a
    return Fraction(
        a.numerator * b.denominator * q
        + (b.numerator * a.denominator - a.numerator * b.denominator) * p,
        a.denominator * b.denominator * q,
    )


def _lerp_coords(c0, c1, p: int, q: int) -> tuple:
    return tuple([_lerp(a, b, p, q) for a, b in zip(c0, c1)])


def _sub_segment(seg, sa: Fraction, sb: Fraction):
    d = seg.duration * (sb - sa)
    if isinstance(seg, StarSeg):
        return StarSeg(d)
    # an end of the piece at an end of the segment needs no interpolation
    if sa == 0:
        h0, c0 = seg.h0, seg.c0
    else:
        p, q = sa.numerator, sa.denominator
        h0, c0 = _lerp(seg.h0, seg.h1, p, q), _lerp_coords(seg.c0, seg.c1, p, q)
    if sb == 1:
        h1, c1 = seg.h1, seg.c1
    else:
        p, q = sb.numerator, sb.denominator
        h1, c1 = _lerp(seg.h0, seg.h1, p, q), _lerp_coords(seg.c0, seg.c1, p, q)
    return TrackSeg(d, h0, h1, seg.cube, c0, c1)


def _slice(path: MoorePath, a: Fraction, b: Fraction) -> list:
    """The pieces of the path's segments between times ``a`` and ``b``."""
    segs = []
    times = path.times
    # the first segment that ends after a, found by bisection
    k = bisect_right(times, a, 1) - 1
    while k < len(path.segments) and times[k] < b:
        seg, acc, end = path.segments[k], times[k], times[k + 1]
        if a <= acc and end <= b:
            segs.append(seg)
        else:
            d = seg.duration
            lo, hi = max(acc, a), min(end, b)
            if lo < hi:
                segs.append(_sub_segment(seg, (lo - acc) / d, (hi - acc) / d))
        k += 1
    return segs


def _same_rate(x0, x1, dx, y0, y1, dy) -> bool:
    """``(x1 - x0) / dx == (y1 - y0) / dy`` on the integers of the fractions.

    One cross-multiplication; every denominator is positive, so clearing
    them keeps the equation.
    """
    return (
        (x1.numerator * x0.denominator - x0.numerator * x1.denominator)
        * y0.denominator * y1.denominator * dy.numerator * dx.denominator
        == (y1.numerator * y0.denominator - y0.numerator * y1.denominator)
        * x0.denominator * x1.denominator * dx.numerator * dy.denominator
    )


def _within_poles(h) -> bool:
    # -1 <= h <= 1 on the integers of h: a denominator is always positive
    return -h.denominator <= h.numerator <= h.denominator


def _at_pole(h) -> bool:
    return h.denominator == 1 and (h.numerator == 1 or h.numerator == -1)


def _height(n: int, m: int) -> Fraction:
    # the height n/m (m > 0) as a Fraction, a pole as the shared constant
    return _ONE if n == m else _MINUS_ONE if n == -m else Fraction(n, m)


def _clamp(seg, dn: int, dd: int, n0: int, d0: int, n1: int, d1: int, keep_d: bool, keep_h: bool) -> list:
    """Pieces of ``seg`` with duration dn/dd and heights n0/d0 to n1/d1,
    which may overshoot the poles.

    The overshoot is clamped: stretches at or beyond a pole become pauses at
    the cone point.  Each pole crossed inside the track is one exact cut,
    found on the integers, which need not be reduced (every denominator is
    positive); the height at a cut is the pole itself, so only the moving
    coordinates are interpolated there.  A value is built as a ``Fraction``
    only when it survives the clamp, once: ``keep_d`` and ``keep_h`` say
    that the duration and the heights are those of ``seg``, whose objects are
    then kept, and ``seg`` itself comes back when nothing changes.
    """
    # at parameter s the height is (n0*d1 + rise*s) / (d0*d1), so it meets
    # the pole L at s = (L*d0 - n0)*d1 / rise; with q = |rise| the track is
    # inside the poles for s strictly between pa/q and pb/q
    rise = n1 * d0 - n0 * d1
    if -d0 <= n0 <= d0 and -d1 <= n1 <= d1 and (rise or -d0 < n0 < d0):
        # within the poles and not flat at one: there is nothing to cut
        if keep_d and keep_h:
            return [seg]
        q, pa, pb = 1, 0, 1
    elif rise > 0:
        q, pa, pb, enter, leave = rise, (-d0 - n0) * d1, (d0 - n0) * d1, _MINUS_ONE, _ONE
    elif rise < 0:
        q, pa, pb, enter, leave = -rise, (n0 - d0) * d1, (n0 + d0) * d1, _ONE, _MINUS_ONE
    else:
        q = pa = pb = 1  # flat at or beyond a pole
    pa, pb = max(pa, 0), min(pb, q)
    if pa >= pb:
        return [StarSeg(seg.duration if keep_d else Fraction(dn, dd))]  # wholly at or beyond a pole
    c0, c1, dd = seg.c0, seg.c1, dd * q
    out = []
    if pa:
        out.append(StarSeg(Fraction(dn * pa, dd)))
        h0, c0 = enter, _lerp_coords(seg.c0, seg.c1, pa, q)
    else:
        h0 = seg.h0 if keep_h else _height(n0, d0)
    if pb < q:
        h1, c1 = leave, _lerp_coords(seg.c0, seg.c1, pb, q)
    else:
        h1 = seg.h1 if keep_h else _height(n1, d1)
    d = seg.duration if keep_d and pb - pa == q else Fraction(dn * (pb - pa), dd)
    out.append(TrackSeg(d, h0, h1, seg.cube, c0, c1))
    if pb < q:
        out.append(StarSeg(Fraction(dn * (q - pb), dd)))
    return out


def _mapped(segments, a=1, b=0, c=0, f=1) -> list:
    """The segments with the height h at old time t sent to a*h + b + c*t
    (a > 0) and every duration multiplied by ``f``, clamped at the poles.

    Worked out on integers, each piece built once by :func:`_clamp`, which
    cuts at the same parameters on either clock.  a and b sit over one
    denominator m, so a height n/d goes to (a*m*n + b*m*d)/(m*d); for a = 1
    m is b's own, and a pure shift costs what adding b does.  Only when c is
    not 0 is there a clock: a*h + b + c*t is a*(h + (c/a)*t) + b, with t at
    each end of a track read from the breakpoints of ``segments``, which
    must then be a ``MoorePath``.  The identity height map keeps the height
    objects and f = 1 the duration's, so with both a canonical piece comes
    back as it stands.
    """
    bn, bd, fn, fd = b.numerator, b.denominator, f.numerator, f.denominator
    an = m = bd
    if a != 1:
        an, bn, m = a.numerator * bd, bn * a.denominator, a.denominator * bd
    keep_d, keep_h = fn == fd, an == m and not bn and not c
    if c:
        # c/a as cn/cd, not reduced: a = an/m with an, m > 0
        cn, cd, times, segments = c.numerator * m, c.denominator * an, segments.times, segments.segments
        clock = iter([(times[k], times[k + 1]) for k, seg in enumerate(segments) if isinstance(seg, TrackSeg)])
    segs = []
    for seg in segments:
        dn, dd = seg.duration.numerator * fn, seg.duration.denominator * fd
        if isinstance(seg, StarSeg):
            segs.append(seg if keep_d else StarSeg(Fraction(dn, dd)))
            continue
        n0, d0, n1, d1 = seg.h0.numerator, seg.h0.denominator, seg.h1.numerator, seg.h1.denominator
        if c:
            # h + (c/a)*t at both ends, on the integers of c/a and of t
            t0, t1 = next(clock)
            n0, d0 = n0 * cd * t0.denominator + cn * t0.numerator * d0, d0 * cd * t0.denominator
            n1, d1 = n1 * cd * t1.denominator + cn * t1.numerator * d1, d1 * cd * t1.denominator
        segs.extend(_clamp(seg, dn, dd, an * n0 + bn * d0, m * d0, an * n1 + bn * d1, m * d1, keep_d, keep_h))
    return segs


def _map_point(p, a, b):
    # where the height map a*h + b puts a point; the poles land on STAR
    if not isinstance(p, Interior):
        return p
    g = a * p.height + b
    return STAR if (g <= -1 or g >= 1) else Interior(g, p.point)


def _ramp_segments(x: RealizationPoint, a: Fraction, b: Fraction) -> list:
    """Constant base location ``x``, height climbing at unit speed from ``a`` to ``b``.

    The parts beyond the poles ride at the cone point; for a = b the one
    piece has duration 0, which the join drops.
    """
    return _mapped([TrackSeg(b - a, a, b, x.cube, x.coords, x.coords)])


def _snap_height(n: int, m: int) -> Fraction:
    # the thirds retraction of each half cone at n/m (m > 0), reflected
    # through 0; the poles are the shared constants
    if n >= 0:
        return snap_thirds(n, m)
    s = snap_thirds(-n, m)
    return s if s is _ZERO else _MINUS_ONE if s is _ONE else -s


def _collar_points(seg: TrackSeg) -> list:
    """The track cut at every collar level crossed inside, snapped.

    One ``(p, q, height, coords)`` per cut at parameter p/q, both ends
    included, with the snapped height and coordinates there.  A value from
    n0/d0 to n1/d1 is (n0*d1 + rise*s) / (d0*d1) at parameter s, with rise
    = n1*d0 - n0*d1, so it meets the level l/3 at s = (l*d0 - 3*n0)*d1 /
    (3*rise); the test 0 < s < 1 and every snap are made on these integers,
    and only a cut strictly inside and a snapped value strictly inside a
    third are built as a ``Fraction``.  A value held along the track is
    snapped once.
    """
    lines = []  # (slot, base, rise, den) per moving value, slot -1 the height
    cuts = set()
    for k, a, b in ((-1, seg.h0, seg.h1), *zip(range(len(seg.c0)), seg.c0, seg.c1)):
        n0, d0, n1, d1 = a.numerator, a.denominator, b.numerator, b.denominator
        rise = n1 * d0 - n0 * d1
        if rise:
            lines.append((k, n0 * d1, rise, d0 * d1))
            q = 3 * rise
            for level in _HEIGHT_LEVELS if k < 0 else _COORD_LEVELS:
                p = (level * d0 - 3 * n0) * d1
                if 0 < p < q or q < p < 0:
                    cuts.add(Fraction(p, q))
    h = seg.h0
    height = _snap_height(h.numerator, h.denominator)
    coords = [snap_thirds(c.numerator, c.denominator) for c in seg.c0]
    held = tuple(coords)
    if not lines:
        return [(0, 1, height, held), (1, 1, height, held)]
    # the height comes first in ``lines``, so a coordinate moves when the last does
    moving = lines[-1][0] >= 0
    out = []
    for p, q in [(0, 1), *((s.numerator, s.denominator) for s in sorted(cuts)), (1, 1)]:
        for k, base, rise, den in lines:
            if k < 0:
                height = _snap_height(base * q + rise * p, den * q)
            else:
                coords[k] = snap_thirds(base * q + rise * p, den * q)
        out.append((p, q, height, tuple(coords) if moving else held))
    return out


class Suspension:
    """Path calculus over the directed suspension of a fixed base complex."""

    def __init__(self, base: CubicalSet):
        self.base = base
        self.origin = RealizationPoint(base.basepoint, ())

    # ------------------------------------------------------------------
    # points

    def point(self, height, cube: str, coords=()):
        """Suspension point for a height and base location, as Star or Interior."""
        h = as_fraction(height)
        if not _within_poles(h):
            raise ValueError(f"height {h} outside [-1, 1]")
        p = normalize_point(self.base, cube, coords)
        if _at_pole(h) or p == self.origin:
            return STAR
        return Interior(h, p)

    def _seg_start(self, seg):
        # seg is canonical: its coordinates already passed the checks of
        # ``point``, so an end at a pole is the cone point as it stands
        if isinstance(seg, StarSeg) or _at_pole(seg.h0):
            return STAR
        return self.point(seg.h0, seg.cube, seg.c0)

    def _seg_end(self, seg):
        if isinstance(seg, StarSeg) or _at_pole(seg.h1):
            return STAR
        return self.point(seg.h1, seg.cube, seg.c1)

    def _ends_at_star(self, seg: TrackSeg) -> bool:
        # an end with every coordinate strictly inside (0, 1) strips nothing,
        # so it stays in the track's own cube, of positive dimension, and
        # is the cone point only at a pole; an end with a coordinate at 0
        # or 1 may reach the basepoint through a face, even a degenerate
        # one that deletes its other slots, so it is normalized
        c1 = seg.c1
        if c1 and all(0 < c.numerator < c.denominator for c in c1):
            return _at_pole(seg.h1)
        return self._seg_end(seg) is STAR

    # ------------------------------------------------------------------
    # construction

    def _canonical(self, seg):
        # one untrusted segment checked and pushed into its carrier, built
        # afresh with Fraction values and tuple coordinates; an empty one
        # becomes a pause of duration 0, which the join drops
        d = as_fraction(seg.duration)
        if d.numerator < 0:
            raise ValueError(f"duration {d} is negative")
        if d.numerator == 0:
            return StarSeg(d)
        if isinstance(seg, StarSeg):
            return StarSeg(d)
        h0, h1 = as_fraction(seg.h0), as_fraction(seg.h1)
        if not (_within_poles(h0) and _within_poles(h1)):
            raise ValueError("track heights must lie in [-1, 1]")
        cube, (c0, c1) = strip_boundary(self.base, seg.cube, (seg.c0, seg.c1))
        return TrackSeg(d, h0, h1, cube, c0, c1)

    def _canonical_pieces(self, segments):
        for k, seg in enumerate(segments):
            try:
                piece = self._canonical(seg)
            except ValueError as err:
                raise ValueError(f"segment {k}: {err}") from None
            yield piece

    def _join(self, pieces: Iterable, empty_at=STAR) -> MoorePath:
        """The path through pieces that each already sit in their carrier.

        Every transform hands its pieces here directly, and the join trusts
        them: each piece has ``Fraction`` values, tuple coordinates, a
        positive or zero duration and heights within the poles, and
        ``empty_at`` is a suspension point.  :meth:`path` checks all of that
        for segments from outside.  Pieces of duration 0 are dropped, a track in the
        basepoint column or flat at a pole becomes a pause, pauses merge and
        so do collinear tracks, and a discontinuous junction raises
        ``ValueError`` naming the two piece indices.  Pieces are taken one
        at a time, so a junction is checked before a later piece is made.

        Each piece's duration and heights are read as integers once.  A run
        of pauses keeps its sum n/q over the running lcm of the denominators
        and becomes one ``StarSeg`` when a track or the end closes it; a lone
        pause keeps its object.  The junction, pole and height-rate tests
        compare the integers carried from the last track, and an end is
        normalized only where it is not at a pole.
        """
        out: list = []
        basepoint = self.base.basepoint
        # the index of the last piece taken, and the last piece out: a track,
        # with its integers (en is None before the first), or the first
        # pause of the open run
        last = prev = en = None
        # the open run of pauses: its object while it is one piece, and its
        # sum pn/pq, with pq = 0 when no run is open
        run, pn, pq = None, 0, 0
        for k, seg in enumerate(pieces):
            d = seg.duration
            dn, dd = d.numerator, d.denominator
            if not dn:
                continue
            if type(seg) is TrackSeg:
                n0, d0, n1, d1 = seg.h0.numerator, seg.h0.denominator, seg.h1.numerator, seg.h1.denominator
                # an end at a pole is the cone point as it stands
                a0, a1 = d0 == 1 and (n0 == 1 or n0 == -1), d1 == 1 and (n1 == 1 or n1 == -1)
                if seg.cube != basepoint and not (a0 and a1 and n0 == n1):
                    if not pq and en == n0 and ed == d0 and prev.cube == seg.cube and prev.c1 == seg.c0:
                        # the same data in the same carrier meet: continuous, no
                        # need to normalize the end points; merge when every rate
                        # agrees, the heights' cross-multiplied over the shared d0
                        if (n0 * sd - sn * d0) * d1 * dn * pdd == (n1 * d0 - n0 * d1) * sd * pdn * dd:
                            for p0, p1, q0, q1 in zip(prev.c0, prev.c1, seg.c0, seg.c1):
                                # a coordinate held on both sides has rate 0 on both
                                if not (p0 is p1 and q0 is q1) and not _same_rate(p0, p1, prev.duration, q0, q1, d):
                                    break
                            else:
                                pdn, pdd, en, ed, e1 = pdn * dd + dn * pdd, pdd * dd, n1, d1, a1
                                d = Fraction(pdn, pdd)
                                prev = out[-1] = TrackSeg(d, prev.h0, seg.h1, prev.cube, prev.c0, seg.c1)
                                last = k
                                continue
                    elif prev is not None and not (e1 and a0) and self._seg_end(prev) != self._seg_start(seg):
                        raise ValueError(f"discontinuous junction between segment {last} and segment {k}")
                    if pq:
                        out.append(run or StarSeg(Fraction(pn, pq)))
                        pq = 0
                    out.append(seg)
                    prev, last = seg, k
                    # its heights sn/sd to en/ed, whether it ends at a pole, and
                    # its duration pdn/pdd, left unreduced by a merge
                    sn, sd, en, ed, e1, pdn, pdd = n0, d0, n1, d1, a1, dn, dd
                    continue
                seg = StarSeg(d)  # in the basepoint column or flat at a pole
            if pq:
                m = lcm(pq, dd)
                pn, pq, run = pn * (m // pq) + dn * (m // dd), m, None
            elif prev is not None and not e1 and self._seg_end(prev) is not STAR:
                raise ValueError(f"discontinuous junction between segment {last} and segment {k}")
            else:
                run, pn, pq, prev, e1 = seg, dn, dd, seg, True
            last = k
        if pq:
            out.append(run or StarSeg(Fraction(pn, pq)))
        return MoorePath(tuple(out), STAR) if out else MoorePath((), empty_at)

    def path(self, segments: Iterable, empty_at=STAR) -> MoorePath:
        """Build the canonical path through the given segments.

        The boundary canonicalizer for segments from outside the package;
        no transform calls it.  Each segment is checked and pushed into its
        carrier, then joined.  Zero length segments are dropped, segments
        pinned to the cone point become pauses, collinear neighbours merge,
        and any discontinuous junction raises ``ValueError``.  Errors name
        the input segment index.  ``empty_at``, where an empty result sits,
        must be a suspension point.
        """
        if not (empty_at is STAR or isinstance(empty_at, Interior)):
            raise ValueError("empty_at must be a suspension point")
        return self._join(self._canonical_pieces(segments), empty_at)

    def concat(self, *paths: MoorePath) -> MoorePath:
        if not paths:
            return MoorePath((), STAR)
        for a, b in zip(paths, paths[1:]):
            if self.end_point(a) != self.start_point(b):
                raise ValueError("paths do not meet end to start")
        segs = [s for p in paths for s in p.segments]
        return self._join(segs, empty_at=self.start_point(paths[0]))

    # ------------------------------------------------------------------
    # inspection

    def evaluate(self, path: MoorePath, t):
        tt = as_fraction(t)
        if tt < 0 or tt > path.duration:
            raise ValueError(f"time {tt} outside [0, {path.duration}]")
        if not path.segments:
            return path.empty_at
        # the first segment that ends at or after tt, found by bisection
        k = bisect_left(path.times, tt, 1) - 1
        seg = path.segments[k]
        if isinstance(seg, StarSeg):
            return STAR
        s = (tt - path.times[k]) / seg.duration
        p, q = s.numerator, s.denominator
        return self.point(_lerp(seg.h0, seg.h1, p, q), seg.cube, _lerp_coords(seg.c0, seg.c1, p, q))

    def start_point(self, path: MoorePath):
        return self._seg_start(path.segments[0]) if path.segments else path.empty_at

    def end_point(self, path: MoorePath):
        return self._seg_end(path.segments[-1]) if path.segments else path.empty_at

    def is_loop(self, path: MoorePath) -> bool:
        return self.start_point(path) is STAR and self.end_point(path) is STAR

    def verify_directed(self, path: MoorePath, x_structure: str = "total") -> list[str]:
        """Report directedness defects; an empty list means directed.

        With ``x_structure="total"`` only heights must not decrease within a
        segment; ``"directed"`` additionally requires every base coordinate
        to be nondecreasing.
        """
        if x_structure not in ("directed", "total"):
            raise ValueError("x_structure must be 'directed' or 'total'")
        out = []
        for k, seg in enumerate(path.segments):
            if not isinstance(seg, TrackSeg):
                continue
            if seg.h0 > seg.h1:
                out.append(f"segment {k}: height decreases from {seg.h0} to {seg.h1}")
            if x_structure == "directed":
                for i, (a, b) in enumerate(zip(seg.c0, seg.c1)):
                    if a > b:
                        out.append(
                            f"segment {k}: coordinate {i + 1} decreases from {a} to {b}"
                        )
        return out

    # ------------------------------------------------------------------
    # reparametrization

    def slice_path(self, path: MoorePath, t0, t1) -> MoorePath:
        a, b = Fraction(t0), Fraction(t1)
        if not 0 <= a <= b <= path.duration:
            raise ValueError(
                f"slice bounds {a} and {b} out of order or out of range "
                f"for duration {path.duration}"
            )
        segs = _slice(path, a, b)
        # only an empty slice needs to know where it sits
        return self._join(segs, empty_at=STAR if segs else self.evaluate(path, a))

    def scale_time(self, path: MoorePath, factor) -> MoorePath:
        f = Fraction(factor)
        if f <= 0:
            raise ValueError("time scale must be positive")
        return self._join(_mapped(path.segments, f=f), empty_at=path.empty_at)

    def reparam(self, path: MoorePath, table: Sequence) -> MoorePath:
        """Run the path on a new clock given (new_time, old_time) breakpoints.

        The table must start at (0, 0), end with the old duration, increase
        strictly in new time and weakly in old time; flat spans hold the
        current point still.
        """
        pts = [(Fraction(n), Fraction(o)) for n, o in table]
        if len(pts) < 2:
            raise ValueError("table needs at least two rows")
        if pts[0] != (0, 0):
            raise ValueError("table row 0: table must start at (0, 0)")
        if pts[-1][1] != path.duration:
            raise ValueError(
                f"table row {len(pts) - 1}: table must end at the old duration {path.duration}"
            )
        segs = []
        for k, ((n0, o0), (n1, o1)) in enumerate(zip(pts, pts[1:]), 1):
            if n1 <= n0:
                raise ValueError(f"table row {k}: new times must strictly increase")
            if o1 < o0:
                raise ValueError(f"table row {k}: old times must not decrease")
            if o0 == o1:
                at = self.evaluate(path, o0)
                if at is STAR:
                    segs.append(StarSeg(n1 - n0))
                else:
                    segs.append(
                        TrackSeg(
                            n1 - n0,
                            at.height,
                            at.height,
                            at.point.cube,
                            at.point.coords,
                            at.point.coords,
                        )
                    )
            else:
                segs.extend(_mapped(_slice(path, o0, o1), f=(n1 - n0) / (o1 - o0)))
        return self._join(segs, empty_at=self.start_point(path))

    # ------------------------------------------------------------------
    # height deformations

    def height_affine(self, path: MoorePath, scale, offset) -> MoorePath:
        """Compose all heights with an affine map, clamping at the poles.

        The map must send the poles outward (scale > 0, -scale+offset <= -1,
        scale+offset >= 1) so that it descends to the suspension quotient.
        """
        a, b = Fraction(scale), Fraction(offset)
        if a <= 0:
            raise ValueError("height scale must be positive")
        if -a + b > -1 or a + b < 1:
            raise ValueError("affine height map must cover [-1, 1]")
        segs = _mapped(path.segments, a, b)
        return self._join(segs, empty_at=_map_point(path.empty_at, a, b))

    def shift_heights(self, path: MoorePath, delta) -> MoorePath:
        """Clamped vertical translation.

        Not a quotient map in general: a path that re-enters from the pole
        being pushed away can come apart, in which case the junction check
        raises.  A single excursion off the cone point never comes apart.
        """
        d = Fraction(delta)
        segs = _mapped(path.segments, 1, d)
        return self._join(segs, empty_at=_map_point(path.empty_at, 1, d))

    def shrink_cone(self, path: MoorePath, side: str, t) -> MoorePath:
        """Push one half cone into its pole; at t=1 that half is fully absorbed."""
        tt = Fraction(t)
        if not 0 <= tt <= 1:
            raise ValueError("cone parameter must lie in [0, 1]")
        if side == "lower":
            return self.height_affine(path, 1 + tt, -tt)
        if side == "upper":
            return self.height_affine(path, 1 + tt, tt)
        raise ValueError("side must be 'lower' or 'upper'")

    def make_increasing(self, path: MoorePath, eps) -> MoorePath:
        """Tilt heights forward in time by a strictening shear.

        On a directed loop the result has strictly rising tracks, the same
        duration, and the same crossing letters when the base location is
        constant along each excursion.
        """
        e = Fraction(eps)
        if not 0 < e < 1:
            raise ValueError("tilt must lie strictly between 0 and 1")
        T = path.duration
        if T == 0:
            return path
        return self._join(_mapped(path, 1 / (1 - e), 0, e / (T * (1 - e))))

    # ------------------------------------------------------------------
    # ramps and the letter maps

    def ramp(self, x: RealizationPoint, a, b) -> MoorePath:
        """Constant base location, height climbing from ``a`` to ``b``.

        Heights beyond the poles are allowed and spend their time at the
        cone point, so the duration is always ``b - a``.
        """
        aa, bb = Fraction(a), Fraction(b)
        if aa >= bb:
            raise ValueError("ramp needs a strictly increasing height interval")
        x = normalize_point(self.base, x.cube, x.coords)
        return self._join(_ramp_segments(x, aa, bb))

    def basic_loop(self, x: RealizationPoint) -> MoorePath:
        """The loop threading the suspension once over the base point ``x``."""
        return self.ramp(x, -1, 1)

    def attach_letter(self, x: RealizationPoint, loop: MoorePath) -> MoorePath:
        """Extend a loop by a half climb to the middle slice over ``x``."""
        if not self.is_loop(loop):
            raise ValueError("attach_letter needs a loop at the cone point")
        x = normalize_point(self.base, x.cube, x.coords)
        return self._join(list(loop.segments) + _ramp_segments(x, Fraction(-1), Fraction(0)))

    def _final_letter(self, path: MoorePath) -> RealizationPoint:
        end = self.end_point(path)
        if end is STAR:
            return self.origin
        if classify_point(end) == "middle":
            return end.point
        raise ValueError("path must end on the middle slice or at the cone point")

    def detach_letter(self, path: MoorePath):
        """Split off the final letter: the middle slice point and a loop.

        Inverse direction to :meth:`attach_letter` up to homotopy; the path
        must end on the middle slice or at the cone point.
        """
        return self._final_letter(path), self.shrink_cone(path, "lower", 1)

    def attach_then_detach(self, x: RealizationPoint, loop: MoorePath, t) -> MoorePath:
        """Loop part of the attach/detach round trip at stage ``t`` in [0, 1].

        Stage 0 returns the loop unchanged; stage 1 returns the round trip.
        """
        tt = Fraction(t)
        if not 0 <= tt <= 1:
            raise ValueError("stage must lie in [0, 1]")
        if not self.is_loop(loop):
            raise ValueError("attach_then_detach needs a loop at the cone point")
        x = normalize_point(self.base, x.cube, x.coords)
        grown = list(loop.segments) + _ramp_segments(x, Fraction(-1), (tt - 1) / (1 + tt))
        return self._join(_mapped(grown, 1 + tt, -tt))

    def detach_then_attach(self, path: MoorePath, t) -> MoorePath:
        """Detach/attach round trip at stage ``t`` on a path into the middle slice.

        Stage 0 is the identity; stage 1 lands on the attach of the detach.
        """
        tt = Fraction(t)
        if not 0 <= tt <= 1:
            raise ValueError("stage must lie in [0, 1]")
        x = self._final_letter(path)
        segs = _mapped(path.segments, 1 + tt, -tt) + _ramp_segments(x, -tt, Fraction(0))
        return self._join(segs, empty_at=path.empty_at)

    # ------------------------------------------------------------------
    # pauses, excursions, crossings

    def pauses_and_runs(self, path: MoorePath):
        """Alternate pause durations with maximal track stretches.

        Returns ``(pauses, runs)`` with one more pause than runs; a touch of
        the cone point between two tracks counts as a pause of duration 0.
        """
        pauses = [Fraction(0)]
        runs = []
        cur: list = []
        for seg in path.segments:
            if cur and (isinstance(seg, StarSeg) or self._ends_at_star(cur[-1])):
                runs.append(tuple(cur))
                cur = []
                pauses.append(Fraction(0))
            if isinstance(seg, StarSeg):
                pauses[-1] += seg.duration
            else:
                cur.append(seg)
        if cur:
            runs.append(tuple(cur))
            pauses.append(Fraction(0))
        return pauses, runs

    def _crossings(self, path: MoorePath):
        """Every upward passage through the middle slice, in time order, and
        the path's duration.

        Each passage is ``(k, p, q, t, point, coords)``: segment ``k`` is at
        height 0 at parameter p/q (0 <= p <= q), at time ``t``, over the
        normalized base ``point`` of the raw ``coords``.  A track level with
        the middle slice raises, a passage at the cone point does not count,
        and the two ends of a junction at height 0 are one passage.  Times
        are summed on integers over a running common denominator, as in
        ``MoorePath.times``; each ``t`` and the duration are one ``Fraction``.
        """
        out = []
        K, origin = self.base, self.origin
        last = None
        num, den = 0, 1  # the time segment k starts at
        for k, seg in enumerate(path.segments):
            dn, dd = seg.duration.numerator, seg.duration.denominator
            if isinstance(seg, TrackSeg):
                h0, h1 = seg.h0, seg.h1
                n0, n1 = h0.numerator, h1.numerator
                # h0 <= 0 <= h1 on the numerators: a denominator is positive
                if n0 <= 0 <= n1:
                    if n0 == n1:
                        raise ValueError(
                            "height plateau on the middle slice; apply make_increasing first"
                        )
                    # s = -h0 / (h1 - h0) = p/q on the integers
                    p, q = -n0 * h1.denominator, n1 * h0.denominator - n0 * h1.denominator
                    t = Fraction(num * dd * q + dn * p * den, den * dd * q)
                    coords = _lerp_coords(seg.c0, seg.c1, p, q)
                    pt = normalize_point(K, seg.cube, coords)
                    if pt != origin and t != last:
                        out.append((k, p, q, t, pt, coords))
                        last = t
            if den % dd:
                m = lcm(den, dd)
                num, den = num * (m // den), m
            num += dn * (den // dd)
        return out, Fraction(num, den)

    def middle_crossings(self, path: MoorePath) -> list:
        """Upward passages through the middle slice, as (time, base point).

        A track level with the middle slice is ambiguous and raises; apply
        :meth:`make_increasing` first.  Passages that happen at the cone
        point do not count.
        """
        return [(t, pt) for _, _, _, t, pt, _ in self._crossings(path)[0]]

    # ------------------------------------------------------------------
    # truncation near the cone point

    def truncate_near_basepoint(self, path: MoorePath, delta=None) -> MoorePath:
        """Silence the part of the path close to the cone point.

        With ``delta`` set, whole excursions that stay within ``delta`` of a
        pole are replaced by pauses.  Without it, the path is composed with
        the thirds retraction of the suspension, which collapses the collar
        of the cone point exactly and stretches the rest outward.
        """
        if delta is None:
            return self._truncate_collar(path)
        dd = Fraction(delta)
        if not 0 < dd < 1:
            raise ValueError("delta must lie strictly between 0 and 1")
        pauses, runs = self.pauses_and_runs(path)
        segs: list = [StarSeg(pauses[0])]
        for run, pause in zip(runs, pauses[1:]):
            if (
                self._seg_start(run[0]) is STAR
                and self._seg_end(run[-1]) is STAR
                and all(self._near_pole(tr, dd) for tr in run)
            ):
                segs.append(StarSeg(sum((s.duration for s in run), Fraction(0))))
            else:
                segs.extend(run)
            segs.append(StarSeg(pause))
        return self._join(segs, empty_at=path.empty_at)

    @staticmethod
    def _near_pole(seg: TrackSeg, delta: Fraction) -> bool:
        return min(seg.h0, seg.h1) > 1 - delta or max(seg.h0, seg.h1) < -(1 - delta)

    def _snap_suspension_point(self, p):
        if p is STAR:
            return STAR
        snapped = boundary_snap(self.base, p.point)
        h = _snap_height(p.height.numerator, p.height.denominator)
        if h == -1 or h == 1 or snapped == self.origin:
            return STAR
        return Interior(h, snapped)

    def _truncate_collar(self, path: MoorePath) -> MoorePath:
        """The thirds retraction, piece by piece between the collar levels.

        Each piece lies in one third of every value, so its ends decide it.
        Its midpoint height is in an outer third exactly when both ends snap
        to the same pole, and its snapped midpoint has a coordinate at 0 or
        1 exactly where both ends snap to it.  ``strip_boundary`` strips by
        the positions of those slots alone, so whether the piece lands on
        the basepoint is worked out once per cube and pattern in a call, and
        only a piece with such a slot that stays off it is stripped.  The
        pieces then sit in their carriers and go to the join directly.
        """
        K, basepoint = self.base, self.base.basepoint
        silent: dict = {}  # (cube, snapped 0/1 slots) -> lands on the basepoint

        def carried(cube, ca, cb):
            # the piece's carrier and ends, or None when it is silenced
            held = tuple([x if x is y and (x is _ZERO or x is _ONE) else None for x, y in zip(ca, cb)])
            if held.count(None) == len(held):
                return cube, ca, cb
            key = (cube, held)
            if key not in silent:
                mid = tuple(_HALF if x is None else x for x in held)
                silent[key] = normalize_point(K, cube, mid).cube == basepoint
            if silent[key]:
                return None
            carrier, (a, b) = strip_boundary(K, cube, (ca, cb))
            return carrier, a, b

        segs = []
        for seg in path.segments:
            if isinstance(seg, StarSeg):
                segs.append(seg)
                continue
            fixed = None
            if seg.c0 == seg.c1:
                # a base point held along the track: one carrier for every
                # piece, or silence for all of it
                c = tuple([snap_thirds(x.numerator, x.denominator) for x in seg.c0])
                fixed = carried(seg.cube, c, c)
                if fixed is None:
                    segs.append(StarSeg(seg.duration))
                    continue
            points = _collar_points(seg)
            dn, dd = seg.duration.numerator, seg.duration.denominator
            for (pa, qa, ha, ca), (pb, qb, hb, cb) in zip(points, points[1:]):
                if len(points) == 2:
                    d = seg.duration
                else:
                    d = Fraction(dn * (pb * qa - pa * qb), dd * qa * qb)
                piece = None
                if not (ha is hb and (ha is _ONE or ha is _MINUS_ONE)):
                    piece = fixed or carried(seg.cube, ca, cb)
                segs.append(StarSeg(d) if piece is None else TrackSeg(d, ha, hb, *piece))
        return self._join(segs, empty_at=self._snap_suspension_point(path.empty_at))

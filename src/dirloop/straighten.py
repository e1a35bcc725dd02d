"""Straightening directed loops into word loops, and contracting the words.

A directed loop decomposes into pauses at the cone point and star to star
excursions.  An excursion with exactly one passage through the middle
slice deforms, crossing pinned, into the standard climb over the crossing
point; pauses shrink away.  The result of the full deformation is the word
loop of the crossing word, reached through exact sampled frames.  On a
connected base the word can then be walked letter by letter into the
basepoint along the one skeleton, ending at the constant loop.

The helpers build raw segment lists with the :mod:`dirloop.paths`
builders.  A frame is made of pieces of the loop's canonical segments and
of climbs over normalized points, so it goes through the join of
:class:`~dirloop.paths.Suspension` once, without the boundary
canonicalizer, and no work is done twice: one scan of an excursion finds
its crossing and cuts the segment that holds it.  Only the stages strictly
below 1/2 shift, clamp and rescale the loop's pieces, each in one pass.
From stage 1/2 on, every excursion is a pause, a climb from -1 to the
middle slice over its crossing point, a climb on to the top and a pause,
so those frames are built in closed form from each excursion's crossing
time b, crossing point and duration a, and the result (stage 1) is one
full climb per letter.  At stage t the two climbs last (1 - t)*b +
(t - 1/2)*a and a/2 - (1 - t)*b.  With letters 1 to n, pause_0 before
letter 1 and pause_i after letter i, the frame pauses (1 - t)*g_0 before
letter 1 and (1 - t)*g_i after letter i, for the stage-free gaps g_0 =
pause_0 + b_1, g_i = (a_i - b_i) + pause_i + b_(i+1) and g_n = a_n - b_n +
pause_n.  The gaps are worked out once per loop, so the join merges no
pauses there.  Every frame is built from integers.  The crossing time b
and the duration a come from the scan's integer sums, and the cut piece's
durations from the crossing parameter.  Below 1/2 the pieces are shifted,
rescaled and clamped on integers (``paths._shifted``), and each climb and
each pause (1 - t)*pause is one ``Fraction(n, d)``.  The pauses, b, a and
the gaps are integers over one common denominator D of the loop, so at
stage t = p/q every pause and closed-form climb is an integer over 2*q*D;
one table per frame builds each distinct one once, so equal durations are
one object.  Stage 1/2 is the closed form at its start: at 2t = 1 the
heights before the crossing, which never exceed 0, are pushed down to -1
or below and those after it up to 1 or above, so the shifted pieces all
clamp into pauses.  :func:`full_straighten` builds each distinct stage
once: the result and a stage 1 sample are one frame, and stage 0 is the
input loop itself.  A contraction frame differs from the
word only around the letter walking home, so only that head is joined and
the rest of the word's canonical segments is spliced on as it is.  A
letter's walk ends with its climb over the basepoint vertex, which the join
turns into the pause the letter leaves behind, so no separate pause frame
is built and every frame the walk builds is kept.  Routes home come from one BFS tree
per contraction, grown from the basepoint over the one skeleton; the same
tree decides whether the base is connected, so no homology is computed.
A letter's stops after the first depend only on its cube and are worked
out once per cube, and the time walked is summed on integers.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import cache
from math import lcm

from .cubical import ONE as _ONE, ZERO as _ZERO, CubicalSet, RealizationPoint, _Frozen, normalize_point
from .paths import _HALF, _MINUS_ONE, MoorePath, STAR, StarSeg, Suspension, TrackSeg, _shifted

DEFAULT_SAMPLES = (_ZERO, Fraction(1, 4), _HALF, Fraction(3, 4), _ONE)


class ChainDecomposition(_Frozen):
    """A loop cut into pauses and excursions, one more pause than excursions."""

    __slots__ = ("pauses", "excursions")

    def __init__(self, pauses: tuple[Fraction, ...], excursions: tuple[MoorePath, ...]):
        _Frozen.__init__(self, pauses, excursions)


def chain_split(sus: Suspension, loop: MoorePath) -> ChainDecomposition:
    """Cut a loop at the cone point into its pause/excursion chain."""
    if not sus.is_loop(loop):
        raise ValueError("chain split needs a loop at the cone point")
    pauses, runs = sus.pauses_and_runs(loop)
    # a contiguous run of a canonical path is already canonical
    return ChainDecomposition(tuple(pauses), tuple(MoorePath(run) for run in runs))


def _legs(sus: Suspension, run: MoorePath):
    """The crossing (time b, point xb), the duration a, and the raw
    stretches before and after the crossing.

    The crossings are those of ``Suspension._crossings``, the one scan
    behind ``Suspension.middle_crossings``; there must be exactly one, and
    the segment that holds it is split at its parameter, on the integers.
    """
    crossings, a = sus._crossings(run)
    if len(crossings) != 1:
        raise ValueError(
            f"excursion crosses the middle slice {len(crossings)} times; "
            "straightening needs exactly one"
        )
    ((k, p, q, b, xb, coords),) = crossings
    segs = run.segments
    if p == 0:
        pre, post = list(segs[:k]), list(segs[k:])
    elif p == q:
        pre, post = list(segs[: k + 1]), list(segs[k + 1 :])
    else:
        seg = segs[k]
        dn, dd = seg.duration.numerator, seg.duration.denominator * q
        pre = [*segs[:k], TrackSeg(Fraction(dn * p, dd), seg.h0, _ZERO, seg.cube, seg.c0, coords)]
        post = [TrackSeg(Fraction(dn * (q - p), dd), _ZERO, seg.h1, seg.cube, coords, seg.c1), *segs[k + 1 :]]
    return b, xb, a, pre, post


def _early_frames(legs, t: Fraction) -> list:
    """The raw segments of each excursion's legs at stage ``t`` in [0, 1].

    Heights before the crossing never exceed 0 and after it never drop
    below 0, so pushing each side away from the middle slice by t and
    refilling with climbs over the crossing point keeps both ends fixed.
    The clock is rescaled by 1/(1 + t) on the way, so each piece is built
    once, and with t = p/q the climbs last p*b/(q + p) and p*(a - b)/(q +
    p), each one ``Fraction`` built from the integers of a and b.
    :func:`full_straighten` builds its stages below 1/2 here (t < 1);
    :func:`straighten_step` uses it for every t.
    """
    p, q = t.numerator, t.denominator
    f, down = Fraction(q, q + p), -t
    frames = []
    for b, xb, a, pre, post in legs:
        bn, bd, an, ad = b.numerator, b.denominator, a.numerator, a.denominator
        x = xb.coords
        segs = _shifted(pre, down, f)
        segs.append(TrackSeg(Fraction(p * bn, (q + p) * bd), down, _ZERO, xb.cube, x, x))
        segs.append(TrackSeg(Fraction(p * (an * bd - bn * ad), (q + p) * ad * bd), _ZERO, t, xb.cube, x, x))
        segs.extend(_shifted(post, t, f))
        frames.append(segs)
    return frames


def straighten_step(sus: Suspension, run: MoorePath, t) -> MoorePath:
    """Deform an excursion toward the standard climb, stage ``t`` in [0, 1].

    The single middle slice crossing stays pinned; duration is preserved.
    """
    tt = Fraction(t)
    if not 0 <= tt <= 1:
        raise ValueError("stage must lie in [0, 1]")
    return sus._join(_early_frames([_legs(sus, run)], tt)[0])


def full_straighten(sus: Suspension, loop: MoorePath, samples=DEFAULT_SAMPLES):
    """Deform a directed loop into the word loop of its crossing word.

    Returns ``(result, frames)``: the final word loop and one exact frame
    per requested sample of the deformation clock.  Stage 1/2 finishes the
    per excursion straightening, the rest of the clock evens out the climbs
    while the pauses shrink away.

    Stages below 1/2 shift each excursion's pieces away from the middle
    slice (:func:`_early_frames`).  Stage t >= 1/2 comes in closed form from
    each excursion's crossing time b, crossing point xb and duration a: a
    pause of (1 - t)*g_0, then for each letter i a climb from -1 to 0 over
    xb for (1 - t)*b + (t - 1/2)*a, one on to 1 for a/2 - (1 - t)*b and a
    pause of (1 - t)*g_i.  The gaps do not depend on the stage and are
    worked out once: g_0 = pause_0 + b_1, g_i = a_i - b_i + pause_i +
    b_(i+1), and g_n = a_n - b_n + pause_n after the last letter.  At
    stage 1/2 the shifted pieces would all clamp into pauses, which is the
    closed form at its start; stage 1 is one full climb per letter.

    The pauses, b, a and the gaps are integers over one common denominator
    D of the loop, so at stage t = p/q every pause and closed-form climb is
    an integer over 2*q*D, and each frame builds each distinct one
    as a ``Fraction`` once: equal durations are one object.  Every frame
    goes through the join once, which drops the empty pieces and merges the
    two climbs where b = a/2.
    """
    if not sus.is_loop(loop):
        raise ValueError("straightening needs a loop at the cone point")
    problems = sus.verify_directed(loop, "total")
    if problems:
        raise ValueError("loop is not directed: " + problems[0])
    stages = [Fraction(s) for s in samples]
    if any(not 0 <= s <= 1 for s in stages):
        raise ValueError("samples must lie in [0, 1]")
    chain = chain_split(sus, loop)
    legs = [_legs(sus, exc) for exc in chain.excursions]
    D = lcm(*(x.denominator for x in chain.pauses), *(x.denominator for b, _, a, _, _ in legs for x in (b, a)))
    P = [x.numerator * (D // x.denominator) for x in chain.pauses]
    BA = [(b.numerator * (D // b.denominator), a.numerator * (D // a.denominator)) for b, _, a, _, _ in legs]
    # the stage-free gaps g_i = (a_i - b_i) + pause_i + b_(i+1) of the late
    # frames times D, with no letter 0 or n + 1
    G = [e + pause + s for e, pause, s in zip([0, *(A - B for B, A in BA)], P, [*(B for B, _ in BA), 0])]
    # one frame per distinct stage; stage 0 is the loop itself
    built = {_ZERO: loop}
    # stage 1 is one full climb over each crossing point
    built[_ONE] = sus._join(
        [TrackSeg(a, _MINUS_ONE, _ONE, xb.cube, xb.coords, xb.coords) for _, xb, a, _, _ in legs]
    )

    def frame(t: Fraction) -> MoorePath:
        if t in built:
            return built[t]
        p, q = t.numerator, t.denominator
        r = q - p
        # every pause and closed-form climb, an integer over 2*q*D, built once
        dur = cache(lambda n: Fraction(n, 2 * q * D))
        if 2 * p < q:
            segs: list = [StarSeg(dur(2 * r * P[0]))]
            for piece, pause in zip(_early_frames(legs, 2 * t), P[1:]):
                segs.extend(piece)
                segs.append(StarSeg(dur(2 * r * pause)))
        else:
            segs = [StarSeg(dur(2 * r * G[0]))]
            for (_, xb, _, _, _), (B, A), gap in zip(legs, BA, G[1:]):
                cube, x = xb.cube, xb.coords
                segs.append(TrackSeg(dur(2 * r * B + (2 * p - q) * A), _MINUS_ONE, _ZERO, cube, x, x))
                segs.append(TrackSeg(dur(q * A - 2 * r * B), _ZERO, _ONE, cube, x, x))
                segs.append(StarSeg(dur(2 * r * gap)))
        built[t] = sus._join(segs)
        return built[t]

    return frame(_ONE), [frame(s) for s in stages]


def _routes_home(K: CubicalSet):
    """Hops (edge, far vertex) from a vertex to the basepoint.

    One BFS from the basepoint over the one skeleton labels every vertex
    with its edge distance; a base with an unlabelled vertex is not
    connected and raises ``ValueError``.  Returns a function of the start
    vertex that walks down the labels, taking at each vertex the first
    neighbour in sorted ``(vertex, edge)`` order that is one hop closer.
    """
    adj: dict[str, list] = {}
    for e in sorted(c for c, d in K.cubes.items() if d == 1):
        # slots 0 and 1 of an edge's row: its faces d0_1 and d1_1
        a, b = K.rows[e][0].base, K.rows[e][1].base
        adj.setdefault(a, []).append((b, e))
        adj.setdefault(b, []).append((a, e))
    for nbrs in adj.values():
        nbrs.sort()
    dist = {K.basepoint: 0}
    queue = deque([K.basepoint])
    while queue:
        v = queue.popleft()
        for w, _ in adj.get(v, ()):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    if len(dist) != sum(1 for d in K.cubes.values() if d == 0):
        raise ValueError("base complex is not connected; contraction needs a connected base")

    def route(start: str) -> list:
        hops, v = [], start
        while dist[v]:
            v, e = next((w, e) for w, e in adj[v] if dist[w] == dist[v] - 1)
            hops.append((e, v))
        return hops

    return route


def word_climbs(sus: Suspension, result: MoorePath) -> tuple:
    """The climbs of a word loop, one ``TrackSeg`` from -1 to 1 per letter.

    Letter k sits over ``(climb.cube, climb.c0)``.  Raises ``ValueError``
    unless every excursion of ``result`` is one such climb over a fixed
    base point, as in the result of :func:`full_straighten`.
    """
    _, runs = sus.pauses_and_runs(result)
    word = tuple(run[0] for run in runs)
    if any(len(run) != 1 for run in runs) or not all(
        tr.h0 == -1 and tr.h1 == 1 and tr.c0 == tr.c1 for tr in word
    ):
        raise ValueError("contraction needs a word loop: one full climb per letter")
    return word


def contract_to_constant(sus: Suspension, loop: MoorePath, samples=DEFAULT_SAMPLES) -> list:
    """Deformation trail from a directed loop all the way to the constant loop.

    Straightens first (:func:`full_straighten`), then walks the word home
    (:func:`contract_straightened`).
    """
    return contract_straightened(sus, *full_straighten(sus, loop, samples))


def contract_straightened(sus: Suspension, result: MoorePath, frames) -> list:
    """Carry on from ``full_straighten``'s ``(result, frames)`` to the constant loop.

    The trail starts with the frames, then walks each letter of the word
    loop ``result`` into the basepoint along the one skeleton, and finally
    drops the leftover pauses.  The base must be connected or there is
    nowhere to walk.

    Letter k climbs over each stop of its route in turn: half way to the
    0-corner of its cube, that corner, then the middle of each edge and
    the far vertex, down to the basepoint, where the climb already is a
    pause.  While letter k walks, the letters before it are one pause and
    the ones after it are still the word's own segments.  So each frame
    joins only its head (that pause, letter k and letter k + 1) and appends
    the rest of the word unchanged: a full climb ends at the cone point,
    where nothing merges.
    """
    K = sus.base
    route = _routes_home(K)
    word = word_climbs(sus, result)
    trail = list(frames)
    # the stops after the first depend only on the cube: worked out once each
    later: dict = {}
    # the time walked so far, an integer over the common denominator D
    D = lcm(*(tr.duration.denominator for tr in word))
    walked = 0
    for k, tr in enumerate(word):
        after, tail = word[k + 1 : k + 2], word[k + 2 :]
        if tr.cube not in later:
            corner = normalize_point(K, tr.cube, (_ZERO,) * len(tr.c0))
            later[tr.cube] = [corner]
            for edge, far in route(corner.cube):
                later[tr.cube] += normalize_point(K, edge, (_HALF,)), RealizationPoint(far, ())
        pause = StarSeg(Fraction(walked, D))
        for p in [normalize_point(K, tr.cube, tuple(c / 2 for c in tr.c0)), *later[tr.cube]]:
            moving = TrackSeg(tr.duration, tr.h0, tr.h1, p.cube, p.coords, p.coords)
            head = sus._join([pause, moving, *after])
            trail.append(MoorePath(head.segments + tail))
        walked += tr.duration.numerator * (D // tr.duration.denominator)

    empty = MoorePath((), STAR)
    trail.append(empty)
    out = [trail[0]]
    for fr in trail[1:]:
        if fr != out[-1]:
            out.append(fr)
    return out

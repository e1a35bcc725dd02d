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
canonicalizer, and no work is done twice.  :func:`full_straighten` builds
each distinct stage once: the result and a stage 1 sample are one frame,
and stage 0 is the input loop itself.  A contraction frame differs from the
word only around the letter walking home, so only that head is joined and
the rest of the word's canonical segments is spliced on as it is.  A
letter's walk ends with its climb over the basepoint vertex, which the join
turns into the pause the letter leaves behind, so no separate pause frame
is built and every frame the walk builds is kept.  Routes home come from one BFS tree
per contraction, grown from the basepoint over the one skeleton; the same
tree decides whether the base is connected, so no homology is computed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .cubical import CubicalSet, RealizationPoint, normalize_point
from .paths import MoorePath, STAR, StarSeg, Suspension, TrackSeg, _map_heights, _scaled, _slice

DEFAULT_SAMPLES = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


@dataclass(frozen=True)
class ChainDecomposition:
    """A loop cut into pauses and excursions, one more pause than excursions."""

    pauses: tuple[Fraction, ...]
    excursions: tuple[MoorePath, ...]


def chain_split(sus: Suspension, loop: MoorePath) -> ChainDecomposition:
    """Cut a loop at the cone point into its pause/excursion chain."""
    if not sus.is_loop(loop):
        raise ValueError("chain split needs a loop at the cone point")
    pauses, runs = sus.pauses_and_runs(loop)
    # a contiguous run of a canonical path is already canonical
    return ChainDecomposition(tuple(pauses), tuple(MoorePath(run) for run in runs))


def assemble(sus: Suspension, chain: ChainDecomposition) -> MoorePath:
    """Inverse of :func:`chain_split`."""
    if len(chain.pauses) != len(chain.excursions) + 1:
        raise ValueError("chain needs one more pause than excursions")
    segs: list = [StarSeg(chain.pauses[0])]
    for exc, pause in zip(chain.excursions, chain.pauses[1:]):
        segs.extend(exc.segments)
        segs.append(StarSeg(pause))
    return sus.path(segs)


def _unique_crossing(sus: Suspension, run: MoorePath):
    crossings = sus.middle_crossings(run)
    if len(crossings) != 1:
        raise ValueError(
            f"excursion crosses the middle slice {len(crossings)} times; "
            "straightening needs exactly one"
        )
    return crossings[0]


def _legs(sus: Suspension, run: MoorePath):
    # the crossing (time b, point xb), the duration a, and the raw
    # stretches before and after the crossing
    b, xb = _unique_crossing(sus, run)
    a = run.duration
    return b, xb, a, _slice(run, 0, b), _slice(run, b, a)


def _early_frame(b: Fraction, xb: RealizationPoint, a: Fraction, pre, post, t: Fraction) -> list:
    # heights before the crossing never exceed 0 and after it never drop
    # below 0, so pushing each side away from the middle slice by t and
    # refilling with climbs over the crossing point keeps both ends fixed
    segs = _map_heights(pre, 1, -t, 0)
    segs.append(TrackSeg(t * b, -t, Fraction(0), xb.cube, xb.coords, xb.coords))
    segs.append(TrackSeg(t * (a - b), Fraction(0), t, xb.cube, xb.coords, xb.coords))
    segs.extend(_map_heights(post, 1, t, 0))
    return _scaled(segs, 1 / (1 + t))


def straighten_step(sus: Suspension, run: MoorePath, t) -> MoorePath:
    """Deform an excursion toward the standard climb, stage ``t`` in [0, 1].

    The single middle slice crossing stays pinned; duration is preserved.
    """
    tt = Fraction(t)
    if not 0 <= tt <= 1:
        raise ValueError("stage must lie in [0, 1]")
    return sus.path(_early_frame(*_legs(sus, run), tt))


def _late_frame(b: Fraction, xb: RealizationPoint, a: Fraction, u: Fraction) -> list:
    # from the half straightened shape to the single full climb: the four
    # phase breakpoints move affinely while the profile stays -1, 0, 1
    p = (1 - u) * b / 2
    q = (1 - u) * b + u * a / 2
    r = (1 - u) * (a + b) / 2 + u * a
    return [
        StarSeg(p),
        TrackSeg(q - p, Fraction(-1), Fraction(0), xb.cube, xb.coords, xb.coords),
        TrackSeg(r - q, Fraction(0), Fraction(1), xb.cube, xb.coords, xb.coords),
        StarSeg(a - r),
    ]


def full_straighten(sus: Suspension, loop: MoorePath, samples=DEFAULT_SAMPLES):
    """Deform a directed loop into the word loop of its crossing word.

    Returns ``(result, frames)``: the final word loop and one exact frame
    per requested sample of the deformation clock.  Stage 1/2 finishes the
    per excursion straightening, the rest of the clock evens out the climbs
    while the pauses shrink away.
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
    # one frame per distinct stage; stage 0 is the loop itself
    built = {Fraction(0): loop}

    def frame(t: Fraction) -> MoorePath:
        if t in built:
            return built[t]
        segs: list = [StarSeg(chain.pauses[0] * (1 - t))]
        for (b, xb, a, pre, post), pause in zip(legs, chain.pauses[1:]):
            if t <= Fraction(1, 2):
                segs.extend(_early_frame(b, xb, a, pre, post, 2 * t))
            else:
                segs.extend(_late_frame(b, xb, a, 2 * t - 1))
            segs.append(StarSeg(pause * (1 - t)))
        built[t] = sus._join(segs)
        return built[t]

    return frame(Fraction(1)), [frame(s) for s in stages]


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
        a = K.faces[(e, 1, 0)].base
        b = K.faces[(e, 1, 1)].base
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
    route = _routes_home(sus.base)
    _, runs = sus.pauses_and_runs(result)
    word = tuple(run[0] for run in runs)
    if any(len(run) != 1 for run in runs) or not all(
        tr.h0 == -1 and tr.h1 == 1 and tr.c0 == tr.c1 for tr in word
    ):
        raise ValueError("contraction needs a word loop: one full climb per letter")
    trail = list(frames)
    K = sus.base
    walked = Fraction(0)
    for k, tr in enumerate(word):
        after, tail = word[k + 1 : k + 2], word[k + 2 :]
        stops = [normalize_point(K, tr.cube, tuple(c / 2 for c in tr.c0))]
        stops.append(normalize_point(K, tr.cube, (Fraction(0),) * len(tr.c0)))
        for edge, far in route(stops[-1].cube):
            stops.append(normalize_point(K, edge, (Fraction(1, 2),)))
            stops.append(RealizationPoint(far, ()))
        for p in stops:
            moving = TrackSeg(tr.duration, tr.h0, tr.h1, p.cube, p.coords, p.coords)
            head = sus._join([StarSeg(walked), moving, *after])
            trail.append(MoorePath(head.segments + tail))
        walked += tr.duration

    empty = MoorePath((), STAR)
    trail.append(empty)
    out = [trail[0]]
    for fr in trail[1:]:
        if fr != out[-1]:
            out.append(fr)
    return out

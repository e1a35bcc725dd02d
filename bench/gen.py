"""Seeded inputs for the dirloop benchmark, with the answer each job must print.

Complexes are built from the ``dirloop.corpus`` factors with
``tensor_product`` and ``suspension_model``; their expected homology comes
from the factors' Poincare polynomials (Kunneth), never from the code under
test.  Directed loops are built here segment by segment, already in
canonical form, so the generator knows each loop's crossing word, its
straightened loop and its value at any time.  The program only ever sees
the JSON files this module writes.

Costs must not depend much on the seed, or the run-to-run spread of the
benchmark would measure the generator: the seed picks coordinates, levels,
durations, factor orders, primes and job order, while the sizes of every
job class, the segment count of every loop and the distances its letters
lie from the basepoint are fixed.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction as F

from dirloop.corpus import (
    circle_complex,
    interval_complex,
    torus_complex,
    two_component_complex,
    wedge_of_circles,
)
from dirloop.cubical import suspension_model, tensor_product
from dirloop.serialize import dump_complex
from oracle import Complex

WORKLOADS = ("homology", "straighten", "contract")
_WARMUP_KIND = {"homology": "homology", "straighten": "eval", "contract": "contract"}

# Heights a loop may pass through between the poles; 0 is left out so that
# every excursion crosses the middle slice inside a track, never at a joint.
_LEVELS = [F(k, 8) for k in range(-7, 8) if k != 0]
_DURS = [F(1, 2), F(1), F(3, 2), F(2)]
_PAUSES = [F(1, 2), F(1)]
_DEN = 8


def q(x) -> str:
    """Rational as the JSON string the program reads and writes."""
    return str(F(x))


# ----------------------------------------------------------------------
# complexes and their Poincare polynomials


def _factor(kind: str, n: int = 0):
    if kind == "I":
        return interval_complex(), [1]
    if kind == "S":
        return circle_complex(), [1, 1]
    if kind == "W":
        return wedge_of_circles(n), [1, n]
    raise ValueError(kind)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def build_complex(factors, suspend: bool = False):
    """Product of the factors, optionally suspended, with its Poincare polynomial.

    All factors are torsion free, so the polynomial is the same over every
    field; the suspension shifts the reduced part up by one degree.
    """
    K, poly = _factor(*factors[0])
    for spec in factors[1:]:
        B, pb = _factor(*spec)
        K, poly = tensor_product(K, B), _poly_mul(poly, pb)
    if suspend:
        K = suspension_model(K).complex
        poly = [1, poly[0] - 1] + poly[1:]
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return K, poly


def cube_counts(obj) -> list:
    """Cubes per dimension of a complex JSON document."""
    top = max(c["dim"] for c in obj["cubes"])
    counts = [0] * (top + 1)
    for c in obj["cubes"]:
        counts[c["dim"]] += 1
    return counts


def series_of(poly, degree: int) -> list:
    """Coefficients of 1 / (1 - (P(t) - 1)) up to ``degree``."""
    red = [0] + list(poly[1:])
    out = [1]
    for k in range(1, degree + 1):
        out.append(sum(red[j] * out[k - j] for j in range(1, min(k, len(red) - 1) + 1)))
    return out


# ----------------------------------------------------------------------
# directed loops


def letter_cubes(K, rng, letters: int) -> list:
    """One positive-dimensional cube per letter, in seeded order.

    Cubes are grouped by dimension and by the edges from their 0-corner to
    the basepoint, and letter i draws from group i modulo the number of
    groups, so every seed gives the same letter dimensions and the same
    walks home (the frames ``contract`` makes).
    """
    home = Complex(dump_complex(K))
    groups: dict = {}
    for c, d in sorted(K.cubes.items()):
        if d > 0:
            groups.setdefault((home.hops_home(c, d), d), []).append(c)
    keys = sorted(groups)
    cubes = [rng.choice(groups[keys[i % len(keys)]]) for i in range(letters)]
    rng.shuffle(cubes)
    return cubes


def _interior_point(K, rng, cube=None):
    if cube is None:
        cube = rng.choice(sorted(c for c, d in K.cubes.items() if d > 0))
    return cube, [F(rng.randint(1, _DEN - 1), _DEN) for _ in range(K.cubes[cube])]


def _track(dur, h0, h1, cube, coords) -> dict:
    cs = [q(c) for c in coords]
    return {"kind": "track", "dur": q(dur), "h": [q(h0), q(h1)], "cube": cube, "c0": cs, "c1": list(cs)}


def make_loop(K, rng, letters: int, tracks: int, cubes=None) -> dict:
    """A canonical directed loop with ``letters`` excursions of ``tracks`` tracks.

    Each excursion stays over one interior base point and climbs from -1 to
    1 through distinct nonzero levels, sometimes holding one of them, so it
    crosses the middle slice exactly once.  Neighbouring tracks get
    different slopes and pauses never touch, so nothing merges when the
    program canonicalizes the file.  Every gap gets a pause and every
    third excursion holds a level, so the segment count depends only on
    ``letters`` and ``tracks``, never on the seed.  Letter i sits in
    ``cubes[i]`` if given, else in a random positive-dimensional cube.
    Returns the path document plus what the generator knows about it.
    """
    segs: list = []
    word: list = []
    straight: list = []
    spans: list = []
    t = F(0)

    def pause():
        nonlocal t
        d = rng.choice(_PAUSES)
        segs.append({"kind": "star", "dur": q(d)})
        t += d

    pause()
    for n in range(letters):
        cube, coords = _interior_point(K, rng, cubes[n] if cubes else None)
        hold = tracks > 2 and n % 3 == 1
        inner = sorted(rng.sample(_LEVELS, tracks - 1 - hold))
        if hold:
            i = rng.randrange(len(inner))
            inner = inner[: i + 1] + inner[i:]
        levels = [F(-1)] + inner + [F(1)]
        start, slope = t, None
        for a, b in zip(levels, levels[1:]):
            d = rng.choice([d for d in _DURS if (b - a) / d != slope])
            slope = (b - a) / d
            segs.append(_track(d, a, b, cube, coords))
            t += d
        word.append({"cube": cube, "coords": [q(c) for c in coords]})
        straight.append(_track(t - start, -1, 1, cube, coords))
        spans.append([q(start), q(t)])
        pause()
    return {
        "path": {"segments": segs},
        "word": word,
        "straight": {"segments": straight},
        "excursions": spans,
        "duration": q(t),
    }


def clock_table(duration: F, rng) -> list:
    """A strictly increasing (new, old) clock table ending at the duration."""
    olds = sorted({F(rng.randint(1, 15), 16) * duration for _ in range(6)})
    table, new = [[q(0), q(0)]], F(0)
    for o in olds + [duration]:
        new += F(rng.randint(1, 6), 2)
        table.append([q(new), q(o)])
    return table


# ----------------------------------------------------------------------
# workloads


class _Writer:
    def __init__(self, root: str):
        self.root = root
        self.jobs: list = []

    def file(self, name: str, obj) -> str:
        with open(os.path.join(self.root, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return name

    def job(self, cls: str, argv: list, units: int, expect: dict, probes=(), info=None) -> None:
        self.jobs.append({"cls": cls, "argv": argv, "units": units, "expect": expect,
                          "probes": list(probes), "info": info})


# (class, factors, suspended, field kinds): "q" the rationals, "p" a prime
# drawn per seed.  Factor orders are drawn per seed too.  Q jobs dominate
# the time; Z/p jobs exercise the second eliminator path.
_HOMOLOGY_SHAPES = [
    ("tiny", [("W", 3), ("W", 3)], False, "qp"),
    ("tiny", [("I",), ("W", 2), ("S",)], False, "qp"),
    ("tiny", [("I",), ("I",), ("I",)], False, "qp"),
    ("tiny", [("W", 2), ("W", 2), ("W", 2)], False, "qp"),
    ("tiny", [("W", 3), ("W", 3), ("S",)], False, "qp"),
    ("tiny", [("W", 2), ("S",), ("S",)], True, "qp"),
    ("tiny", [("W", 2), ("W", 2), ("S",)], False, "qp"),
    ("tiny", [("I",), ("W", 3), ("S",)], False, "qp"),
    ("tiny", [("W", 2), ("W", 3), ("S",)], False, "qp"),
    ("tiny", [("I",), ("I",), ("W", 2)], False, "qp"),
    ("tiny", [("I",), ("W", 2), ("W", 2)], False, "qp"),
    ("tiny", [("W", 4), ("W", 4)], False, "qp"),
    ("small", [("I",), ("I",), ("W", 2), ("S",)], False, "qp"),
    ("small", [("I",), ("I",), ("S",)], True, "qp"),
    ("small", [("W", 3), ("W", 3), ("W", 3)], False, "qp"),
    ("small", [("I",)] * 4, False, "qp"),
    ("medium", [("I",), ("I",), ("I",), ("W", 2), ("S",)], False, "qp"),
    ("medium", [("W", 3)] * 4, False, "qp"),
    ("medium", [("W", 3)] * 4, False, "q"),
    ("medium", [("W", 2)] * 4, True, "qp"),
    ("medium", [("W", 2)] * 4, True, "q"),
    ("medium", [("I",), ("I",), ("W", 3), ("W", 2), ("S",)], False, "qp"),
    ("medium", [("I",), ("I",), ("I",), ("W", 3)], False, "qp"),
    ("medium", [("I",), ("W", 2), ("W", 2), ("S",)], True, "qp"),
    ("large", [("I",)] * 5, False, "qp"),
    ("large", [("W", 2)] * 5, False, "p"),
    ("large", [("I",)] * 4 + [("W", 2), ("S",)], False, "p"),
    ("large", [("W", 3), ("W", 2), ("S",), ("S",)], True, "p"),
]


def _homology(w: _Writer, rng: random.Random) -> None:
    for n, (cls, factors, suspend, kinds) in enumerate(_HOMOLOGY_SHAPES):
        factors = list(factors)
        rng.shuffle(factors)
        K, poly = build_complex(factors, suspend)
        obj = dump_complex(K)
        name = w.file(f"complex{n}.json", obj)
        counts = cube_counts(obj)
        cubes = sum(counts)
        for kind in kinds:
            field = "q" if kind == "q" else f"zp:{rng.choice([2, 3, 5, 7])}"
            reduced = rng.random() < 0.5
            argv = ["homology", name, "--field", field] + (["--reduced"] if reduced else [])
            w.job(cls, argv, cubes,
                  {"kind": "homology", "poly": poly, "counts": counts, "reduced": reduced},
                  probes=["validate"])
        if n % 3 == 0 and cls != "large":
            degree = rng.randint(6, 10)
            argv = ["loop-homology", name, "--field", "q", "--degree", str(degree)]
            w.job(cls, argv, cubes, {"kind": "series", "series": series_of(poly, degree)})


# (class, base, letters, tracks per letter, how many loops).  Every loop is
# straightened and also read by ``sec``, ``path eval`` at five times and
# one path transform.  A wedge base has 2, 3 or 4 circles in turn.  With
# this mix the median job is a small ``path eval`` or ``sec``, well inside
# that cluster of 72 near-equal jobs, and the tail job (ten beyond it) is a
# small ``straighten`` in the lower half of its 12, so neither sits on the
# edge between two job kinds whose costs differ.
_STRAIGHTEN_SHAPES = [
    ("small", "wedge", 12, 3, 6),
    ("small", "torus", 12, 3, 6),
    ("medium", "wedge", 32, 4, 1),
    ("medium", "torus", 32, 4, 1),
]
_EVALS = 5
_TRANSFORMS = ["increase", "phi", "truncate"]


def _straighten(w: _Writer, rng: random.Random) -> None:
    n = 0
    for cls, base, letters, tracks, copies in _STRAIGHTEN_SHAPES:
        for _ in range(copies):
            K = wedge_of_circles(2 + n % 3) if base == "wedge" else torus_complex()
            cname = w.file(f"base{n}.json", dump_complex(K))
            loop = make_loop(K, rng, letters, tracks, letter_cubes(K, rng, letters))
            pname = w.file(f"loop{n}.json", loop["path"])
            segs = len(loop["path"]["segments"])
            pair = [pname, "--complex", cname]
            known = {"path": loop["path"], "word": loop["word"], "straight": loop["straight"]}
            w.job(cls, ["straighten"] + pair + ["--samples", "5"], segs,
                  dict(known, kind="straighten", samples=5),
                  probes=["canonicalize", "evaluate", "slice", "reparam"],
                  info={"excursions": loop["excursions"],
                        "clock": clock_table(F(loop["duration"]), rng)})
            w.job(cls, ["sec"] + pair, segs, dict(known, kind="sec"))
            for k in rng.sample(range(1, 64), _EVALS):
                t = F(loop["duration"]) * F(k, 64)
                w.job(cls, ["path", "eval"] + pair + ["--t", q(t)], segs,
                      dict(known, kind="eval", t=q(t)))
            cmd = _TRANSFORMS[n % 3]
            if cmd == "increase":
                eps = rng.choice([F(1, 4), F(1, 3), F(1, 2)])
                w.job(cls, ["path", "increase"] + pair + ["--eps", q(eps)], segs,
                      dict(known, kind="increase", eps=q(eps)))
            elif cmd == "phi":
                side = rng.choice(["lower", "upper"])
                u = rng.choice([F(1, 4), F(1, 2), F(3, 4), F(1)])
                w.job(cls, ["path", "phi"] + pair + ["--side", side, "--t", q(u)], segs,
                      dict(known, kind="phi", side=side, u=q(u)))
            else:
                w.job(cls, ["path", "truncate"] + pair, segs, dict(known, kind="truncate"))
            n += 1


# (class, base factors, letters, tracks per letter, how many loops).  The
# medium and large loops stay short enough (about 0.15 to 0.35 s a job)
# that each repeats often in a run.  The median job is a tiny loop over
# I^3, in the middle of those twelve; the tail job (ten beyond it) is the
# fourth of the ten small loops, which all cost about the same.
_CONTRACT_SHAPES = [
    ("tiny", [("W", 2)], 5, 2, 6),
    ("tiny", [("W", 3)], 5, 2, 6),
    ("tiny", [("I",)] * 3, 5, 2, 12),
    ("small", [("W", 2)], 8, 2, 5),
    ("small", [("W", 3)], 8, 2, 5),
    ("medium", [("W", 3)], 24, 3, 1),
    ("medium", [("I",)] * 4, 16, 3, 1),
    ("medium", [("I",)] * 5, 10, 2, 1),
    ("large", [("W", 2)], 32, 3, 1),
]


def _contract(w: _Writer, rng: random.Random) -> None:
    n = 0
    for cls, factors, letters, tracks, copies in _CONTRACT_SHAPES:
        for _ in range(copies):
            K, _ = build_complex(factors)
            cname = w.file(f"base{n}.json", dump_complex(K))
            loop = make_loop(K, rng, letters, tracks, letter_cubes(K, rng, letters))
            pname = w.file(f"loop{n}.json", loop["path"])
            w.job(cls, ["contract", pname, "--complex", cname], len(loop["path"]["segments"]),
                  {"kind": "contract", "path": loop["path"], "word": loop["word"],
                   "straight": loop["straight"]},
                  probes=["canonicalize", "betti_base"])
            n += 1
    # a loop over a base the basepoint cannot reach out of: exit 1, no output
    K = two_component_complex()
    cname = w.file("disconnected.json", dump_complex(K))
    for k in range(2):
        loop = make_loop(K, rng, 4 + 4 * k, 2)
        pname = w.file(f"disconnected_loop{k}.json", loop["path"])
        w.job("tiny", ["contract", pname, "--complex", cname], len(loop["path"]["segments"]),
              {"kind": "exit1"})


def _round_robin(jobs: list, rng: random.Random) -> list:
    """Interleave size classes: one job of each class in turn, seeded within class."""
    classes: dict = {}
    for job in jobs:
        classes.setdefault(job["cls"], []).append(job)
    queues = [classes[c] for c in sorted(classes)]
    for qu in queues:
        rng.shuffle(qu)
    rng.shuffle(queues)
    out = []
    while any(queues):
        for qu in queues:
            if qu:
                out.append(qu.pop())
    return out


def generate(workload: str, seed: int, root: str) -> dict:
    """Write the workload's input files under ``root`` and return its manifest.

    The manifest lists the jobs of one round in order, each with its argv
    (file names relative to ``root``), its work units and its expected
    outcome.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(root, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(root)
    {"homology": _homology, "straighten": _straighten, "contract": _contract}[workload](w, rng)
    jobs = _round_robin(w.jobs, rng)
    for i, job in enumerate(jobs):
        job["id"] = i
    # the warm-up is the cheapest job of a fixed command, so that set-up
    # time does not depend on which job a seed happens to make smallest
    kind = _WARMUP_KIND[workload]
    warmup = min((j for j in jobs if j["expect"]["kind"] == kind), key=lambda j: (j["units"], j["id"]))
    return {"workload": workload, "seed": seed, "jobs": jobs, "warmup": warmup["id"]}

"""Checks of every job's output, independent of the code under test.

Nothing here imports ``dirloop``: paths are read straight from the JSON
text, evaluated with this module's own exact arithmetic and compared with
what the generator knows.  A check returns ``None`` when the output is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import bisect
import json
import os
from collections import deque
from fractions import Fraction as F

STAR = "star"


class Complex:
    """Face table of a complex document, enough to put points in canonical form."""

    def __init__(self, obj: dict):
        self.basepoint = obj["basepoint"]
        self.faces = {c["id"]: c["faces"] for c in obj["cubes"]}
        self.edges = [c["id"] for c in obj["cubes"] if c["dim"] == 1]

    def normalize(self, cube: str, coords: tuple):
        """Strip boundary coordinates through the faces, as the README defines points."""
        while True:
            hit = next((i for i, c in enumerate(coords) if c == 0 or c == 1), None)
            if hit is None:
                return cube, coords
            ref = self.faces[cube][f"d{int(coords[hit])}_{hit + 1}"]
            rest = coords[:hit] + coords[hit + 1:]
            for j in ref["degens"]:
                rest = rest[: j - 1] + rest[j:]
            cube, coords = ref["base"], rest

    def hops_home(self, cube: str, dim: int) -> int:
        """Edges on a shortest path from the 0-corner of a cube to the basepoint."""
        corner, _ = self.normalize(cube, (F(0),) * dim)
        near: dict = {}
        for e in self.edges:
            a, b = self.faces[e]["d0_1"]["base"], self.faces[e]["d1_1"]["base"]
            near.setdefault(a, []).append(b)
            near.setdefault(b, []).append(a)
        dist, queue = {self.basepoint: 0}, deque([self.basepoint])
        while queue:
            v = queue.popleft()
            for w in near.get(v, []):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist[corner]

    def point(self, h: F, cube: str, coords: tuple):
        """A suspension point: ``STAR`` or (height, cube, coords), canonical."""
        if h <= -1 or h >= 1:
            return STAR
        cube, coords = self.normalize(cube, coords)
        return STAR if cube == self.basepoint else (h, cube, coords)


class Path:
    """A path document with prefix sums of its durations."""

    def __init__(self, doc: dict, K: Complex):
        self.K = K
        self.segs = []
        self.starts = []
        t = F(0)
        for s in doc["segments"]:
            d = F(s["dur"])
            if s["kind"] == "star":
                seg = (d, None)
            else:
                seg = (d, (F(s["h"][0]), F(s["h"][1]), s["cube"],
                           tuple(F(c) for c in s["c0"]), tuple(F(c) for c in s["c1"])))
            self.starts.append(t)
            self.segs.append(seg)
            t += d
        self.duration = t

    def breakpoints(self) -> list:
        return self.starts + [self.duration]

    def _at(self, k: int, s: F):
        d, tr = self.segs[k]
        if tr is None:
            return STAR
        h0, h1, cube, c0, c1 = tr
        return self.K.point(h0 + (h1 - h0) * s, cube,
                            tuple(a + (b - a) * s for a, b in zip(c0, c1)))

    def evaluate(self, t: F):
        k = max(bisect.bisect_right(self.starts, t) - 1, 0)
        d = self.segs[k][0]
        return self._at(k, (t - self.starts[k]) / d)

    def loop_problem(self):
        """Why this is not a continuous directed loop at the cone point, or None."""
        prev = STAR
        for k, (d, tr) in enumerate(self.segs):
            if d <= 0:
                return f"segment {k} has duration {d}"
            if tr is not None and not -1 <= tr[0] <= tr[1] <= 1:
                return f"segment {k} heights {tr[0]}..{tr[1]} are not directed"
            if self._at(k, F(0)) != prev:
                return f"discontinuous at segment {k}"
            prev = self._at(k, F(1))
        return None if prev == STAR else "does not end at the cone point"


def point_json(p) -> dict:
    if p == STAR:
        return {"kind": "star"}
    h, cube, coords = p
    return {"kind": "interior", "height": str(h), "cube": cube, "coords": [str(c) for c in coords]}


def _snap_height(h: F) -> F:
    if h <= F(-2, 3):
        return F(-1)
    if h <= F(-1, 3):
        return 3 * h + 1
    if h < F(1, 3):
        return F(0)
    if h < F(2, 3):
        return 3 * h - 1
    return F(1)


def _snap_coord(c: F) -> F:
    if c <= F(1, 3):
        return F(0)
    if c >= F(2, 3):
        return F(1)
    return 3 * (c - F(1, 2)) + F(1, 2)


def _transform(exp: dict, K: Complex, T: F):
    """The pointwise map a path command applies, from the README and docstrings."""
    kind = exp["kind"]
    if kind == "increase":
        e = F(exp["eps"])
        return lambda t, h, cube, c: K.point((h + e * t / T) / (1 - e), cube, c)
    if kind == "phi":
        u = F(exp["u"])
        b = -u if exp["side"] == "lower" else u
        return lambda t, h, cube, c: K.point((1 + u) * h + b, cube, c)
    if kind == "truncate":
        return lambda t, h, cube, c: K.point(_snap_height(h), cube, tuple(_snap_coord(x) for x in c))
    raise ValueError(kind)


def _check_transform(exp, doc, K):
    src, out = Path(exp["path"], K), Path(doc, K)
    if out.duration != src.duration:
        return f"duration {out.duration} != {src.duration}"
    problem = out.loop_problem()
    if problem:
        return "output " + problem
    f = _transform(exp, K, src.duration)
    # both sides are affine between consecutive breakpoints of either path,
    # so agreeing at every breakpoint and midpoint means agreeing everywhere
    times = sorted(set(src.breakpoints()) | set(out.breakpoints()))
    probes = times + [(a + b) / 2 for a, b in zip(times, times[1:])]
    for t in probes:
        p = src.evaluate(t)
        want = STAR if p == STAR else f(t, p[0], p[1], p[2])
        if out.evaluate(t) != want:
            return f"value at time {t} differs"
    return None


def _check_homology(exp, doc, K):
    dims = list(exp["poly"]) + [0] * (len(exp["counts"]) - len(exp["poly"]))
    if exp["reduced"]:
        dims[0] -= 1
    want = {"dims": {str(k): d for k, d in enumerate(dims)}}
    if doc != want:
        return f"dims {doc.get('dims')} != Kunneth {want['dims']}"
    got = [doc["dims"][str(k)] for k in range(len(dims))]
    euler = sum((-1) ** k * d for k, d in enumerate(got)) + (1 if exp["reduced"] else 0)
    cells = sum((-1) ** k * n for k, n in enumerate(exp["counts"]))
    if euler != cells:
        return f"Euler characteristic {euler} != alternating cube count {cells}"
    return None


def _check_series(exp, doc, K):
    return None if doc == {"series": exp["series"]} else f"series {doc} != 1/(1-P~) {exp['series']}"


def _check_sec(exp, doc, K):
    return None if doc == exp["word"] else "crossing word differs from the generated letters"


def _check_straighten(exp, doc, K):
    if set(doc) != {"result", "frames", "sec"}:
        return f"keys {sorted(doc)}"
    if doc["result"] != exp["straight"]:
        return "result is not the straightened loop of the generated word"
    if doc["sec"] != exp["word"]:
        return "crossing word of the result differs from the generated letters"
    frames = doc["frames"]
    if len(frames) != exp["samples"]:
        return f"{len(frames)} frames, expected {exp['samples']}"
    if frames[0] != exp["path"] or frames[-1] != exp["straight"]:
        return "frames do not run from the input to the result"
    for k, fr in enumerate(frames):
        problem = Path(fr, K).loop_problem()
        if problem:
            return f"frame {k}: {problem}"
    return None


def _check_eval(exp, doc, K):
    want = point_json(Path(exp["path"], K).evaluate(F(exp["t"])))
    return None if doc == want else f"point {doc} != {want}"


def _check_contract(exp, doc, K):
    trail = doc.get("trail") if isinstance(doc, dict) else None
    if not trail:
        return "no trail"
    if trail[0] != exp["path"]:
        return "trail does not start at the input loop"
    if trail[-1] != {"segments": []}:
        return "trail does not end at the constant loop"
    if exp["straight"] not in trail:
        return "trail misses the straightened loop"
    for k, fr in enumerate(trail):
        if k and fr == trail[k - 1]:
            return f"frame {k} repeats its predecessor"
        problem = Path(fr, K).loop_problem()
        if problem:
            return f"frame {k}: {problem}"
    # after the straightened loop each letter moves to half its coordinates,
    # to its cube's 0-corner, then along a shortest edge path home (an edge
    # midpoint and a vertex per edge), and finally becomes a pause; the
    # frame reaching the basepoint already is that pause
    moves = sum(2 + 2 * K.hops_home(x["cube"], len(x["coords"])) for x in exp["word"])
    want = trail.index(exp["straight"]) + 1 + moves + 1
    if len(trail) != want:
        return f"{len(trail)} frames; walking the letters home takes {want}"
    return None


_CHECKS = {
    "homology": _check_homology,
    "series": _check_series,
    "sec": _check_sec,
    "straighten": _check_straighten,
    "eval": _check_eval,
    "increase": _check_transform,
    "phi": _check_transform,
    "truncate": _check_transform,
    "contract": _check_contract,
}


def check(job: dict, code, out: str, root: str):
    """Reason why a job's exit code and stdout are wrong, or None.

    ``root`` is the directory the job's file names are relative to.
    """
    exp = job["expect"]
    if exp["kind"] == "exit1":
        return None if code == 1 and out == "" else f"exit {code} with {len(out)} bytes, expected exit 1"
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "stdout is not one JSON document"
    argv = job["argv"]
    K = None
    if "--complex" in argv:
        with open(os.path.join(root, argv[argv.index("--complex") + 1]), encoding="utf-8") as fh:
            K = Complex(json.load(fh))
    try:
        return _CHECKS[exp["kind"]](exp, doc, K)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as err:
        return f"malformed output: {type(err).__name__}: {err}"

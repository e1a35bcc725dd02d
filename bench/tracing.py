"""Traced replay of dirloop commands, for the per-layer numbers.

A replay runs a job as the chain of public calls its CLI handler in
``dirloop.cli`` makes, with a span around each call.  ``chain_complex`` and
``rank`` are reached only from inside ``betti``, so while a replay runs
they are wrapped at module level to give the homology layer its own spans;
nothing under ``src/`` changes.  The worker checks that every replay
prints byte for byte what ``cli.main`` printed for the same job.

Probe calls (marked ``probe``) run after a job on the same inputs and time
one layer operation in isolation; they are kept out of the job's own
accounting.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import contextmanager
from fractions import Fraction

from dirloop import cli, homology
from dirloop.cubical import validate
from dirloop.homology import betti
from dirloop.james import crossing_word
from dirloop.loop_algebra import loop_space_homology
from dirloop.paths import Suspension
from dirloop.serialize import FormatError, dump_path, dump_word, load_complex, load_path
from dirloop.straighten import contract_to_constant, full_straighten


class Tracer:
    """Spans of one worker process, kept in memory until the round ends.

    A span is ``[id, parent, job, name, probe, start, end]``.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.job = None
        self.probe = False
        self.kept: dict = {}

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               self.job, name, self.probe, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[6] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def homology_spans(self):
        """Wrap the homology kernels that ``betti`` looks up at call time."""
        chain, rank = homology.chain_complex, homology.rank

        def traced_chain(K):
            return self.call("homology.chain_complex", chain, K)

        def traced_rank(matrix, field=homology.RATIONALS):
            kind = "q" if field.characteristic == 0 else "zp"
            return self.call(f"homology.rank_{kind}", rank, matrix, field)

        homology.chain_complex, homology.rank = traced_chain, traced_rank
        try:
            yield
        finally:
            homology.chain_complex, homology.rank = chain, rank


# ----------------------------------------------------------------------
# the handlers of dirloop.cli, one public call per span


def _complex(args, t: Tracer, attr: str = "complex"):
    K = t.call("serialize.load_complex", load_complex, cli._read_json(getattr(args, attr)))
    t.kept["complex"] = K
    return K


def _pair(args, t: Tracer):
    sus = Suspension(_complex(args, t))
    raw = cli._read_json(args.path)
    loop = t.call("serialize.load_path", load_path, sus, raw)
    t.kept.update(sus=sus, loop=loop, segments_in=len(raw["segments"]))
    return sus, loop


def _dump_paths(t: Tracer, paths) -> list:
    with t.span("serialize.dump"):
        return [dump_path(p) for p in paths]


def _homology(args, t):
    config = cli._config(args)
    dims = t.call("homology.betti", betti, _complex(args, t), config.field)
    if args.reduced:
        dims = dims.reduced()
    return {"dims": {str(k): n for k, n in enumerate(dims.as_tuple())}}, 0


def _loop_homology(args, t):
    config = cli._config(args)
    series = t.call("loop_algebra.series", loop_space_homology, _complex(args, t),
                    config.field, truncation=config.degree)
    return {"series": [series.get(k) for k in range(config.degree + 1)]}, 0


def _sec(args, t):
    sus, loop = _pair(args, t)
    word = t.call("james.crossing_word", crossing_word, sus, loop)
    t.kept["letters"] = len(word.letters)
    return t.call("serialize.dump", dump_word, word.letters), 0


def _straighten(args, t):
    config = cli._config(args)
    sus, loop = _pair(args, t)
    result, frames = t.call("straighten.full_straighten", full_straighten, sus, loop, config.samples)
    t.kept["frames"] = frames
    with t.span("serialize.dump"):
        payload = {"result": dump_path(result), "frames": [dump_path(f) for f in frames]}
    word = t.call("james.crossing_word", crossing_word, sus, result)
    t.kept["letters"] = len(word.letters)
    payload["sec"] = t.call("serialize.dump", dump_word, word.letters)
    if args.contract:
        trail = t.call("straighten.contract", contract_to_constant, sus, loop, config.samples)
        t.kept["trail"] = trail
        payload["trail"] = _dump_paths(t, trail)
    return payload, 0


def _contract(args, t):
    config = cli._config(args)
    sus, loop = _pair(args, t)
    trail = t.call("straighten.contract", contract_to_constant, sus, loop, config.samples)
    t.kept["trail"] = trail
    return {"trail": _dump_paths(t, trail)}, 0


def _path_eval(args, t):
    sus, loop = _pair(args, t)
    return cli._point_json(t.call("paths.evaluate", sus.evaluate, loop, args.t)), 0


def _path_phi(args, t):
    sus, loop = _pair(args, t)
    out = t.call("paths.shrink_cone", sus.shrink_cone, loop, args.side, args.t)
    return t.call("serialize.dump", dump_path, out), 0


def _path_increase(args, t):
    config = cli._config(args)
    sus, loop = _pair(args, t)
    out = t.call("paths.make_increasing", sus.make_increasing, loop, config.epsilon)
    return t.call("serialize.dump", dump_path, out), 0


def _path_truncate(args, t):
    sus, loop = _pair(args, t)
    out = t.call("paths.truncate", sus.truncate_near_basepoint, loop, args.delta)
    return t.call("serialize.dump", dump_path, out), 0


_CHAINS = {
    "homology": _homology,
    "loop-homology": _loop_homology,
    "sec": _sec,
    "straighten": _straighten,
    "contract": _contract,
    "path eval": _path_eval,
    "path phi": _path_phi,
    "path increase": _path_increase,
    "path truncate": _path_truncate,
}


def replay(argv: list, t: Tracer):
    """Exit code and stdout of the job, computed as ``cli.main`` would."""
    with t.span("job"), t.homology_spans():
        args = cli._build_parser().parse_args(argv)
        key = args.command if args.command != "path" else f"path {args.path_command}"
        try:
            payload, code = _CHAINS[key](args, t)
        except (FormatError, OSError):
            return 2, ""
        except ValueError:
            return 1, ""
        out = io.StringIO()
        if payload is not None:
            print(json.dumps(payload), file=out)
        return code, out.getvalue()


# ----------------------------------------------------------------------
# probes and counts, after the job


def run_probes(job: dict, t: Tracer) -> None:
    """Time single layer operations on the job's own inputs, marked as probes."""
    kept = t.kept
    t.probe = True
    try:
        with t.homology_spans():
            for name in job["probes"]:
                if name == "validate" and "complex" in kept:
                    t.call("cubical.validate", validate, kept["complex"])
                elif name == "betti_base" and "sus" in kept:
                    t.call("homology.betti_base", betti, kept["sus"].base)
                elif name == "canonicalize" and "loop" in kept:
                    t.call("paths.canonicalize", kept["sus"].path, kept["loop"].segments)
                elif name == "evaluate" and "loop" in kept:
                    sus, loop = kept["sus"], kept["loop"]
                    with t.span("paths.evaluate"):
                        for k in range(64):
                            sus.evaluate(loop, loop.duration * Fraction(k, 63))
                elif name == "slice" and "loop" in kept:
                    sus, loop = kept["sus"], kept["loop"]
                    with t.span("paths.slice"):
                        for a, b in job["info"]["excursions"]:
                            sus.slice_path(loop, Fraction(a), Fraction(b))
                elif name == "reparam" and "loop" in kept:
                    table = [(Fraction(n), Fraction(o)) for n, o in job["info"]["clock"]]
                    t.call("paths.reparam", kept["sus"].reparam, kept["loop"], table)
    finally:
        t.probe = False


def boundary_counts(K) -> tuple:
    """Cells (rows x columns) and nonzero entries of all boundary matrices of K.

    Read from the face table, so the counts describe the input and do not
    depend on how the homology module stores its matrices.
    """
    by_dim: dict = {}
    for c, d in K.cubes.items():
        by_dim[d] = by_dim.get(d, 0) + 1
    cells = sum(by_dim.get(n - 1, 0) * by_dim[n] for n in by_dim if n > 0)
    nnz = 0
    for c, n in K.cubes.items():
        coeff: dict = {}
        for i in range(1, n + 1):
            sign = -1 if i % 2 else 1
            for eps, s in ((0, sign), (1, -sign)):
                ref = K.faces[(c, i, eps)]
                if not ref.degens:
                    coeff[ref.base] = coeff.get(ref.base, 0) + s
        nnz += sum(1 for v in coeff.values() if v)
    return cells, nnz


def job_counts(job: dict, out: str, t: Tracer) -> dict:
    """Work counts of one job, deterministic for a given input."""
    kept = t.kept
    counts = {"serialize.output_bytes": len(out.encode("utf-8"))}
    K = kept.get("complex")
    if K is not None:
        for d in K.cubes.values():
            key = f"cubical.cubes_d{d}"
            counts[key] = counts.get(key, 0) + 1
        counts["cubical.cubes"] = len(K.cubes)
        if job["argv"][0] in ("homology", "loop-homology"):
            counts["homology.boundary_cells"], counts["homology.boundary_nnz"] = boundary_counts(K)
    if "loop" in kept:
        counts["paths.segments_in"] = kept["segments_in"]
        counts["paths.segments_out"] = len(kept["loop"].segments)
    if "letters" in kept:
        counts["james.letters"] = kept["letters"]
    if "frames" in kept:
        counts["straighten.frames"] = len(kept["frames"])
        counts["straighten.frame_segments"] = sum(len(f.segments) for f in kept["frames"])
    if "trail" in kept:
        counts["straighten.trail_frames"] = len(kept["trail"])
        counts["straighten.trail_segments"] = sum(len(f.segments) for f in kept["trail"])
    return counts

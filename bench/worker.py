"""One round of a benchmark run, in a fresh process.

Usage: python3 worker.py SPEC RESULT

SPEC is a JSON file written by ``run.py``.  The worker times its own set
up (``import dirloop.cli`` and one untimed warm-up job), then runs every
job of the round once, in order, as a single client in a closed loop:
garbage is collected and the reference kernel timed between jobs, and the
next job starts when the previous one has returned.  Outputs whose digest
the parent has not verified yet are saved for the oracle; the worker itself
checks nothing, so its memory holds only the program's.

In trace mode each job runs through ``cli.main`` and then once more as a
traced replay (see ``tracing.py``); spans are written to a file when the
round ends.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction


def ref_kernel_s() -> float:
    """Time a fixed stdlib ``Fraction`` loop, the gauge of the machine's speed.

    Every job time and set-up time is divided by the kernel's time right
    before it (``run.at_ref_speed``); its median is printed as a drift
    diagnostic.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def run_cli(main, argv):
    """Exit code and stdout of one ``dirloop`` command, run in-process."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed job, not a failed run
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def digest(code, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode("utf-8")).hexdigest()


class Recorder:
    """Per-job results of the round, and the outputs the parent must check."""

    def __init__(self, spec: dict):
        self.verified = {int(k): set(v) for k, v in spec["verified"].items()}
        self.save_dir = spec["save_dir"]
        self.rows: list = []

    def add(self, job: dict, code, out: str, **fields) -> None:
        h = digest(code, out)
        saved = None
        if h not in self.verified.get(job["id"], ()):
            saved = os.path.join(self.save_dir, f"{job['id']}-{h[:16]}.out")
            if not os.path.exists(saved):
                with open(saved, "w", encoding="utf-8") as fh:
                    fh.write(out)
        self.rows.append(dict(fields, id=job["id"], code=code, hash=h, saved=saved))


def timed_round(main, jobs: list, rec: Recorder) -> None:
    for job in jobs:
        gc.collect()
        ref = ref_kernel_s()
        start = time.perf_counter()
        code, out = run_cli(main, job["argv"])
        elapsed = time.perf_counter() - start
        rec.add(job, code, out, t=elapsed, ref=ref)


def traced_round(main, jobs: list, rec: Recorder, spans_file: str) -> None:
    import tracing

    tracer = tracing.Tracer()
    for job in jobs:
        gc.collect()
        ref = ref_kernel_s()
        start = time.perf_counter()
        code, out = run_cli(main, job["argv"])
        plain = time.perf_counter() - start
        gc.collect()
        tracer.job, tracer.kept = job["id"], {}
        try:
            rcode, rout = tracing.replay(job["argv"], tracer)
        except Exception as exc:  # a replay that diverges is a failed job
            rcode, rout = f"{type(exc).__name__}: {exc}", ""
        root = next(s for s in reversed(tracer.spans) if s[3] == "job")
        counts = tracing.job_counts(job, rout, tracer)
        tracing.run_probes(job, tracer)
        tracer.kept = {}
        rec.add(job, code, out, t=plain, traced=root[6] - root[5], ref=ref,
                identical=(rcode == code and rout == out), counts=counts)
    with open(spans_file, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s) + "\n")


def main() -> None:
    spec_file, result_file = sys.argv[1], sys.argv[2]
    with open(spec_file, encoding="utf-8") as fh:
        spec = json.load(fh)
    os.chdir(spec["root"])
    sys.path.insert(0, spec["src"])
    jobs = spec["jobs"]

    start = time.perf_counter()
    from dirloop import cli

    run_cli(cli.main, jobs[spec["warmup"]]["argv"])
    setup = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(spec["src"] + os.sep):
        sys.exit(f"dirloop was imported from {cli.__file__}, not from {spec['src']}")

    # objects alive now (the spec, the imported modules) are not the jobs'
    # garbage; freezing them keeps the collection between jobs short
    gc.freeze()
    # the machine's speed right after set up, to scale that one measurement
    setup_ref = ref_kernel_s()
    rec = Recorder(spec)
    if spec["mode"] == "trace":
        traced_round(cli.main, jobs, rec, spec["spans_file"])
    else:
        timed_round(cli.main, jobs, rec)
    result = {
        "setup_s": setup,
        "setup_ref": setup_ref,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rows": rec.rows,
    }
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

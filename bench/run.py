"""The dirloop benchmark.

    python3 bench/run.py --workload homology --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Inputs are generated from the seed
under ``.bench_work/``; every job runs the real ``dirloop`` command
in-process through ``dirloop.cli.main`` and every output is checked by
``oracle.py``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Load model: one client, one thread, closed loop.  A run is a sequence of
rounds; each round is a fresh worker process (``worker.py``) that sets up,
then runs every job of the workload once in the seeded order.  Rounds
repeat until the time is spent.  Other tenants of the machine slow it down
by varying amounts, in states that switch within seconds and a mix that
drifts over minutes, so every time is taken relative to a reference kernel
timed right before it in the same process and reported in seconds at a
reference speed of the machine (``at_ref_speed``).  A job's time is the
median of its repetitions; the metrics are taken over those per-job times.
See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_ROUNDS = {"time": 3, "trace": 1}
# ``worker.ref_kernel_s`` on a quiet machine of the kind the baseline was
# measured on (a shared 2-core Xeon virtual machine): the reference speed.
REF_KERNEL_S = 1.35e-3
# Stop starting rounds this long after launch, so a slow machine still
# exits well inside three minutes.
LAUNCH_BUDGET_S = 120.0
EXIT_BUDGET_S = 170.0

TIME_LAYERS = [
    "serialize.load_complex_s", "serialize.load_path_s", "serialize.dump_s",
    "homology.chain_complex_s", "homology.rank_q_s", "homology.rank_zp_s",
    "loop_algebra.series_s",
    "paths.make_increasing_s", "paths.shrink_cone_s", "paths.truncate_s",
    "james.crossing_word_s",
    "straighten.full_straighten_s", "straighten.contract_s",
    "cli.self_s",
]
PROBE_LAYERS = [
    "cubical.validate_s", "homology.betti_base_s", "paths.canonicalize_s",
    "paths.evaluate_s", "paths.slice_s", "paths.reparam_s",
]
COUNT_LAYERS = [
    "serialize.output_bytes", "cubical.cubes",
    *(f"cubical.cubes_d{d}" for d in range(7)),
    "homology.boundary_cells", "homology.boundary_nnz",
    "paths.segments_in", "paths.segments_out", "james.letters",
    "straighten.frames", "straighten.frame_segments",
    "straighten.trail_frames", "straighten.trail_segments",
]


def tail(values: list) -> tuple:
    """The highest percentile with at least ten values beyond it, and which one.

    Nearest rank: with n values that is the (n - 10)-th smallest, the
    100 * (n - 10) / n percentile.
    """
    ordered = sorted(values)
    k = len(ordered) - 10
    if k < 1:
        raise ValueError(f"{len(ordered)} jobs are too few for a tail with ten beyond it")
    return ordered[k - 1], 100.0 * k / len(ordered)


def run_rounds(mode: str, manifest: dict, work: str, seconds: float, launched: float):
    """Run worker rounds until the time is spent; check every new output."""
    jobs = manifest["jobs"]
    # the worker gets no expected outputs: its heap holds only the program's
    runnable = [{k: v for k, v in job.items() if k != "expect"} for job in jobs]
    inputs = os.path.join(work, "inputs")
    save_dir = os.path.join(work, "outputs")
    os.makedirs(save_dir, exist_ok=True)
    verified: dict = defaultdict(set)
    wrong: dict = {}
    rounds: list = []
    start = time.perf_counter()
    while True:
        n = len(rounds)
        spec = {
            "mode": mode, "src": SRC, "root": inputs, "jobs": runnable,
            "warmup": manifest["warmup"], "save_dir": save_dir,
            "verified": {str(k): sorted(v) for k, v in verified.items()},
            "spans_file": os.path.join(work, f"spans{n}.jsonl"),
        }
        spec_file = os.path.join(work, "spec.json")
        result_file = os.path.join(work, f"round{n}.json")
        with open(spec_file, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        budget = EXIT_BUDGET_S - (time.perf_counter() - launched)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_file, result_file],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=max(budget, 1.0),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed: {proc.stderr.strip()[-2000:]}")
        with open(result_file, encoding="utf-8") as fh:
            result = json.load(fh)
        for row in result["rows"]:
            if row["saved"]:
                with open(row["saved"], encoding="utf-8") as fh:
                    out = fh.read()
                os.remove(row["saved"])
                reason = oracle.check(jobs[row["id"]], row["code"], out, inputs)
                if reason is None:
                    verified[row["id"]].add(row["hash"])
                else:
                    wrong[row["hash"]] = reason
            row["ok"] = row["hash"] in verified[row["id"]] and row.get("identical", True)
            if not row["ok"]:
                print(f"FAILED job {row['id']} ({' '.join(jobs[row['id']]['argv'])}): "
                      f"{wrong.get(row['hash'], 'replay differs from cli.main')}")
        rounds.append(result)
        elapsed = time.perf_counter() - start
        since_launch = time.perf_counter() - launched
        if len(rounds) >= MIN_ROUNDS[mode] and (
            elapsed + elapsed / len(rounds) > seconds or since_launch > LAUNCH_BUDGET_S
        ):
            return rounds, elapsed


def at_ref_speed(seconds: float, ref: float) -> float:
    """Wall seconds measured right after the reference kernel took ``ref``,
    as seconds at the reference speed."""
    return seconds * REF_KERNEL_S / ref


def job_medians(rounds: list, values) -> dict:
    """Per job id, the median over its repetitions of ``values(row)``."""
    reps: dict = defaultdict(list)
    for result in rounds:
        for row in result["rows"]:
            reps[row["id"]].append(values(row))
    return {j: statistics.median(v) for j, v in reps.items()}


def job_times(rounds: list, key: str) -> dict:
    return job_medians(rounds, lambda row: at_ref_speed(row[key], row["ref"]))


def end_to_end(manifest: dict, rounds: list) -> dict:
    jobs = manifest["jobs"]
    per_job = job_times(rounds, "t")
    times = [per_job[j["id"]] for j in jobs]
    job_tail, pct = tail(times)
    units = sum(j["units"] for j in jobs)
    print(f"job_tail_s is the p{pct:.1f} of {len(times)} jobs, each the median of "
          f"{len(rounds)} runs ({sum(len(r['rows']) for r in rounds)} job runs in all)")
    return {
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (job_tail, "s"),
        "throughput_units_per_s": (units / sum(times), "units/s"),
        # set-up is one measurement per round; the kernel is timed right after it
        "setup_s": (statistics.median(at_ref_speed(r["setup_s"], r["setup_ref"]) for r in rounds), "s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in rounds) / 1024.0, "MB"),
    }


def _self_times(spans: list):
    """Chain self times and top-level probe durations, keyed by job id."""
    dur = {s[0]: s[6] - s[5] for s in spans}
    covered: dict = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            covered[s[1]] += dur[s[0]]
    chain: dict = defaultdict(lambda: defaultdict(float))
    probe: dict = defaultdict(lambda: defaultdict(float))
    for sid, parent, job, name, is_probe, _, _ in spans:
        if not is_probe:
            label = "cli.self" if name == "job" else name
            chain[job][label + "_s"] += dur[sid] - covered[sid]
        elif parent is None:
            probe[job][name + "_s"] += dur[sid]
    return chain, probe


def per_layer(manifest: dict, rounds: list, work: str) -> dict:
    jobs = manifest["jobs"]
    layers: dict = {}
    for n, result in enumerate(rounds):
        with open(os.path.join(work, f"spans{n}.jsonl"), encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
        chain, probe = _self_times(spans)
        for row in result["rows"]:
            row["layers"] = {**chain[row["id"]], **probe[row["id"]]}
    for name in TIME_LAYERS + PROBE_LAYERS:
        per_job = job_medians(rounds, lambda row: at_ref_speed(row["layers"].get(name, 0.0), row["ref"]))
        layers[name] = (sum(per_job[j["id"]] for j in jobs), "s")
    first = {row["id"]: row["counts"] for row in rounds[0]["rows"]}
    for name in COUNT_LAYERS:
        layers[name] = (sum(first[j["id"]].get(name, 0) for j in jobs), "count")
    # wall seconds: how busy the machine was during the run
    refs = [row["ref"] for r in rounds for row in r["rows"]]
    layers["machine.ref_kernel_s"] = (statistics.median(refs), "s")
    plain = [job_times(rounds, "t")[j["id"]] for j in jobs]
    traced = [job_times(rounds, "traced")[j["id"]] for j in jobs]
    layers["trace.job_p50_overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    layers["trace.job_tail_overhead_s"] = (tail(traced)[0] - tail(plain)[0], "s")
    return layers


def main(argv=None) -> int:
    launched = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dirloop", "cli.py")):
        print(f"error: no dirloop sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import gen

    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {gen.WORKLOADS}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    try:
        manifest = gen.generate(args.workload, args.seed, os.path.join(work, "inputs"))
        mode = "trace" if args.trace else "time"
        rounds, elapsed = run_rounds(mode, manifest, work, args.seconds, launched)
        rows = [row for r in rounds for row in r["rows"]]
        failed = sum(not row["ok"] for row in rows)
        print(f"workload {args.workload}, seed {args.seed}, {mode}: {len(rounds)} rounds of "
              f"{len(manifest['jobs'])} jobs in {elapsed:.1f} s")
        refs = [row["ref"] for row in rows]
        print(f"times are seconds at the reference speed, where the reference kernel "
              f"takes {REF_KERNEL_S:.6f} s")
        metrics = per_layer(manifest, rounds, work) if args.trace else end_to_end(manifest, rounds)
        print(f"{'failed_frac':32s} {failed / len(rows):.4f} ratio ({failed} of {len(rows)} job runs)")
        if not args.trace:
            print(f"{'machine.ref_kernel_s':32s} {statistics.median(refs):.6f} s "
                  f"(drift diagnostic, wall seconds: {min(refs):.6f} to {max(refs):.6f})")
        for name, (value, unit) in metrics.items():
            print(f"{name:32s} {value if unit == 'count' else f'{value:.6g}'} {unit}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(rows),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run is still using it
            pass


if __name__ == "__main__":
    sys.exit(main())

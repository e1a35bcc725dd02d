"""Tests of the benchmark's own checks: right outputs pass, corrupted ones fail.

    python3 -m pytest bench/test_oracles.py
"""

from __future__ import annotations

import copy
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from dirloop import cli  # noqa: E402


@pytest.fixture(scope="module")
def workloads(tmp_path_factory):
    out = {}
    for name in gen.WORKLOADS:
        root = str(tmp_path_factory.mktemp(name))
        out[name] = (gen.generate(name, 0, root), root)
    return out


def _smallest(workloads, workload: str, kind: str) -> tuple:
    manifest, root = workloads[workload]
    job = min((j for j in manifest["jobs"] if j["expect"]["kind"] == kind), key=lambda j: j["units"])
    return job, root


def _run(job, root, monkeypatch):
    monkeypatch.chdir(root)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(job["argv"])
    return code, out.getvalue()


CASES = [
    ("homology", "homology"), ("homology", "series"),
    ("straighten", "straighten"), ("straighten", "sec"), ("straighten", "eval"),
    ("straighten", "increase"), ("straighten", "phi"), ("straighten", "truncate"),
    ("contract", "contract"), ("contract", "exit1"),
]


@pytest.mark.parametrize("workload,kind", CASES)
def test_program_output_passes_and_replay_matches(workloads, workload, kind, monkeypatch):
    job, root = _smallest(workloads, workload, kind)
    code, out = _run(job, root, monkeypatch)
    assert oracle.check(job, code, out, root) is None
    assert tracing.replay(job["argv"], tracing.Tracer()) == (code, out)


def _corrupted(workloads, workload, kind, monkeypatch, corrupt) -> str:
    job, root = _smallest(workloads, workload, kind)
    code, out = _run(job, root, monkeypatch)
    doc = json.loads(out)
    bad = copy.deepcopy(doc)
    corrupt(bad)
    assert bad != doc
    return oracle.check(job, code, json.dumps(bad) + "\n", root)


def test_dim_off_by_one_fails(workloads, monkeypatch):
    def bump(doc):
        doc["dims"]["1"] += 1

    assert _corrupted(workloads, "homology", "homology", monkeypatch, bump)


def test_series_off_by_one_fails(workloads, monkeypatch):
    def bump(doc):
        doc["series"][-1] += 1

    assert _corrupted(workloads, "homology", "series", monkeypatch, bump)


def test_dropped_letter_fails(workloads, monkeypatch):
    assert _corrupted(workloads, "straighten", "sec", monkeypatch, lambda doc: doc.pop(1))

    def drop_from_result(doc):
        doc["result"]["segments"].pop(1)

    assert _corrupted(workloads, "straighten", "straighten", monkeypatch, drop_from_result)

    def drop_from_word(doc):
        doc["sec"].pop()

    assert _corrupted(workloads, "straighten", "straighten", monkeypatch, drop_from_word)


def test_truncated_trail_fails(workloads, monkeypatch):
    def cut_end(doc):
        doc["trail"].pop()

    def cut_start(doc):
        doc["trail"].pop(0)

    def skip_middle(doc):
        doc["trail"].pop(-3)

    assert _corrupted(workloads, "contract", "contract", monkeypatch, cut_end)
    assert _corrupted(workloads, "contract", "contract", monkeypatch, cut_start)
    assert _corrupted(workloads, "contract", "contract", monkeypatch, skip_middle)


def test_undirected_frame_fails(workloads, monkeypatch):
    def reverse_heights(doc):
        frame = doc["trail"][1]
        track = next(s for s in frame["segments"] if s["kind"] == "track")
        track["h"].reverse()

    assert _corrupted(workloads, "contract", "contract", monkeypatch, reverse_heights)


@pytest.mark.parametrize("kind", ["increase", "phi", "truncate"])
def test_moved_breakpoint_fails(workloads, kind, monkeypatch):
    def move(doc):
        track = next(s for s in doc["segments"] if s["kind"] == "track" and s["h"][0] != s["h"][1])
        track["h"][1] = str(oracle.F(track["h"][1]) - oracle.F(1, 1024))

    assert _corrupted(workloads, "straighten", kind, monkeypatch, move)


def test_wrong_point_fails(workloads, monkeypatch):
    def shift(doc):
        doc["height"] = str(oracle.F(doc.get("height", "0")) + oracle.F(1, 1024))
        doc["kind"] = "interior"

    assert _corrupted(workloads, "straighten", "eval", monkeypatch, shift)


def test_wrong_exit_codes_fail(workloads, monkeypatch):
    job, root = _smallest(workloads, "contract", "exit1")
    assert oracle.check(job, 0, "", root)
    assert oracle.check(job, 1, '{"trail": []}\n', root)
    job, root = _smallest(workloads, "homology", "homology")
    code, out = _run(job, root, monkeypatch)
    assert oracle.check(job, 1, out, root)
    assert oracle.check(job, code, out[:-3], root)


def test_tail_leaves_ten_beyond():
    assert run.tail(list(range(40, 0, -1))) == (30, 75.0)
    with pytest.raises(ValueError):
        run.tail(list(range(10)))

"""Acceptance gate: one test per criterion, all exact."""

import pytest

from dirloop import acceptance
from dirloop.acceptance import CRITERIA, CriterionResult, run_acceptance


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in run_acceptance(seed=0)}


@pytest.mark.parametrize("name", [name for name, _ in CRITERIA])
def test_criterion(name, results):
    outcome = results[name]
    assert outcome.ok, outcome.detail


def test_a_raising_criterion_is_a_fail_row(monkeypatch):
    def broken(seed):
        raise KeyError("ghost")

    monkeypatch.setattr(acceptance, "CRITERIA", [("fine", lambda seed: "ok"), ("broken", broken)])
    assert run_acceptance(seed=0) == [
        CriterionResult("fine", True, "ok"),
        CriterionResult("broken", False, "KeyError: 'ghost'"),
    ]

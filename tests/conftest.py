"""Fixtures shared by the test modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.fixture()
def fresh_interpreter():
    """``run(script, *args)``: what ``script`` prints as JSON, run by a new
    interpreter on this source tree, so that imports start from nothing."""
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(script: str, *args: str):
        out = subprocess.run(
            [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, check=True, timeout=120
        ).stdout
        return json.loads(out)

    return run

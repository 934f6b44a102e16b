"""Smoke test of the benchmark harness in its traced mode.

The traced run wraps package functions by name and fails when a layer it
reports reads zero, so a package change that stops calling a wrapped
function shows here.  Only ``cells_spectral`` runs (a few seconds); the
``affine_calibrate`` workload takes several times longer.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_cells_spectral_run_is_correct():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cells_spectral", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0

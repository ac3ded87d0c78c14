"""The benchmark harness still runs against the package.

``benchmarks/harness.py`` reads package internals that no other test
covers (the estimate's radii, the oracle context, the traced call
arguments), and ``benchmarks/tracing.py`` finds the package functions it
times by name.  One traced pass over each g1 workload, over ``lasso-g4``,
the one workload with interval scores, infinite radii and one-coordinate
rescoring after zero steps, and over ``ridge-ucd-cli``, the one workload
that goes through ``ascd.cli`` and so reaches the ``save_svmlight`` and
``load_svmlight`` it wraps, every instance once, must report a correct
result with no failed check.  The three tracked workloads must also time
their score stage, which the tracer finds as ``ascd.driver.compute_bounds``.
Every workload evaluates the full objective once at the start, once after
each residual refresh (every 10n steps) that a step follows, and once for
``final_f``; the steps carry it in between.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["ridge-g1", "lasso-g1", "lasso-g4",
                                      "ridge-ucd-cli"])
def test_traced_workload_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    details = json.loads(proc.stdout.splitlines()[-2])["details"]
    steps, n = details["steps_per_run"], details["instances"]["n"]
    calls = result["metrics"]["problem.objective_calls"]["value"]
    assert calls <= 2 + steps // (10 * n)
    if workload != "ridge-ucd-cli":
        # a score stage the driver no longer calls by that name reads 0
        assert result["metrics"]["selector.score_us"]["value"] > 0

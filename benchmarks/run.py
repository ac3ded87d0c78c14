"""Solver benchmark for the ascd package.

  python3 benchmarks/run.py --workload lasso-g4 --seed 0 --seconds 10 --trace 0

Runs one workload from ``BENCHMARK.json`` in this process, on one thread,
against the package source in ``src/`` of the same checkout.  Each
repetition sets up one problem instance and solves it once; repetitions
cycle through the workload's instances until every instance has run and
``--seconds`` have passed.  Every repetition is checked (see
``workloads.py``), and so are a soundness pass with diagnostics on and the
determinism of every output.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
measured with tracing off.  With ``--trace 1`` each repetition runs twice,
untraced and then traced, and the line reports the per-layer metrics of the
traced runs.  The line before it holds the environment, timing quartiles
and span totals.  Failed checks are listed on stderr and counted in
``failed``; the exit code is 0 whenever a result is printed.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package() -> None:
    """Put this checkout's ``src`` first on the path and prove it is used."""
    if not (SRC / "ascd" / "__init__.py").is_file():
        sys.exit(f"error: no ascd package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import ascd
    if Path(ascd.__file__).resolve().parent != SRC / "ascd":
        sys.exit(f"error: imported ascd from {ascd.__file__}, not {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"error: unknown workload {args.workload!r}")
    _import_package()

    import harness
    from workloads import WORKLOADS

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        bench = harness.Bench(WORKLOADS[args.workload], args.seed,
                              bool(args.trace), workdir)
        bench.execute(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for rep in bench.reps + bench.traced:
        for failure in rep.failures:
            print(f"FAILED instance {rep.data_seed}: {failure}",
                  file=sys.stderr)
    for failure in bench.soundness_failures:
        print(f"FAILED soundness pass: {failure}", file=sys.stderr)

    values = bench.per_layer() if args.trace else bench.end_to_end()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"details": bench.details()}))
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

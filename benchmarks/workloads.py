"""The benchmark's workloads: inputs, one timed repetition, and its checks.

Every workload solves synthetic least-squares problems with exact line
search.  Its inputs are ``instances`` problems whose data seeds derive from
the benchmark seed, so two seeds never share an instance.  The objective
progress of one instance varies a lot from seed to seed (the column scales
are heavy-tailed), so ``f_ratio`` is the geometric mean over every instance
of one run; the instance counts below keep its spread across seeds small.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import jsonschema
import numpy as np

import ascd
import ascd.cli
import ascd.driver
from ascd import (CompositeProblem, OracleSpec, Regularizer, RunConfig,
                  SynthConfig, UpdateRule)
from tracing import SpanStats, Tracer

ROWS = 1000
# apart by more than any instance count, so seeds never share an instance
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    cols: int
    penalty: str          # "l1": lasso, lam = 0.1 * ||A^T b||_inf; "l2": ridge
    rule: str
    oracle: str | None    # None for ucd, which fetches no oracle rows
    init: str
    epochs: float         # step budget of one run, in multiples of n
    instances: int
    cli: bool = False     # drive ``ascd generate`` and ``ascd run`` instead

    def data_seed(self, seed: int, k: int) -> int:
        return seed * SEED_STRIDE + k % self.instances

    @property
    def steps(self) -> int:
        return int(round(self.epochs * self.cols))

    @property
    def tracked(self) -> bool:
        return self.oracle is not None


WORKLOADS = {w.name: w for w in (
    # selector at full set size: g4 certifies no lower bound, |I| stays n
    Workload("lasso-g4", 5000, "l1", "ascd-gss", "g4", "none", 0.5, 12),
    # exact rows from col_dots (n is above gram_limit); the pick stalls
    # within an eighth of an epoch, and the time per step depends on the
    # instance, so many short runs
    Workload("lasso-g1", 5000, "l1", "ascd-gss", "g1", "true-gradient",
             0.125, 24),
    # dense Gram build and memory; |I| collapses to 1 and the sort remains
    Workload("ridge-g1", 1000, "l2", "ascd", "g1", "true-gradient", 1.0, 48),
    # shared loop, svmlight load, diagnostics and CSV output; no selector
    Workload("ridge-ucd-cli", 1000, "l2", "ucd", None, "none", 10.0, 16,
             cli=True),
)}


@dataclass
class Rep:
    """One repetition: set up one instance, then solve it once."""

    data_seed: int
    setup_s: float = math.nan
    wall_s: float = math.nan
    f0: float = math.nan
    final_f: float = math.nan
    shape: tuple[int, int, int] = (0, 0, 0)     # d, n, nnz
    signature: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    svm_bytes: int = 0
    # probe time around the repetition over the reference probe time
    slowdown: float = 1.0
    # traced repetitions only, until ``harness.layer_values`` has read them:
    # the run's result and the spans of the set-up and of the timed call
    result: ascd.driver.RunResult | None = None
    setup_stats: SpanStats | None = None
    run_stats: SpanStats | None = None
    layer: dict = field(default_factory=dict)   # per-layer metrics, traced

    @property
    def f_ratio(self) -> float:
        return self.final_f / self.f0


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def make_problem(wl: Workload, data_seed: int, rep: Rep | None = None):
    clock = time.perf_counter_ns
    t0 = clock()
    matrix, target = ascd.generate_synthetic(
        SynthConfig(n_rows=ROWS, n_cols=wl.cols, seed=data_seed))
    t1 = clock()
    if wl.penalty == "l1":
        lam = 0.1 * float(np.max(np.abs(matrix.col_dots(target))))
    else:
        lam = 1.0
    problem = CompositeProblem(matrix, target, Regularizer(wl.penalty, lam))
    t2 = clock()
    if rep is not None:
        rep.setup_s = (t2 - t0) * 1e-9
        rep.shape = (matrix.n_rows, matrix.n_cols, matrix.nnz)
        rep.setup_stats = SpanStats()
        rep.setup_stats.add_span("data.generate", t1 - t0)
        rep.setup_stats.add_span("problem.construct", t2 - t1)
    return problem


def run_config(wl: Workload, problem, data_seed: int, steps: int,
               diag_every: int) -> RunConfig:
    oracle = None if wl.oracle is None else OracleSpec(wl.oracle,
                                                       seed=data_seed)
    return RunConfig(problem=problem, steps=steps, rule=wl.rule,
                     update=UpdateRule("line_search"), oracle=oracle,
                     seed=data_seed, init=wl.init, diag_every=diag_every)


def _result_signature(result) -> dict:
    return {"final_f": repr(float(result.final_f)),
            "f0": repr(float(result.f[0])),
            "distinct_picks": int(np.unique(result.i).size),
            "useful_steps": int(np.count_nonzero(result.gamma)),
            "picks": _digest(result.i.tobytes())}


def library_rep(wl: Workload, data_seed: int,
                tracer: Tracer | None = None) -> Rep:
    rep = Rep(data_seed)
    problem = make_problem(wl, data_seed, rep)
    config = run_config(wl, problem, data_seed, wl.steps, diag_every=0)
    if tracer is not None:
        tracer.take()
    gc.collect()
    t0 = time.perf_counter()
    # looked up at call time, so a traced repetition runs the wrapper
    result = ascd.driver.run(config)
    rep.wall_s = time.perf_counter() - t0
    if tracer is not None:
        rep.run_stats = tracer.take()
        rep.result = result
    rep.f0, rep.final_f = float(result.f[0]), float(result.final_f)
    rep.signature = _result_signature(result)
    return rep


def _cli(argv: list[str], workdir: str) -> tuple[int, float]:
    """Run one in-process CLI command from inside ``workdir``.

    Relative paths keep the summary JSON free of the work directory's name,
    so its bytes depend on the inputs alone.
    """
    cwd = os.getcwd()
    os.chdir(workdir)
    gc.collect()
    try:
        t0 = time.perf_counter()
        try:
            code = ascd.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
        return code, time.perf_counter() - t0
    finally:
        os.chdir(cwd)


def cli_setup_argv(wl: Workload, data_seed: int) -> list[str]:
    return ["generate", "--rows", str(ROWS), "--cols", str(wl.cols),
            "--seed", str(data_seed), "--out", ".", "--tag", "data"]


def cli_run_argv(wl: Workload, data_seed: int) -> list[str]:
    return ["run", "--data", "data.svm", f"--{wl.penalty}", "1",
            "--rule", wl.rule, "--update", "line-search",
            "--steps", f"{wl.epochs:g}n", "--seed", str(data_seed),
            "--out", ".", "--tag", "run"]


def cli_rep(wl: Workload, data_seed: int, workdir: str,
            tracer: Tracer | None = None) -> Rep:
    rep = Rep(data_seed)
    if tracer is not None:
        tracer.take()
    code, rep.setup_s = _cli(cli_setup_argv(wl, data_seed), workdir)
    if tracer is not None:
        rep.setup_stats = tracer.take()
    if code != 0:
        rep.failures.append(f"ascd generate exited with {code}")
        return rep
    rep.svm_bytes = os.path.getsize(os.path.join(workdir, "data.svm"))
    code, rep.wall_s = _cli(cli_run_argv(wl, data_seed), workdir)
    if tracer is not None:
        rep.run_stats = tracer.take()
        rep.result = rep.run_stats.seen.get("run_result")
    if code != 0:
        rep.failures.append(f"ascd run exited with {code}")
        return rep

    with open(os.path.join(workdir, "run.json"), "rb") as fh:
        summary_bytes = fh.read()
    with open(os.path.join(workdir, "run.csv"), "rb") as fh:
        csv_bytes = fh.read()
    summary = json.loads(summary_bytes)
    try:
        jsonschema.validate(summary, ascd.cli.RUN_SUMMARY_SCHEMA)
    except jsonschema.ValidationError as exc:
        rep.failures.append(f"summary JSON fails the schema: {exc.message}")
    lines = csv_bytes.decode().splitlines()
    if len(lines) < 2:
        rep.failures.append("trace CSV has no rows")
        return rep
    if lines[0] != ascd.driver.TRACE_HEADER:
        rep.failures.append(f"trace CSV header is {lines[0]!r}")
    if len(lines) - 1 != summary.get("steps"):
        rep.failures.append(f"trace CSV has {len(lines) - 1} rows for "
                            f"{summary.get('steps')} steps")
    if any(summary.get("violations", {}).values()):
        rep.failures.append(f"diagnostics report {summary['violations']}")
    with open(os.path.join(workdir, "data.json")) as fh:
        nnz = json.load(fh)["nnz"]
    rep.shape = (summary.get("n_rows", 0), summary.get("n_cols", 0), nnz)
    rep.f0 = float(lines[1].split(",")[2])
    rep.final_f = float(summary.get("final_f", math.nan))
    rep.signature = {"final_f": repr(rep.final_f), "f0": repr(rep.f0),
                     "csv": _digest(csv_bytes), "json": _digest(summary_bytes)}
    return rep


def check_objective(wl: Workload, rep: Rep, f_star: float | None) -> None:
    """Lasso: the objective did not rise.  Ridge: it is not below f*."""
    if not (math.isfinite(rep.final_f) and math.isfinite(rep.f0)):
        rep.failures.append(f"non-finite objective {rep.final_f!r}")
    elif wl.penalty == "l1" and rep.final_f > rep.f0 * (1 + 1e-12):
        rep.failures.append(f"final_f {rep.final_f!r} exceeds f0 {rep.f0!r}")
    elif f_star is not None and rep.final_f < f_star - 1e-9 * (
            rep.f0 + abs(f_star)):
        rep.failures.append(f"final_f {rep.final_f!r} is below the "
                            f"optimum {f_star!r}")


def ridge_optimum(wl: Workload, data_seed: int) -> float:
    """f* from the dense normal equations ``(A^T A + lam I) x = A^T b``,
    evaluated here rather than by the package's objective under test."""
    problem = make_problem(wl, data_seed)
    dense, target, lam = (problem.matrix.to_dense(), problem.target,
                          problem.fold_lam)
    gram = dense.T @ dense
    gram[np.diag_indices_from(gram)] += lam
    x_star = np.linalg.solve(gram, dense.T @ target)
    residual = dense @ x_star - target
    return 0.5 * (float(residual @ residual) + lam * float(x_star @ x_star))


def soundness_pass(wl: Workload, data_seed: int) -> tuple[list[str], str]:
    """Re-run one instance with diagnostics every n steps.

    Runs at least n + 1 steps, so the bounds are checked after a full epoch
    of updates.  Returns the failures and the hash of the first
    ``wl.steps`` picks, which the diagnostics must not change.
    """
    problem = make_problem(wl, data_seed)
    steps = max(wl.steps, problem.n + 1)
    result = ascd.driver.run(run_config(wl, problem, data_seed, steps,
                                        diag_every=problem.n))
    failures = [f"{kind} violations: {count}" for kind, count in (
        ("soundness", result.soundness_violations),
        ("containment", result.containment_violations),
        ("sandwich", result.sandwich_violations)) if count]
    return failures, _digest(result.i[:wl.steps].tobytes())

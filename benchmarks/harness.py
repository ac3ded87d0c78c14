"""Repetition loop, checks and metrics of one benchmark run.

Imported by ``run.py`` once the checkout's ``src`` is on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import workloads as W
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SIGNATURES = ROOT / ".bench-signatures.json"
TRACED_MIN_REPS = 3
# probe_seconds() on an idle 2-vCPU Xeon KVM guest; times are reported at
# this host speed (see README, "Host speed")
PROBE_REFERENCE_S = 0.014


def probe_seconds() -> float:
    """Time a fixed kernel that does not involve the package.

    Three quarters of it are interpreter-bound small-array operations, a
    quarter is sorting and scanning a 5000-vector; that mix slows down with
    a busy host in about the proportion the solver's repetitions do.
    """
    rng = np.random.default_rng(0)
    v, w = rng.standard_normal(5000), rng.standard_normal(1000)
    b, trace = w[::-1].copy(), []
    t0 = time.perf_counter()
    for k in range(3300):
        r = w - b
        trace.append(0.5 * float(r @ r))
        w[k % 1000] -= 0.01 * r[k % 1000]
    for _ in range(9):
        c = np.cumsum(v[np.argsort(v, kind="stable")])
        v[int(np.argmax(c))] *= 0.5
    return time.perf_counter() - t0


def _source_digest() -> str:
    """Digest of the package and benchmark code that produce the outputs."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "ascd").glob("*.py"),
                        *Path(__file__).parent.glob("*.py")]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    """HEAD of the checkout, when it is a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def timing_summary(values: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with at least ten
    samples above it (when there are enough samples for one)."""
    values = sorted(v for v in values if math.isfinite(v))
    out = {"n": len(values)}
    if not values:
        return out
    out["median"] = statistics.median(values)
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    if len(values) >= 20:
        k = len(values) - 11
        out[f"p{100 * (k + 1) // len(values)}"] = values[k]
    return out


def _median(values: list[float]) -> float | None:
    """Median of the finite values; None (JSON null) when there are none."""
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else None


def _geomean(values: list[float]) -> float | None:
    logs = [math.log(v) for v in values if math.isfinite(v) and v > 0]
    return math.exp(statistics.fmean(logs)) if logs else None


class SignatureStore:
    """Deterministic outputs per (source digest, workload, instance), kept
    in the checkout so that runs in separate processes are compared too."""

    def __init__(self, path: Path, source: str, workload: str):
        self.path = path
        self.prefix = f"{source}/{workload}/"
        try:
            self.entries = json.loads(path.read_text())
        except (OSError, ValueError):
            self.entries = {}

    def check(self, data_seed: int, signature: dict) -> dict:
        """Record the signature if it is new; return the recorded one."""
        return self.entries.setdefault(self.prefix + str(data_seed),
                                       signature)

    def save(self) -> None:
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}")
        tmp.write_text(json.dumps(self.entries, sort_keys=True))
        os.replace(tmp, self.path)


class Bench:
    def __init__(self, wl, seed: int, trace: bool, workdir: str):
        self.wl = wl
        self.seed = seed
        self.trace = trace
        self.workdir = workdir
        self.reps = []          # untraced repetitions
        self.traced = []        # traced twins of the untraced ones
        self.soundness_failures: list[str] = []
        self.tracer = Tracer() if trace else None
        self.peak_rss_mb = math.nan

    def _rep(self, data_seed: int, tracer=None):
        wl = self.wl
        try:
            if wl.cli:
                return W.cli_rep(wl, data_seed, self.workdir, tracer)
            return W.library_rep(wl, data_seed, tracer)
        except Exception:  # one failed repetition must not end the run
            rep = W.Rep(data_seed)
            rep.failures.append(traceback.format_exc(limit=4))
            return rep

    def execute(self, seconds: float) -> None:
        wl = self.wl
        sound_picks = None
        if wl.tracked:
            try:
                self.soundness_failures, sound_picks = W.soundness_pass(
                    wl, wl.data_seed(self.seed, 0))
            except Exception:
                self.soundness_failures = [traceback.format_exc(limit=4)]

        min_reps = min(wl.instances, TRACED_MIN_REPS) if self.trace \
            else wl.instances
        deadline = time.perf_counter() + seconds
        k = 0
        before = probe_seconds()
        while k < min_reps or time.perf_counter() < deadline:
            data_seed = wl.data_seed(self.seed, k)
            rep = self._rep(data_seed)
            after = probe_seconds()
            rep.slowdown = (before + after) / (2 * PROBE_REFERENCE_S)
            before = after
            self.reps.append(rep)
            if self.trace:
                with self.tracer:
                    rep = self._rep(data_seed, self.tracer)
                if not rep.failures:
                    rep.layer = layer_values(rep)
                # the result and the kept objects pin the problem's memory
                rep.result = None
                if rep.run_stats is not None:
                    rep.run_stats.seen.clear()
                self.traced.append(rep)
                before = probe_seconds()
            k += 1
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # checks that allocate more than a repetition run after the peak
        # memory has been read
        optima = {}
        for rep in self.reps + self.traced:
            if wl.penalty == "l2" and rep.data_seed not in optima:
                optima[rep.data_seed] = W.ridge_optimum(wl, rep.data_seed)
            W.check_objective(wl, rep, optima.get(rep.data_seed))
        self._check_determinism(sound_picks)
        for rep in self.traced:
            self._check_span_cover(rep)

    def _check_determinism(self, sound_picks) -> None:
        first = {}
        for rep in self.reps + self.traced:
            if not rep.signature:
                continue
            ref = first.setdefault(rep.data_seed, rep)
            if ref.signature != rep.signature:
                rep.failures.append(f"outputs of instance {rep.data_seed} "
                                    f"changed between runs: {ref.signature} "
                                    f"then {rep.signature}")
        rep0 = first.get(self.wl.data_seed(self.seed, 0))
        if sound_picks is not None and rep0 is not None \
                and sound_picks != rep0.signature["picks"]:
            self.soundness_failures.append("diagnostics changed the picks")
        store = SignatureStore(SIGNATURES, _source_digest(), self.wl.name)
        for data_seed, rep in first.items():
            known = store.check(data_seed, rep.signature)
            if known != rep.signature:
                rep.failures.append(f"outputs of instance {data_seed} differ "
                                    f"from an earlier process: {known} then "
                                    f"{rep.signature}")
        store.save()

    def _check_span_cover(self, rep) -> None:
        """The spans' self times plus wrapper bookkeeping must account for
        the traced wall time of the call."""
        stats = rep.run_stats
        if stats is None or not math.isfinite(rep.wall_s):
            return
        covered = (sum(stats.self_ns.values()) + stats.overhead_ns) * 1e-9
        if abs(covered - rep.wall_s) > 0.02 * rep.wall_s:
            rep.failures.append(f"spans cover {covered:.4f} s of a "
                                f"{rep.wall_s:.4f} s traced call")

    # ------------------------------------------------------------------
    # results

    @property
    def attempted(self) -> int:
        # the soundness pass is one more attempt
        return len(self.reps) + len(self.traced) + int(self.wl.tracked)

    @property
    def failed(self) -> int:
        return sum(1 for rep in self.reps + self.traced if rep.failures) + \
            (1 if self.soundness_failures else 0)

    def end_to_end(self) -> dict:
        """Metrics of the repetitions that passed their checks (of all, if
        none did: ``correct`` is then false anyway)."""
        reps = [rep for rep in self.reps if not rep.failures] or self.reps
        first = {}
        for rep in reps:
            first.setdefault(rep.data_seed, rep)
        return {
            "setup_s": _median([r.setup_s / r.slowdown for r in reps]),
            "wall_s": _median([r.wall_s / r.slowdown for r in reps]),
            "f_ratio": _geomean([r.f_ratio for r in first.values()]),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self) -> dict:
        pairs = [(u, t) for u, t in zip(self.reps, self.traced)
                 if not (u.failures or t.failures)]
        values = {name: _median([t.layer[name] for _, t in pairs])
                  for name in LAYER_METRICS}
        values["trace.overhead_s"] = _median(
            [t.wall_s - u.wall_s for u, t in pairs])
        values["fail_share"] = self.failed / self.attempted
        return values

    def details(self) -> dict:
        shapes = [rep.shape for rep in self.reps if rep.shape[0]]
        nnz = sorted(s[2] for s in shapes)
        out = {
            "workload": self.wl.name,
            "seed": self.seed,
            "environment": {
                "nproc": os.cpu_count(),
                "cpus_usable": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                "git_commit": _git_commit(),
                "code_sha256": _source_digest(),
            },
            "instances": {
                "count": len({rep.data_seed for rep in self.reps}),
                "data_seeds": sorted({rep.data_seed for rep in self.reps}),
                "d": shapes[0][0] if shapes else None,
                "n": shapes[0][1] if shapes else None,
                "nnz_min": nnz[0] if nnz else None,
                "nnz_median": statistics.median(nnz) if nnz else None,
                "nnz_max": nnz[-1] if nnz else None,
            },
            "steps_per_run": self.wl.steps,
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_share": self.failed / self.attempted,
            "slowdown": timing_summary([r.slowdown for r in self.reps]),
            "setup_s": timing_summary(
                [r.setup_s / r.slowdown for r in self.reps]),
            "wall_s": timing_summary(
                [r.wall_s / r.slowdown for r in self.reps]),
            "setup_s_raw": timing_summary([r.setup_s for r in self.reps]),
            "wall_s_raw": timing_summary([r.wall_s for r in self.reps]),
        }
        if self.trace:
            out["traced_wall_s"] = timing_summary(
                [r.wall_s for r in self.traced])
            out["absent_targets"] = self.tracer.absent
            out["absent_metrics"] = [
                name for name, (span, _) in SPAN_METRICS.items()
                if span in self.tracer.absent_spans]
            out["spans_first_traced_run"] = (
                self.traced[0].run_stats.as_dict()
                if self.traced and self.traced[0].run_stats else None)
        return out


# metric: (span, what).  "us" is the span's self time per step, "s" its
# self time per run and "calls" its calls per run.  While no traced function
# calls another traced one, a span's self time equals its total.
SPAN_METRICS = {
    "data.generate_s": ("data.generate", "s"),
    "data.save_s": ("data.save", "s"),
    "data.load_s": ("data.load", "s"),
    "problem.construct_s": ("problem.construct", "s"),
    "problem.objective_us": ("problem.objective", "us"),
    "problem.objective_calls": ("problem.objective", "calls"),
    "problem.step_us": ("problem.step", "us"),
    "problem.full_gradient_us": ("problem.full_gradient", "us"),
    "problem.full_gradient_calls": ("problem.full_gradient", "calls"),
    "oracles.context_s": ("oracles.context", "s"),
    "oracles.row_us": ("oracles.row", "us"),
    "oracles.row_calls": ("oracles.row", "calls"),
    "selector.score_us": ("selector.score", "us"),
    "selector.active_set_us": ("selector.active_set", "us"),
    "selector.pick_us": ("selector.pick", "us"),
    "selector.update_us": ("selector.update", "us"),
    "driver.self_us": ("driver", "us"),
    "driver.write_trace_s": ("driver.write_trace", "s"),
    "cli.self_s": ("cli", "s"),
}
COUNTER_METRICS = (
    "data.svm_bytes", "oracles.gram_bytes", "oracles.row_bytes",
    "selector.active_size_mean", "selector.tied_mean",
    "selector.distinct_picks", "selector.inf_radius_final",
    "driver.useful_step_share", "driver.trace_rows",
)
LAYER_METRICS = (*SPAN_METRICS, *COUNTER_METRICS)


def layer_values(rep) -> dict:
    """Per-layer metrics of one traced repetition.

    ``cli.self_s`` is the ``ascd run`` command's own time; every other span
    adds up the set-up and the timed call.
    """
    setup, run = rep.setup_stats, rep.run_stats
    self_ns, calls = dict(run.self_ns), dict(run.calls)
    for span, ns in setup.self_ns.items():
        if span != "cli":
            self_ns[span] = self_ns.get(span, 0) + ns
            calls[span] = calls.get(span, 0) + setup.calls[span]
    result = rep.result
    steps = result.t.size
    values = {}
    for name, (span, what) in SPAN_METRICS.items():
        if what == "us":
            values[name] = self_ns.get(span, 0) * 1e-3 / steps
        elif what == "s":
            values[name] = self_ns.get(span, 0) * 1e-9
        else:
            values[name] = calls.get(span, 0)

    ctx = run.seen.get("oracle_context")
    gram = getattr(ctx, "gram", None)
    estimate = run.seen.get("estimate")
    d, n, nnz = rep.shape
    if ctx is None or ctx.spec.kind not in ("g1", "g2"):
        row_bytes = 0                   # no exact product is formed
    elif gram is not None:
        row_bytes = 8 * n               # one row of the dense Gram
    else:
        row_bytes = 24 * nnz + 8 * d    # col_dots: all of A plus a column
    values.update({
        "data.svm_bytes": rep.svm_bytes,
        "oracles.gram_bytes": 0 if gram is None else gram.nbytes,
        "oracles.row_bytes": row_bytes,
        "selector.active_size_mean": result.mean_active_size,
        "selector.tied_mean": run.mean_count("selector.tied"),
        "selector.distinct_picks": int(np.unique(result.i).size),
        "selector.inf_radius_final": (
            0 if estimate is None
            else int(np.count_nonzero(np.isinf(estimate.r)))),
        "driver.useful_step_share": np.count_nonzero(result.gamma) / steps,
        "driver.trace_rows": run.counts.get("driver.trace_rows", 0),
    })
    return values

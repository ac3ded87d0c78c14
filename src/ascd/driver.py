"""The descent loop: selection, estimate bookkeeping, traces, diagnostics.

One run executes a set budget of single-coordinate steps, each the exact
minimiser of the objective along its coordinate (``step``).  Selection is
uniform (``ucd``, with no estimate and all n as its set) or a tracked rule
that runs the score, set and pick stages of ``selector``.  Every score is
in units of the step: it is scaled by the coordinate's own constant
``L_i`` (``problem.lipschitz``), so the rules rank coordinates by the
decrease an exact step on them gives.  ``_scores`` is two-way:
``ascd-gsq`` compares bounds on the model decrease at ``L_i``, every other
tracked rule runs the one segment-distance stage, ``compute_bounds``: gs-s
over ``L_i`` at the penalty's ``lam`` for ``ascd-gss``, and its ``lam = 0``
case, ``grad_i^2 / L_i`` (Gauss-Southwell-Lipschitz, GS-L), for ``ascd``.
Every tracked rule then keeps the safe set.  With g1 and a true-gradient
start the estimate stays exact, so the segment-distance rules score one
array and their set is its maximisers: the steepest rule in units of the
step, which ``scd`` runs (``RunConfig.resolved``).  The pick
``argmax-lower`` takes the best lower score (greedy; degenerates to
hammering one coordinate when every other bound has collapsed), while
``uniform-set`` draws uniformly from the set, the regime the one-step
progress and equilibrium analyses describe; ucd runs this pick on its
constant set.  Every rule draws through one
``selector.PickDraws``, which serves the picks from blocks drawn per pool
size with the values, and the generator positions, of per-step
``rng.integers`` draws; a pool of one draws nothing.  Under ``time_steps``
the step that draws a block carries that block's draw time in ``wall_ns``,
on every rule.

The loop keeps the score stage's bounds across steps.  After a step that
moved x it scores all n coordinates with ``_scores``; after a zero step it
rescores only the coordinate that step picked, since its ``g`` and ``r``
are all the step changed, on Python floats with ``selector.score_one``.
The step leaves that coordinate's radius 0, so its score is exact:
``score_one`` reads no radius and evaluates no interval.  Every score
stage is elementwise and ``score_one`` returns the bits the array stages
give one coordinate at radius 0, so the kept bounds hold the bits a full
scoring would.  ``step`` likewise takes the coordinate step on floats,
with ``Regularizer.model_argmin_one``, which has the bits of the array
``model_argmin``.  A zero step also keeps the active set, and with it the
pick's tie pool, when the rescored coordinate keeps its lower score and its
upper score reaches the best lower score before and after: the set stage
then returns the same set on every path.

The objective is evaluated in full only at the start, after each refresh
of the residual ``w = Ax`` (every 10n steps) and for ``final_f``.  Between
those the loop carries it: ``step`` returns the objective's exact change
``df`` along with the step, computed from the gradient the step already
has, so a step costs no O(d + n) evaluation.  The carried ``f`` differs
from a full evaluation by rounding that builds up in units of the last
full value, about 1e-15 of it on the benchmark's runs.

Every run records one trace: the columns named in ``TRACE_COLUMNS``, plus
the step length ``gamma``, allocated once per run and filled in place, one
row per step.  ``write_trace_csv`` writes them under ``TRACE_HEADER``.
Diagnostics that need the true gradient (bound soundness, steepest
containment, the one-step progress sandwich) fill their columns every
``diag_every`` steps and leave NaN elsewhere.  The ``tau_*`` columns are
the exact step's decrease ``grad_i^2 / (2 L_i)``, and containment compares
the GS-L score ``|grad_i| / sqrt(L_i)``, the units ``ascd`` ranks in.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import trace_allocation, write_csv
from .oracles import OracleContext, OracleSpec, oracle_row
from .problem import CompositeProblem, ResidualState
from .selector import (ActiveSet, Bounds, GradientEstimate, PickDraws,
                       active_set, compute_bounds, gsq_bounds, score_one,
                       select_ascd, update_estimates)

__all__ = [
    "UpdateRule",
    "RunConfig",
    "RunResult",
    "RULES",
    "INITS",
    "PICKS",
    "UPDATES",
    "TRACE_COLUMNS",
    "TRACE_HEADER",
    "allocate_trace",
    "step",
    "run",
    "progress_tau",
    "progress_delta",
    "write_trace_csv",
]

RULES = ("ucd", "scd", "ascd", "ascd-gss", "ascd-gsq")
# estimate inits, set picks and the one update rule a run may name
INITS = ("none", "true-gradient")
PICKS = ("argmax-lower", "uniform-set")
UPDATES = ("line_search",)

TRACE_COLUMNS = ("t", "i", "f", "grad_inf", "grad2sq", "active_size",
                 "tau_ucd", "tau_ascd", "tau_scd", "wall_ns")
TRACE_HEADER = ",".join(TRACE_COLUMNS)

# float slack for the true-gradient diagnostics
SOUNDNESS_SLACK = 1e-8
SANDWICH_SLACK = 1e-10


@dataclass
class UpdateRule:
    """How the active coordinate moves: ``line_search``, the one rule,
    minimises the objective exactly along the coordinate.  For this
    quadratic problem class that is the coordinate model's minimiser at the
    coordinate's own constant ``L_i``, the proximal step under an l1
    penalty.  ``step`` reads no rule; the name stays for callers that pass
    it.
    """

    kind: str = "line_search"

    def __post_init__(self):
        if self.kind not in UPDATES:
            raise ValueError(f"unknown update rule {self.kind!r}")


def step(problem: CompositeProblem, state: ResidualState,
         i: int) -> tuple[float, float, float]:
    """Minimise the objective exactly along coordinate i; return
    ``(gamma, g_new, df)``.

    ``g_new`` is the smooth partial gradient at the new point, known
    exactly: on a smooth problem it vanished, at a nonzero l1 iterate it is
    the subgradient-optimality value, and every other case recomputes it
    in O(nnz(a_i)), or reuses the gradient before a zero step, which moved
    nothing.  So the moved coordinate's radius is zero, and radii keep
    growing only through the passive-coordinate oracles.

    ``df`` is the change of the objective, exact for this quadratic class:
    ``gamma * (g_i + gamma/2 * L_i) + psi(x_i + gamma) - psi(x_i)`` with the
    coordinate's own curvature ``L_i``, and 0.0 on a zero step.  The column
    is read once: one gather of ``w`` at its rows gives the gradient, the
    write-back and the gradient after the step.  The bits of ``gamma``,
    ``g_new``, ``x`` and ``w`` are those of ``partial_gradient`` before and
    after ``apply_step``.
    """
    rows, vals, b = problem.column(i)
    w_rows = state.w[rows]
    x_i = float(state.x[i])
    g_i = float(vals @ (w_rows - b)) + problem.fold_lam * x_i
    if not math.isfinite(g_i):
        raise FloatingPointError(f"non-finite gradient on coordinate {i}")
    l_i = float(problem.lipschitz[i])
    reg = problem.psi_reg
    gamma = reg.model_argmin_one(x_i, g_i, l_i)
    x_new = x_i + gamma
    df = 0.0
    if gamma != 0.0:
        if not math.isfinite(gamma):
            raise ValueError(f"non-finite step {gamma!r} on coordinate {i}")
        # a column's rows are distinct, so this is the bits of ``+=`` on
        # ``state.w[rows]``; the gather is a copy, updated in place
        w_rows += gamma * vals
        state.x[i] = x_new
        state.w[rows] = w_rows
        df = gamma * (g_i + 0.5 * gamma * l_i)
        if reg.lam:
            df += reg.psi_one(x_new) - reg.psi_one(x_i)
    if reg.kind == "none":
        return gamma, 0.0, df
    # exact minimisation with a nonzero iterate pins the smooth gradient
    # at the subgradient-optimality value; reporting it exactly (not the
    # float recomputation) keeps the composite steepest score at exactly
    # zero for the refreshed coordinate
    if x_new != 0.0:
        return gamma, -reg.lam * math.copysign(1.0, x_new), df
    if gamma == 0.0:
        return gamma, g_i, df
    return gamma, float(vals @ (w_rows - b)) + problem.fold_lam * x_new, df


def progress_tau(gradient: np.ndarray, active_indices: np.ndarray,
                 lipschitz: np.ndarray) -> tuple[float, float, float]:
    """Expected one-step progress of the three selection rules, evaluated
    with the true gradient: mean over all coordinates, mean over the active
    set, and the maximum, of ``grad_i^2 / (2 L_i)`` with each coordinate's
    own constant ``lipschitz[i]``.  On a smooth problem this is the exact
    decrease of the coordinate step; under an l1 penalty it is the decrease
    the smooth part alone would allow.
    """
    gain = np.square(gradient)
    gain /= 2.0 * lipschitz
    return (float(gain.mean()), float(gain[active_indices].mean()),
            float(gain.max()))


def progress_delta(f_prev: float, f_next: float, f_star: float) -> float:
    """Inverse-gap progress ``1/(f_next - f*) - 1/(f_prev - f*)``: ``inf``
    once ``f_next`` reaches ``f*``, and ``-inf`` for a step that leaves it
    (``f_prev == f* < f_next``), on Python and numpy floats alike."""
    if f_next <= f_star:
        return np.inf
    if f_prev == f_star:
        return -np.inf
    return 1.0 / (f_next - f_star) - 1.0 / (f_prev - f_star)


@dataclass
class RunConfig:
    problem: CompositeProblem
    steps: int
    rule: str = "ascd"
    update: UpdateRule = field(default_factory=UpdateRule)  # not read
    oracle: OracleSpec | None = None
    seed: int = 0
    init: str = "none"                # one of INITS
    pick: str = "argmax-lower"        # one of PICKS; uniform-set draws u.a.r.
    x0: np.ndarray | None = None
    diag_every: int | None = None     # default n; 0 disables
    time_steps: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("need at least one step")
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")
        if self.init not in INITS:
            raise ValueError(f"unknown init mode {self.init!r}")
        if self.pick not in PICKS:
            raise ValueError(f"unknown pick mode {self.pick!r}")
        for name in ("seed", "diag_every"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be nonnegative")

    def resolved(self) -> tuple[str, OracleSpec | None, str, str]:
        """The score rule, oracle, init and pick the run executes: ``scd``
        runs g1 from a true-gradient start under ``argmax-lower``, scoring
        GS-L on a smooth problem and gs-s over ``L_i`` under l1; ``ucd`` reads
        no oracle (``None``) and no init, and runs the ``uniform-set`` pick
        on all n coordinates.  The oracle keeps its epsilon only if it is
        g2, the one kind that reads it."""
        if self.rule == "scd":
            l1 = self.problem.psi_reg.kind == "l1"
            return ("ascd-gss" if l1 else "ascd", OracleSpec("g1"),
                    "true-gradient", "argmax-lower")
        if self.rule == "ucd":
            return "ucd", None, "none", "uniform-set"
        spec = self.oracle or OracleSpec()
        if spec.kind != "g2":
            spec = replace(spec, epsilon=0.0)
        return self.rule, spec, self.init, self.pick


@dataclass
class RunResult:
    config: RunConfig
    t: np.ndarray
    i: np.ndarray
    f: np.ndarray
    grad_inf: np.ndarray
    grad2sq: np.ndarray
    active_size: np.ndarray
    tau_ucd: np.ndarray
    tau_ascd: np.ndarray
    tau_scd: np.ndarray
    wall_ns: np.ndarray
    gamma: np.ndarray
    # mean size of the pool the pick draws from: the set's ties for the
    # best lower score under argmax-lower and scd, else the set (n for ucd)
    mean_pick_pool: float
    final_x: np.ndarray
    final_f: float
    soundness_violations: int
    containment_violations: int
    sandwich_violations: int
    wall_time_s: float

    @property
    def mean_active_size(self) -> float:
        return float(np.mean(self.active_size))

    def counters(self) -> dict:
        """Run counters, read off the trace: distinct coordinates picked,
        useful steps (gamma != 0), oracle rows fetched (one per useful
        step of a tracked rule) and the active set size range."""
        useful = int(np.count_nonzero(self.gamma))
        return {
            "distinct_picks": int(np.unique(self.i).size),
            "useful_steps": useful,
            "oracle_rows": useful if self.config.resolved()[1] else 0,
            "min_active_size": int(self.active_size.min()),
            "max_active_size": int(self.active_size.max()),
        }

    def epochs_to_reach(self, level: float) -> float:
        """First step (in epochs of n) whose recorded f is at or below
        ``level``; inf if the level is never reached."""
        n = self.config.problem.n
        hits = np.flatnonzero(self.f <= level)
        if hits.size:
            return float(hits[0]) / n
        if self.final_f <= level:
            return float(self.t.size) / n
        return np.inf


def allocate_trace(steps: int, timed: bool = False) -> dict[str, np.ndarray]:
    """The trace columns of a run of ``steps`` steps, with ``gamma``; a
    column stays NaN on the steps that do not write it.  A ``timed`` trace
    holds ``wall_ns`` as int64 nanoseconds, which the CSV writes as they
    are.  A length that cannot be allocated raises ``ValueError`` naming
    ``steps``."""
    with trace_allocation(steps):
        cols = {name: np.full(steps, np.nan)
                for name in TRACE_COLUMNS + ("gamma",)}
        cols.update(t=np.arange(steps, dtype=np.int64),
                    i=np.zeros(steps, dtype=np.int64),
                    active_size=np.zeros(steps, dtype=np.int64))
        if timed:
            cols["wall_ns"] = np.zeros(steps, dtype=np.int64)
    return cols


def _scores(rule: str, est: GradientEstimate, x: np.ndarray,
            problem: CompositeProblem) -> Bounds:
    """The score stage of a tracked rule, in the units the set compares."""
    reg = problem.psi_reg
    if rule == "ascd-gsq":
        return gsq_bounds(est, x, problem.lipschitz, reg)
    return compute_bounds(est, problem.lipschitz, x,
                          reg.lam if rule == "ascd-gss" else 0.0)


def run(config: RunConfig) -> RunResult:
    """Execute the configured descent and collect the per-step trace."""
    problem = config.problem
    n = problem.n
    rng = np.random.default_rng(config.seed)
    state = problem.residual_state(config.x0)
    diag_every = n if config.diag_every is None else config.diag_every

    steps = config.steps
    cols = allocate_trace(steps, config.time_steps)

    rule, spec, init, pick = config.resolved()
    tracked = spec is not None
    # every rule's picks: per-step draws, served from blocks
    draws = PickDraws(rng)
    est = ctx = None
    if tracked:
        ctx = OracleContext(spec, problem.matrix)
        if init == "true-gradient":
            est = GradientEstimate.exact(problem.full_gradient(state))
        else:
            est = GradientEstimate.uninformed(n)
    else:
        # every coordinate, the same set on every step
        aset = ActiveSet(indices=np.arange(n), avg_score=0.0)

    sound_bad = contain_bad = sandwich_bad = 0
    ties_total = 0  # draw pool sizes of the argmax-lower picks
    # kept across zero steps, dropped when x moves
    scores = None
    # carried by each step's exact change, recomputed after a refresh
    f = None
    t_start = time.perf_counter()

    for t in range(steps):
        tick = time.perf_counter_ns() if config.time_steps else 0
        if tracked:
            if scores is None:
                scores = _scores(rule, est, state.x, problem)
                aset = active_set(scores)
            else:
                # a zero step changed only the last pick's g, and left
                # its radius 0
                lower, upper = score_one(
                    rule, float(est.g[i_t]), float(state.x[i_t]),
                    float(problem.lipschitz[i_t]), problem.psi_reg)
                # the same lower score, and an upper score reaching the
                # best lower score before and after: every path of
                # active_set returns the same set
                keep = (lower == scores.lower[i_t] and upper >= aset.top
                        and scores.upper[i_t] >= aset.top)
                # in an exact estimate's one array, the same write twice
                scores.lower[i_t], scores.upper[i_t] = lower, upper
                if not keep:
                    aset = active_set(scores)
        if pick == "uniform-set":
            i_t = aset.indices.item(draws.integers(aset.indices.size))
        else:
            i_t = select_ascd(scores, aset, draws)
            ties_total += aset.ties.size

        cols["i"][t] = i_t
        if f is None:
            f = problem.objective(state)
        cols["f"][t] = f
        cols["active_size"][t] = len(aset)
        if diag_every and t % diag_every == 0:
            true_g = problem.full_gradient(state)
            grad_inf = float(np.max(np.abs(true_g)))
            cols["grad_inf"][t] = grad_inf
            cols["grad2sq"][t] = float(true_g @ true_g)
            tau_u, tau_a, tau_s = progress_tau(true_g, aset.indices,
                                               problem.lipschitz)
            cols["tau_ucd"][t] = tau_u
            cols["tau_ascd"][t] = tau_a
            cols["tau_scd"][t] = tau_s
            tol = SOUNDNESS_SLACK * (1.0 + grad_inf)
            if tracked and np.any(np.abs(true_g - est.g) > est.r + tol):
                sound_bad += 1
            # only the safe set on GS-L scores promises the sandwich and
            # containment; ucd holds them by construction, the other scores
            # need not
            if rule == "ascd":
                slack = SANDWICH_SLACK
                if (tau_u > tau_a * (1 + slack) + 1e-300
                        or tau_a > tau_s * (1 + slack) + 1e-300):
                    sandwich_bad += 1
                if len(aset) < n:
                    # tie-tolerant: no excluded coordinate may have a GS-L
                    # score above the best kept one once its gradient is
                    # moved by the soundness slack towards zero
                    mask = np.zeros(n, dtype=bool)
                    mask[aset.indices] = True
                    steep = np.abs(true_g)
                    root_l = np.sqrt(problem.lipschitz)
                    best_in = float(np.max(steep[mask] / root_l[mask]))
                    best_out = float(np.max((steep[~mask] - tol)
                                            / root_l[~mask]))
                    if best_out > best_in:
                        contain_bad += 1

        try:
            gamma, g_new, df = step(problem, state, i_t)
        except (FloatingPointError, ValueError) as exc:
            raise type(exc)(f"step {t}: {exc}") from exc
        cols["gamma"][t] = gamma
        f += df
        moved = gamma != 0.0
        if moved:
            scores = None
        if tracked:
            row_g, row_d = oracle_row(ctx, i_t) if moved else (None, None)
            update_estimates(est, i_t, gamma, row_g, row_d, g_new)

        if (t + 1) % (10 * n) == 0:
            state.refresh(problem.matrix)
            f = None

        if config.time_steps:
            cols["wall_ns"][t] = time.perf_counter_ns() - tick

    return RunResult(
        config=config,
        **cols,
        mean_pick_pool=(ties_total / steps if pick == "argmax-lower"
                        else float(np.mean(cols["active_size"]))),
        final_x=state.x.copy(),
        final_f=problem.objective(state),
        soundness_violations=sound_bad,
        containment_violations=contain_bad,
        sandwich_violations=sandwich_bad,
        wall_time_s=time.perf_counter() - t_start,
    )


def write_trace_csv(result: RunResult, path) -> None:
    """Write the per-step trace; missing diagnostics become empty fields."""
    write_csv(path, TRACE_HEADER,
              [getattr(result, name) for name in TRACE_COLUMNS])

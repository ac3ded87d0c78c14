"""Acceptance suite: one test per criterion, printed pass lines included.

Criteria 1, 2 and 10 share one batch of tracked-bound runs (random ridge
and lasso instances crossed with every oracle kind and both initialisation
modes).  Criterion 9 is the full-scale empirical ordering and dominates
the runtime of the suite.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ascd.data import SynthConfig, generate_synthetic
from ascd.driver import SOUNDNESS_SLACK, RunConfig, UpdateRule, run
from ascd.hardcase import HardCase, _ratio_residual, solve_c_alpha, \
    verify_cycling
from ascd.oracles import OracleSpec
from ascd.problem import (ColumnSparseMatrix, CompositeProblem, Regularizer,
                          model_value)
from ascd.ratiosim import RatioSimConfig, rho_infinity, simulate_rho
from ascd.selector import GradientEstimate, active_set, compute_bounds, \
    gsq_bounds
from reference_scd import steepest_descent

SANDWICH_SLACK = 1e-10
ORACLES = [OracleSpec("g1"), OracleSpec("g2", epsilon=0.5, seed=101),
           OracleSpec("g3"), OracleSpec("g4", seed=101)]


def _instance(seed):
    """One random ridge or lasso instance, alternating with the seed."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 51))
    d = int(rng.integers(40, 61))
    A = rng.standard_normal((d, n))
    b = rng.standard_normal(d)
    matrix = ColumnSparseMatrix.from_dense(A)
    if seed % 2 == 0:
        reg = Regularizer("l2", 0.5)
    else:
        lam = 0.2 * float(np.max(np.abs(matrix.col_dots(-b))))
        reg = Regularizer("l1", lam)
    return CompositeProblem(matrix, b, reg)


@pytest.fixture(scope="module")
def tracked_runs():
    """Criterion 1/2/10 batch: 20 instances x 4 oracles x 2 inits."""
    t0 = time.perf_counter()
    results = []
    for seed in range(20):
        problem = _instance(seed)
        for spec in ORACLES:
            for init in ("true-gradient", "none"):
                res = run(RunConfig(problem=problem, steps=200, rule="ascd",
                                    update=UpdateRule("line_search"),
                                    oracle=spec, seed=seed, init=init,
                                    diag_every=1))
                results.append((seed, spec.kind, init, res))
    elapsed = time.perf_counter() - t0
    return results, elapsed


def test_criterion_01_sandwich(tracked_runs):
    results, elapsed = tracked_runs
    for seed, kind, init, res in results:
        assert res.sandwich_violations == 0, (seed, kind, init)
        ok = (res.tau_ucd <= res.tau_ascd * (1 + SANDWICH_SLACK) + 1e-300) \
            & (res.tau_ascd <= res.tau_scd * (1 + SANDWICH_SLACK) + 1e-300)
        assert np.all(ok), (seed, kind, init)
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 (one-step progress sandwich at every iterate, "
          f"{len(results)} runs in {elapsed:.1f}s): PASS")


def test_criterion_02_containment(tracked_runs):
    results, _ = tracked_runs
    for seed, kind, init, res in results:
        assert res.containment_violations == 0, (seed, kind, init)
    print("\nACCEPTANCE 2 (steepest coordinate always in the active set): "
          "PASS")


def test_criterion_03_exactness_collapse():
    # scd is the tracked path on exact rows; the reference recomputes the
    # full gradient every step.  On the ridge the picks must be equal.  On
    # the lasso, solved coordinates tie at the penalty level up to
    # rounding, so every scd pick must be a tie-tolerant brute-force gs-s
    # maximiser; the smooth-magnitude argmax, the negative control, is not
    magnitude_off = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(30, 61))
        d = n + int(rng.integers(5, 20))
        A = rng.standard_normal((d, n))
        prob = CompositeProblem(ColumnSparseMatrix.from_dense(A),
                                rng.standard_normal(d),
                                Regularizer("l2", 0.3))
        steps = 10 * n
        scd = run(RunConfig(problem=prob, steps=steps, rule="scd",
                            seed=seed, diag_every=0))
        want, _ = steepest_descent(prob, steps, scd.config.update)
        assert np.array_equal(scd.i, want), seed

        lam = 0.2 * float(np.max(np.abs(prob.matrix.col_dots(prob.target))))
        lasso = CompositeProblem(prob.matrix, prob.target,
                                 Regularizer("l1", lam))
        update = UpdateRule("line_search")
        scd = run(RunConfig(problem=lasso, steps=steps, rule="scd",
                            update=update, seed=seed, diag_every=1))
        _, shortfall = steepest_descent(lasso, steps, update, picks=scd.i)
        assert shortfall.max() <= SOUNDNESS_SLACK, seed
        assert scd.soundness_violations == 0, seed
        magnitude = run(RunConfig(problem=lasso, steps=steps, rule="ascd",
                                  update=update, oracle=OracleSpec("g1"),
                                  seed=seed, init="true-gradient",
                                  diag_every=0))
        _, shortfall = steepest_descent(lasso, steps, update,
                                        picks=magnitude.i)
        magnitude_off += shortfall.max() > SOUNDNESS_SLACK
    assert magnitude_off > 0
    print("\nACCEPTANCE 3 (exact oracle + true-gradient init reproduces "
          "brute-force steepest sequences, 10 ridge and 10 lasso instances "
          f"x 10n steps; the smooth-magnitude argmax leaves the lasso's "
          f"steepest set on {magnitude_off}/10): PASS")


def test_criterion_04_hard_case():
    hc = HardCase.build(0.01, 20)
    steps = 5 * hc.n
    report = verify_cycling(hc, steps, rel_tol=1e-8)
    assert report.ok, f"cycling failed at step {report.first_failure}"
    assert np.array_equal(report.picks, np.arange(steps) % hc.n)
    # flatness: max_i g_i^2 <= (4/n) * ||g||_2^2 at every step
    assert np.all(report.omega <= 4.0)
    for alpha in (0.01, 0.1, 0.3, 0.49):
        for n in (5, 20, 100):
            c = solve_c_alpha(alpha, n)
            assert abs(_ratio_residual(c, alpha, n)) <= 1e-12
            assert c >= 1 - 4 * alpha / n
    print("\nACCEPTANCE 4 (adversarial quadratic: cycling, flat-gradient "
          "bound, ratio-equation residuals): PASS")


def test_criterion_05_inverse_rate():
    n = 50
    matrix = ColumnSparseMatrix.from_columns(
        n, [(np.array([i]), np.array([1.0])) for i in range(n)])
    prob = CompositeProblem(matrix, np.zeros(n))
    res = run(RunConfig(problem=prob, steps=10 * n, rule="scd",
                        update=UpdateRule("fixed"), x0=np.ones(n), seed=0,
                        diag_every=0))
    f0 = 0.5 * n
    r1_sq = 2.0 * f0 * n  # squared l1 diameter of the level set
    for t in range(1, 10 * n):
        assert res.f[t] <= 2.0 * r1_sq / t
    assert res.final_f <= 2.0 * r1_sq / (10 * n)
    print("\nACCEPTANCE 5 (steepest descent 1/t rate on the separable "
          "quadratic): PASS")


def test_criterion_06_ratio_closed_form():
    t0 = time.perf_counter()
    for t_inf in (50.0, 100.0, 400.0):
        target = rho_infinity(100, 10, 1.0, t_inf).value
        means = []
        for seed in range(10):
            trace = simulate_rho(RatioSimConfig(n=100, s=10, c=1.0,
                                                t_inf=t_inf, steps=20_000,
                                                seed=seed))
            means.append(float(trace.rho[15_000:].mean()))
        assert abs(np.mean(means) - target) < 0.05, t_inf
    assert rho_infinity(100, 10, 1.0, 500.0).value >= 0.8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 6 (equilibrium closed form vs Monte-Carlo, "
          f"{elapsed:.1f}s): PASS")


def _grid_min_rows(x, slopes, lipschitz, reg, pts=10_000):
    """Dense grid minimiser per slope with bracket refinement (the l1 kink
    makes single-pass grid error linear in the spacing)."""
    radius = (np.max(np.abs(slopes)) + reg.lam) / lipschitz \
        + 2.0 * abs(x) + 1.0
    lo = np.full(slopes.size, -radius)
    hi = np.full(slopes.size, radius)
    best = np.full(slopes.size, np.inf)
    col = slopes[:, None]
    for _ in range(3):
        ys = lo[:, None] + (hi - lo)[:, None] * np.linspace(0, 1, pts)
        vals = model_value(x, ys, col, lipschitz, reg)
        k = np.argmin(vals, axis=1)
        rows = np.arange(slopes.size)
        best = np.minimum(best, vals[rows, k])
        spacing = (hi - lo) / (pts - 1)
        centre = ys[rows, k]
        lo = centre - 2 * spacing
        hi = centre + 2 * spacing
    return best


def test_criterion_07_gsq_bound_soundness():
    rng = np.random.default_rng(7)
    for kind in ("none", "l1", "l2"):
        for _ in range(1000):
            lam = float(rng.uniform(0.0, 2.0)) if kind != "none" else 0.0
            reg = Regularizer(kind, lam)
            lipschitz = float(rng.uniform(0.5, 4.0))
            x = float(rng.normal(0.0, 1.0))
            g = float(rng.normal(0.0, 2.0))
            r = float(rng.uniform(0.0, 2.0))
            est = GradientEstimate(g=np.array([g]), r=np.array([r]))
            q = gsq_bounds(est, np.array([x]), lipschitz, reg)
            slopes = np.linspace(g - r, g + r, 20)
            mins = _grid_min_rows(x, slopes, lipschitz, reg)
            # the scores bracket the best decrease, psi(x) - min_y V
            decrease = float(reg.psi(x)) - mins
            assert np.all(decrease - 1e-6 <= q.upper[0])
            assert np.all(q.lower[0] - 1e-6 <= decrease)
    print("\nACCEPTANCE 7 (model-decrease bounds sandwich the grid "
          "minimiser, 3000 instances x 20 slopes): PASS")


@settings(deadline=None, max_examples=500)
@given(x=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
       g=st.floats(-10.0, 10.0), r=st.floats(0.0, 5.0),
       lipschitz=st.floats(0.1, 10.0),
       kind=st.sampled_from(["none", "l1", "l2"]), lam=st.floats(0.0, 3.0),
       t=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
def test_gsq_bounds_sound_at_model_argmin(x, g, r, lipschitz, kind, lam, t):
    # criterion 7 with the exact minimiser in place of the grid: for any
    # slope s in [g - r, g + r], lower <= psi(x) - min_y V(x, y, s) <=
    # upper, the minimum taken at model_argmin
    reg = Regularizer(kind, lam if kind != "none" else 0.0)
    q = gsq_bounds(GradientEstimate(g=np.array([g]), r=np.array([r])),
                   np.array([x]), lipschitz, reg)
    s = min(max((g - r) + 2.0 * r * t, g - r), g + r)
    y = reg.model_argmin(x, s, lipschitz)
    best = float(model_value(x, y, s, lipschitz, reg))
    decrease = float(reg.psi(x)) - best
    # float slack on the scale of the model's terms
    y_max = (abs(g) + r + reg.lam * (1.0 + abs(x))) / lipschitz + abs(x)
    tol = 1e-12 * (1.0 + (abs(g) + r) * y_max + (lipschitz + reg.lam)
                   * (1.0 + y_max) ** 2)
    assert decrease - tol <= q.upper[0]
    assert q.lower[0] - tol <= decrease


_SMALL = st.one_of(st.just(0.0), st.sampled_from([0.5, -1.0, 2.0]),
                   st.floats(-5.0, 5.0))


@settings(deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=_SMALL),
    arrays(np.float64, n, elements=_SMALL),
    arrays(np.float64, n, elements=st.one_of(
        st.just(0.0), st.floats(0.0, 3.0), st.just(np.inf))),
    st.sampled_from(["none", "l1", "l2"]),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.floats(0.5, 4.0))))
def test_gsq_bound_soundness_vectors(drawn):
    # criterion 7 on whole vectors: zero and tied entries, mixed finite and
    # infinite radii, every coordinate bounded at once
    x, g, r, kind, lam, lipschitz = drawn
    reg = Regularizer(kind, lam if kind != "none" else 0.0)
    q = gsq_bounds(GradientEstimate(g=g, r=r), x, lipschitz, reg)
    psi0 = reg.psi(x)
    for i in range(x.size):
        if np.isinf(r[i]):
            # nothing known: only the y = 0 fallback bounds the decrease
            assert q.upper[i] == np.inf and q.lower[i] == 0.0
            continue
        slopes = np.linspace(g[i] - r[i], g[i] + r[i], 7)
        mins = _grid_min_rows(x[i], slopes, lipschitz, reg)
        decrease = psi0[i] - mins
        assert np.all(decrease - 1e-9 * (1 + np.abs(mins)) <= q.upper[i])
        assert np.all(q.lower[i] - 1e-6 * (1 + abs(q.lower[i] - psi0[i]))
                      <= decrease)


def test_criterion_08_active_set_vs_exhaustive():
    rng = np.random.default_rng(8)
    non_minimal = 0
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        g = rng.normal(0.0, 2.0, n)
        r = np.where(rng.random(n) < 0.1, np.inf, rng.uniform(0.0, 2.0, n))
        bounds = compute_bounds(GradientEstimate(g=g, r=r))
        lsq, usq = bounds.lower, bounds.upper
        aset = active_set(bounds)
        # validity of the certificate is asserted unconditionally
        outside = np.setdiff1d(np.arange(n), aset.indices)
        assert np.all(usq[outside] < aset.avg_score)
        # exhaustive minimum-cardinality valid subset
        best = None
        for k in range(1, n + 1):
            for sub in combinations(range(n), k):
                av = lsq[list(sub)].mean()
                if all(usq[j] < av for j in range(n) if j not in sub):
                    best = set(sub)
                    break
            if best is not None:
                break
        assert best is not None
        order = np.argsort(-lsq, kind="stable")
        if best == set(order[:len(best)].tolist()):
            # the optimum is a prefix: ours must match its size
            assert len(aset) == len(best)
        elif len(best) < len(aset):
            non_minimal += 1
    print(f"\nACCEPTANCE 8 (prefix certificate valid on 1000 exhaustive "
          f"instances; {non_minimal} had a smaller non-prefix set): PASS")


def _lasso_reference(prob, budget_epochs=100, tol=1e-10):
    """Cyclic exact-minimisation descent, independent of the driver."""
    matrix, b = prob.matrix, prob.target
    lam = prob.psi_reg.lam
    x = np.zeros(prob.n)
    w = np.zeros(prob.d)
    cols = [matrix.col(i) for i in range(prob.n)]
    lips = prob.lipschitz
    best = np.inf
    for _ in range(budget_epochs):
        for i in range(prob.n):
            rows, vals = cols[i]
            g = vals @ (w[rows] - b[rows])
            z = x[i] - g / lips[i]
            thr = lam / lips[i]
            z_new = math.copysign(max(abs(z) - thr, 0.0), z)
            delta = z_new - x[i]
            if delta != 0.0:
                x[i] = z_new
                w[rows] += delta * vals
        f = prob.objective(prob.residual_state(x))
        if best - f < tol * max(1.0, abs(best)):
            return min(best, f)
        best = min(best, f)
    return best


@pytest.mark.parametrize("rule", ["ascd-gsq", "ascd-gss", "scd"])
def test_exact_composite_rules_reach_the_lasso_minimum(rule):
    # every composite steepest rule on exact rows makes progress to the
    # minimum: a gs-q score that left out psi(x_i) ranked an idle zero
    # coordinate above the support and stalled 8% above it
    matrix, b = generate_synthetic(SynthConfig(n_rows=40, n_cols=30, seed=0))
    lam = 0.1 * float(np.max(np.abs(matrix.col_dots(-b))))
    prob = CompositeProblem(matrix, b, Regularizer("l1", lam))
    f_star = _lasso_reference(prob)
    res = run(RunConfig(problem=prob, steps=20 * prob.n, rule=rule,
                        update=UpdateRule("line_search"),
                        oracle=OracleSpec("g1"), init="true-gradient",
                        pick="argmax-lower", seed=0, diag_every=0))
    assert abs(res.f[-1] - f_star) <= 1e-9 * f_star, (res.f[-1], f_star)


def test_criterion_09_empirical_ordering():
    t0 = time.perf_counter()
    update = UpdateRule("line_search")
    seeds = range(5)

    ridge_wins = 0
    for seed in seeds:
        matrix, b = generate_synthetic(SynthConfig(n_rows=1000, n_cols=1000,
                                                   seed=seed))
        prob = CompositeProblem(matrix, b, Regularizer("l2", 1.0))
        dense = matrix.to_dense()
        x_star = np.linalg.solve(dense.T @ dense + np.eye(prob.n),
                                 dense.T @ b)
        f_star = prob.objective(prob.residual_state(x_star))
        f0 = prob.objective(prob.residual_state())
        level = f_star + 1e-3 * (f0 - f_star)
        epochs, picks = {}, {}
        for rule, oracle, init in (
                ("scd", None, "none"),
                ("ascd", OracleSpec("g4", seed=seed), "none"),
                ("ucd", None, "none")):
            res = run(RunConfig(problem=prob, steps=10 * prob.n, rule=rule,
                                update=update, oracle=oracle, seed=seed,
                                init=init, diag_every=0))
            epochs[rule], picks[rule] = res.epochs_to_reach(level), res.i
        # negative control: with g4 and no start every lower bound is 0,
        # so the ascd arm draws exactly ucd's coordinates and its ordering
        # against ucd holds as an equality, not as a gain
        assert np.array_equal(picks["ascd"], picks["ucd"]), seed
        if epochs["scd"] <= epochs["ascd"] <= epochs["ucd"]:
            ridge_wins += 1
    assert ridge_wins >= 4

    lasso_wins = 0
    for seed in seeds:
        matrix, b = generate_synthetic(SynthConfig(n_rows=1000, n_cols=5000,
                                                   seed=seed))
        lam = 0.1 * float(np.max(np.abs(matrix.col_dots(-b))))
        prob = CompositeProblem(matrix, b, Regularizer("l1", lam))
        f_star = _lasso_reference(prob)
        f0 = prob.objective(prob.residual_state())
        level = f_star + 1e-3 * (f0 - f_star)
        epochs, picks = {}, {}
        for name, rule, oracle, init in (
                ("scd", "scd", None, "none"),
                ("ascd", "ascd-gss", OracleSpec("g4", seed=seed), "none"),
                ("ucd", "ucd", None, "none")):
            res = run(RunConfig(problem=prob, steps=10 * prob.n, rule=rule,
                                update=update, oracle=oracle, seed=seed,
                                init=init, diag_every=0))
            epochs[name], picks[name] = res.epochs_to_reach(level), res.i
        assert np.array_equal(picks["ascd"], picks["ucd"]), seed
        if epochs["scd"] <= epochs["ascd"] <= epochs["ucd"]:
            lasso_wins += 1
    assert lasso_wins >= 4

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 9 (epoch ordering greedy <= tracked <= uniform, "
          f"ridge {ridge_wins}/5 and lasso {lasso_wins}/5 seeds, tracked "
          f"picks equal to uniform's on every seed, "
          f"{elapsed:.0f}s): PASS")


def test_criterion_10_bound_soundness_all_oracles(tracked_runs):
    results, _ = tracked_runs
    modes = {(kind, init) for _, kind, init, _ in results}
    assert ("g4", "none") in modes and ("g1", "true-gradient") in modes
    for seed, kind, init, res in results:
        assert res.soundness_violations == 0, (seed, kind, init)
    print("\nACCEPTANCE 10 (tracked bounds enclose the true gradient under "
          "every oracle and both initialisations): PASS")

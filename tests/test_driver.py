import hashlib
import itertools
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

import ascd.driver
import ascd.oracles
from ascd.data import SynthConfig, generate_synthetic
from ascd.driver import (INITS, PICKS, RULES, RunConfig, UpdateRule,
                         progress_delta, progress_tau, run, step,
                         write_trace_csv, TRACE_COLUMNS, TRACE_HEADER)
from ascd.oracles import ORACLE_KINDS, OracleContext, OracleSpec
from ascd.problem import ColumnSparseMatrix, CompositeProblem, Regularizer
from ascd.selector import ActiveSet, GradientEstimate
from reference_oracle import col_dots_row
from reference_scd import steepest_descent
from reference_selector import sorted_active_set


def identity_problem(n, b=None, reg=None):
    m = ColumnSparseMatrix.from_columns(
        n, [(np.array([i]), np.array([1.0])) for i in range(n)])
    return CompositeProblem(m, np.zeros(n) if b is None else b, reg)


def random_problem(seed, d=20, n=12, reg=None):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, n))
    return CompositeProblem(ColumnSparseMatrix.from_dense(A),
                            rng.standard_normal(d), reg)


class TestStep:
    def test_line_search_solves_1d(self):
        prob = identity_problem(1)
        st = prob.residual_state(np.array([5.0]))
        gamma, g_new, df = step(prob, st, 0)
        assert gamma == pytest.approx(-5.0)
        assert st.x[0] == pytest.approx(0.0)
        assert g_new == 0.0
        assert df == -12.5

    def test_prox_soft_threshold(self):
        prob = identity_problem(1, b=np.array([3.0]), reg=Regularizer("l1", 1.0))
        st = prob.residual_state(np.array([0.0]))
        # grad = -3, L = 1: model minimiser is soft(3, 1) = 2
        gamma, _, df = step(prob, st, 0)
        assert gamma == pytest.approx(2.0)
        # 0.5 * (2 - 3)^2 + |2| - 0.5 * 3^2
        assert df == -2.0

    def test_prox_example_from_slope(self):
        # x_i = 0, grad 3, L = 1, lam 1: step is -2
        prob = identity_problem(1, b=np.array([-3.0]), reg=Regularizer("l1", 1.0))
        st = prob.residual_state(np.array([0.0]))
        assert prob.partial_gradient(st, 0) == pytest.approx(3.0)
        gamma, _, _ = step(prob, st, 0)
        assert gamma == pytest.approx(-2.0)

    def test_line_search_l1_reports_subgradient_value(self):
        prob = identity_problem(1, b=np.array([3.0]), reg=Regularizer("l1", 1.0))
        st = prob.residual_state(np.array([0.0]))
        gamma, g_new, _ = step(prob, st, 0)
        assert st.x[0] == pytest.approx(2.0)
        assert g_new == -1.0
        # the composite steepest score vanishes exactly at the minimiser
        assert abs(g_new + 1.0 * np.sign(st.x[0])) == 0.0

    def test_zero_step_off_zero(self):
        # x_0 = 2 already minimises its model, but the float gradient
        # misses -lam by an ulp: the step still reports -lam exactly
        m = ColumnSparseMatrix.from_columns(
            1, [(np.array([0]), np.array([0.3]))])
        prob = CompositeProblem(m, np.array([3.933333333333333]),
                                Regularizer("l1", 1.0))
        st = prob.residual_state(np.array([2.0]))
        g_before = prob.partial_gradient(st, 0)
        assert g_before != -1.0
        x, w = st.x.copy(), st.w.copy()
        gamma, g_new, df = step(prob, st, 0)
        assert gamma == 0.0 and df == 0.0
        assert np.float64(g_new).tobytes() == np.float64(-1.0).tobytes()
        assert np.array_equal(st.x, x) and np.array_equal(st.w, w)

    def test_zero_step_at_zero(self):
        # every coordinate of x = 0 inside the l1 dead zone: each step is
        # zero and returns the bits of the gradient before it
        base = random_problem(19)
        st = base.residual_state()
        lam = 2.0 * float(np.max(np.abs(base.full_gradient(st))))
        prob = CompositeProblem(base.matrix, base.target,
                                Regularizer("l1", lam))
        x, w = st.x.copy(), st.w.copy()
        for i in range(prob.n):
            g_before = prob.partial_gradient(st, i)
            gamma, g_new, df = step(prob, st, i)
            assert gamma == 0.0 and df == 0.0
            assert (np.float64(g_new).tobytes()
                    == np.float64(g_before).tobytes())
        assert np.array_equal(st.x, x) and np.array_equal(st.w, w)


def _array_step(problem, state, i):
    """The coordinate step through the array ``model_argmin`` and
    ``np.sign``: the reference for ``step``'s bits, with the objective's
    change from two full evaluations.  Moves ``state``."""
    f_before = problem.objective(state)
    gamma, g_new = _array_move(problem, state, i)
    return gamma, g_new, problem.objective(state) - f_before


def _array_move(problem, state, i):
    g = problem.partial_gradient(state, i)
    gamma = problem.psi_reg.model_argmin(state.x[i:i + 1], np.array([g]),
                                         problem.lipschitz[i])[0]
    x_new = state.x[i] + gamma
    if gamma != 0.0:
        state.apply_step(problem.matrix, i, float(gamma))
    if problem.psi_reg.kind == "none":
        return gamma, 0.0
    if x_new != 0.0:
        return gamma, -problem.psi_reg.lam * np.sign(x_new)
    return gamma, g if gamma == 0.0 else problem.partial_gradient(state, i)


class TestFloatStep:
    """``step`` on Python floats returns the bits of the array formula."""

    @staticmethod
    def _problem(kind, lam, c, b):
        # one coordinate, with L = c^2 (+ lam under l2)
        m = ColumnSparseMatrix.from_columns(1, [(np.array([0]),
                                                 np.array([c]))])
        return CompositeProblem(m, np.array([b]), Regularizer(kind, lam))

    @settings(max_examples=300, deadline=None)
    @given(kind=hst.sampled_from(["none", "l1", "l2"]),
           lam=hst.one_of(hst.just(0.0), hst.floats(0.01, 10.0)),
           c=hst.one_of(hst.just(1.0), hst.floats(0.1, 3.0)),
           x0=hst.one_of(hst.sampled_from([0.0, -0.0]),
                         hst.floats(-5.0, 5.0)),
           data=hst.data())
    def test_bits_match_the_array_step(self, kind, lam, c, x0, data):
        # with c = 1 and x0 = 0 the gradient is -b, so b = +-lam puts z on
        # the soft-threshold boundary |z| = lam / L
        edge = [lam, -lam, float(np.nextafter(lam, np.inf)),
                float(np.nextafter(-lam, -np.inf))]
        b = data.draw(hst.one_of(hst.sampled_from(edge),
                                 hst.floats(-20.0, 20.0)))
        self._check(kind, lam, c, x0, b)

    @pytest.mark.parametrize("b", [-1.0, 1.0])
    def test_soft_threshold_boundary(self, b):
        # x_0 = 0 and |z| = lam / L: gamma is a zero, -0.0 when z < 0
        gamma, _ = self._check("l1", 1.0, 1.0, 0.0, b)
        assert gamma == 0.0 and np.signbit(gamma) == (b < 0)

    def _check(self, kind, lam, c, x0, b):
        prob = self._problem(kind, lam, c, b)
        got_state = prob.residual_state(np.array([x0]))
        want_state = prob.residual_state(np.array([x0]))
        f = prob.objective(got_state)
        gamma, g_new, df = step(prob, got_state, 0)
        want_gamma, want_g, want_df = _array_step(prob, want_state, 0)
        assert type(gamma) is float and type(g_new) is float
        assert type(df) is float
        if gamma == 0.0:
            assert df == 0.0 == want_df
        else:
            assert abs(df - want_df) <= 1e-12 * (1.0 + abs(f))
        assert np.float64(gamma).tobytes() == np.float64(want_gamma).tobytes()
        assert np.float64(g_new).tobytes() == np.float64(want_g).tobytes()
        assert got_state.x.tobytes() == want_state.x.tobytes()
        assert got_state.w.tobytes() == want_state.w.tobytes()
        return gamma, g_new


class TestCarriedObjective:
    """``step``'s ``df`` is the objective's change, and ``run`` carries the
    objective by it between full evaluations."""

    @settings(max_examples=200, deadline=None)
    @given(kind=hst.sampled_from(["none", "l1", "l2"]),
           lam=hst.one_of(hst.just(0.0), hst.floats(0.01, 20.0)),
           seed=hst.integers(0, 2 ** 16),
           x0=hst.lists(hst.one_of(hst.just(0.0), hst.floats(-3.0, 3.0)),
                        min_size=5, max_size=5))
    def test_df_is_the_objective_change(self, kind, lam, seed, x0):
        # dense columns, so that each step moves every residual entry; a
        # large l1 weight puts the zeros of x0 in the dead zone
        prob = random_problem(seed, d=8, n=5, reg=Regularizer(kind, lam))
        st = prob.residual_state(np.array(x0))
        for i in (0, 1, 2, 3, 4, 2):
            f = prob.objective(st)
            gamma, _, df = step(prob, st, i)
            if gamma == 0.0:
                assert df == 0.0
            else:
                assert abs(df - (prob.objective(st) - f)) <= 1e-12 * (
                    1.0 + abs(f))

    @pytest.mark.parametrize("name,rule", [
        ("ridge", "ucd"), ("ridge", "ascd"),
        ("lasso", "ucd"), ("lasso", "ascd-gss")])
    def test_carried_f_is_the_objective(self, name, rule):
        # 25n steps cross two residual refreshes; replaying the picks and
        # steps through apply_step gives the run's iterate, bit for bit
        prob = _grid_problems()[name]
        n = prob.n
        res = run(RunConfig(problem=prob, steps=25 * n, rule=rule,
                            oracle=OracleSpec("g3"), seed=4,
                            init="true-gradient", diag_every=0))
        # useful steps carry f past the second refresh
        assert np.count_nonzero(res.gamma[20 * n:]) > 0
        state = prob.residual_state()
        for t in range(res.t.size):
            f = prob.objective(state)
            if t % (10 * n) == 0:
                # the start and every refresh evaluate the objective
                assert res.f[t] == f
            assert abs(res.f[t] - f) <= 1e-11 * res.f[0], t
            if res.gamma[t] != 0.0:
                state.apply_step(prob.matrix, int(res.i[t]),
                                 float(res.gamma[t]))
            if (t + 1) % (10 * n) == 0:
                state.refresh(prob.matrix)
        assert state.x.tobytes() == res.final_x.tobytes()
        assert prob.objective(state) == res.final_f


class TestProgressTau:
    def test_direct_arithmetic(self):
        tau_u, tau_a, tau_s = progress_tau(np.array([3.0, 1.0]),
                                           np.array([0]), 1.0)
        assert tau_u == pytest.approx(2.5)
        assert tau_a == pytest.approx(4.5)
        assert tau_s == pytest.approx(4.5)

    def test_uniform_gradient(self):
        g = np.full(7, 1.3)
        tau_u, _, tau_s = progress_tau(g, np.arange(7), 2.0)
        assert tau_u == pytest.approx(tau_s)
        assert tau_s == pytest.approx(1.3 ** 2 / 4.0)

    def test_single_spike(self):
        n = 6
        g = np.zeros(n)
        g[0] = 2.0
        tau_u, _, tau_s = progress_tau(g, np.arange(n), 1.0)
        assert tau_u == pytest.approx(tau_s / n)

    def test_per_coordinate_constants(self):
        # each gain is g_i^2 / (2 L_i), the exact step's decrease: 0.5 and
        # 1.0 here, so the steeper gradient is the smaller gain
        tau_u, tau_a, tau_s = progress_tau(np.array([3.0, 1.0]),
                                           np.array([0]),
                                           np.array([9.0, 0.5]))
        assert (tau_u, tau_a, tau_s) == (0.75, 0.5, 1.0)

    def test_gain_is_the_exact_step_decrease(self):
        prob = random_problem(4, reg=Regularizer("l2", 0.3))
        state = prob.residual_state(np.linspace(-1.0, 1.0, prob.n))
        g = prob.full_gradient(state)
        _, _, tau_s = progress_tau(g, np.arange(prob.n), prob.lipschitz)
        i = int(np.argmax(np.square(g) / prob.lipschitz))
        f = prob.objective(state)
        step(prob, state, i)
        assert f - prob.objective(state) == pytest.approx(tau_s, rel=1e-9)


class TestProgressDelta:
    def test_halving(self):
        assert progress_delta(1.0, 0.5, 0.0) == pytest.approx(1.0)

    def test_no_progress(self):
        assert progress_delta(2.0, 2.0, 0.0) == 0.0

    def test_exact_convergence(self):
        assert progress_delta(1.0, 0.0, 0.0) == np.inf

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_leaving_the_optimum(self, kind):
        # a step up from f* has no finite inverse gap before it; neither a
        # ZeroDivisionError nor a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            delta = progress_delta(kind(1.0), kind(2.0), kind(1.0))
        assert delta == -np.inf

    def test_scd_delta_vs_displacement(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((12, 5))
        b = rng.standard_normal(12)
        prob = CompositeProblem(ColumnSparseMatrix.from_dense(A), b)
        xstar, *_ = np.linalg.lstsq(A, b, rcond=None)
        fstar = prob.objective(prob.residual_state(xstar))
        L = float(prob.lipschitz.max())
        st = prob.residual_state()
        f_prev = prob.objective(st)
        for _ in range(200):
            g = prob.full_gradient(st)
            i = int(np.argmax(np.abs(g)))
            bound = 1.0 / (2 * L * np.sum(np.abs(st.x - xstar)) ** 2)
            st.apply_step(prob.matrix, i, -g[i] / L)
            f_next = prob.objective(st)
            if f_next <= fstar + 1e-12:
                break
            assert progress_delta(f_prev, f_next, fstar) >= bound * (1 - 1e-8)
            f_prev = f_next


class TestRun:
    def test_exactness_collapse(self):
        # the smooth picks equal the brute-force steepest picks; under l1
        # each pick is a brute-force gs-s maximiser up to a rounding tie
        for reg in (None, Regularizer("l1", 1.0)):
            prob = random_problem(3, reg=reg)
            scd = run(RunConfig(problem=prob, steps=120, rule="scd", seed=5))
            if reg is None:
                want, _ = steepest_descent(prob, 120)
                assert np.array_equal(scd.i, want)
            else:
                _, short = steepest_descent(prob, 120, picks=scd.i)
                assert short.max() <= ascd.driver.SOUNDNESS_SLACK
            assert scd.soundness_violations == 0, reg

    def test_ucd_identity_converges_on_coverage(self):
        n = 8
        prob = identity_problem(n)
        res = run(RunConfig(problem=prob, steps=200, rule="ucd", seed=2,
                            x0=np.ones(n), diag_every=0))
        seen = set()
        for t in range(200):
            seen.add(int(res.i[t]))
            if len(seen) == n:
                # one step later the objective is exactly zero
                if t + 1 < 200:
                    assert res.f[t + 1] == 0.0
                break
        assert res.final_f == 0.0

    def test_monotone_descent_all_rules(self):
        for reg in (None, Regularizer("l2", 0.7), Regularizer("l1", 0.4)):
            prob = random_problem(7, reg=reg)
            for rule in RULES:
                if rule == "ascd-gss" and reg is not None and reg.kind == "l2":
                    continue
                res = run(RunConfig(problem=prob, steps=150, rule=rule,
                                    oracle=OracleSpec("g3"), seed=1,
                                    diag_every=0))
                drops = np.diff(np.append(res.f, res.final_f))
                assert np.all(drops <= 1e-12 * (1 + np.abs(res.f))), rule

    def test_every_tracked_rule_runs_the_safe_set(self, monkeypatch):
        # on every step the set in use, which progress_tau receives, and
        # the pick's tie pool are those of a fresh full scoring; a step
        # after a zero step may keep the last set or recompute it
        real_scores, real_set = ascd.driver._scores, ascd.driver.active_set
        real_pick = ascd.driver.select_ascd
        full, in_use, computed, bad = [], [], [], []

        def scores(rule, est, x, problem):
            if est.g.size == problem.n:
                full.append((rule, est, x, problem))
            return real_scores(rule, est, x, problem)

        def counted(bounds):
            computed.append(len(in_use))
            return real_set(bounds)

        def pick(bounds, aset, rng):
            i = real_pick(bounds, aset, rng)
            sub = bounds.lower[aset.indices]
            if not np.array_equal(aset.ties,
                                  aset.indices[sub == sub.max()]):
                bad.append(("ties", len(in_use)))
            return i

        def tau(gradient, indices, lipschitz):
            want = real_set(real_scores(*full[0]))
            if not np.array_equal(indices, want.indices):
                bad.append(("set", len(in_use)))
            in_use.append(indices)
            return progress_tau(gradient, indices, lipschitz)

        for name, spy in (("_scores", scores), ("active_set", counted),
                          ("select_ascd", pick), ("progress_tau", tau)):
            monkeypatch.setattr(ascd.driver, name, spy)
        lasso = _grid_problems()["lasso"]
        # at x = 0 nearly every coordinate of this lasso sits in the dead
        # zone, so an ascd zero step raises its coordinate's lower score
        lam = 0.9 * float(np.max(np.abs(lasso.full_gradient(
            lasso.residual_state()))))
        dead = CompositeProblem(lasso.matrix, lasso.target,
                                Regularizer("l1", lam))
        kept, fell_through = Counter(), Counter()
        for prob, rule, pick_mode, (kind, init) in itertools.product(
                # scd runs the ascd-gss g1 true-gradient cells
                (lasso, dead), [r for r in RULES if r not in ("ucd", "scd")],
                ("argmax-lower", "uniform-set"),
                (("g1", "true-gradient"), ("g4", "none"), ("g2", "none"))):
            full.clear(), in_use.clear(), computed.clear()
            res = run(RunConfig(problem=prob, steps=3 * prob.n, rule=rule,
                                pick=pick_mode,
                                oracle=OracleSpec(kind, epsilon=0.1, seed=2),
                                seed=1, init=init, diag_every=1))
            assert bad == [], (rule, pick_mode, kind)
            assert len(in_use) == res.t.size
            # the first step and every step after a useful one recompute
            # the set
            after_zero = {t for t in range(1, res.t.size)
                          if res.gamma[t - 1] == 0}
            assert set(range(res.t.size)) - after_zero <= set(computed)
            kept[rule] += len(after_zero - set(computed))
            fell_through[rule] += len(after_zero & set(computed))
        # a gs-q zero step can change the picked coordinate's lower score;
        # scored at each L_i, it does so here on the g2 cells
        assert kept["ascd-gsq"] > 0 and fell_through["ascd-gsq"] > 0
        assert kept.total() > 0 and fell_through.total() > 0

    def test_mean_pick_pool(self, monkeypatch):
        # the pick draws from all n under ucd, from the set under
        # uniform-set and from its tied maximisers otherwise; scd reads no
        # pick and draws from its tied maximisers
        ties = []
        real = ascd.driver.select_ascd

        def counted(scores, aset, rng):
            sub = scores.lower[aset.indices]
            ties.append(np.count_nonzero(sub == sub.max()))
            return real(scores, aset, rng)

        monkeypatch.setattr(ascd.driver, "select_ascd", counted)
        prob = _grid_problems()["lasso"]
        for rule in RULES:
            for pick in ("argmax-lower", "uniform-set"):
                ties.clear()
                res = run(RunConfig(problem=prob, steps=3 * prob.n,
                                    rule=rule, pick=pick,
                                    oracle=OracleSpec("g4", seed=2), seed=1,
                                    diag_every=0))
                if rule == "ucd":
                    want = prob.n
                elif pick == "uniform-set" and rule != "scd":
                    want = np.mean(res.active_size)
                else:
                    assert len(ties) == res.t.size and max(ties) > 1
                    want = sum(ties) / res.t.size
                assert res.mean_pick_pool == want, (rule, pick)

    def test_soundness_and_containment_every_oracle(self):
        prob = random_problem(9, reg=Regularizer("l2", 0.2))
        for kind in ORACLE_KINDS:
            for init in ("none", "true-gradient"):
                spec = OracleSpec(kind, epsilon=0.5, seed=4)
                res = run(RunConfig(problem=prob, steps=150, rule="ascd",
                                    oracle=spec, seed=3, init=init,
                                    diag_every=1))
                assert res.soundness_violations == 0, (kind, init)
                assert res.containment_violations == 0, (kind, init)
                assert res.sandwich_violations == 0, (kind, init)

    def test_sandwich_counted_for_ascd_only(self):
        # the gs-q set makes no promise about GS-L scores, so its runs
        # report no sandwich violations even when the ordering fails on
        # them
        m, b = generate_synthetic(SynthConfig(n_rows=50, n_cols=40, seed=1))
        lam = 0.1 * float(np.max(np.abs(m.col_dots(b))))
        prob = CompositeProblem(m, b, Regularizer("l1", lam))
        res = run(RunConfig(problem=prob, steps=8 * prob.n, rule="ascd-gsq",
                            oracle=OracleSpec("g1"), seed=0,
                            init="true-gradient", diag_every=1))
        assert res.sandwich_violations == 0
        assert res.soundness_violations == 0

    def test_sandwich_counter_catches_broken_set(self, monkeypatch):
        # a set holding only the coordinate with the smallest upper score
        # breaks tau_ucd <= tau_ascd on every diagnosed step
        def worst_only(scores):
            i = int(np.argmin(scores.upper))
            return ActiveSet(indices=np.array([i]),
                             avg_score=float(scores.lower[i]))

        monkeypatch.setattr(ascd.driver, "active_set", worst_only)
        m, b = generate_synthetic(SynthConfig(n_rows=50, n_cols=40, seed=1))
        prob = CompositeProblem(m, b, Regularizer("l2", 1.0))
        res = run(RunConfig(problem=prob, steps=4 * prob.n, rule="ascd",
                            oracle=OracleSpec("g1"), seed=0,
                            init="true-gradient", diag_every=1))
        assert res.sandwich_violations == res.t.size

    def test_screened_set_matches_sorted_reference(self, monkeypatch):
        # the O(n) screen in active_set changes no pick, objective value,
        # set size or diagnostic against the full stable sort
        m, b = generate_synthetic(SynthConfig(n_rows=40, n_cols=30, seed=2))
        lam = 0.1 * float(np.max(np.abs(m.col_dots(b))))
        prob = CompositeProblem(m, b, Regularizer("l1", lam))
        configs = [RunConfig(problem=prob, steps=3 * prob.n, rule=rule,
                             oracle=OracleSpec(kind, epsilon=0.1, seed=1),
                             seed=4, init=init, pick=pick, diag_every=1)
                   for rule in ("ascd", "ascd-gss", "ascd-gsq")
                   for kind in ("g1", "g2", "g4")
                   for init in ("none", "true-gradient")
                   for pick in ("argmax-lower", "uniform-set")]
        screened = [run(cfg) for cfg in configs]
        monkeypatch.setattr(ascd.driver, "active_set", sorted_active_set)
        for cfg, got in zip(configs, screened):
            want = run(cfg)
            for name in ("i", "f", "active_size", "tau_ascd", "final_x"):
                assert np.array_equal(getattr(got, name), getattr(want, name),
                                      equal_nan=True), (cfg.rule, name)

    def test_soundness_checks_the_sign(self, monkeypatch):
        # right magnitudes, wrong signs: the interval g +- r misses the true
        # gradient, which the gs-s and gs-q scores rely on
        class Negated(GradientEstimate):
            @classmethod
            def exact(cls, gradient):
                return super().exact(-np.asarray(gradient))

        monkeypatch.setattr(ascd.driver, "GradientEstimate", Negated)
        m, b = generate_synthetic(SynthConfig(n_rows=50, n_cols=40, seed=1))
        prob = CompositeProblem(m, b, Regularizer("l2", 1.0))
        res = run(RunConfig(problem=prob, steps=1, rule="ascd",
                            oracle=OracleSpec("g1"), init="true-gradient",
                            diag_every=1))
        assert res.soundness_violations == 1

    def test_final_f_ordering_small_ridge(self):
        # greedy <= tracked-approximate <= uniform for most seeds
        wins = 0
        for seed in range(10):
            m, b = generate_synthetic(SynthConfig(n_rows=50, n_cols=100,
                                                  seed=seed))
            prob = CompositeProblem(m, b, Regularizer("l2", 1.0))
            fs = {}
            for rule, oracle in (("scd", None),
                                 ("ascd", OracleSpec("g4", seed=seed)),
                                 ("ucd", None)):
                res = run(RunConfig(problem=prob, steps=50 * prob.n,
                                    rule=rule,
                                    oracle=oracle, seed=seed,
                                    init="true-gradient", diag_every=0))
                fs[rule] = res.final_f
            if fs["scd"] <= fs["ascd"] <= fs["ucd"]:
                wins += 1
        assert wins >= 8

    def test_trace_csv_schema(self, tmp_path):
        prob = random_problem(11)
        res = run(RunConfig(problem=prob, steps=25, rule="ascd",
                            oracle=OracleSpec("g3"), seed=0, diag_every=10))
        path = tmp_path / "trace.csv"
        write_trace_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 26
        row0 = lines[1].split(",")
        assert len(row0) == 10
        # diagnostics only on the cadence; empty fields elsewhere
        row1 = lines[2].split(",")
        assert row1[3] == "" and row1[6] == ""
        assert row0[3] != ""

    def test_trace_csv_timed_wall_ns_integers(self, tmp_path):
        prob = random_problem(11)
        res = run(RunConfig(problem=prob, steps=12, rule="ucd", seed=0,
                            diag_every=5, time_steps=True))
        path = tmp_path / "trace.csv"
        write_trace_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == TRACE_HEADER == ",".join(TRACE_COLUMNS)
        walls = [line.split(",")[-1] for line in lines[1:]]
        assert len(walls) == 12 and all(w.isdigit() for w in walls)
        assert [int(w) for w in walls] == res.wall_ns.tolist()

    def test_timed_trace_csv_memory_does_not_grow_with_steps(self, tmp_path):
        # a timed trace holds int64 wall times, so writing 100k steps takes
        # one block of text and no step-length copy (8 B per step would
        # alone be 0.8 MB); the columns of a real timed run, tiled
        prob = random_problem(11)
        res = run(RunConfig(problem=prob, steps=1000, rule="ucd", seed=0,
                            diag_every=10, time_steps=True))
        long = replace(res, **{name: np.resize(getattr(res, name), 100_000)
                               for name in TRACE_COLUMNS})
        tracemalloc.start()
        try:
            write_trace_csv(long, tmp_path / "trace.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(lines) == 100_001
        assert [int(line.rsplit(",", 1)[1]) for line in lines[1:1001]] == (
            res.wall_ns.tolist())

    def test_trace_dtypes(self):
        prob = random_problem(11)
        res = run(RunConfig(problem=prob, steps=9, rule="ascd",
                            oracle=OracleSpec("g3"), seed=0, diag_every=4))
        for name in TRACE_COLUMNS + ("gamma",):
            col = getattr(res, name)
            assert col.shape == (9,), name
            assert col.dtype == (np.int64 if name in ("t", "i", "active_size")
                                 else np.float64), name
        assert res.t.tolist() == list(range(9))
        diag = np.isfinite(res.grad_inf)
        assert diag.tolist() == [t % 4 == 0 for t in range(9)]
        assert np.all(np.isnan(res.wall_ns)) and np.all(np.isfinite(res.gamma))

    def test_wall_times_only_when_asked(self):
        prob = random_problem(12)
        quiet = run(RunConfig(problem=prob, steps=10, rule="ucd", seed=0))
        timed = run(RunConfig(problem=prob, steps=10, rule="ucd", seed=0,
                              time_steps=True))
        assert np.all(np.isnan(quiet.wall_ns))
        assert timed.wall_ns.dtype == np.int64 and np.all(timed.wall_ns >= 0)

    def test_active_size_shrinks_after_coverage(self):
        # uninformed start: every coordinate stays active until it has been
        # refreshed once; with uniform picks coverage completes in a few
        # epochs and exclusions begin
        prob = random_problem(13, d=30, n=16)
        res = run(RunConfig(problem=prob, steps=10 * prob.n, rule="ascd",
                            oracle=OracleSpec("g2", epsilon=0.05, seed=2),
                            seed=1, init="none", pick="uniform-set",
                            diag_every=0))
        assert res.active_size[0] == prob.n
        assert res.active_size[-1] < prob.n
        assert res.soundness_violations == 0

    def test_true_init_starts_from_singleton(self):
        prob = random_problem(13, d=30, n=16)
        res = run(RunConfig(problem=prob, steps=40, rule="ascd",
                            oracle=OracleSpec("g2", epsilon=0.05, seed=2),
                            seed=1, init="true-gradient", diag_every=0))
        assert res.active_size[0] == 1

    def test_rejects_bad_config(self):
        prob = random_problem(15)
        with pytest.raises(ValueError):
            RunConfig(problem=prob, steps=0)
        with pytest.raises(ValueError):
            RunConfig(problem=prob, steps=5, rule="sgd")
        with pytest.raises(ValueError):
            RunConfig(problem=prob, steps=5, init="warm")
        # line search is the one update rule
        with pytest.raises(ValueError):
            UpdateRule("fixed")

    @pytest.mark.parametrize("field", ["seed", "diag_every"])
    def test_rejects_negative_field(self, field):
        # a negative diag_every diagnosed every step
        prob = random_problem(15)
        with pytest.raises(ValueError, match=f"{field} must be nonnegative"):
            RunConfig(problem=prob, steps=5, **{field: -1})

    def test_exact_rows_avoid_col_dots(self, monkeypatch):
        # every exact row is gathered from the row-major copy, kept below
        # the Gram limit (n = 200) and gathered afresh above it (limit 0);
        # the reference run computes each row with col_dots, and neither
        # regime calls col_dots or densifies A
        matrix, target = generate_synthetic(
            SynthConfig(n_rows=60, n_cols=200, seed=3))
        lam = 0.1 * float(np.max(np.abs(matrix.col_dots(target))))
        prob = CompositeProblem(matrix, target, Regularizer("l1", lam))
        cfg = RunConfig(problem=prob, steps=300, rule="ascd-gss",
                        oracle=OracleSpec("g1"), seed=0, init="none",
                        diag_every=0)

        with monkeypatch.context() as patched:
            patched.setattr(OracleContext, "_dot_row",
                            lambda ctx, i: col_dots_row(ctx.matrix, i))
            reference = run(cfg)

        def refuse(*_):
            raise AssertionError("col_dots or to_dense called in a run")

        monkeypatch.setattr(ColumnSparseMatrix, "col_dots", refuse)
        monkeypatch.setattr(ColumnSparseMatrix, "to_dense", refuse)
        kept = run(cfg)
        monkeypatch.setattr(ascd.oracles, "GRAM_LIMIT", 0)
        gathered = run(cfg)
        for result in (kept, gathered):
            assert np.count_nonzero(result.gamma) > 0
            assert np.array_equal(result.i, reference.i)
            assert result.final_f == reference.final_f

    def test_non_finite_x0_rejected_before_the_loop(self):
        # named as x0, not as a non-finite gradient at step 0
        prob = random_problem(16, n=3)
        with pytest.raises(ValueError, match="x0"):
            run(RunConfig(problem=prob, steps=5, x0=[np.nan, 0.0, 0.0]))

    def test_numeric_failure_reports_step_index(self):
        base = random_problem(16)
        # a target near the float limit overflows a partial gradient
        target = base.target / np.max(np.abs(base.target))
        prob = CompositeProblem(base.matrix, 1e308 * target)
        cfg = RunConfig(problem=prob, steps=50, rule="ucd", seed=0,
                        diag_every=0)
        with np.errstate(all="ignore"):
            with pytest.raises((FloatingPointError, ValueError),
                               match=r"step \d+"):
                run(cfg)


def _grid_problems():
    m, b = generate_synthetic(SynthConfig(n_rows=50, n_cols=40, seed=1))
    ridge = CompositeProblem(m, b, Regularizer("l2", 1.0))
    m, b = generate_synthetic(SynthConfig(n_rows=40, n_cols=30, seed=2))
    lam = 0.02 * float(np.max(np.abs(m.col_dots(b))))
    return {"ridge": ridge,
            "lasso": CompositeProblem(m, b, Regularizer("l1", lam))}


# (problem, rule, pick, oracle, init[, "line_search"][, steps]) -> the
# first 16 hex digits of the sha256 of the i, active_size and gamma
# columns, then those of the sha256 of the f column.  Until the two were
# split, one digest hashed all four columns: it was recorded before exact
# estimates scored once, and the notes below on when a cell was recorded
# speak of it.  Every f digest was re-recorded when the loop began to
# carry the objective by each step's exact change between full
# evaluations: f moved by at most 2.9e-13 of itself, and no first digest
# moved.  The g3 and g4 cells run the interval path.
# The cells after the lasso g4 "none" one were recorded before a zero step
# rescored only its coordinate; every lasso cell takes zero steps.  The
# lasso ascd-gsq cells were re-recorded when gs-q began to rank by the
# model decrease psi(x_i) - min V, in place of -min V: their picks moved.
# The ridge ascd-gsq cells did not, since psi = 0 there.  Every cell whose
# picks moved was re-recorded when the scores took units of the step (each
# score over its own L_i, gs-q at L_i in place of L_max): the ridge g1
# cells and scd end 3n steps at f/f0 = 2.557e-4 where they ended at
# 1.185e-3, and the ucd cells did not move
SAME_RESULTS = {
    ("ridge", "ascd", "argmax-lower", "g1", "true-gradient"):
        ("f5cd7b880a058a6e", "16e6cd06f6731d96"),
    ("ridge", "ascd", "uniform-set", "g1", "true-gradient"):
        ("f5cd7b880a058a6e", "16e6cd06f6731d96"),
    ("ridge", "ascd-gss", "argmax-lower", "g1", "true-gradient"):
        ("f5cd7b880a058a6e", "16e6cd06f6731d96"),
    ("ridge", "ascd-gss", "uniform-set", "g1", "true-gradient"):
        ("f5cd7b880a058a6e", "16e6cd06f6731d96"),
    ("ridge", "ascd-gsq", "argmax-lower", "g1", "true-gradient"):
        ("f5cd7b880a058a6e", "16e6cd06f6731d96"),
    ("ridge", "ascd-gsq", "uniform-set", "g1", "true-gradient"):
        ("f5cd7b880a058a6e", "16e6cd06f6731d96"),
    ("lasso", "ascd", "argmax-lower", "g1", "true-gradient"):
        ("8749b8291386a9e6", "96c567b669458c20"),
    ("lasso", "ascd", "uniform-set", "g1", "true-gradient"):
        ("8749b8291386a9e6", "96c567b669458c20"),
    ("lasso", "ascd-gss", "argmax-lower", "g1", "true-gradient"):
        ("abd59c0d130319d9", "ecf2ca3f8be615e6"),
    ("lasso", "ascd-gss", "uniform-set", "g1", "true-gradient"):
        ("abd59c0d130319d9", "ecf2ca3f8be615e6"),
    ("lasso", "ascd-gsq", "argmax-lower", "g1", "true-gradient"):
        ("92b5ee6b5c75d76e", "ecf2ca3f8be615e6"),
    ("lasso", "ascd-gsq", "uniform-set", "g1", "true-gradient"):
        ("92b5ee6b5c75d76e", "ecf2ca3f8be615e6"),
    ("ridge", "ascd", "uniform-set", "g3", "true-gradient"):
        ("485964416a876b81", "f25aa42b309fb236"),
    ("lasso", "ascd-gss", "argmax-lower", "g4", "none"):
        ("0b22cd75d2bdf587", "2d8950116879110b"),
    ("lasso", "ascd", "argmax-lower", "g3", "none"):
        ("852922182915263f", "63e1d38bf22935fc"),
    ("lasso", "ascd", "argmax-lower", "g3", "true-gradient"):
        ("7e463b7f5e240179", "4cf218d0b11230d4"),
    ("lasso", "ascd-gss", "argmax-lower", "g4", "true-gradient"):
        ("50e43accb1614b27", "d2703b5d479dc943"),
    # every lower score is 0 here, so the picks are ucd's
    ("lasso", "ascd-gsq", "argmax-lower", "g4", "none"):
        ("0b22cd75d2bdf587", "2d8950116879110b"),
    ("lasso", "ascd-gsq", "argmax-lower", "g4", "true-gradient"):
        ("50e43accb1614b27", "d2703b5d479dc943"),
    ("lasso", "ascd-gsq", "uniform-set", "g3", "true-gradient"):
        ("50e43accb1614b27", "d2703b5d479dc943"),
    # 10n steps: ranked by the model decrease, this cell takes its first
    # zero step at step 120
    ("lasso", "ascd-gsq", "argmax-lower", "g2", "none", "10n"):
        ("d7923d8c7d37d045", "19cc2a218da77b7f"),
    # 12n steps, recorded before a zero step kept the objective: a zero
    # step ends epoch 10, so the residual refresh alone must drop the
    # kept objective, whose bits it changes
    ("lasso", "ascd-gss", "argmax-lower", "g4", "true-gradient", "12n"):
        ("95396e371f031332", "8864938aa4ee9352"),
    ("lasso", "ascd-gsq", "uniform-set", "g4", "none", "12n"):
        ("04e47178fc9b9b6b", "2377b3777643bdc7"),
    # 12n steps on g4 from "none": this cell and the uniform-set cell
    # above draw 6 pick blocks each and rewind the generator at no pool
    # size change; the ascd cell below draws 9 blocks and rewinds at 2 set
    # size changes
    ("lasso", "ascd-gsq", "argmax-lower", "g4", "none", "12n"):
        ("2d5e74345081373c", "1b1d059ac0934519"),
    ("lasso", "ascd", "uniform-set", "g3", "true-gradient", "12n"):
        ("bbe1b7d548d2d7c9", "62fdbef6a0587f50"),
    # recorded after a zero step rescored and stepped on Python floats;
    # both take zero steps (39 and 74 of 3n).  The ascd-gss cell's picks
    # are ucd's, as are those of its argmax-lower twin above
    ("lasso", "ascd-gss", "uniform-set", "g4", "none"):
        ("0b22cd75d2bdf587", "2d8950116879110b"),
    ("lasso", "ascd-gsq", "argmax-lower", "g3", "true-gradient"):
        ("50e43accb1614b27", "d2703b5d479dc943"),
    # The scd and ucd cells end in "line_search", which names the one
    # update and keeps their test ids.  scd reads no pick, oracle or init:
    # it runs argmax-lower on g1 rows from a true-gradient start.  The
    # ridge digest moved when scd began to rank by grad_i^2 / L_i (GS-L)
    # and is the ridge ascd g1 true-gradient cell's.  The lasso digest
    # moved when scd began to score with gs-s, the composite steepest rule,
    # in place of the smooth gradient magnitude: it is the ascd-gss g1
    # true-gradient cell's, and it did not move under GS-L
    ("ridge", "scd", "uniform-set", "g4", "none", "line_search"):
        ("f5cd7b880a058a6e", "16e6cd06f6731d96"),
    ("lasso", "scd", "uniform-set", "g4", "none", "line_search"):
        ("abd59c0d130319d9", "ecf2ca3f8be615e6"),
    # ucd reads no pick, oracle or init
    ("ridge", "ucd", "uniform-set", "g1", "none", "line_search"):
        ("380568bc2745a7a8", "04ae38f6b87b04d6"),
    ("lasso", "ucd", "uniform-set", "g1", "none", "line_search"):
        ("0b22cd75d2bdf587", "2d8950116879110b"),
}


class TestExactPath:
    """g1 from a true-gradient start scores one array per step and gives
    the same results as the interval path."""

    @pytest.fixture(scope="class")
    def problems(self):
        return _grid_problems()

    @pytest.mark.parametrize("cell", list(SAME_RESULTS),
                             ids=["-".join(c) for c in SAME_RESULTS])
    def test_same_results(self, problems, cell):
        # optional trailing elements: the update's name, and the step count
        # in epochs (default 3n)
        name, rule, pick, kind, init, *extra = cell
        prob = problems[name]
        epochs = next((int(e[:-1]) for e in extra if e != "line_search"), 3)
        res = run(RunConfig(problem=prob, steps=epochs * prob.n, rule=rule,
                            oracle=OracleSpec(kind, seed=1), seed=4,
                            init=init, pick=pick, diag_every=1))
        picks = hashlib.sha256()
        for column in ("i", "active_size", "gamma"):
            picks.update(getattr(res, column).tobytes())
        f = hashlib.sha256(res.f.tobytes())
        assert (picks.hexdigest()[:16], f.hexdigest()[:16]) == (
            SAME_RESULTS[cell])
        # a lasso cell that stopped taking zero steps would no longer test
        # the one-coordinate rescoring
        assert name != "lasso" or np.any(res.gamma == 0)
        if epochs > 10:
            assert res.gamma[10 * prob.n - 1] == 0
            assert np.any(res.gamma[10 * prob.n:] == 0)
        assert (res.soundness_violations, res.containment_violations,
                res.sandwich_violations) == (0, 0, 0)

    @pytest.mark.parametrize("kind,init,exact_steps", [
        ("g1", "true-gradient", 20), ("g1", "none", 0),
        ("g2", "true-gradient", 1)])
    def test_exactness_comes_from_the_estimate(self, monkeypatch, kind, init,
                                               exact_steps):
        # g2 with epsilon 0 adds zero error rows: its first row ends the
        # one-array path
        seen = []
        real = ascd.driver.active_set

        def spy(scores):
            seen.append(scores.lower is scores.upper)
            return real(scores)

        monkeypatch.setattr(ascd.driver, "active_set", spy)
        prob = random_problem(17)
        run(RunConfig(problem=prob, steps=20, rule="ascd",
                      oracle=OracleSpec(kind), init=init, diag_every=0))
        assert seen == [True] * exact_steps + [False] * (20 - exact_steps)


class TestZeroStepRescoring:
    """After a zero step the loop rescores only the coordinate it picked,
    and the set stage still sees the bits of a full scoring."""

    @staticmethod
    def _spy(monkeypatch):
        # the first full-length call's arguments are the estimate and the
        # iterate that the loop mutates in place
        real_scores, real_set = ascd.driver._scores, ascd.driver.active_set
        full, mismatches = [], []

        def scores(rule, est, x, problem):
            if est.g.size == problem.n:
                full.append((rule, est, x, problem))
            return real_scores(rule, est, x, problem)

        def checked_set(bounds):
            want = real_scores(*full[0])
            if not (np.array_equal(bounds.lower, want.lower)
                    and np.array_equal(bounds.upper, want.upper)):
                mismatches.append(len(full))
            return real_set(bounds)

        monkeypatch.setattr(ascd.driver, "_scores", scores)
        monkeypatch.setattr(ascd.driver, "active_set", checked_set)
        return full, mismatches

    def test_set_sees_a_full_scoring(self, monkeypatch):
        problems = _grid_problems()
        lasso = problems["lasso"]
        configs = [RunConfig(problem=lasso, steps=3 * lasso.n, rule=rule,
                             oracle=OracleSpec(kind, epsilon=0.1, seed=1),
                             seed=4, init=init, diag_every=0)
                   for rule in ("ascd", "ascd-gss", "ascd-gsq")
                   for kind in ORACLE_KINDS
                   for init in ("none", "true-gradient")]
        configs.append(RunConfig(problem=problems["ridge"],
                                 steps=3 * problems["ridge"].n,
                                 rule="ascd-gsq", oracle=OracleSpec("g3"),
                                 seed=4, diag_every=0))
        full, mismatches = self._spy(monkeypatch)
        zero_steps = 0
        for cfg in configs:
            full.clear()
            res = run(cfg)
            assert mismatches == [], (cfg.rule, cfg.oracle.kind, cfg.init)
            # one full scoring to start, and one after every step that
            # moved x and was followed by another step
            assert len(full) == 1 + np.count_nonzero(res.gamma[:-1])
            zero_steps += np.count_nonzero(res.gamma[:-1] == 0)
        assert zero_steps > 0

    def test_rescored_coordinate_is_at_radius_zero(self, monkeypatch):
        # score_one reads no radius: every rescoring must see the last
        # updated coordinate at radius 0, with the estimate's g and its
        # own constant
        last, seen, bad = [], [], []
        real_update, real_one = (ascd.driver.update_estimates,
                                 ascd.driver.score_one)

        def update(estimate, i_t, *rest):
            out = real_update(estimate, i_t, *rest)
            last[:] = [estimate, i_t]
            return out

        def one(rule, g, x, lipschitz, reg):
            est, i = last
            seen.append(i)
            if not (est.r[i] == 0.0 and lipschitz == prob.lipschitz[i]
                    and np.float64(g).tobytes() == est.g[i].tobytes()):
                bad.append((rule, i))
            return real_one(rule, g, x, lipschitz, reg)

        monkeypatch.setattr(ascd.driver, "update_estimates", update)
        monkeypatch.setattr(ascd.driver, "score_one", one)
        rescored = Counter()
        b = np.random.default_rng(5).standard_normal(20)
        for reg, make, rule, kind, init, pick in itertools.product(
                (None, Regularizer("l1", 1.0), Regularizer("l2", 1.0)),
                # a smooth step on the identity zeroes its gradient exactly,
                # so a repeat pick is a zero step under every penalty
                (lambda reg: random_problem(5, d=30, n=20, reg=reg),
                 lambda reg: identity_problem(20, b, reg)),
                ("ascd", "ascd-gss", "ascd-gsq"), ORACLE_KINDS,
                INITS, PICKS):
            prob = make(reg)
            seen.clear()
            res = run(RunConfig(problem=prob, steps=3 * prob.n, rule=rule,
                                oracle=OracleSpec(kind, epsilon=0.1, seed=1),
                                seed=2, init=init, pick=pick, diag_every=0))
            assert bad == [], (reg, rule, kind, init, pick)
            # one rescoring after every zero step that another step follows
            zero = np.flatnonzero(res.gamma[:-1] == 0)
            assert seen == res.i[zero].tolist()
            rescored[None if reg is None else reg.kind] += len(seen)
        assert min(rescored.values()) > 0 and len(rescored) == 3

    def test_full_scorings_count_useful_steps(self, monkeypatch):
        # the configuration of the lasso-g4 benchmark workload, small
        full, _ = self._spy(monkeypatch)
        m, b = generate_synthetic(SynthConfig(n_rows=60, n_cols=200, seed=3))
        lam = 0.1 * float(np.max(np.abs(m.col_dots(b))))
        prob = CompositeProblem(m, b, Regularizer("l1", lam))
        res = run(RunConfig(problem=prob, steps=3 * prob.n, rule="ascd-gss",
                            oracle=OracleSpec("g4"), seed=0, init="none",
                            diag_every=0))
        assert res.gamma[-1] == 0.0
        useful = res.counters()["useful_steps"]
        assert len(full) == 1 + useful < res.t.size

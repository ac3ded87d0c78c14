import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

import ascd.driver
import ascd.oracles
from ascd.data import SynthConfig, generate_synthetic
from ascd.driver import (RULES, RunConfig, UpdateRule, progress_delta,
                         progress_tau, run, step, write_trace_csv,
                         TRACE_COLUMNS, TRACE_HEADER)
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
    def test_fixed_step_value(self):
        prob = identity_problem(2)
        prob.lipschitz_max = 4.0  # pretend a larger global constant
        st = prob.residual_state(np.array([2.0, 0.0]))
        gamma, g_new = step(prob, st, 0, UpdateRule("fixed"))
        assert gamma == pytest.approx(-0.5)
        # recomputed exactly at the new point x_0 = 1.5
        assert g_new == pytest.approx(1.5)

    def test_line_search_solves_1d(self):
        prob = identity_problem(1)
        st = prob.residual_state(np.array([5.0]))
        gamma, g_new = step(prob, st, 0, UpdateRule("line_search"))
        assert gamma == pytest.approx(-5.0)
        assert st.x[0] == pytest.approx(0.0)
        assert g_new == 0.0

    def test_prox_soft_threshold(self):
        prob = identity_problem(1, b=np.array([3.0]), reg=Regularizer("l1", 1.0))
        st = prob.residual_state(np.array([0.0]))
        # grad = -3, L = 1: model minimiser is soft(3, 1) = 2
        gamma, _ = step(prob, st, 0, UpdateRule("fixed"))
        assert gamma == pytest.approx(2.0)

    def test_prox_example_from_slope(self):
        # x_i = 0, grad 3, L = 1, lam 1: step is -2
        prob = identity_problem(1, b=np.array([-3.0]), reg=Regularizer("l1", 1.0))
        st = prob.residual_state(np.array([0.0]))
        assert prob.partial_gradient(st, 0) == pytest.approx(3.0)
        gamma, _ = step(prob, st, 0, UpdateRule("fixed"))
        assert gamma == pytest.approx(-2.0)

    def test_line_search_l1_reports_subgradient_value(self):
        prob = identity_problem(1, b=np.array([3.0]), reg=Regularizer("l1", 1.0))
        st = prob.residual_state(np.array([0.0]))
        gamma, g_new = step(prob, st, 0, UpdateRule("line_search"))
        assert st.x[0] == pytest.approx(2.0)
        assert g_new == -1.0
        # the composite steepest score vanishes exactly at the minimiser
        assert abs(g_new + 1.0 * np.sign(st.x[0])) == 0.0

    @pytest.mark.parametrize("kind", ["fixed", "line_search"])
    def test_zero_step_off_zero(self, kind):
        # x_0 = 2 already minimises its model, but the float gradient
        # misses -lam by an ulp: line search still reports -lam exactly,
        # the fixed step the gradient before the step
        m = ColumnSparseMatrix.from_columns(
            1, [(np.array([0]), np.array([0.3]))])
        prob = CompositeProblem(m, np.array([3.933333333333333]),
                                Regularizer("l1", 1.0))
        st = prob.residual_state(np.array([2.0]))
        g_before = prob.partial_gradient(st, 0)
        assert g_before != -1.0
        x, w = st.x.copy(), st.w.copy()
        gamma, g_new = step(prob, st, 0, UpdateRule(kind))
        assert gamma == 0.0
        want = -1.0 if kind == "line_search" else g_before
        assert np.float64(g_new).tobytes() == np.float64(want).tobytes()
        assert np.array_equal(st.x, x) and np.array_equal(st.w, w)

    @pytest.mark.parametrize("kind", ["fixed", "line_search"])
    def test_zero_step_at_zero(self, kind):
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
            gamma, g_new = step(prob, st, i, UpdateRule(kind))
            assert gamma == 0.0
            assert (np.float64(g_new).tobytes()
                    == np.float64(g_before).tobytes())
        assert np.array_equal(st.x, x) and np.array_equal(st.w, w)


def _array_step(problem, state, i, rule):
    """The coordinate step through the array ``model_argmin`` and
    ``np.sign``: the reference for ``step``'s bits.  Moves ``state``."""
    g = problem.partial_gradient(state, i)
    l_eff = (problem.lipschitz[i] if rule.kind == "line_search"
             else problem.lipschitz_max)
    gamma = problem.psi_reg.model_argmin(state.x[i:i + 1], np.array([g]),
                                         l_eff)[0]
    x_new = state.x[i] + gamma
    if gamma != 0.0:
        state.apply_step(problem.matrix, i, float(gamma))
    if rule.kind == "line_search":
        if problem.psi_reg.kind == "none":
            return gamma, 0.0
        if x_new != 0.0:
            return gamma, -problem.psi_reg.lam * np.sign(x_new)
    return gamma, g if gamma == 0.0 else problem.partial_gradient(state, i)


class TestFloatStep:
    """``step`` on Python floats returns the bits of the array formula."""

    @staticmethod
    def _problem(kind, lam, c, b):
        # coordinate 0 has L = c^2 (+ lam under l2); coordinate 1 sets
        # lipschitz_max = 4 for the fixed update whenever c < 2
        m = ColumnSparseMatrix.from_columns(
            2, [(np.array([0]), np.array([c])),
                (np.array([1]), np.array([2.0]))])
        return CompositeProblem(m, np.array([b, 0.0]), Regularizer(kind, lam))

    @settings(max_examples=300, deadline=None)
    @given(kind=hst.sampled_from(["none", "l1", "l2"]),
           update=hst.sampled_from(["fixed", "line_search"]),
           lam=hst.one_of(hst.just(0.0), hst.floats(0.01, 10.0)),
           c=hst.one_of(hst.just(1.0), hst.floats(0.1, 3.0)),
           x0=hst.one_of(hst.sampled_from([0.0, -0.0]),
                         hst.floats(-5.0, 5.0)),
           data=hst.data())
    def test_bits_match_the_array_step(self, kind, update, lam, c, x0,
                                       data):
        # with c = 1 and x0 = 0 the gradient is -b, so b = +-lam puts z on
        # the soft-threshold boundary |z| = lam / L under either update
        edge = [lam, -lam, float(np.nextafter(lam, np.inf)),
                float(np.nextafter(-lam, -np.inf))]
        b = data.draw(hst.one_of(hst.sampled_from(edge),
                                 hst.floats(-20.0, 20.0)))
        self._check(kind, update, lam, c, x0, b)

    @pytest.mark.parametrize("update", ["fixed", "line_search"])
    @pytest.mark.parametrize("b", [-1.0, 1.0])
    def test_soft_threshold_boundary(self, update, b):
        # x_0 = 0 and |z| = lam / L: gamma is a zero, -0.0 when z < 0
        gamma, _ = self._check("l1", update, 1.0, 1.0, 0.0, b)
        assert gamma == 0.0 and np.signbit(gamma) == (b < 0)

    def _check(self, kind, update, lam, c, x0, b):
        prob = self._problem(kind, lam, c, b)
        rule = UpdateRule(update)
        got_state = prob.residual_state(np.array([x0, 0.0]))
        want_state = prob.residual_state(np.array([x0, 0.0]))
        gamma, g_new = step(prob, got_state, 0, rule)
        want_gamma, want_g = _array_step(prob, want_state, 0, rule)
        assert type(gamma) is float and type(g_new) is float
        assert np.float64(gamma).tobytes() == np.float64(want_gamma).tobytes()
        assert np.float64(g_new).tobytes() == np.float64(want_g).tobytes()
        assert got_state.x.tobytes() == want_state.x.tobytes()
        assert got_state.w.tobytes() == want_state.w.tobytes()
        return gamma, g_new


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


class TestProgressDelta:
    def test_halving(self):
        assert progress_delta(1.0, 0.5, 0.0) == pytest.approx(1.0)

    def test_no_progress(self):
        assert progress_delta(2.0, 2.0, 0.0) == 0.0

    def test_exact_convergence(self):
        assert progress_delta(1.0, 0.0, 0.0) == np.inf

    def test_scd_delta_vs_displacement(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((12, 5))
        b = rng.standard_normal(12)
        prob = CompositeProblem(ColumnSparseMatrix.from_dense(A), b)
        xstar, *_ = np.linalg.lstsq(A, b, rcond=None)
        fstar = prob.objective(prob.residual_state(xstar))
        L = prob.lipschitz_max
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
        update = UpdateRule("line_search")
        for reg in (None, Regularizer("l1", 1.0)):
            prob = random_problem(3, reg=reg)
            scd = run(RunConfig(problem=prob, steps=120, rule="scd",
                                update=update, seed=5))
            if reg is None:
                want, _ = steepest_descent(prob, 120, update)
                assert np.array_equal(scd.i, want)
            else:
                _, short = steepest_descent(prob, 120, update, picks=scd.i)
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
        for reg, update in ((None, UpdateRule("fixed")),
                            (Regularizer("l2", 0.7), UpdateRule("line_search")),
                            (Regularizer("l1", 0.4), UpdateRule("fixed"))):
            prob = random_problem(7, reg=reg)
            for rule in RULES:
                if rule == "ascd-gss" and reg is not None and reg.kind == "l2":
                    continue
                res = run(RunConfig(problem=prob, steps=150, rule=rule,
                                    update=update, oracle=OracleSpec("g3"),
                                    seed=1, diag_every=0))
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

        def tau(gradient, indices, lipschitz_max):
            want = real_set(real_scores(*full[0]))
            if not np.array_equal(indices, want.indices):
                bad.append(("set", len(in_use)))
            in_use.append(indices)
            return progress_tau(gradient, indices, lipschitz_max)

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
        for prob, rule, pick_mode, (kind, init), update in itertools.product(
                # scd runs the ascd-gss g1 true-gradient cells
                (lasso, dead), [r for r in RULES if r not in ("ucd", "scd")],
                ("argmax-lower", "uniform-set"),
                (("g1", "true-gradient"), ("g4", "none")),
                ("fixed", "line_search")):
            full.clear(), in_use.clear(), computed.clear()
            res = run(RunConfig(problem=prob, steps=3 * prob.n, rule=rule,
                                pick=pick_mode, update=UpdateRule(update),
                                oracle=OracleSpec(kind, seed=2), seed=1,
                                init=init, diag_every=1))
            assert bad == [], (rule, pick_mode, kind, update)
            assert len(in_use) == res.t.size
            # the first step and every step after a useful one recompute
            # the set
            after_zero = {t for t in range(1, res.t.size)
                          if res.gamma[t - 1] == 0}
            assert set(range(res.t.size)) - after_zero <= set(computed)
            kept[rule] += len(after_zero - set(computed))
            fell_through[rule] += len(after_zero & set(computed))
        # a gs-q zero step can change the picked coordinate's lower score
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
                                    update=UpdateRule("line_search"),
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
        # the gs-q set makes no promise about squared gradient magnitudes,
        # so its runs report no sandwich violations even when the ordering
        # fails on them
        m, b = generate_synthetic(SynthConfig(n_rows=50, n_cols=40, seed=1))
        lam = 0.1 * float(np.max(np.abs(m.col_dots(b))))
        prob = CompositeProblem(m, b, Regularizer("l1", lam))
        res = run(RunConfig(problem=prob, steps=8 * prob.n, rule="ascd-gsq",
                            update=UpdateRule("line_search"),
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
                            update=UpdateRule("line_search"),
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
                             update=UpdateRule("line_search"),
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
                                    rule=rule, update=UpdateRule("line_search"),
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
        assert np.all(timed.wall_ns >= 0)

    def test_active_size_shrinks_after_coverage(self):
        # uninformed start: every coordinate stays active until it has been
        # refreshed once; with uniform picks coverage completes in a few
        # epochs and exclusions begin
        prob = random_problem(13, d=30, n=16)
        res = run(RunConfig(problem=prob, steps=10 * prob.n, rule="ascd",
                            update=UpdateRule("line_search"),
                            oracle=OracleSpec("g2", epsilon=0.05, seed=2),
                            seed=1, init="none", pick="uniform-set",
                            diag_every=0))
        assert res.active_size[0] == prob.n
        assert res.active_size[-1] < prob.n
        assert res.soundness_violations == 0

    def test_true_init_starts_from_singleton(self):
        prob = random_problem(13, d=30, n=16)
        res = run(RunConfig(problem=prob, steps=40, rule="ascd",
                            update=UpdateRule("line_search"),
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

    @pytest.mark.parametrize("field", ["seed", "diag_every"])
    def test_rejects_negative_field(self, field):
        # a negative diag_every diagnosed every step
        prob = random_problem(15)
        with pytest.raises(ValueError, match=f"{field} must be nonnegative"):
            RunConfig(problem=prob, steps=5, **{field: -1})

    def test_exact_rows_avoid_col_dots(self, monkeypatch):
        # above the Gram limit every exact row comes from the row-major
        # copy; the reference run computes each row with col_dots
        matrix, target = generate_synthetic(
            SynthConfig(n_rows=60, n_cols=200, seed=3))
        lam = 0.1 * float(np.max(np.abs(matrix.col_dots(target))))
        prob = CompositeProblem(matrix, target, Regularizer("l1", lam))
        cfg = RunConfig(problem=prob, steps=300, rule="ascd-gss",
                        update=UpdateRule("line_search"),
                        oracle=OracleSpec("g1"), seed=0, init="none",
                        diag_every=0)
        monkeypatch.setattr(ascd.oracles, "GRAM_LIMIT", 0)

        with monkeypatch.context() as patched:
            patched.setattr(OracleContext, "_dot_row",
                            lambda ctx, i: col_dots_row(ctx.matrix, i))
            reference = run(cfg)

        def refuse(*_):
            raise AssertionError("col_dots called for an oracle row")

        monkeypatch.setattr(ColumnSparseMatrix, "col_dots", refuse)
        gathered = run(cfg)
        assert np.count_nonzero(gathered.gamma) > 0
        assert np.array_equal(gathered.i, reference.i)
        assert gathered.final_f == reference.final_f

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
        cfg = RunConfig(problem=prob, steps=50, rule="ucd",
                        update=UpdateRule("fixed"), seed=0, diag_every=0)
        with np.errstate(all="ignore"):
            with pytest.raises((FloatingPointError, ValueError),
                               match=r"step \d+"):
                run(cfg)

    def test_theorem_rate_identity_quadratic(self):
        # steepest fixed-step descent on 0.5*||x||^2 meets the 1/t rate
        n = 50
        prob = identity_problem(n)
        res = run(RunConfig(problem=prob, steps=10 * n, rule="scd",
                            update=UpdateRule("fixed"), x0=np.ones(n),
                            seed=0, diag_every=0))
        f0 = 0.5 * n
        r1_sq = 2 * f0 * n
        for t in range(1, 10 * n):
            assert res.f[t] <= 2 * 1.0 * r1_sq / t + 1e-12


def _grid_problems():
    m, b = generate_synthetic(SynthConfig(n_rows=50, n_cols=40, seed=1))
    ridge = CompositeProblem(m, b, Regularizer("l2", 1.0))
    m, b = generate_synthetic(SynthConfig(n_rows=40, n_cols=30, seed=2))
    lam = 0.02 * float(np.max(np.abs(m.col_dots(b))))
    return {"ridge": ridge,
            "lasso": CompositeProblem(m, b, Regularizer("l1", lam))}


# (problem, rule, pick, oracle, init[, update][, steps]) -> the first 16
# hex digits of the sha256 of the i, active_size, f and gamma columns,
# recorded before exact estimates scored once; the g3 and g4 cells run the
# interval path.
# The cells after the lasso g4 "none" one were recorded before a zero step
# rescored only its coordinate; every lasso cell takes zero steps.  The
# lasso ascd-gsq cells were re-recorded when gs-q began to rank by the
# model decrease psi(x_i) - min V, in place of -min V: their picks moved.
# The ridge ascd-gsq cells did not, since psi = 0 there
SAME_RESULTS = {
    ("ridge", "ascd", "argmax-lower", "g1", "true-gradient"):
        "4bb8245315358a0a",
    ("ridge", "ascd", "uniform-set", "g1", "true-gradient"):
        "4bb8245315358a0a",
    ("ridge", "ascd-gss", "argmax-lower", "g1", "true-gradient"):
        "4bb8245315358a0a",
    ("ridge", "ascd-gss", "uniform-set", "g1", "true-gradient"):
        "4bb8245315358a0a",
    ("ridge", "ascd-gsq", "argmax-lower", "g1", "true-gradient"):
        "4bb8245315358a0a",
    ("ridge", "ascd-gsq", "uniform-set", "g1", "true-gradient"):
        "4bb8245315358a0a",
    ("lasso", "ascd", "argmax-lower", "g1", "true-gradient"):
        "22adffec572e2c4f",
    ("lasso", "ascd", "uniform-set", "g1", "true-gradient"):
        "22adffec572e2c4f",
    ("lasso", "ascd-gss", "argmax-lower", "g1", "true-gradient"):
        "6a150445505ee91d",
    ("lasso", "ascd-gss", "uniform-set", "g1", "true-gradient"):
        "6a150445505ee91d",
    ("lasso", "ascd-gsq", "argmax-lower", "g1", "true-gradient"):
        "5433e8b9901c9060",
    ("lasso", "ascd-gsq", "uniform-set", "g1", "true-gradient"):
        "5433e8b9901c9060",
    ("ridge", "ascd", "uniform-set", "g3", "true-gradient"):
        "e25c9c9c8253ae68",
    ("lasso", "ascd-gss", "argmax-lower", "g4", "none"):
        "c423a33879eff867",
    ("lasso", "ascd", "argmax-lower", "g3", "none"):
        "e4806bd813e5ad36",
    ("lasso", "ascd", "argmax-lower", "g3", "true-gradient"):
        "1f45edd78d671a43",
    ("lasso", "ascd-gss", "argmax-lower", "g4", "true-gradient"):
        "4c8d78387062c845",
    ("lasso", "ascd-gsq", "argmax-lower", "g4", "none"):
        "1077c01dfe695130",
    ("lasso", "ascd-gsq", "argmax-lower", "g4", "true-gradient"):
        "4c8d78387062c845",
    ("lasso", "ascd-gsq", "uniform-set", "g3", "true-gradient"):
        "4c8d78387062c845",
    # 10n steps: ranked by the model decrease, this cell takes its first
    # zero step at step 240
    ("lasso", "ascd-gsq", "argmax-lower", "g2", "none", "10n"):
        "0cbc26df53abff05",
    # 12n steps, recorded before a zero step kept the objective: a zero
    # step ends epoch 10, so the residual refresh alone must drop the
    # kept objective, whose bits it changes
    ("lasso", "ascd-gss", "argmax-lower", "g4", "true-gradient", "12n"):
        "dcfb4a6dc5b4ef66",
    ("lasso", "ascd-gsq", "uniform-set", "g4", "none", "12n"):
        "e7c17beddbbca80f",
    # 12n steps on g4 from "none": this cell draws 6 pick blocks and
    # rewinds the generator at no pool size change, and the uniform-set
    # cell above draws 11 blocks and rewinds at 2 set size changes
    ("lasso", "ascd-gsq", "argmax-lower", "g4", "none", "12n"):
        "73abb845bcf07838",
    # under the fixed update, recorded before a zero step rescored and
    # stepped on Python floats; under fixed, argmax-lower ascd-gss g4 from
    # "none" hammers one coordinate and takes no zero step, so that cell
    # draws from the set
    ("lasso", "ascd-gss", "uniform-set", "g4", "none", "fixed"):
        "c99ea5b5ab31c7cb",
    ("lasso", "ascd-gsq", "argmax-lower", "g3", "true-gradient", "fixed"):
        "6e821651d7e658de",
    # scd reads no pick, oracle or init: it runs argmax-lower on g1 rows
    # from a true-gradient start.  The ridge digests were recorded when scd
    # recomputed the full gradient every step and are unchanged.  The lasso
    # line_search digest moved when scd began to score with gs-s, the
    # composite steepest rule, in place of the smooth gradient magnitude:
    # it is the ascd-gss g1 true-gradient cell's.  The lasso fixed digest,
    # over 5n steps so that it reaches its converged zero steps, is the same
    # under either score
    ("ridge", "scd", "uniform-set", "g4", "none", "fixed"):
        "3235b95f2b68532e",
    ("ridge", "scd", "uniform-set", "g4", "none", "line_search"):
        "4bb8245315358a0a",
    ("lasso", "scd", "uniform-set", "g4", "none", "fixed", "5n"):
        "a32f79f5589d9dbf",
    ("lasso", "scd", "uniform-set", "g4", "none", "line_search"):
        "6a150445505ee91d",
    # ucd reads no pick, oracle or init
    ("ridge", "ucd", "uniform-set", "g1", "none", "fixed"):
        "f64ba7c66aa05910",
    ("ridge", "ucd", "uniform-set", "g1", "none", "line_search"):
        "e11f154f5de1e102",
    ("lasso", "ucd", "uniform-set", "g1", "none", "fixed"):
        "c99ea5b5ab31c7cb",
    ("lasso", "ucd", "uniform-set", "g1", "none", "line_search"):
        "c423a33879eff867",
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
        # optional trailing elements: the update (default line_search) and
        # the step count in epochs (default 3n)
        name, rule, pick, kind, init, *extra = cell
        prob = problems[name]
        update = next((e for e in extra if e in ("fixed", "line_search")),
                      "line_search")
        epochs = next((int(e[:-1]) for e in extra if e != update), 3)
        res = run(RunConfig(problem=prob, steps=epochs * prob.n, rule=rule,
                            update=UpdateRule(update),
                            oracle=OracleSpec(kind, seed=1), seed=4,
                            init=init, pick=pick, diag_every=1))
        digest = hashlib.sha256()
        for column in ("i", "active_size", "f", "gamma"):
            digest.update(getattr(res, column).tobytes())
        assert digest.hexdigest()[:16] == SAME_RESULTS[cell]
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
                      update=UpdateRule("line_search"),
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
                             update=UpdateRule(update),
                             oracle=OracleSpec(kind, epsilon=0.1, seed=1),
                             seed=4, init=init, diag_every=0)
                   for rule in ("ascd", "ascd-gss", "ascd-gsq")
                   for kind in ORACLE_KINDS
                   for init in ("none", "true-gradient")
                   for update in ("fixed", "line_search")]
        configs.append(RunConfig(problem=problems["ridge"],
                                 steps=3 * problems["ridge"].n,
                                 rule="ascd-gsq", oracle=OracleSpec("g3"),
                                 seed=4, diag_every=0))
        full, mismatches = self._spy(monkeypatch)
        zero_steps = 0
        for cfg in configs:
            full.clear()
            res = run(cfg)
            assert mismatches == [], (cfg.rule, cfg.oracle.kind, cfg.init,
                                      cfg.update.kind)
            # one full scoring to start, and one after every step that
            # moved x and was followed by another step
            assert len(full) == 1 + np.count_nonzero(res.gamma[:-1])
            zero_steps += np.count_nonzero(res.gamma[:-1] == 0)
        assert zero_steps > 0

    def test_full_scorings_count_useful_steps(self, monkeypatch):
        # the configuration of the lasso-g4 benchmark workload, small
        full, _ = self._spy(monkeypatch)
        m, b = generate_synthetic(SynthConfig(n_rows=60, n_cols=200, seed=3))
        lam = 0.1 * float(np.max(np.abs(m.col_dots(b))))
        prob = CompositeProblem(m, b, Regularizer("l1", lam))
        res = run(RunConfig(problem=prob, steps=3 * prob.n, rule="ascd-gss",
                            update=UpdateRule("line_search"),
                            oracle=OracleSpec("g4"), seed=0, init="none",
                            diag_every=0))
        assert res.gamma[-1] == 0.0
        useful = res.counters()["useful_steps"]
        assert len(full) == 1 + useful < res.t.size

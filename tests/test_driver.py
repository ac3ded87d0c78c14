import hashlib

import numpy as np
import pytest

import ascd.driver
import ascd.oracles
from ascd.data import SynthConfig, generate_synthetic
from ascd.driver import (RULES, RunConfig, UpdateRule, progress_delta,
                         progress_tau, run, step, write_trace_csv,
                         TRACE_COLUMNS, TRACE_HEADER)
from ascd.oracles import ORACLE_KINDS, OracleContext, OracleSpec
from ascd.problem import ColumnSparseMatrix, CompositeProblem, Regularizer
from ascd.selector import ActiveSet, GradientEstimate, active_set
from reference_oracle import col_dots_row
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
        prob = random_problem(3)
        scd = run(RunConfig(problem=prob, steps=120, rule="scd", seed=5))
        ascd = run(RunConfig(problem=prob, steps=120, rule="ascd",
                             oracle=OracleSpec("g1"), seed=5,
                             init="true-gradient"))
        assert np.array_equal(scd.i, ascd.i)

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
        # score, then one active_set call, then the pick, on every step
        calls = []

        def counted(scores):
            calls.append(scores.lower.size)
            return active_set(scores)

        monkeypatch.setattr(ascd.driver, "active_set", counted)
        prob = random_problem(5, reg=Regularizer("l1", 0.3))
        tracked = [rule for rule in RULES if rule not in ("ucd", "scd")]
        for rule in tracked:
            for pick in ("argmax-lower", "uniform-set"):
                calls.clear()
                run(RunConfig(problem=prob, steps=40, rule=rule, pick=pick,
                              oracle=OracleSpec("g2", epsilon=0.3, seed=2),
                              seed=1, diag_every=0))
                assert calls == [prob.n] * 40, (rule, pick)

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
                   for rule in ("ascd", "ascd-gss", "ascd-gsq", "ascd-gsr")
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
        # gradient, which the gs-s, gs-r and gs-q scores rely on
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


# (problem, rule, pick, oracle, init) -> the first 16 hex digits of the
# sha256 of the i, active_size, f and gamma columns, recorded before
# exact estimates scored once; the g3 and g4 cells run the interval path
SAME_RESULTS = {
    ("ridge", "ascd", "argmax-lower", "g1", "true-gradient"):
        "4bb8245315358a0a",
    ("ridge", "ascd", "uniform-set", "g1", "true-gradient"):
        "4bb8245315358a0a",
    ("ridge", "ascd-gss", "argmax-lower", "g1", "true-gradient"):
        "4bb8245315358a0a",
    ("ridge", "ascd-gss", "uniform-set", "g1", "true-gradient"):
        "4bb8245315358a0a",
    ("ridge", "ascd-gsr", "argmax-lower", "g1", "true-gradient"):
        "4bb8245315358a0a",
    ("ridge", "ascd-gsr", "uniform-set", "g1", "true-gradient"):
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
    ("lasso", "ascd-gsr", "argmax-lower", "g1", "true-gradient"):
        "ab339714bf5e2d3c",
    ("lasso", "ascd-gsr", "uniform-set", "g1", "true-gradient"):
        "ab339714bf5e2d3c",
    ("lasso", "ascd-gsq", "argmax-lower", "g1", "true-gradient"):
        "7e8695dd96655c8e",
    ("lasso", "ascd-gsq", "uniform-set", "g1", "true-gradient"):
        "7e8695dd96655c8e",
    ("ridge", "ascd", "uniform-set", "g3", "true-gradient"):
        "e25c9c9c8253ae68",
    ("lasso", "ascd-gss", "argmax-lower", "g4", "none"):
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
        name, rule, pick, kind, init = cell
        prob = problems[name]
        res = run(RunConfig(problem=prob, steps=3 * prob.n, rule=rule,
                            update=UpdateRule("line_search"),
                            oracle=OracleSpec(kind, seed=1), seed=4,
                            init=init, pick=pick, diag_every=1))
        digest = hashlib.sha256()
        for column in ("i", "active_size", "f", "gamma"):
            digest.update(getattr(res, column).tobytes())
        assert digest.hexdigest()[:16] == SAME_RESULTS[cell]
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

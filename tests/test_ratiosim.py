import hashlib

import numpy as np
import pytest

from ascd.hardcase import HardCase, embed_lowdim
from ascd.ratiosim import (RatioSimConfig, ascd_embedding_dynamics,
                           estimate_t_hat, measure_rho, measure_varrho,
                           rho_infinity, simulate_rho)


class TestMeasureRho:
    def test_mixed(self):
        assert measure_rho(np.array([0, 1, 10]), 10) == pytest.approx(2 / 3)

    def test_inside(self):
        assert measure_rho(np.array([2, 5]), 10) == 1.0

    def test_outside(self):
        assert measure_rho(np.array([11, 12]), 10) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            measure_rho(np.array([], dtype=int), 3)


class TestMeasureVarrho:
    def test_uniform(self):
        g = np.full(5, 2.0)
        assert measure_varrho(g, np.arange(5)) == 1.0

    def test_threshold(self):
        g = np.array([4.0, 1.0, 1.0])
        assert measure_varrho(g, np.arange(3)) == pytest.approx(1 / 3)

    def test_singleton_argmax(self):
        g = np.array([4.0, 1.0, 1.0])
        assert measure_varrho(g, np.array([0])) == 1.0


class TestRhoInfinity:
    def test_reference_point(self):
        out = rho_infinity(100, 10, 1.0, 400)
        assert out.theta == pytest.approx(106000.0)
        assert out.value == pytest.approx(0.782, abs=5e-4)
        assert out.simple_bound == pytest.approx(0.775)
        assert out.value >= out.simple_bound

    def test_five_n_rule(self):
        out = rho_infinity(100, 10, 1.0, 500)
        assert out.value >= 0.8

    def test_full_support(self):
        assert rho_infinity(50, 50, 1.0, 10).value == pytest.approx(1.0)

    def test_dominates_simple_bound_on_grid(self):
        for s in (5, 10, 50):
            for n in (50, 100, 500):
                if s > n:
                    continue
                for t_mult in (1, 2, 5):
                    out = rho_infinity(n, s, 1.0, t_mult * n)
                    assert out.value >= out.simple_bound - 1e-12
                    assert 0 < out.value <= 1 + 1e-12

    def test_invalid(self):
        with pytest.raises(ValueError):
            rho_infinity(10, 20, 1.0, 5)
        with pytest.raises(ValueError):
            rho_infinity(10, 5, 0.0, 5)
        # an infinite t_inf made theta nan and the limit nan
        for t_inf in (np.inf, np.nan):
            with pytest.raises(ValueError):
                rho_infinity(10, 5, 1.0, t_inf)
            with pytest.raises(ValueError):
                RatioSimConfig(n=10, s=5, t_inf=t_inf)


class TestSimulateRho:
    def test_no_outside_coordinates(self):
        trace = simulate_rho(RatioSimConfig(n=10, s=10, steps=500, seed=1))
        assert np.all(trace.rho == 1.0)
        assert trace.exits == 0

    def test_starts_from_support(self):
        trace = simulate_rho(RatioSimConfig(n=50, s=5, t_inf=100.0,
                                            steps=5, seed=0))
        assert trace.rho[0] == 1.0
        assert trace.active_size[0] == 5

    def test_matches_closed_form(self):
        config = RatioSimConfig(n=100, s=10, c=1.0, t_inf=400.0,
                                steps=20_000, seed=3)
        trace = simulate_rho(config)
        target = rho_infinity(100, 10, 1.0, 400.0).value
        tail = trace.rho[15_000:]
        assert abs(tail.mean() - target) < 0.05

    def test_ordering_in_t_inf(self):
        means = []
        for t_inf in (50.0, 100.0, 400.0):
            trace = simulate_rho(RatioSimConfig(n=100, s=10, t_inf=t_inf,
                                                steps=20_000, seed=5))
            means.append(trace.rho[15_000:].mean())
        assert means[0] < means[1] < means[2]

    def test_flow_balance(self):
        # in steady state exits and entries agree up to the boundary term
        trace = simulate_rho(RatioSimConfig(n=100, s=10, t_inf=100.0,
                                            steps=30_000, seed=7))
        assert abs(trace.exits - trace.entries) <= 90

    def test_fixed_reentry_mean_matches(self):
        config = RatioSimConfig(n=60, s=6, t_inf=80.0, steps=20_000,
                                seed=2, reentry="fixed")
        trace = simulate_rho(config)
        target = rho_infinity(60, 6, 1.0, 80.0).value
        assert abs(trace.rho[15_000:].mean() - target) < 0.05

    def test_deterministic(self):
        a = simulate_rho(RatioSimConfig(n=40, s=4, t_inf=50.0, steps=1000,
                                        seed=9))
        b = simulate_rho(RatioSimConfig(n=40, s=4, t_inf=50.0, steps=1000,
                                        seed=9))
        assert np.array_equal(a.rho, b.rho)


class TestEstimateTHat:
    def test_zero_error_runs_to_the_end(self):
        mags = np.ones(50)
        refs = np.full(50, 0.01)
        assert estimate_t_hat(mags, 0.0, refs) == 50

    def test_constant_drift(self):
        mags = np.ones(40)
        refs = np.full(40, 10.0)
        assert estimate_t_hat(mags, 1.0, refs) == 10

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(0)
        mags = rng.uniform(0.1, 1.0, 200)
        refs = rng.uniform(5.0, 6.0, 200)
        horizons = [estimate_t_hat(mags, d, refs)
                    for d in (0.0, 0.1, 0.5, 1.0, 5.0)]
        assert horizons == sorted(horizons, reverse=True)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            estimate_t_hat(np.array([-1.0]), 1.0, np.array([1.0]))


class TestEmbeddingDynamics:
    def test_diagnostic_report(self):
        hc = HardCase.build(0.01, 10)
        emb = embed_lowdim(hc, 60)
        delta = (1 - hc.alpha) / hc.n
        dyn = ascd_embedding_dynamics(emb, steps=6000, delta=delta, seed=1)
        assert np.all((dyn.rho >= 0) & (dyn.rho <= 1))
        assert dyn.exits > 0 and dyn.entries > 0
        assert np.isfinite(dyn.measured_t_inf)
        # logged, not asserted hard: compare the stationary support
        # fraction with the closed form at the measured re-entry time
        predicted = rho_infinity(emb.n, emb.s, 1.0,
                                 max(dyn.measured_t_inf, 1.0)).value
        tail = dyn.rho[len(dyn.rho) // 2:]
        print(f"embedding dynamics: measured T_inf={dyn.measured_t_inf:.1f} "
              f"mean rho={tail.mean():.3f} closed-form={predicted:.3f}")

    def test_t_hat_decreases_with_delta(self):
        hc = HardCase.build(0.01, 10)
        emb = embed_lowdim(hc, 40)
        dyn = ascd_embedding_dynamics(emb, steps=3000,
                                      delta=(1 - hc.alpha) / hc.n, seed=2)
        horizons = [estimate_t_hat(dyn.step_magnitudes, d,
                                   dyn.support_grad_mean)
                    for d in (0.0, 1e-4, 1e-2, 1.0)]
        assert horizons == sorted(horizons, reverse=True)
        assert horizons[0] == len(dyn.step_magnitudes)

    def test_same_results(self):
        # the first 16 hex digits of the sha256 of one small run's outputs,
        # recorded while the loop still squared the magnitude bounds itself
        hc = HardCase.build(0.01, 10)
        emb = embed_lowdim(hc, 40)
        dyn = ascd_embedding_dynamics(emb, steps=2000,
                                      delta=(1 - hc.alpha) / hc.n, seed=3)
        assert dyn.exits > 0 and dyn.entries > 0
        digest = hashlib.sha256()
        for name in ("rho", "active_size", "step_magnitudes",
                     "reentry_times"):
            digest.update(getattr(dyn, name).tobytes())
        digest.update(np.array([dyn.exits, dyn.entries], dtype=np.int64)
                      .tobytes())
        assert digest.hexdigest()[:16] == "85e27024bd003eb8"

from itertools import combinations
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from ascd import selector
from ascd.driver import (SANDWICH_SLACK, RunConfig, _scores, progress_tau,
                         run)
from ascd.problem import (ColumnSparseMatrix, CompositeProblem, Regularizer,
                          model_value)
from ascd.selector import (ActiveSet, Bounds, GradientEstimate, PickDraws,
                           active_set, compute_bounds, gsq_bounds,
                           score_one, select_ascd, update_estimates)
from reference_selector import (gss_exact_squared, gss_interval_squared,
                                sorted_active_set)

INF = np.inf


def est(g, r):
    return GradientEstimate(g=np.asarray(g, float), r=np.asarray(r, float))


def gss_exact(t, x, lam):
    """gs-s score at gradient value t: the distance to -subdiff lam|x_i|."""
    return np.where(x == 0.0, np.maximum(np.abs(t) - lam, 0.0),
                    np.abs(t + lam * np.sign(x)))


def kink_range(score, e, lam):
    """Min and max of a score over every ``[g - r, g + r]``, for a score
    that is linear away from the kinks -lam and lam: the extremes lie at
    the ends or at the kinks clamped into the interval."""
    lo, hi = e.g - e.r, e.g + e.r
    pts = np.stack([lo, hi, np.clip(-lam, lo, hi), np.clip(lam, lo, hi)])
    vals = score(pts)
    return vals.min(axis=0), vals.max(axis=0)


def _lipschitz(n):
    """Coordinate constants from 1e-3 to 1e3, with exact ones."""
    return arrays(np.float64, n, elements=st.one_of(st.just(1.0),
                                                    st.floats(1e-3, 1e3)))


def _estimates(n):
    """Estimates with some zero gradients and some zero or infinite radii."""
    grad = st.one_of(st.just(0.0), st.floats(-1e6, 1e6))
    radius = st.one_of(st.just(0.0), st.floats(0, 1e6), st.just(np.inf))
    return st.builds(est, arrays(np.float64, n, elements=grad),
                     arrays(np.float64, n, elements=radius))


class TestComputeBounds:
    def test_plain_interval(self):
        # scores in units of the step: the squared interval over L_i = 2
        b = compute_bounds(est([2.0], [0.5]), np.array([2.0]))
        assert b.upper[0] == 3.125 and b.lower[0] == 1.125

    def test_straddling_zero(self):
        b = compute_bounds(est([-1.0], [3.0]), np.array([4.0]))
        assert b.upper[0] == 4.0 and b.lower[0] == 0.0

    def test_uninformed(self):
        b = compute_bounds(GradientEstimate.uninformed(3), np.full(3, 0.5))
        assert np.all(np.isinf(b.upper)) and np.all(b.lower == 0.0)

    def test_exact_collapse(self):
        # GS-L: the exact score is grad_i^2 / L_i
        g = np.array([1.0, -2.0, 0.0])
        lipschitz = np.array([4.0, 2.0, 0.5])
        b = compute_bounds(GradientEstimate.exact(g), lipschitz)
        assert list(b.upper) == [0.25, 2.0, 0.0]
        assert b.lower is b.upper

    @given(st.integers(1, 20).flatmap(
        lambda n: st.tuples(_estimates(n), _lipschitz(n))))
    def test_tight(self, drawn):
        # the interval is exactly the range of t^2 / L_i, not just a cover
        # of it
        e, lipschitz = drawn
        b = compute_bounds(e, lipschitz)
        lower, upper = kink_range(np.square, e, 0.0)
        assert np.array_equal(b.lower, lower / lipschitz)
        assert np.array_equal(b.upper, upper / lipschitz)


_FINITE = st.floats(-1e100, 1e100)


def _sound_estimate(n):
    """A true gradient and an estimate whose intervals contain it.

    Radii are nonnegative or infinite; the true entries are clipped into
    ``[g - r, g + r]`` as ``compute_bounds`` evaluates them.
    """
    radius = st.one_of(st.floats(0, 1e100), st.just(np.inf))

    def build(parts):
        centre, r, draw = parts
        return np.clip(draw, centre - r, centre + r), est(centre, r)

    return st.tuples(arrays(np.float64, n, elements=_FINITE),
                     arrays(np.float64, n, elements=radius),
                     arrays(np.float64, n, elements=_FINITE)).map(build)


class TestActiveSet:
    def test_all_unknown_keeps_everything(self):
        b = compute_bounds(GradientEstimate.uninformed(5), np.ones(5))
        assert list(active_set(b).indices) == list(range(5))

    def test_exact_separated(self):
        b = Bounds(upper=np.array([9.0, 4.0, 1.0]),
                   lower=np.array([9.0, 4.0, 1.0]))
        aset = active_set(b)
        assert list(aset.indices) == [0]
        assert aset.avg_score == pytest.approx(9.0)

    def test_overlapping_pair(self):
        b = Bounds(upper=np.array([9.0, 10.24, 1.0]),
                   lower=np.array([9.0, 4.0, 1.0]))
        aset = active_set(b)
        assert list(aset.indices) == [0, 1]
        assert aset.avg_score == pytest.approx(6.5)

    def test_exclusions_valid_and_umax_inside(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            g = rng.normal(0, 2, n)
            r = np.where(rng.random(n) < 0.15, np.inf, rng.uniform(0, 2, n))
            b = compute_bounds(est(g, r), rng.uniform(0.1, 10.0, n))
            aset = active_set(b)
            outside = np.setdiff1d(np.arange(n), aset.indices)
            assert np.all(b.upper[outside] < aset.avg_score)
            assert int(np.argmax(b.upper)) in aset.indices

    @given(st.integers(1, 30).flatmap(
        lambda n: st.tuples(_sound_estimate(n), _lipschitz(n))))
    def test_sound_intervals_keep_steepest_and_sandwich(self, drawn):
        # the promise the driver's containment and sandwich counters rely
        # on, for any sound estimate: the coordinate with the best GS-L
        # score |g|/sqrt(L_i) stays in the set and the in-set mean of
        # g^2/(2 L_i) is at least the overall mean
        (g_true, e), lipschitz = drawn
        aset = active_set(compute_bounds(e, lipschitz))
        gain = np.square(g_true) / lipschitz
        assert np.max(gain[aset.indices]) >= np.max(gain) * (1 - 1e-12)
        tau_u, tau_a, _ = progress_tau(g_true, aset.indices, lipschitz)
        assert tau_u <= tau_a * (1 + SANDWICH_SLACK) + 1e-300

    @given(st.integers(1, 20).flatmap(lambda n: st.tuples(
        _estimates(n),
        arrays(np.float64, n, elements=st.one_of(st.just(0.0),
                                                 st.floats(-10, 10))),
        st.sampled_from([("none", 0.0), ("l1", 0.5), ("l2", 2.0)]),
        st.integers(0, 2 ** 32 - 1))))
    # eleven gs-q lower scores of 1/3: their rounded mean is above 1/3
    @example((est(np.ones(11), np.zeros(11)), np.zeros(11), ("none", 0.0), 0))
    def test_keeps_every_lower_maximiser(self, drawn):
        # why argmax-lower needs no set of its own: a coordinate with the
        # best lower score has an upper score at least every prefix
        # average, so the safe set keeps it, and the pick over the set is a
        # uniform draw over all maximisers
        e, x, (kind, lam), seed = drawn
        for scores in (compute_bounds(e, np.full(x.size, 1.5)),
                       gsq_bounds(e, x, 1.5, Regularizer(kind, lam))):
            best = np.flatnonzero(scores.lower == scores.lower.max())
            aset = active_set(scores)
            assert np.all(np.isin(best, aset.indices))
            pick = select_ascd(scores, aset, np.random.default_rng(seed))
            draw = np.random.default_rng(seed).integers(best.size)
            assert pick == best[draw]

    def test_prefix_matches_brute_force_when_prefix_optimal(self):
        # the sorted prefix is always a valid certificate; when the true
        # minimum-cardinality subset is itself a prefix the sizes agree
        rng = np.random.default_rng(1)
        smaller_exists = 0
        trials = 300
        for _ in range(trials):
            n = int(rng.integers(2, 8))
            b = compute_bounds(est(rng.normal(0, 2, n), rng.uniform(0, 2, n)),
                               rng.uniform(0.1, 10.0, n))
            aset = active_set(b)
            lsq, usq = b.lower, b.upper
            order = np.argsort(-lsq, kind="stable")
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
            if len(best) < len(aset):
                smaller_exists += 1
            if best == set(order[:len(best)].tolist()):
                assert len(aset) == len(best)
        # discrepancies are expected but should stay the minority
        assert smaller_exists < trials / 2


def _tied_estimates(n):
    """Estimates whose values come from a few numbers, so scores tie
    exactly; radii zero, finite or infinite."""
    grad = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0, -3.0]),
                     st.floats(-10, 10))
    radius = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0]),
                       st.floats(0, 10), st.just(np.inf))
    return st.builds(est, arrays(np.float64, n, elements=grad),
                     arrays(np.float64, n, elements=radius))


def _both_scores(drawn):
    """GS-L and gs-q scores of one estimate."""
    e, x, (kind, lam) = drawn
    return (compute_bounds(e, np.full(x.size, 1.5)),
            gsq_bounds(e, x, 1.5, Regularizer(kind, lam)))


# only the two maximisers reach the top lower score
MAXIMISERS_ONLY = Bounds(upper=np.array([9.0, 4.0, 9.0, 1.0]),
                         lower=np.array([9.0, 1.0, 9.0, 0.0]))
# ten lower scores of 0.1 average to 0.09999999999999999, which the
# eleventh upper score equals: no shorter prefix is valid
ROUNDED_AVERAGE = Bounds(upper=np.array([0.1] * 10 + [0.09999999999999999]),
                         lower=np.array([0.1] * 10 + [0.0]))


class TestActiveSetScreen:
    """The short cuts and the O(n) screen return what the full stable sort
    returns."""

    @given(st.integers(1, 24).flatmap(lambda n: st.tuples(
        _tied_estimates(n),
        arrays(np.float64, n, elements=st.sampled_from([0.0, 0.5, -1.0,
                                                        2.0])),
        st.sampled_from([("none", 0.0), ("l1", 0.5), ("l2", 2.0)])))
        .map(_both_scores))
    @example((MAXIMISERS_ONLY,))
    @example((ROUNDED_AVERAGE,))
    def test_matches_sorted_reference(self, score_sets):
        for scores in score_sets:
            got, want = active_set(scores), sorted_active_set(scores)
            assert np.array_equal(got.indices, want.indices)
            # with nothing excluded the average is no threshold; the screen
            # sums all of [n] unsorted
            if len(want) < scores.lower.size:
                assert got.avg_score == want.avg_score

    @pytest.mark.parametrize("upper,lower,expected,sorts", [
        # every radius infinite: every upper score reaches the top lower
        # score
        ([INF] * 5, [0.0] * 5, [0, 1, 2, 3, 4], 0),
        # coordinates 0 and 1 reach the top lower score 8; their prefix
        # averages 7.5, above upper score 2 of coordinate 2
        ([10.0, 9.0, 2.0], [8.0, 7.0, 1.0], [0, 1], 0),
        # the forced prefix [0, 1] averages 5.5, below upper 6 of
        # coordinate 2: only the sort finds the length 3
        ([10.0, 10.0, 6.0, 0.0], [10.0, 1.0, 1.0, 0.0], [0, 1, 2], 1),
        # an excluded upper score equal to the forced prefix average 3 is
        # not strictly dominated
        ([4.0, 4.0, 3.0], [4.0, 2.0, 0.0], [0, 1, 2], 1),
        (MAXIMISERS_ONLY.upper, MAXIMISERS_ONLY.lower, [0, 2], 0),
        # the short cut declines, and the screen's prefix of ten leaves
        # out an upper score equal to its average
        (ROUNDED_AVERAGE.upper, ROUNDED_AVERAGE.lower, list(range(11)), 1),
        # maximiser 0 has an inverted interval, below the top lower score,
        # so only maximiser 1 reaches it; the stable order still puts 0
        # first and the screen's prefix is all of [n]
        ([0.5, 2.0], [1.0, 1.0], [0, 1], 0),
    ], ids=["all-unknown", "screen-prefix", "sort-fallback",
            "equal-to-average", "maximisers-only", "rounded-average",
            "inverted-maximiser"])
    def test_one_case_per_path(self, monkeypatch, upper, lower, expected,
                               sorts):
        scores = Bounds(upper=np.asarray(upper), lower=np.asarray(lower))
        want = sorted_active_set(scores)
        calls = []
        argsort = np.argsort

        def counting(*args, **kwargs):
            calls.append(1)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        got = active_set(scores)
        assert list(got.indices) == expected == list(want.indices)
        assert len(calls) == sorts
        if len(expected) < len(lower):
            assert got.avg_score == want.avg_score


def _one_array_scores(n):
    """Scores with exact ties; three 0.7s, or six or more 0.1s or 1.1s,
    average to below their value."""
    return arrays(np.float64, n, elements=st.one_of(
        st.sampled_from([0.0, 0.1, 0.7, 0.6999999999999998, 1.1, 2.0]),
        st.floats(0, 3)))


class TestOneArraySet:
    """An exact estimate's scores are one array, passed as both bounds."""

    @given(st.integers(1, 24).flatmap(_one_array_scores))
    @example(np.array([0.7, 0.7, 0.7, 0.1]))
    # the maximisers average to 0.6999999999999998, which the excluded
    # score equals: it is not strictly dominated
    @example(np.array([0.7, 0.6999999999999998, 0.7, 0.7, 0.0]))
    @example(np.array([0.1] * 10 + [0.0]))
    @example(np.array([2.0, 1.0, 2.0]))
    def test_matches_sorted_reference(self, s):
        scores = Bounds(upper=s, lower=s)
        got, want = active_set(scores), sorted_active_set(scores)
        assert np.array_equal(got.indices, want.indices)
        # with nothing excluded the average is no threshold
        if len(want) < s.size:
            assert got.avg_score == want.avg_score

    @pytest.mark.parametrize("s,shortcut", [
        ([2.0, 1.0, 2.0, 0.5], True), ([0.7, 0.7, 0.7, 0.1], False)],
        ids=["maximisers", "rounded-average"])
    def test_equal_copies_take_the_general_path(self, monkeypatch, s,
                                                shortcut):
        # only the general path counts; an equal copy as the upper bound
        # gets the same set through it
        s = np.array(s)
        calls = []
        count = np.count_nonzero

        def counting(*args, **kwargs):
            calls.append(1)
            return count(*args, **kwargs)

        monkeypatch.setattr(np, "count_nonzero", counting)
        one = active_set(Bounds(upper=s, lower=s))
        one_calls = len(calls)
        two = active_set(Bounds(upper=s.copy(), lower=s))
        assert len(calls) > one_calls
        assert np.array_equal(one.indices, two.indices)
        assert one.avg_score == two.avg_score
        assert (one_calls == 0) == shortcut


class TestTiePool:
    """The one-array set hands its maximisers to the pick as ``ties``."""

    @pytest.mark.parametrize("s", [
        [0.5, 3.0, 1.0], [3.0, 1.0, 3.0, 0.0, 3.0], [2.0] * 5],
        ids=["single-max", "many-ties", "all-equal"])
    def test_one_array_set_names_the_pool(self, s):
        s = np.array(s)
        aset = active_set(Bounds(upper=s, lower=s))
        at = s[aset.indices]
        assert np.array_equal(aset.ties, aset.indices[at == at.max()])

    @given(st.integers(1, 24).flatmap(_one_array_scores),
           st.integers(0, 2 ** 32))
    @example(np.array([0.5, 3.0, 1.0]), 0)
    @example(np.array([3.0, 1.0, 3.0, 0.0, 3.0]), 1)
    @example(np.array([2.0] * 5), 2)
    # the maximisers' average rounds below them: no preset pool
    @example(np.array([0.7, 0.7, 0.7, 0.1]), 3)
    def test_preset_pool_draws_as_gathered(self, s, seed):
        b = Bounds(upper=s, lower=s)
        preset = active_set(b)
        if preset.ties is not None:
            at = s[preset.indices]
            assert np.array_equal(preset.ties,
                                  preset.indices[at == at.max()])
        cleared = replace(preset, ties=None)
        one, two = np.random.default_rng(seed), np.random.default_rng(seed)
        assert select_ascd(b, preset, one) == select_ascd(b, cleared, two)
        assert one.bit_generator.state == two.bit_generator.state
        assert np.array_equal(preset.ties, cleared.ties)

    def test_intervals_leave_the_pool_to_the_pick(self):
        s = np.array([2.0, 1.0, 2.0, 0.5])
        assert active_set(Bounds(upper=s.copy(), lower=s)).ties is None
        assert active_set(Bounds(upper=np.full(4, INF), lower=s)).ties is None


class TestExactEstimate:
    """An exact estimate scores once, and stays exact under exact rows."""

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        arrays(np.float64, n, elements=st.one_of(
            st.sampled_from([0.0, 0.5, -0.5, 2.0]), st.floats(-1e6, 1e6))),
        arrays(np.float64, n, elements=st.sampled_from([0.0, 0.5, -1.0])))))
    def test_one_array_equals_zero_radius(self, drawn):
        g, x = drawn
        exact, zero = GradientEstimate.exact(g), est(g, np.zeros_like(g))
        assert exact.is_exact and not zero.is_exact
        lipschitz = np.linspace(0.5, 3.0, g.size)
        pairs = [(compute_bounds(exact, lipschitz),
                  compute_bounds(zero, lipschitz)),
                 (compute_bounds(exact, lipschitz, x, 0.5),
                  compute_bounds(zero, lipschitz, x, 0.5))]
        for got, want in pairs:
            assert got.lower is got.upper
            assert np.array_equal(got.lower, want.lower)
            assert np.array_equal(got.upper, want.upper)

    def test_exact_row_keeps_it_exact(self):
        e = GradientEstimate.exact(np.array([1.0, -2.0]))
        update_estimates(e, 0, 0.5, np.array([0.0, 4.0]), None, 0.25)
        assert e.is_exact
        assert list(e.g) == [0.25, 0.0] and not e.r.any()

    def test_error_row_ends_exactness(self):
        # even a zero error row: only g1 rows come without one
        e = GradientEstimate.exact(np.array([1.0, -2.0]))
        update_estimates(e, 0, 0.0, None, None, 0.25)
        assert e.is_exact
        update_estimates(e, 0, 0.5, np.array([0.0, 4.0]), np.zeros(2), 0.25)
        assert not e.is_exact
        b = compute_bounds(e, np.ones(2))
        assert b.lower is not b.upper


def ucd_run(n, seed, steps):
    """A ucd run on n coordinates; its picks come from the shared pick."""
    matrix = ColumnSparseMatrix.from_columns(
        n, [(np.array([i]), np.array([1.0])) for i in range(n)])
    return run(RunConfig(problem=CompositeProblem(matrix, np.zeros(n)),
                         steps=steps, rule="ucd", seed=seed, diag_every=0))


class TestPicks:
    def test_ucd_single(self):
        assert np.all(ucd_run(1, 0, 5).i == 0)

    def test_ucd_frequencies(self):
        steps = 100_000
        counts = np.bincount(ucd_run(10, 7, steps).i, minlength=10)
        sigma = np.sqrt(steps * 0.1 * 0.9)
        assert np.all(np.abs(counts - steps / 10) < 3 * sigma)

    def test_ucd_reproducible(self):
        # a ucd run's picks are one rng.integers(n) per step, across the
        # refills of the shared pick's blocks
        steps = 10_000
        for n in (1, 7, 1000):
            for seed in (0, 3):
                rng = np.random.default_rng(seed)
                want = [int(rng.integers(n)) for _ in range(steps)]
                assert ucd_run(n, seed, steps).i.tolist() == want, (n, seed)
        assert np.unique(ucd_run(50, 3, 20).i).size > 1

    @pytest.mark.parametrize("block", [3, 64, 1 << 16])
    @pytest.mark.parametrize("n", [7, 1000, 5000, 2 ** 32 + 1, 2 ** 33])
    def test_ucd_block_draws_equal_per_step_draws(self, monkeypatch, n,
                                                  block):
        # ucd's pool of n, served in blocks of a fixed size, gives what
        # per-step ``rng.integers(n)`` draws give (PCG64 carries a spare 32
        # bits between calls)
        monkeypatch.setattr(selector, "PICK_BLOCK_FIRST", block)
        monkeypatch.setattr(selector, "PICK_BLOCK_MAX", block)
        steps = 2 * block + 5
        draws = PickDraws(np.random.default_rng(11))
        picks = [draws.integers(n) for _ in range(steps)]
        rng = np.random.default_rng(11)
        assert picks == [int(rng.integers(n)) for _ in range(steps)]
        assert draws.release().bit_generator.state == rng.bit_generator.state

    def test_ascd_exact_equals_scd(self):
        # the pick is the GS-L maximiser, the best exact step
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = rng.normal(0, 3, 12)
            lipschitz = rng.uniform(0.1, 10.0, 12)
            e = GradientEstimate.exact(g)
            b = compute_bounds(e, lipschitz)
            pick = select_ascd(b, active_set(b), rng)
            assert pick == int(np.argmax(np.abs(g) / np.sqrt(lipschitz)))

    def test_ascd_uninformed_is_uniform(self):
        rng = np.random.default_rng(9)
        b = compute_bounds(GradientEstimate.uninformed(10), np.ones(10))
        aset = active_set(b)
        counts = np.bincount([select_ascd(b, aset, rng)
                              for _ in range(50_000)], minlength=10)
        sigma = np.sqrt(50_000 * 0.1 * 0.9)
        assert np.all(np.abs(counts - 5_000) < 3 * sigma)

    def test_ascd_full_set_draws_as_gathered(self):
        # a full set reads the lower scores in place, a shorter one gathers
        # them; the same candidates in the same order give the same draw
        b = Bounds(upper=np.full(6, INF),
                   lower=np.array([2.0, 5.0, 1.0, 5.0, 5.0, 0.0]))
        full = active_set(b)
        assert len(full) == 6
        gathered = ActiveSet(indices=np.array([1, 3, 4]), avg_score=5.0)
        for seed in range(20):
            assert (select_ascd(b, full, np.random.default_rng(seed))
                    == select_ascd(b, gathered,
                                   np.random.default_rng(seed)))

    def test_ascd_tie_split(self):
        rng = np.random.default_rng(11)
        b = Bounds(upper=np.array([3.0, 3.0, 1.0]),
                   lower=np.array([3.0, 3.0, 1.0]))
        aset = active_set(b)
        picks = np.array([select_ascd(b, aset, rng) for _ in range(20_000)])
        assert set(picks) == {0, 1}
        assert abs((picks == 0).mean() - 0.5) < 0.02

    @pytest.mark.parametrize("before", [0, 1, 2, 3])
    def test_one_coordinate_pool_draws_nothing(self, before):
        # select_ascd and the uniform-set pick take a pool of one without
        # a draw; every digest stays as it was only because
        # ``rng.integers(1)`` gives 0 and leaves the stream where it is,
        # with or without a spare 32 bits carried from the last draw
        rng = np.random.default_rng(17)
        rng.integers(2 ** 31, size=before)
        state = rng.bit_generator.state
        assert rng.integers(1) == 0
        assert rng.bit_generator.state == state
        b = Bounds(upper=np.array([1.0, 3.0, 1.0]),
                   lower=np.array([1.0, 3.0, 1.0]))
        aset = active_set(b)
        assert select_ascd(b, aset, rng) == 1 and aset.ties.size == 1
        assert rng.bit_generator.state == state


@st.composite
def _pool_sizes(draw):
    """Runs of pool sizes, so a size changes inside a block or at its end:
    a pool of one, small pools, the benchmark's n and one beyond 32 bits."""
    runs = draw(st.lists(st.tuples(
        st.sampled_from([1, 2, 3, 7, 5000, 2 ** 32 + 1]),
        st.integers(1, 40)), max_size=8))
    return [k for k, count in runs for _ in range(count)]


class _CountingGenerator:
    """A generator that records the ``size`` of each ``integers`` call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.sizes = []

    def integers(self, *args, **kwargs):
        self.sizes.append(kwargs.get("size"))
        return self.rng.integers(*args, **kwargs)


class TestPickDraws:
    """Block-served picks have the values and the stream positions of
    per-step ``rng.integers(k)`` draws."""

    @settings(max_examples=300, deadline=None)
    @given(sizes=_pool_sizes(), before=st.integers(0, 3),
           seed=st.integers(0, 2 ** 32), cut=st.integers(0, 400),
           blocks=st.one_of(st.none(), st.tuples(st.integers(1, 8),
                                                 st.integers(1, 64))))
    @example(sizes=[5000] * 3 + [7] * 2 + [1] + [7] + [5000] * 20, before=1,
             seed=3, cut=400, blocks=None)
    @example(sizes=[7] * 8 + [1] + [7] * 9 + [2] * 40, before=0, seed=4,
             cut=12, blocks=None)
    # a pool beyond 32 bits held across refills, left and taken up again
    @example(sizes=[2 ** 33] * 40 + [7] * 3 + [2 ** 33] * 30, before=1,
             seed=11, cut=20, blocks=None)
    def test_values_and_stream_match_per_step_draws(self, sizes, before,
                                                    seed, cut, blocks):
        # a spare 32 bits carried from an earlier draw, or none
        ref = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        ref.integers(2 ** 31, size=before)
        rng.integers(2 ** 31, size=before)
        want = [int(ref.integers(k)) for k in sizes]
        with pytest.MonkeyPatch.context() as patched:
            if blocks is not None:
                first, most = blocks
                patched.setattr(selector, "PICK_BLOCK_FIRST", first)
                patched.setattr(selector, "PICK_BLOCK_MAX", max(first, most))
            draws = PickDraws(rng)
            # the generator given back in the middle of the sizes, then
            # drawn from again
            got = [draws.integers(k) for k in sizes[:cut]]
            assert draws.release() is rng
            got += [draws.integers(k) for k in sizes[cut:]]
            assert draws.release() is rng
        assert got == want
        assert all(type(v) is int for v in got)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_a_held_pool_size_draws_in_few_blocks(self):
        rng = _CountingGenerator(5)
        draws = PickDraws(rng)
        for _ in range(10_000):
            draws.integers(5000)
        # blocks of PICK_BLOCK_FIRST doubling up to PICK_BLOCK_MAX
        first, most = selector.PICK_BLOCK_FIRST, selector.PICK_BLOCK_MAX
        doubled = [min(first << b, most) for b in range(len(rng.sizes))]
        assert rng.sizes == doubled and sum(doubled[:-1]) < 10_000

    def test_a_pool_of_one_draws_nothing_and_keeps_the_block(self):
        rng = _CountingGenerator(6)
        draws = PickDraws(rng)
        assert [draws.integers(k) for k in (7, 1, 7, 1)][1::2] == [0, 0]
        assert len(rng.sizes) == 1
        state = rng.bit_generator.state
        assert PickDraws(rng).integers(1) == 0
        assert len(rng.sizes) == 1 and rng.bit_generator.state == state

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            PickDraws(np.random.default_rng(0)).integers(0)


class TestUpdateEstimates:
    def test_arithmetic(self):
        e = est([0.0, 1.0], [0.0, 2.0])
        update_estimates(e, 0, 0.5, np.array([0.0, 3.0]),
                         np.array([0.0, 4.0]), 7.0)
        assert e.g[1] == pytest.approx(2.5)
        assert e.r[1] == pytest.approx(4.0)
        assert e.g[0] == 7.0 and e.r[0] == 0.0

    def test_zero_step_keeps_passive(self):
        e = est([1.0, -1.0], [np.inf, 2.0])
        update_estimates(e, 0, 0.0, None, None, 1.0)
        assert e.g[1] == -1.0 and e.r[1] == 2.0
        assert e.g[0] == 1.0 and e.r[0] == 0.0

    def test_zero_estimate_row_keeps_g(self):
        # g3 hands over no estimate row: g keeps its bits, signed zeros
        # included, and the radii grow
        e = est([-0.0, 1.5, -0.0], [0.0, 2.0, INF])
        update_estimates(e, 0, 0.5, None, np.array([0.0, 4.0, 1.0]), 7.0)
        assert e.g[1:].tobytes() == np.array([1.5, -0.0]).tobytes()
        assert e.r.tolist() == [0.0, 4.0, INF] and e.g[0] == 7.0
        assert not e.is_exact

    def test_inf_radius_stays_inf(self):
        e = est([0.0, 0.0], [np.inf, np.inf])
        update_estimates(e, 0, 0.5, np.array([1.0, 1.0]),
                         np.array([1.0, 1.0]), 2.0)
        assert np.isinf(e.r[1]) and e.r[0] == 0.0


def _grid_min(x, slope, lipschitz, reg, pts=4001):
    """Grid minimiser of the coordinate model with bracket refinement.

    The refinement stages matter: an l1 minimiser can sit exactly on the
    kink, where the grid error is linear (kink slope times half-spacing)
    rather than quadratic, so a single dense pass cannot certify 1e-6.
    Stays independent of the closed-form minimiser.
    """
    radius = (abs(slope) + reg.lam) / lipschitz + 2.0 * abs(x) + 1.0
    lo, hi = -radius, radius
    best = np.inf
    for _ in range(3):
        ys = np.linspace(lo, hi, pts)
        vals = model_value(x, ys, slope, lipschitz, reg)
        k = int(np.argmin(vals))
        best = min(best, float(vals[k]))
        spacing = (hi - lo) / (pts - 1)
        lo, hi = ys[k] - 2 * spacing, ys[k] + 2 * spacing
    return best


class TestGsq:
    def test_hand_example(self):
        reg = Regularizer()
        e = est([1.5], [0.5])  # signed interval [1, 2]
        q = gsq_bounds(e, np.array([0.0]), 1.0, reg)
        assert q.upper[0] == pytest.approx(2.0)
        assert q.lower[0] == pytest.approx(0.5)

    def test_exact_collapse(self):
        rng = np.random.default_rng(3)
        for kind, lam in (("none", 0.0), ("l1", 0.7), ("l2", 1.3)):
            reg = Regularizer(kind, lam)
            g = rng.normal(0, 2, 6)
            x = rng.normal(0, 1, 6)
            q = gsq_bounds(GradientEstimate.exact(g), x, 2.0, reg)
            for i in range(6):
                decrease = reg.psi(x[i]) - _grid_min(x[i], g[i], 2.0, reg)
                assert q.upper[i] == pytest.approx(q.lower[i], abs=1e-12)
                assert q.upper[i] == pytest.approx(decrease, abs=1e-5)

    def test_sandwich_against_grid(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            kind = ("none", "l1", "l2")[int(rng.integers(3))]
            reg = Regularizer(kind, float(rng.uniform(0, 2.0)) if
                              kind != "none" else 0.0)
            L = float(rng.uniform(0.5, 4.0))
            x = float(rng.normal(0, 1))
            g = float(rng.normal(0, 2))
            r = float(rng.uniform(0, 2))
            q = gsq_bounds(est([g], [r]), np.array([x]), L, reg)
            for grad in np.linspace(g - r, g + r, 7):
                # the scores bracket the best decrease, psi(x) - min_y V
                decrease = reg.psi(x) - _grid_min(x, grad, L, reg)
                assert decrease - 1e-6 <= q.upper[0]
                assert q.lower[0] - 1e-6 <= decrease

    def test_infinite_radius(self):
        reg = Regularizer("l1", 0.5)
        q = gsq_bounds(est([0.0, 1.0], [np.inf, 0.5]),
                       np.array([2.0, 0.0]), 1.0, reg)
        # nothing known: only the y = 0 fallback, a decrease of 0
        assert q.upper[0] == np.inf and q.lower[0] == 0.0
        assert np.isfinite(q.upper[1]) and np.isfinite(q.lower[1])

    def test_active_set_example(self):
        q = gsq_bounds(GradientEstimate.exact(np.zeros(3)), np.zeros(3),
                       1.0, Regularizer())
        q.upper[:] = q.lower[:] = np.array([3.0, 1.0, 0.0])
        aset = active_set(q)
        assert list(aset.indices) == [0]

    def test_exact_reduces_to_argmin(self):
        rng = np.random.default_rng(5)
        reg = Regularizer("l1", 0.4)
        g = rng.normal(0, 2, 8)
        x = rng.normal(0, 1, 8)
        q = gsq_bounds(GradientEstimate.exact(g), x, 1.5, reg)
        pick = select_ascd(q, active_set(q), rng)
        assert pick == int(np.argmax(q.lower))

    def test_set_mean_model_decrease_beats_uniform(self):
        # with sound bounds, the in-set average of the exact best model
        # decreases, psi(x) - min_y V, is at least the all-coordinate
        # average
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            kind = ("none", "l1", "l2")[int(rng.integers(3))]
            reg = Regularizer(kind, float(rng.uniform(0, 1.5))
                              if kind != "none" else 0.0)
            L = float(rng.uniform(0.5, 3.0))
            x = rng.normal(0, 1, n)
            true_g = rng.normal(0, 2, n)
            r = rng.uniform(0, 2, n)
            g = true_g + rng.uniform(-1, 1, n) * r  # sound by construction
            aset = active_set(gsq_bounds(est(g, r), x, L, reg))
            y_star = reg.model_argmin(x, true_g, L)
            decrease = reg.psi(x) - model_value(x, y_star, true_g, L, reg)
            assert decrease[aset.indices].mean() >= decrease.mean() - 1e-12

    def test_prefix_valid_vs_brute_force(self):
        # validity is asserted; minimality is only logged (smaller
        # non-prefix certificates exist for a minority of instances)
        rng = np.random.default_rng(6)
        smaller = 0
        trials = 200
        for t in range(trials):
            n = int(rng.integers(2, 8))
            kind = ("none", "l1", "l2")[t % 3]
            reg = Regularizer(kind, 0.8 if kind != "none" else 0.0)
            q = gsq_bounds(est(rng.normal(0, 2, n), rng.uniform(0, 2, n)),
                           rng.normal(0, 1, n), 1.5, reg)
            aset = active_set(q)
            outside = np.setdiff1d(np.arange(n), aset.indices)
            assert np.all(q.upper[outside] < aset.avg_score)
            assert int(np.argmax(q.lower)) in aset.indices
            for k in range(1, len(aset)):
                found = False
                for sub in combinations(range(n), k):
                    av = q.lower[list(sub)].mean()
                    if all(q.upper[j] < av for j in range(n) if j not in sub):
                        found = True
                        break
                if found:
                    smaller += 1
                    break
        assert smaller < trials / 2


class TestGssScores:
    def test_soft_threshold_at_zero(self):
        e = GradientEstimate.exact(np.array([3.0]))
        q = compute_bounds(e, np.array([2.0]), np.array([0.0]), 1.0)
        assert q.lower[0] == q.upper[0] == 2.0

    def test_subgradient_branch(self):
        e = GradientEstimate.exact(np.array([-3.0]))
        q = compute_bounds(e, np.array([0.5]), np.array([1.0]), 1.0)
        assert q.lower[0] == q.upper[0] == 8.0

    def test_containment_property(self):
        rng = np.random.default_rng(8)
        reg = Regularizer("l1", 0.9)

        def score(grad, x):
            if x == 0.0:
                return max(abs(grad) - reg.lam, 0.0) ** 2
            return abs(grad + reg.lam * np.sign(x)) ** 2

        for _ in range(500):
            g = float(rng.normal(0, 2))
            r = float(rng.uniform(0, 2))
            x = float(rng.choice([0.0, rng.normal()]))
            q = compute_bounds(est([g], [r]), np.ones(1), np.array([x]),
                               reg.lam)
            for grad in np.linspace(g - r, g + r, 9):
                s = score(grad, x)
                assert q.lower[0] <= s + 1e-12
                assert s <= q.upper[0] + 1e-12

    @given(st.integers(1, 20).flatmap(
        lambda n: st.tuples(_estimates(n),
                            arrays(np.float64, n, elements=st.one_of(
                                st.just(0.0), st.floats(-10, 10))),
                            st.one_of(st.just(0.0), st.floats(0, 1e3)),
                            _lipschitz(n))))
    def test_tight(self, drawn):
        e, x, lam, lipschitz = drawn
        q = compute_bounds(e, lipschitz, x, lam)
        lower, upper = kink_range(lambda t: np.square(gss_exact(t, x, lam)),
                                  e, lam)
        assert np.array_equal(q.lower, lower / lipschitz)
        assert np.array_equal(q.upper, upper / lipschitz)

    def test_uninformed(self):
        q = compute_bounds(GradientEstimate.uninformed(2), np.ones(2),
                           np.array([0.0, 1.0]), 1.0)
        assert np.all(q.lower == 0.0) and np.all(np.isinf(q.upper))


TRACKED = ("ascd", "ascd-gss", "ascd-gsq")
_ANY = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _one_coordinate(draw):
    """One coordinate of an estimate at radius 0, exact or not, its
    iterate and a loop penalty: g at the signed zeros, at +-lam exactly
    and one ulp off, large or anywhere; x at the signed zeros or not."""
    kind = draw(st.sampled_from(["none", "l1"]))
    lam = (draw(st.one_of(st.just(0.0), st.floats(0.01, 10.0)))
           if kind == "l1" else 0.0)
    edge = [0.0, -0.0, 1e300, -1e300]
    for v in (lam, -lam):
        edge += [v, float(np.nextafter(v, INF)), float(np.nextafter(v, -INF))]
    g = draw(st.one_of(st.sampled_from(edge), st.floats(-20.0, 20.0), _ANY))
    exact = draw(st.booleans())
    x = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0),
                       _ANY))
    lipschitz = draw(st.floats(0.01, 100.0))
    return g, exact, x, lipschitz, Regularizer(kind, lam)


def _bits(v):
    return np.float64(v).tobytes()


class TestScoreOne:
    """``score_one`` gives the bits of ``driver._scores`` on a one-element
    estimate at radius 0, ``is_exact`` or not, so the rescoring after a
    zero step keeps a full scoring's bits; comparing bytes tells the
    signed zeros apart."""

    @settings(max_examples=400, deadline=None)
    @given(rule=st.sampled_from(TRACKED), drawn=_one_coordinate())
    @example(rule="ascd-gss", drawn=(1.0, True, 0.0, 2.0,
                                     Regularizer("l1", 1.0)))
    @example(rule="ascd-gsq", drawn=(-0.0, False, -0.0, 1.0,
                                     Regularizer("l1", 1.0)))
    @example(rule="ascd", drawn=(-0.0, True, -0.0, 1.0, Regularizer()))
    def test_bits_match_the_array_stages(self, rule, drawn):
        g, exact, x, lipschitz, reg = drawn
        problem = SimpleNamespace(lipschitz=np.array([lipschitz]),
                                  psi_reg=reg)
        one = GradientEstimate(np.array([g]), np.zeros(1), exact)
        with np.errstate(all="ignore"):
            want = _scores(rule, one, np.array([x]), problem)
        lower, upper = score_one(rule, g, x, lipschitz, reg)
        assert type(lower) is float and type(upper) is float
        assert _bits(lower) == _bits(want.lower[0])
        assert _bits(upper) == _bits(want.upper[0])


def _ulps(v):
    return [v, float(np.nextafter(v, INF)), float(np.nextafter(v, -INF))]


@st.composite
def _exact_gss(draw):
    """An exact gradient, its iterate, an l1 weight and the coordinate
    constants: x at the signed zeros, +-lam and an ulp off lam; g at the
    signed zeros, +-lam, an ulp off either, and +-inf; lam = 0 or not."""
    n = draw(st.integers(1, 16))
    lam = draw(st.one_of(st.just(0.0), st.floats(0.01, 10.0)))
    x = draw(arrays(np.float64, n, elements=st.one_of(
        st.sampled_from([0.0, -0.0, -lam, *_ulps(lam)]),
        st.floats(-5.0, 5.0))))
    g = draw(arrays(np.float64, n, elements=st.one_of(
        st.sampled_from([0.0, -0.0, INF, -INF, *_ulps(lam), *_ulps(-lam)]),
        st.floats(-20.0, 20.0), _ANY)))
    return g, x, lam, draw(_lipschitz(n))


@st.composite
def _interval_gss(draw):
    """``_exact_gss`` with radii at 0, finite, huge and inf."""
    g, x, lam, lipschitz = draw(_exact_gss())
    r = draw(arrays(np.float64, g.size, elements=st.one_of(
        st.sampled_from([0.0, INF]), st.floats(0.0, 20.0),
        st.floats(0.0, 1e300))))
    return g, r, x, lam, lipschitz


def _segment_rule(rule, lam, lipschitz):
    """A problem with constants ``lipschitz`` whose penalty weighs ``lam``,
    and the segment half-width the rule scores at: ``ascd`` is gs-s at 0
    whatever the penalty."""
    problem = SimpleNamespace(lipschitz=lipschitz,
                              psi_reg=Regularizer("l1", lam))
    return problem, lam if rule == "ascd-gss" else 0.0


SEGMENT_RULES = ("ascd", "ascd-gss")


class TestIntervalGssScore:
    """The interval score of both segment-distance rules, on the scalar
    segment off x's support and patched on it, has the bits of
    per-coordinate segment arrays."""

    @pytest.mark.parametrize("rule", SEGMENT_RULES)
    @settings(max_examples=400, deadline=None)
    @given(_interval_gss())
    @example((np.array([-0.0, 0.0, 1.0, -1.0, INF, -INF, 2.0]),
              np.array([0.0, INF, 0.0, INF, INF, 0.0, 1.0]),
              np.array([0.0, -0.0, 1.0, -1.0, 0.0, -1.0, 1.0]), 1.0,
              np.array([1.0, 2.0, 0.5, 1.0, 3.0, 1e-3, 7.0])))
    @example((np.array([-0.0, 0.0, 3.0, -INF, INF]),
              np.array([0.0, 0.0, INF, INF, 1.0]),
              np.array([-0.0, 1.0, -1.0, -1.0, 0.0]), 0.0, np.ones(5)))
    def test_bits_match_the_segment_arrays(self, rule, drawn):
        g, r, x, lam, lipschitz = drawn
        problem, lam = _segment_rule(rule, lam, lipschitz)
        e = GradientEstimate(g.copy(), r.copy())
        # NaN from inf - inf and squares beyond the float range on both
        # sides
        with np.errstate(all="ignore"):
            got = _scores(rule, e, x, problem)
            want = gss_interval_squared(g, r, x, lam, lipschitz)
        assert got.lower.tobytes() == want.lower.tobytes()
        assert got.upper.tobytes() == want.upper.tobytes()
        assert not np.shares_memory(got.lower, got.upper)
        assert e.g.tobytes() == g.tobytes() and e.r.tobytes() == r.tobytes()


class TestExactGssScore:
    """The one-pass score of an exact estimate, under both segment-distance
    rules, has the bits of the segment distance over all n, signed zeros
    included."""

    @pytest.mark.parametrize("rule", SEGMENT_RULES)
    @settings(max_examples=400, deadline=None)
    @given(_exact_gss())
    @example((np.array([-0.0, 0.0, 1.0, -1.0, INF, -INF]),
              np.array([0.0, -0.0, 1.0, -1.0, 0.0, 2.0]), 1.0,
              np.array([1.0, 2.0, 0.5, 3.0, 1e-3, 7.0])))
    @example((np.array([-0.0, 0.0, 3.0, -INF]),
              np.array([-0.0, 1.0, -1.0, -1.0]), 0.0, np.ones(4)))
    def test_bits_match_the_segment_distance(self, rule, drawn):
        g, x, lam, lipschitz = drawn
        problem, lam = _segment_rule(rule, lam, lipschitz)
        e = GradientEstimate.exact(g)
        # squares of the largest floats overflow to inf on both sides
        with np.errstate(over="ignore"):
            got = _scores(rule, e, x, problem)
            want = gss_exact_squared(g, x, lam, lipschitz)
        assert got.lower is got.upper
        assert got.lower.tobytes() == want.tobytes()
        # squared in place, on an array the estimate does not share
        assert e.g.tobytes() == g.tobytes()

    @pytest.mark.parametrize("rule", SEGMENT_RULES)
    def test_exact_scores_leave_the_estimate(self, rule):
        g = np.array([-2.0, 0.5, 0.0, 3.0])
        problem = SimpleNamespace(lipschitz=np.full(4, 2.0),
                                  psi_reg=Regularizer("l1", 1.0))
        e = GradientEstimate.exact(g)
        got = _scores(rule, e, np.array([0.0, 1.0, -1.0, 0.0]), problem)
        assert got.lower is got.upper
        assert np.array_equal(e.g, g)

"""Predictive distributions: exactness, identities, quantiles."""

import copy
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from drawrows import draws_from_states, one_draw_pmf, series_distribution
from oracles import (
    closed_form_h_step_mean,
    per_series_posterior_predictive,
    per_series_predictive_rows,
    scalar_predictive_pmf,
)
from poinar import forecast, model
from poinar.forecast import (
    ForecastDistribution,
    conditional_mean_h_step,
    posterior_conditional_means,
    posterior_predictive,
    quantile,
)
from poinar.model import ConfigurationError, ModelState


def _state(alpha, lam, theta_value, month=1):
    theta = np.ones(12)
    theta[month - 1] = theta_value
    return ModelState(
        alpha=np.array([alpha]), z=np.array([0]), phi_star=np.array([lam]),
        theta=theta, tau=1.0,
    )


def _draws(states):
    return draws_from_states(states)


class TestConditionalMeans:
    def test_one_step_substitution(self):
        theta = np.ones(12)
        theta[4] = 2.0
        assert conditional_mean_h_step(2, 0.5, 1.0, theta, [1]) == 2.0
        assert conditional_mean_h_step(7, 0.0, 1.3, theta, [5]) == 1.3 * 2.0
        assert conditional_mean_h_step(0, 0.9, 1.3, theta, [5]) == 1.3 * 2.0

    def test_h_step_reduces_to_one_step(self):
        assert conditional_mean_h_step(3, 0.4, 1.5, np.ones(12), [7]) == pytest.approx(
            0.4 * 3 + 1.5 * 1.0, abs=1e-14
        )

    def test_h_step_no_carryover(self):
        theta = np.arange(1.0, 13.0)
        val = conditional_mean_h_step(5, 0.0, 2.0, theta, [3, 7, 11])
        assert val == pytest.approx(2.0 * theta[10], abs=1e-12)

    def test_h_step_alpha_one(self):
        assert conditional_mean_h_step(2, 1.0, 1.0, np.ones(12), [1, 2, 3, 4, 5]) == 7.0

    def test_h_step_recursion_identity(self):
        # the recursion against the closed form: the same bits at h = 1, and
        # the same terms summed in another order beyond
        rng = np.random.default_rng(0)
        theta = rng.gamma(1.0, 1.0, 12)
        months = rng.integers(1, 13, 6)
        y_T, alpha, lam = 4, 0.37, 1.9
        f_prev = float(y_T)
        for h in range(1, 7):
            got = conditional_mean_h_step(y_T, alpha, lam, theta, months[:h])
            want = closed_form_h_step_mean(y_T, alpha, lam, theta, months[:h])
            if h == 1:
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-12)
            assert got == alpha * f_prev + lam * theta[months[h - 1] - 1]
            f_prev = got

    def test_broadcast_matches_scalar_calls(self):
        # a stack of draws and series on one 3-week month path
        rng = np.random.default_rng(3)
        D, L = 5, 4
        alpha = rng.uniform(0, 1, (D, L))
        lam = rng.uniform(0.1, 3.0, (D, L))
        theta = rng.gamma(1.0, 1.0, (D, 1, 12))
        y_T = rng.integers(0, 9, L)
        months = rng.integers(1, 13, 3)
        got = conditional_mean_h_step(y_T, alpha, lam, theta, months)
        assert got.shape == (D, L)
        assert np.allclose(got, closed_form_h_step_mean(y_T, alpha, lam, theta, months),
                           rtol=1e-12, atol=0)
        for d in range(D):
            for l in range(L):
                one = conditional_mean_h_step(y_T[l], alpha[d, l], lam[d, l], theta[d, 0], months)
                assert got[d, l] == one

    def test_months_of_more_than_one_axis_refused(self):
        with pytest.raises(ValueError, match="1-D sequence"):
            conditional_mean_h_step(1, 0.5, 1.0, np.ones(12), [[1, 2], [3, 4]])


@pytest.mark.parametrize("month", [0, 13, -1])
def test_months_outside_the_calendar_refused(month):
    # month 0 would read December's effect, and 13 would index past it
    draws = _draws([_state(0.5, 1.0, 2.0)])
    with pytest.raises(ValueError, match=f"month must lie in 1..12, got {month}"):
        conditional_mean_h_step(0, 0.5, 1.0, np.arange(1.0, 13.0), [1, month])
    with pytest.raises(ValueError, match=f"month must lie in 1..12, got {month}"):
        posterior_conditional_means(draws, [1], [month])
    with pytest.raises(ValueError, match=f"month must lie in 1..12, got {month}"):
        posterior_predictive([1], draws, month)


class TestPosteriorConditionalMeans:
    def _draws(self, rng, D=6, L=3):
        states = [
            ModelState(alpha=rng.uniform(0, 1, L), z=np.array([0, 1, 0]),
                       phi_star=rng.uniform(0.5, 3.0, 2), theta=rng.gamma(1, 1, 12), tau=1.0)
            for _ in range(D)
        ]
        return _draws(states)

    def test_horizons_average_per_draw_means(self):
        rng = np.random.default_rng(4)
        draws = self._draws(rng)
        y_T = np.array([2, 0, 5])
        months = [11, 12, 1]
        got = posterior_conditional_means(draws, y_T, months)
        assert got.shape == (3, 3)
        for h in range(1, 4):
            for l in range(3):
                per_draw = [
                    conditional_mean_h_step(y_T[l], draws.alpha[d, l],
                                            draws.phi_star[d, draws.z[d, l]], draws.theta[d],
                                            months[:h])
                    for d in range(len(draws))
                ]
                assert got[h - 1, l] == np.mean(per_draw)

    @pytest.mark.parametrize("mode", ["plain", "covariate"])
    def test_horner_steps_match_the_per_horizon_formula(self, mode):
        # a year of horizons from three origins: every step has the bits of
        # the draw mean of conditional_mean_h_step, and agrees with the
        # closed form to rounding, bit for bit at h = 1
        rng = np.random.default_rng(8)
        draws = self._draws(rng, D=12)
        draws.mode = mode
        exposure = np.array([0.5, 1.0, 3.0]) if mode == "covariate" else None
        alpha, lam, theta = draws.stacked(exposure)
        y_T = np.array([[2, 0, 5], [0, 0, 0], [11, 3, 1]])
        months = rng.integers(1, 13, (3, 52))
        got = posterior_conditional_means(draws, y_T, months, exposure)
        assert got.shape == (52, 3, 3)
        for i in range(3):
            for h in range(1, 53):
                args = (y_T[i], alpha, lam, theta[:, None, :], months[i, :h])
                assert np.array_equal(got[h - 1, i], conditional_mean_h_step(*args).mean(axis=0))
                want = closed_form_h_step_mean(*args).mean(axis=0)
                if h == 1:
                    assert np.array_equal(got[0, i], want)
                else:
                    assert np.allclose(got[h - 1, i], want, rtol=1e-12, atol=0)

    def test_one_row_per_origin(self):
        rng = np.random.default_rng(5)
        draws = self._draws(rng)
        y_T = np.array([[2, 0, 5], [1, 4, 0]])
        months = np.array([[3], [8]])
        got = posterior_conditional_means(draws, y_T, months)
        assert got.shape == (1, 2, 3)
        for i in range(2):
            single = posterior_conditional_means(draws, y_T[i], months[i])
            assert np.allclose(got[0, i], single[0], rtol=1e-14, atol=0)

    def test_covariate_draws_need_exposure(self):
        rng = np.random.default_rng(6)
        draws = self._draws(rng)
        draws.mode = "covariate"
        with pytest.raises(ValueError):
            posterior_conditional_means(draws, np.ones(3), [1])
        exposure = np.array([1.0, 2.0, 0.5])
        scaled = posterior_conditional_means(draws, np.zeros(3), [1], exposure)
        draws.mode = "plain"
        plain = posterior_conditional_means(draws, np.zeros(3), [1])
        assert np.allclose(scaled, plain * exposure, rtol=1e-14)

    def test_draws_whose_rate_overflows_in_a_forecast_month_refused(self):
        # cluster 1 (series 1) times August's effect overflows; March's does not
        draws = self._draws(np.random.default_rng(7))
        draws.phi_star[:, 1] = 1e300
        draws.theta[:, 7] = 1e10
        assert np.all(np.isfinite(posterior_conditional_means(draws, np.ones(3), [3, 3])))
        with pytest.raises(ConfigurationError, match="series in row 1 has a draw whose"):
            posterior_conditional_means(draws, np.ones(3), [3, 8])
        with pytest.raises(ConfigurationError, match="series 'b' has a draw whose"):
            posterior_conditional_means(draws, np.ones((2, 3)), [[3], [8]],
                                        series_ids=["a", "b", "c"])


class TestPredictivePmf:
    def test_no_previous_count_gives_poisson(self):
        pmf = one_draw_pmf(0, 0.5, 2.0, 1.5).pmf[0]
        rate = 3.0
        assert pmf[0] == pytest.approx(np.exp(-rate), rel=1e-12)
        assert np.allclose(pmf, sps.poisson.pmf(np.arange(pmf.size), rate), atol=1e-12)

    def test_no_innovations_gives_binomial(self):
        pmf = one_draw_pmf(3, 0.5, 0.0, 1.0).pmf[0]
        assert np.allclose(pmf[:4], sps.binom.pmf(np.arange(4), 3, 0.5), atol=1e-14)
        assert np.all(pmf[4:] == 0)

    def test_mixed_case_brute_force(self):
        # P(Y=0) = (1 - alpha) * exp(-1)
        pmf = one_draw_pmf(1, 0.5, 1.0, 1.0).pmf[0]
        assert pmf[0] == pytest.approx(0.5 * np.exp(-1.0), rel=1e-12)
        # full brute-force convolution over the survivor count
        grid = np.arange(pmf.size)
        brute = np.zeros_like(pmf)
        for survivors in (0, 1):
            brute += sps.binom.pmf(survivors, 1, 0.5) * sps.poisson.pmf(grid - survivors, 1.0)
        assert np.abs(pmf - brute).max() < 1e-13

    def test_mean_identity_and_mass(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            y_T = int(rng.integers(0, 15))
            alpha = rng.uniform(0, 1)
            lam = rng.uniform(0.01, 8.0)
            theta = rng.uniform(0.2, 3.0)
            pmf = one_draw_pmf(y_T, alpha, lam, theta).pmf[0]
            assert abs(pmf @ np.arange(pmf.size) - (alpha * y_T + lam * theta)) < 1e-10
            assert pmf.sum() >= 1 - 1e-9

    def test_explicit_truncation_extends_when_too_small(self):
        # at y_T = 0 a rate of 1e-3 starts at m = 1, where the tail mean is
        # about 1e-6, so the point grows once, to int(1 * 1.5) + 10 = 11
        rows = shared_rows(0, [0.5], [1e-3])
        assert rows.shape[1] - 1 == 11
        assert rows.sum() >= 1 - 1e-9
        assert rows.shape == per_series_predictive_rows(0, [0.5], [1e-3]).shape


class TestPosteriorPredictive:
    def test_single_draw_equals_plain_pmf(self):
        state = _state(0.4, 2.0, 1.3, month=5)
        avg = series_distribution(posterior_predictive([3], _draws([state]), month=5), 0)
        oracle = scalar_predictive_pmf(3, 0.4, 2.0 * 1.3)
        assert avg.y_max[0] == oracle.shape[0] - 1  # the draw's own truncation point
        assert np.abs(avg.pmf[0] - oracle).max() <= 1e-13

    def test_identical_draws_collapse(self):
        state = _state(0.4, 2.0, 1.3)
        one = series_distribution(posterior_predictive([2], _draws([state]), 1), 0)
        two = series_distribution(
            posterior_predictive([2], _draws([state, copy.deepcopy(state)]), 1), 0)
        assert np.allclose(one.pmf, two.pmf, atol=1e-15)

    def test_mass_and_mean_linearity(self):
        rng = np.random.default_rng(2)
        states = [
            _state(rng.uniform(0, 1), rng.uniform(0.1, 4.0), rng.uniform(0.3, 2.0))
            for _ in range(20)
        ]
        y_T = 4
        pmf = series_distribution(posterior_predictive([y_T], _draws(states), 1), 0).pmf[0]
        assert pmf.sum() >= 1 - 1e-9
        per_draw_means = [
            conditional_mean_h_step(y_T, s.alpha[0], s.phi_star[0], s.theta, [1])
            for s in states
        ]
        assert abs(pmf @ np.arange(pmf.size) - np.mean(per_draw_means)) < 1e-10

    def test_covariate_draws_need_exposure(self):
        state = _state(0.4, 2.0, 1.0)
        draws = _draws([state])
        draws.mode = "covariate"
        with pytest.raises(ValueError):
            posterior_predictive([1], draws, 1)
        scaled = series_distribution(
            posterior_predictive([1], draws, 1, exposure=np.array([2.0])), 0)
        plain = one_draw_pmf(1, 0.4, 4.0)
        assert np.allclose(scaled.pmf[0, : plain.y_max[0] + 1], plain.pmf[0], atol=1e-15)

    def test_empty_draws_rejected(self):
        with pytest.raises(ValueError):
            posterior_predictive([1], _draws([]), 1)

    def test_one_distribution_per_series(self):
        # two series with their own rates, thinnings and origin counts
        states = [
            ModelState(alpha=np.array([a, 0.1]), z=np.array([0, 1]),
                       phi_star=np.array([r, 3.0]), theta=np.ones(12), tau=1.0)
            for a, r in ((0.3, 1.0), (0.6, 2.5))
        ]
        block = posterior_predictive(np.array([4, 0]), _draws(states), 1)
        assert block.pmf.shape[0] == block.y_max.shape[0] == 2
        first, second = (series_distribution(block, l).pmf[0] for l in range(2))
        assert first @ np.arange(first.size) == pytest.approx(
            np.mean([0.3 * 4 + 1.0, 0.6 * 4 + 2.5]), abs=1e-10)
        assert np.allclose(second, sps.poisson.pmf(np.arange(second.size), 3.0), atol=1e-15)


def _series_draws(alpha, lam, theta, mode="plain"):
    """Draws whose series l has thinning alpha[d, l] and rate lam[d, l] in
    draw d: every series is its own cluster."""
    D, L = alpha.shape
    draws = _draws([
        ModelState(alpha=alpha[d], z=np.arange(L), phi_star=lam[d], theta=theta[d], tau=1.0)
        for d in range(D)
    ])
    draws.mode = mode
    return draws


@st.composite
def predictive_inputs(draw):
    """Draws, origin counts and a pass bound: counts repeat (drawn from a
    pool reaching 400), rates span four decades so series that share a count
    get other truncation points, and alpha and rate hit their endpoints."""
    D = draw(st.integers(1, 10))
    L = draw(st.integers(1, 12))
    pool = draw(st.lists(st.one_of(st.integers(0, 12), st.integers(0, 400)),
                         min_size=1, max_size=4))
    counts = np.array(draw(st.lists(st.sampled_from(pool), min_size=L, max_size=L)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.0, 1.0, (D, L))
    alpha[rng.random((D, L)) < 0.1] = 0.0
    alpha[rng.random((D, L)) < 0.1] = 1.0
    # a scale per series, jittered per draw
    scale = 10.0 ** rng.uniform(-3.0, 1.5, L) * (rng.random(L) > 0.1)
    lam = scale * rng.uniform(0.5, 2.0, (D, L))
    theta = rng.uniform(0.3, 2.0, (D, 12))
    exposure = rng.uniform(0.2, 5.0, L) if draw(st.booleans()) else None
    cells = draw(st.sampled_from([1, 200, 5_000, forecast._PASS_CELLS]))
    month = draw(st.integers(1, 12))
    return alpha, lam, theta, exposure, counts, month, cells


class TestGroupedPosteriorPredictive:
    """One kernel pass per origin count against the per-series oracle."""

    @staticmethod
    def assert_matches_oracle(counts, draws, month, exposure=None):
        block = posterior_predictive(counts, draws, month, exposure)
        reference = per_series_posterior_predictive(counts, draws, month, exposure)
        assert block.pmf.shape == (len(counts), block.y_max.max() + 1)
        assert block.y_max.dtype == np.int64
        assert len(reference) == len(counts)
        for l, (pmf, y_max) in enumerate(reference):
            assert block.y_max[l] == y_max
            assert np.array_equal(block.pmf[l, : y_max + 1], pmf)
            assert not block.pmf[l, y_max + 1:].any()  # zero past the row's own y_max
        return block

    @given(inputs=predictive_inputs())
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_per_series_pmfs(self, inputs):
        alpha, lam, theta, exposure, counts, month, cells = inputs
        mode = "plain" if exposure is None else "covariate"
        draws = _series_draws(alpha, lam, theta, mode)
        with mock.patch.object(forecast, "_PASS_CELLS", cells):
            self.assert_matches_oracle(counts, draws, month, exposure)

    @staticmethod
    def grid_calls(monkeypatch):
        calls = []
        grid = forecast._pmf_grid

        def recording(y_T, alpha, rate, m):
            calls.append((y_T, alpha.shape[0], m))
            return grid(y_T, alpha, rate, m)

        monkeypatch.setattr(forecast, "_pmf_grid", recording)
        return calls

    def test_one_pass_per_count_with_own_truncation_points(self, monkeypatch):
        # rates 1e-3 .. 2 at each of two counts: the series get their own
        # truncation points, at count 0 the smallest rates grow theirs past
        # its start, and each count still takes one grid, built at its
        # widest point
        rates = np.array([1e-3, 2.0, 0.05, 1e-3, 0.5, 2.0, 0.5, 0.05])
        counts = np.array([3, 3, 3, 0, 0, 0, 3, 0])
        rng = np.random.default_rng(4)
        D, L = 6, rates.size
        draws = _series_draws(rng.uniform(0.1, 0.9, (D, L)),
                              rates * rng.uniform(0.8, 1.2, (D, L)), np.ones((D, 12)))
        calls = self.grid_calls(monkeypatch)
        block = self.assert_matches_oracle(counts, draws, 1)
        for y in (0, 3):
            passes = [(rows, m) for count, rows, m in calls if count == y]
            assert passes == [(4 * D, block.y_max[counts == y].max())]  # all four at once
            assert len(set(block.y_max[counts == y].tolist())) >= 3

    def test_passes_hold_the_cell_bound(self, monkeypatch):
        rng = np.random.default_rng(9)
        D, L = 8, 40
        draws = _series_draws(rng.uniform(0.0, 1.0, (D, L)),
                              rng.uniform(0.5, 3.0, (D, L)), rng.uniform(0.5, 2.0, (D, 12)))
        counts = np.full(L, 2)
        monkeypatch.setattr(forecast, "_PASS_CELLS", 1_000)
        calls = self.grid_calls(monkeypatch)
        self.assert_matches_oracle(counts, draws, 7)
        assert len(calls) > 1  # the one count's series need several passes
        for _, rows, m in calls:
            assert rows * (m + 1) <= 1_000 or rows == D  # one series may exceed it

    def test_points_equal_the_per_series_oracle_up_to_large_counts(self):
        # 72 series, 6 at each of 12 counts up to 3,000, with rates
        # 1e-4 .. 300 and alpha hitting 0 and 1: each point equals the
        # per-series oracle's, found by growing a grid until both tail
        # budgets hold, and every row misses less than 1e-10 of mass
        rng = np.random.default_rng(18)
        counts = np.tile([0, 1, 2, 7, 30, 120, 400, 900, 1500, 2200, 2700, 3000], 6)
        D, L = 4, counts.size
        alpha = rng.uniform(0.0, 1.0, (D, L))
        alpha[rng.random((D, L)) < 0.1] = 0.0
        alpha[rng.random((D, L)) < 0.1] = 1.0
        lam = 10.0 ** rng.uniform(-4.0, np.log10(300.0), L) * rng.uniform(0.5, 1.0, (D, L))
        block = self.assert_matches_oracle(counts, _series_draws(alpha, lam, np.ones((D, 12))), 1)
        assert np.all(1.0 - block.pmf.sum(axis=1) < 1e-10)

    def test_each_pass_is_checked(self, monkeypatch):
        grid = forecast._pmf_grid

        def shifted(y_T, alpha, rate, m):
            out = grid(y_T, alpha, rate, m)
            out[-1, :2] += (-0.5, 0.5)  # the last row keeps its mass, not its sign
            return out

        monkeypatch.setattr(forecast, "_pmf_grid", shifted)
        draws = _series_draws(np.full((1, 3), 0.5), np.ones((1, 3)), np.ones((1, 12)))
        with pytest.raises(ValueError, match="pmf entries must be nonnegative"):
            posterior_predictive(np.zeros(3, dtype=np.int64), draws, 1)

    def test_negative_count_rejected(self):
        draws = _series_draws(np.full((2, 2), 0.5), np.ones((2, 2)), np.ones((2, 12)))
        with pytest.raises(ValueError, match="nonnegative"):
            posterior_predictive(np.array([1, -1]), draws, 1)

    def test_pmf_block_beyond_memory_refused_though_each_grid_fits(self, monkeypatch):
        # 2,000 series of 2 draws at rate 2,800: one series' grid takes about
        # 0.2 MB, the (2000, ~3400) pmf block with quantile's CDF and
        # comparison about 117 MB, more than the 64 MiB allowed here
        L = 2000
        draws = _series_draws(np.full((2, L), 0.5), np.full((2, L), 2800.0), np.ones((2, 12)))
        monkeypatch.setattr(model, "physical_memory", lambda: 64 * 2**20)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError,
                               match=r"the predictive pmfs of 2000 series from 2 draws on "
                                     r"0\.\..*series 's0000' has the widest support"):
                posterior_predictive(np.zeros(L, dtype=np.int64), draws, 1,
                                     series_ids=[f"s{l:04d}" for l in range(L)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20  # refused before the block or any grid

    @pytest.mark.parametrize("L, D, rate", [(3000, 2, 60.0), (40, 300, 20.0), (1, 1, 3e4)])
    def test_memory_estimate_covers_the_traced_peak(self, monkeypatch, L, D, rate):
        # many series of few draws (the block leads), few series of many
        # draws (the passes lead), and one wide series alone
        rng = np.random.default_rng(L)
        draws = _series_draws(rng.uniform(0.1, 0.9, (D, L)),
                              rate * rng.uniform(0.5, 1.0, (D, L)), np.ones((D, 12)))
        counts = rng.integers(0, 30, L)
        estimates = []
        monkeypatch.setattr(forecast, "refuse_over_memory",
                            lambda needed, what, cause: estimates.append(needed))
        tracemalloc.start()
        try:
            quantile(posterior_predictive(counts, draws, 1), [0.5, 0.95, 0.99])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(estimates) == 1 and peak <= estimates[0]


def shared_rows(y_T: int, alpha, rate) -> np.ndarray:
    """The pmf rows of one series' draws, on the truncation point they share
    from ``_truncation_points``: shape (D, m+1)."""
    alpha = np.asarray(alpha, dtype=float)
    rate = np.asarray(rate, dtype=float)
    (m,) = forecast._truncation_points(np.array([y_T]), alpha[None], rate[None]).astype(int)
    return forecast._pmf_grid(y_T, alpha, rate, m)


class TestPredictiveKernel:
    """The batched kernel against the scalar scipy oracle, draw by draw."""

    LEVELS = (0.5, 0.95, 0.99)

    @given(
        y_T=st.one_of(st.integers(0, 12), st.integers(0, 400)),
        params=st.lists(
            st.tuples(
                # alpha from 1e-300 up, the range the oracle's accuracy was checked on
                st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-300, 1.0)),
                st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
            ),
            min_size=1, max_size=30,
        ),
    )
    @example(y_T=342, params=[(1e-300, 0.0)])  # scipy's binomial pmf erred 1.0e-13 here
    @settings(max_examples=120, deadline=None)
    def test_rows_match_scalar_oracle(self, y_T, params):
        alpha, rate = (np.array(v) for v in zip(*params))
        rows = shared_rows(y_T, alpha, rate)
        m = rows.shape[1] - 1
        for row, a, r in zip(rows, alpha, rate):
            # the shared truncation point meets the oracle's budgets too
            oracle = scalar_predictive_pmf(y_T, a, r, y_max=m)
            assert oracle.shape == row.shape
            assert np.abs(row - oracle).max() <= 1e-13
            cdf = np.cumsum(oracle)
            for level in self.LEVELS:
                # a level within rounding of a cdf value has two right answers
                if np.abs(cdf - level).min() > 1e-12:
                    assert (np.searchsorted(np.cumsum(row), level)
                            == np.searchsorted(cdf, level))
        if len(params) == 1:
            own = scalar_predictive_pmf(y_T, alpha[0], rate[0])
            assert m == own.shape[0] - 1  # one draw keeps its own truncation point

    def test_shared_truncation_covers_every_draw(self):
        # a draw with a wide pmf sets m for a draw with a narrow one
        rows = shared_rows(3, [0.2, 0.9], [0.1, 30.0])
        wide = scalar_predictive_pmf(3, 0.9, 30.0)
        assert rows.shape[1] >= wide.shape[0]
        assert np.all(1.0 - rows.sum(axis=1) < 1e-9)

    def test_point_masses(self):
        # alpha = 0 with no innovations, and alpha = 1 with none: pmf = delta
        rows = shared_rows(5, [0.0, 1.0], [0.0, 0.0])
        assert rows[0, 0] == 1.0 and rows[0, 1:].sum() == 0.0
        assert rows[1, 5] == 1.0 and rows[1].sum() == 1.0

    def test_invalid_parameters_rejected(self):
        theta = np.ones((1, 12))
        cases = (("thinning", [[0.5, 1.5]], [[1.0, 1.0]]), ("thinning", [[np.nan]], [[1.0]]),
                 ("rate", [[0.5]], [[-1.0]]))
        for match, alpha, lam in cases:
            draws = _series_draws(np.array(alpha), np.array(lam), theta)
            with pytest.raises(ValueError, match=match):
                posterior_predictive(np.full(len(alpha[0]), 2), draws, 1)


class TestQuantiles:
    def test_point_mass(self):
        pmf = np.zeros((1, 7))
        pmf[0, 3] = 1.0
        dist = ForecastDistribution(pmf=pmf, y_max=np.array([6]))
        assert quantile(dist, 0.5).tolist() == [3]

    def test_poisson_unit_rate(self):
        dist = one_draw_pmf(0, 0.0, 1.0, 1.0)
        # Poisson(1): CDF(2) = 0.9197 < 0.95 <= CDF(3) = 0.9810
        assert quantile(dist, 0.95).tolist() == [3]
        assert quantile(dist, 0.5).tolist() == [1]

    def test_levels_in_one_call(self):
        dist = one_draw_pmf(3, 0.4, 2.0, 1.3)
        levels = [0.05, 0.5, 0.95, 0.99]
        assert quantile(dist, levels).tolist() == [[quantile(dist, u)[0] for u in levels]]
        assert quantile(dist, 0.5).shape == (1,)
        with pytest.raises(ValueError, match="got 1.5"):
            quantile(dist, [0.5, 1.5])

    def test_domain(self):
        dist = one_draw_pmf(0, 0.0, 1.0, 1.0)
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                quantile(dist, bad)

    @given(
        seed=st.integers(0, 10_000),
        u1=st.floats(0.01, 0.98),
        du=st.floats(0.001, 0.5),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_level(self, seed, u1, du):
        rng = np.random.default_rng(seed)
        dist = one_draw_pmf(
            int(rng.integers(0, 10)), rng.uniform(0, 1), rng.uniform(0.05, 5.0), 1.0
        )
        u2 = min(u1 + du, 0.995)
        assert quantile(dist, u1)[0] <= quantile(dist, u2)[0]

    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 8),
           n_levels=st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_block_rows_match_their_own_searchsorted(self, seed, n_rows, n_levels):
        # ragged rows, some entries exactly 0, and levels that hit CDF values
        rng = np.random.default_rng(seed)
        y_max = rng.integers(0, 15, n_rows)
        pmf = np.zeros((n_rows, y_max.max() + 1))
        for l, m in enumerate(y_max):
            row = rng.random(m + 1) ** 3 * (rng.random(m + 1) > 0.3)
            row[rng.integers(0, m + 1)] += 0.5
            pmf[l, : m + 1] = row / row.sum()
        cdfs = [np.cumsum(pmf[l, : m + 1]) for l, m in enumerate(y_max)]
        top = min(min(cdf[-1] for cdf in cdfs), np.nextafter(1.0, 0.0))
        values = np.concatenate(cdfs)
        ties = values[(values > 0.0) & (values <= top)]
        pool = np.concatenate([rng.uniform(0.0, top, n_levels), ties])
        levels = rng.choice(pool[pool > 0.0], n_levels)
        dist = ForecastDistribution(pmf, y_max)
        got = quantile(dist, levels)
        assert got.shape == (n_rows, n_levels)
        for l, cdf in enumerate(cdfs):
            assert got[l].tolist() == np.searchsorted(cdf, levels, "left").tolist()
            assert quantile(dist, levels[0])[l] == np.searchsorted(cdf, levels[0], "left")
        # a row short of mass puts every level above its last CDF value out of reach
        short = int(rng.integers(0, n_rows))
        pmf[short] *= 0.5
        with pytest.raises(ValueError, match="beyond the truncation point"):
            quantile(ForecastDistribution(pmf, y_max), [0.25, 0.75])

    def test_interval_brackets(self):
        dist = one_draw_pmf(2, 0.5, 2.0, 1.0)
        lo, hi = quantile(dist, (0.05, 0.95))[0]
        assert lo <= quantile(dist, 0.5)[0] <= hi

    def test_median_brackets_mean_on_grid(self):
        # the convolution of two log-concave pmfs is unimodal, so the median
        # stays within one count of the rounded mean on the whole desk grid
        for y_T in (0, 1, 2, 5, 12):
            for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
                for rate in (0.1, 1.0, 5.0, 20.0):
                    dist = one_draw_pmf(y_T, alpha, rate, 1.0)
                    mean = dist.pmf[0] @ np.arange(dist.y_max[0] + 1)
                    assert abs(quantile(dist, 0.5)[0] - round(mean)) <= 1

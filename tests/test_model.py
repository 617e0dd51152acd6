"""Generative machinery: thinning, INAR simulation, DP draws, panel types."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from generative import (
    binomial_thin,
    crp_draw,
    crp_expected_clusters,
    stationary_mean,
    stick_breaking,
)
from poinar.model import (
    ConfigurationError,
    Hyperparams,
    ModelState,
    model_exposure,
    simulate_panel,
    simulate_poinar,
)
from poinar.panel import CountPanel

UNIT_THETA = np.ones(12)
FLAT_SEASONS = np.tile(np.arange(1, 13), 30)


class TestBinomialThin:
    def test_all_trials_fail_at_zero(self):
        rng = np.random.default_rng(0)
        assert binomial_thin(5, 0.0, rng) == 0

    def test_all_trials_succeed_at_one(self):
        rng = np.random.default_rng(0)
        assert binomial_thin(7, 1.0, rng) == 7

    def test_sample_mean_matches_binomial_mean(self):
        rng = np.random.default_rng(7)
        n = 10**6
        total = sum(binomial_thin(10, 0.3, rng) for _ in range(n))
        sigma_mean = np.sqrt(10 * 0.3 * 0.7 / n)
        assert abs(total / n - 3.0) < 3 * sigma_mean

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, np.nan])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            binomial_thin(3, alpha, np.random.default_rng(0))

    @given(x=st.integers(0, 1000), alpha=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_thinning_closure(self, x, alpha, seed):
        result = binomial_thin(x, alpha, np.random.default_rng(seed))
        assert 0 <= result <= x


class TestSimulatePoinar:
    def test_zero_rate_absorbs_at_zero(self):
        rng = np.random.default_rng(3)
        y = simulate_poinar(0.0, 0.5, UNIT_THETA, FLAT_SEASONS[:200], y0=3, rng=rng)
        assert np.all(np.diff(y) <= 0)
        assert y[-1] == 0

    def test_no_carryover_is_iid_poisson(self):
        rng = np.random.default_rng(4)
        y = simulate_poinar(1.0, 0.0, UNIT_THETA, np.ones(10**5, dtype=int), rng=rng)
        assert abs(y.mean() - 1.0) < 0.02

    def test_stationary_mean(self):
        rng = np.random.default_rng(5)
        y = simulate_poinar(1.0, 0.5, UNIT_THETA, np.ones(10**5, dtype=int), rng=rng)
        assert abs(y.mean() - stationary_mean(1.0, 0.5)) < 0.04  # 2% of 2.0

    @pytest.mark.parametrize("lam, alpha, y0, T", [
        (2.0, 0.4, None, 120), (0.3, 0.9, None, 208), (5.0, 0.0, 7, 60), (1.0, 1.0, 4, 50),
        (1.5, 0.5, None, 1),
    ])
    def test_draws_match_the_array_indexed_recursion(self, lam, alpha, y0, T):
        # the earlier loop, indexing numpy arrays week by week, makes the
        # same generator calls in the same order
        theta = np.linspace(0.5, 1.5, 12)
        season = np.arange(T) % 12 + 1
        used = np.random.default_rng(21)
        y, eps = simulate_poinar(lam, alpha, theta, season, y0=y0, rng=used,
                                 return_innovations=True)
        rng = np.random.default_rng(21)
        rates = lam * theta[season - 1]
        start = y0 if y0 is not None else int(rng.poisson(rates[0] / (1.0 - alpha)))
        want_y = np.empty(T, dtype=np.int64)
        want_eps = np.empty(T, dtype=np.int64)
        want_y[0] = want_eps[0] = start
        innovations = rng.poisson(rates[1:]) if T > 1 else np.empty(0, dtype=np.int64)
        for t in range(1, T):
            want_eps[t] = innovations[t - 1]
            want_y[t] = rng.binomial(want_y[t - 1], alpha) + want_eps[t]
        assert y.dtype == eps.dtype == np.int64
        assert np.array_equal(y, want_y) and np.array_equal(eps, want_eps)
        assert used.bit_generator.state == rng.bit_generator.state

    def test_seed_determinism(self):
        a = simulate_poinar(2.0, 0.4, UNIT_THETA, FLAT_SEASONS[:120], rng=np.random.default_rng(9))
        b = simulate_poinar(2.0, 0.4, UNIT_THETA, FLAT_SEASONS[:120], rng=np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_seasonal_rates_enter_innovations(self):
        theta = np.full(12, 1e-9)
        theta[2] = 5.0  # only March innovates
        season = np.full(3000, 3, dtype=int)
        y = simulate_poinar(1.0, 0.0, theta, season, rng=np.random.default_rng(11))
        assert abs(y.mean() - 5.0) < 0.3

    def test_alpha_one_requires_explicit_start(self):
        with pytest.raises(ValueError):
            simulate_poinar(1.0, 1.0, UNIT_THETA, FLAT_SEASONS[:10], np.random.default_rng(0))


class TestSimulatePanel:
    def test_cluster_means_ordered_and_separated(self):
        rng = np.random.default_rng(12)
        z = np.repeat(np.arange(4), 25)
        panel, truth = simulate_panel(
            np.array([1.0, 3.0, 6.0, 10.0]), z, 0.5, UNIT_THETA, FLAT_SEASONS[:208], rng
        )
        assert panel.n_series == 100
        means = [panel.counts[z == k].mean() for k in range(4)]
        assert all(b > 1.3 * a for a, b in zip(means, means[1:]))

    def test_single_cluster_truth(self):
        rng = np.random.default_rng(13)
        panel, truth = simulate_panel(
            np.array([1.0]), np.zeros(10, dtype=int), 0.5, UNIT_THETA, FLAT_SEASONS[:60], rng
        )
        assert np.array_equal(truth.z, np.zeros(10, dtype=int))

    def test_low_rates_stay_small(self):
        # stationary means <= 1.2; a Poisson(1.2) tail beyond 6 is ~2e-4/cell
        rng = np.random.default_rng(14)
        panel, _ = simulate_panel(
            np.array([0.1, 0.2, 0.3, 0.6]),
            np.arange(4),
            0.5,
            UNIT_THETA,
            FLAT_SEASONS[:208],
            rng,
        )
        assert panel.counts.max() <= 6

    def test_inconsistent_lengths_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulate_panel(np.array([1.0]), np.array([0, 1]), 0.5, UNIT_THETA,
                           FLAT_SEASONS[:50], rng)

    def test_truth_innovations_satisfy_support(self):
        rng = np.random.default_rng(15)
        panel, truth = simulate_panel(
            np.array([2.0, 4.0]), np.array([0, 1]), 0.3, UNIT_THETA, FLAT_SEASONS[:100], rng
        )
        truth.validate(panel)


class TestCrp:
    def test_first_split_probability(self):
        rng = np.random.default_rng(21)
        n = 40_000
        new = sum(crp_draw(2, 1.0, rng)[1] == 1 for _ in range(n))
        sigma = np.sqrt(0.25 / n)
        assert abs(new / n - 0.5) < 3 * sigma

    def test_vanishing_concentration_gives_one_cluster(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            assert crp_draw(50, 1e-12, rng).max() == 0

    def test_expected_cluster_count(self):
        rng = np.random.default_rng(23)
        reps = 10_000
        ks = np.array([crp_draw(100, 1.0, rng).max() + 1 for _ in range(reps)])
        # new-cluster indicators are independent Bernoulli(tau / (tau + i - 1))
        p = 1.0 / (1.0 + np.arange(100))
        expected = crp_expected_clusters(100, 1.0)
        assert abs(expected - 5.187) < 5e-4
        sigma = np.sqrt(np.sum(p * (1 - p)) / reps)
        assert abs(ks.mean() - expected) < 3 * sigma

    def test_labels_contiguous_by_appearance(self):
        z = crp_draw(200, 2.0, np.random.default_rng(24))
        seen = np.unique(z)
        assert np.array_equal(seen, np.arange(seen.size))


class TestStickBreaking:
    def test_single_stick_is_beta_mean(self):
        rng = np.random.default_rng(31)
        draws = np.array([stick_breaking(1.0, 1, rng).beta[0] for _ in range(20_000)])
        assert abs(draws.mean() - 0.5) < 3 * np.sqrt(1 / 12 / 20_000)

    def test_partial_sums_below_one(self):
        weights = stick_breaking(5.0, 30, np.random.default_rng(32))
        cumulative = np.cumsum(weights.beta)
        assert np.all(cumulative < 1.0)
        assert np.isclose(cumulative[-1] + weights.leftover, 1.0, atol=1e-12)
        # even when the float cumsum saturates, the product-form leftover
        # keeps the strict inequality visible
        long_run = stick_breaking(0.5, 50, np.random.default_rng(32))
        assert long_run.leftover > 0.0

    def test_leftover_mass_expectation(self):
        # E[leftover] = (tau/(1+tau))^K; Var from E[(1-nu)^2]^K
        tau, K, reps = 5.0, 100, 4000
        rng = np.random.default_rng(33)
        leftovers = np.array([stick_breaking(tau, K, rng).leftover for _ in range(reps)])
        expected = (tau / (1 + tau)) ** K
        second = tau / (tau + 2.0)  # E[(1-nu)^2] for nu ~ Beta(1, tau)
        var = second**K - expected**2
        assert abs(expected - 1.2e-8) < 0.1e-8
        assert abs(leftovers.mean() - expected) < 3 * np.sqrt(var / reps)

    def test_crp_matches_truncated_stick_breaking(self):
        # cluster-count distributions agree for matched concentration
        tau, n_items, reps = 1.0, 30, 3000
        rng = np.random.default_rng(34)
        k_crp = np.array([crp_draw(n_items, tau, rng).max() + 1 for _ in range(reps)])
        k_stick = np.empty(reps, dtype=int)
        for r in range(reps):
            beta, leftover = stick_breaking(tau, 300, rng)
            z = rng.choice(300, size=n_items, p=beta / beta.sum())
            k_stick[r] = np.unique(z).size
        top = max(k_crp.max(), k_stick.max())
        bins = np.arange(1, top + 2)
        table = np.array(
            [np.histogram(k_crp, bins=bins)[0], np.histogram(k_stick, bins=bins)[0]]
        )
        table = table[:, table.sum(axis=0) >= 10]  # keep cells chi-square can handle
        _, p_value, _, _ = chi2_contingency(table)
        assert p_value > 0.005


class TestPanelTypes:
    def test_counts_must_be_nonnegative_integers(self):
        with pytest.raises(ValueError):
            CountPanel(counts=np.array([[1, -1]]), season_of=np.array([1, 1]))
        with pytest.raises(ValueError):
            CountPanel(counts=np.array([[0.5, 1.0]]), season_of=np.array([1, 1]))

    def test_season_codomain(self):
        with pytest.raises(ValueError):
            CountPanel(counts=np.array([[1, 2]]), season_of=np.array([0, 13]))

    def test_exposure_must_be_positive(self):
        with pytest.raises(ValueError):
            CountPanel(
                counts=np.array([[1, 2]]),
                season_of=np.array([1, 1]),
                exposure=np.array([0.0]),
            )

    def test_month_weeks_identities(self):
        season = FLAT_SEASONS[:208]
        panel = CountPanel(counts=np.ones((2, 208), dtype=np.int64), season_of=season)
        q = panel.month_weeks
        assert q.dtype == np.int64 and q.shape == (12,) and q.sum() == 208
        rng = np.random.default_rng(41)
        theta = rng.gamma(1.0, 1.0, 12)
        direct = theta[season - 1].sum()
        assert np.isclose(q @ theta, direct, rtol=1e-12)

    def test_month_weeks_follow_the_season_map(self):
        counts = np.ones((2, 30), dtype=np.int64)
        panel = CountPanel(counts=counts, season_of=FLAT_SEASONS[:30])
        assert panel.month_weeks.tolist() == [3] * 6 + [2] * 6
        # a replaced season map gets its own counts; equality and repr skip them
        moved = replace(panel, season_of=np.full(30, 2))
        assert moved.month_weeks.tolist() == [0, 30] + [0] * 10
        assert panel.month_weeks.tolist() == [3] * 6 + [2] * 6
        field = [f for f in fields(CountPanel) if f.name == "month_weeks"]
        assert len(field) == 1 and not field[0].init
        assert not field[0].compare and not field[0].repr
        assert "month_weeks" not in repr(panel)

    def test_model_exposure_is_unit_in_plain_mode(self):
        counts = np.ones((3, 12), dtype=np.int64)
        panel = CountPanel(counts=counts, season_of=FLAT_SEASONS[:12])
        assert model_exposure(panel, "plain").tolist() == [1.0, 1.0, 1.0]
        with pytest.raises(ConfigurationError, match="covariate mode requires an exposure"):
            model_exposure(panel, "covariate")
        exposed = replace(panel, exposure=np.array([0.5, 2.0, 4.0]))
        assert model_exposure(exposed, "covariate") is exposed.exposure
        assert model_exposure(exposed, "plain").tolist() == [1.0, 1.0, 1.0]

    def test_hyperparams_positive(self):
        with pytest.raises(ValueError):
            Hyperparams(gamma1=0.0)
        with pytest.raises(ValueError):
            Hyperparams(mode="other")
        assert Hyperparams.default("covariate").gamma1 == 0.5

    def test_model_state_invariants(self):
        state = ModelState(
            alpha=np.array([0.5, 0.5]),
            z=np.array([0, 2]),  # skips label 1
            phi_star=np.array([1.0, 2.0, 3.0]),
            theta=np.ones(12),
            tau=1.0,
        )
        with pytest.raises(AssertionError):
            state.validate()

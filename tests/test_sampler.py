"""Sampler steps against independent oracles and their stated conditionals."""

import copy
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from drawrows import assert_same_draws, draw_state, draws_from_states
from oracles import convolution_innovation_pmf, quadrature_log_marginal
from poinar.model import Hyperparams, ModelState, simulate_panel
from poinar.panel import CountPanel
from poinar.sampler import (
    INNOVATION_EXACT,
    INNOVATION_METROPOLIS,
    ConfigurationError,
    InnovationKernel,
    PosteriorDraws,
    SamplerConfig,
    SuffStats,
    concentration_mixture,
    innovation_pmf,
    innovation_support,
    log_innovation_total_marginal,
    run_chain,
    run_chains,
    sample_concentration,
    sample_innovation,
    sample_memberships,
    sample_seasonals,
    sample_thinnings,
    sample_unique_rates,
)

UNIT_THETA = np.ones(12)
SEASONS = np.tile(np.arange(1, 13), 20)


def small_panel(L=6, T=60, rates=(1.0, 4.0), alpha=0.4, seed=100, exposure=None):
    rng = np.random.default_rng(seed)
    z = np.arange(L) % len(rates)
    panel, truth = simulate_panel(
        np.asarray(rates, dtype=float), z, alpha, UNIT_THETA, SEASONS[:T], rng,
        exposure=exposure,
    )
    return panel, truth


class TestInnovationConditional:
    def test_zero_previous_forces_all_innovation(self):
        rng = np.random.default_rng(0)
        assert sample_innovation(0, 3, 0.7, 2.0, rng) == 3

    def test_zero_current_forces_zero(self):
        rng = np.random.default_rng(0)
        assert sample_innovation(2, 0, 0.7, 2.0, rng) == 0

    def test_symmetric_two_point_case(self):
        pmf = innovation_pmf(1, 1, 0.5, 1.0)
        assert np.allclose(pmf, [0.5, 0.5], atol=1e-14)

    def test_matches_convolution_oracle(self):
        for y_prev in (0, 1, 2, 5, 12):
            for y_curr in (0, 1, 3, 8, 12):
                for alpha in (0.1, 0.5, 0.9):
                    for rate in (0.5, 1.0, 5.0):
                        ours = innovation_pmf(y_prev, y_curr, alpha, rate)
                        oracle = convolution_innovation_pmf(y_prev, y_curr, alpha, rate)
                        assert np.abs(ours - oracle).max() < 1e-12

    def test_pmf_normalizes(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            y_prev = int(rng.integers(0, 20))
            y_curr = int(rng.integers(0, 20))
            pmf = innovation_pmf(y_prev, y_curr, rng.uniform(0, 1), rng.uniform(0.01, 10))
            assert abs(pmf.sum() - 1.0) < 1e-12
            lo, hi = innovation_support(y_prev, y_curr)
            assert pmf.shape == (hi - lo + 1,)

    def test_rate_domain(self):
        with pytest.raises(ValueError):
            innovation_pmf(1, 1, 0.5, 0.0)
        with pytest.raises(ValueError):
            sample_innovation(1, 1, 0.5, -1.0, np.random.default_rng(0))

    def test_sample_frequencies_match_pmf(self):
        rng = np.random.default_rng(6)
        y_prev, y_curr, alpha, rate = 5, 4, 0.4, 1.5
        pmf = innovation_pmf(y_prev, y_curr, alpha, rate)
        n = 100_000
        draws = np.array([sample_innovation(y_prev, y_curr, alpha, rate, rng) for _ in range(n)])
        lo, _ = innovation_support(y_prev, y_curr)
        for k, p in enumerate(pmf):
            observed = np.sum(draws == lo + k)
            assert abs(observed - n * p) < 3 * np.sqrt(n * p * (1 - p))

    def test_vectorized_update_respects_support_and_determinism(self):
        panel, truth = small_panel(L=8, T=80)
        counts = panel.counts
        alpha = np.full(8, 0.4)
        rates = np.tile(truth.phi_star[truth.z][:, None], (1, counts.shape[1] - 1))
        out1 = InnovationKernel(counts)(truth.innovations, alpha, rates,
                                        np.random.default_rng(42))
        out2 = InnovationKernel(counts)(truth.innovations, alpha, rates,
                                        np.random.default_rng(42))
        assert np.array_equal(out1, out2)
        lo = np.maximum(0, counts[:, 1:] - counts[:, :-1])
        assert np.all(out1[:, 1:] >= lo) and np.all(out1[:, 1:] <= counts[:, 1:])
        assert np.array_equal(out1[:, 0], counts[:, 0])

    def test_vectorized_update_matches_scalar_conditional(self):
        # one active cell replicated many times -> frequencies follow the pmf
        y_prev, y_curr, alpha, rate = 6, 5, 0.3, 2.0
        n = 60_000
        counts = np.tile([[y_prev, y_curr]], (n, 1))
        rates = np.full((n, 1), rate)
        eps0 = np.zeros_like(counts)
        out = InnovationKernel(counts)(eps0, np.full(n, alpha), rates,
                                       np.random.default_rng(7))
        draws = out[:, 1]
        pmf = innovation_pmf(y_prev, y_curr, alpha, rate)
        lo, _ = innovation_support(y_prev, y_curr)
        for k, p in enumerate(pmf):
            observed = np.sum(draws == lo + k)
            assert abs(observed - n * p) < 3.5 * np.sqrt(n * p * (1 - p))

    def test_metropolis_stationary_distribution(self):
        # large-count cell updated by MH must converge to the exact conditional
        y_prev, y_curr, alpha, rate = 40, 35, 0.6, 12.0
        counts = np.array([[y_prev, y_curr]])
        rates = np.array([[rate]])
        alpha_v = np.array([alpha])
        rng = np.random.default_rng(8)
        eps = np.array([[y_prev, max(0, y_curr - y_prev)]])
        kernel = InnovationKernel(counts, strategy=INNOVATION_METROPOLIS, mh_threshold=10)
        kept = []
        for sweep in range(30_000):
            eps = kernel(eps, alpha_v, rates, rng)
            if sweep >= 500:
                kept.append(eps[0, 1])
        kept = np.array(kept)
        pmf = innovation_pmf(y_prev, y_curr, alpha, rate)
        lo, hi = innovation_support(y_prev, y_curr)
        empirical = np.array([(kept == e).mean() for e in range(lo, hi + 1)])
        assert np.abs(empirical - pmf).sum() / 2 < 0.02  # total variation


class TestCollapsedMembershipWeights:
    def test_zero_total_reduces_to_prior_predictive(self):
        g1, g2, theta_total = 1.7, 0.3, 25.0
        value = np.exp(log_innovation_total_marginal(0, theta_total, g1, g2))
        assert np.isclose(value, (g2 / (theta_total + g2)) ** g1, rtol=1e-12)

    def test_matches_quadrature_randomized(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            s = int(rng.integers(0, 21))
            mass = rng.uniform(1.0, 50.0)
            shape = rng.uniform(0.5, 4.0)
            rate = rng.uniform(0.05, 2.0)
            ours = np.exp(log_innovation_total_marginal(s, mass, shape, rate))
            oracle = np.exp(quadrature_log_marginal(s, mass, shape, rate))
            assert abs(ours - oracle) / oracle < 1e-6

    def test_two_series_posterior_odds_match_quadrature(self):
        # pinned two-series instance: S = [3, 5], gamma = (1, 1), Theta = 10, tau = 1
        g1 = g2 = 1.0
        theta_total, tau = 10.0, 1.0
        s1, s2 = 3, 5
        # resampling z_2 with z_1 fixed: join weight n * p_{2,1}, split tau * p_{2,0}
        log_join = np.log(1.0) + log_innovation_total_marginal(
            s2, theta_total, g1 + s1, g2 + theta_total
        )
        log_split = np.log(tau) + log_innovation_total_marginal(s2, theta_total, g1, g2)
        ours = np.exp(log_split - log_join)
        oracle_join = quadrature_log_marginal(s2, theta_total, g1 + s1, g2 + theta_total)
        oracle_split = quadrature_log_marginal(s2, theta_total, g1, g2)
        oracle = np.exp(oracle_split - oracle_join)
        assert abs(ours - oracle) / oracle < 1e-6

    def test_vanishing_tau_never_opens_clusters(self):
        panel, truth = small_panel(L=6, T=60)
        state = copy.deepcopy(truth)
        state.z = np.zeros(6, dtype=int)
        state.phi_star = np.array([2.0])
        state.tau = 1e-290
        stats = SuffStats.from_state(state, panel)
        rng = np.random.default_rng(10)
        for _ in range(10):
            z, stats2 = sample_memberships(state, panel, stats, Hyperparams(), rng)
            assert z.max() == 0

    def test_sweep_compacts_and_keeps_stats_consistent(self):
        panel, truth = small_panel(L=10, T=80, rates=(0.5, 6.0))
        state = copy.deepcopy(truth)
        state.z = np.arange(10)  # every series its own cluster
        state.phi_star = np.full(10, 1.0)
        state.tau = 0.7
        stats = SuffStats.from_state(state, panel)
        z, stats = sample_memberships(state, panel, stats, Hyperparams(), np.random.default_rng(11))
        seen = np.unique(z)
        assert np.array_equal(seen, np.arange(seen.size))
        assert np.isclose(stats.B.sum(), stats.S.sum())
        assert stats.n.sum() == 10 and np.all(stats.n >= 1)
        assert np.allclose(
            stats.U, np.bincount(z, weights=stats.mass, minlength=seen.size)
        )

    def test_visit_order_leaves_stationary_distribution_unchanged(self):
        # run two short collapsed samplers over (z, phi) only, one sweeping in
        # natural order and one in a permuted order each sweep; the posterior
        # cluster-count histograms must agree
        panel, truth = small_panel(L=12, T=80, rates=(0.6, 5.0), seed=17)
        hyper = Hyperparams()
        stats0 = SuffStats.from_state(truth, panel)

        def run(order_rng_seed, permuted):
            rng = np.random.default_rng(order_rng_seed)
            state = copy.deepcopy(truth)
            state.tau = 1.0
            stats = stats0
            ks = []
            for sweep in range(3000):
                order = rng.permutation(12) if permuted else None
                state.z, stats = sample_memberships(state, panel, stats, hyper, rng, order=order)
                state.phi_star = sample_unique_rates(stats, hyper, rng)
                ks.append(state.phi_star.shape[0])
            return np.array(ks[200:])

        k_a = run(12, permuted=False)
        k_b = run(13, permuted=True)
        top = max(k_a.max(), k_b.max())
        bins = np.arange(1, top + 2)
        table = np.array([np.histogram(k_a, bins=bins)[0], np.histogram(k_b, bins=bins)[0]])
        table = table[:, table.sum(axis=0) >= 10]
        _, p_value, _, _ = chi2_contingency(table)
        assert p_value > 0.005


class TestConjugateUpdates:
    def test_unique_rate_posterior_means(self):
        rng = np.random.default_rng(20)
        hyper = Hyperparams(gamma1=1.0, gamma2=0.1)
        n_draws = 100_000
        for B_k, n_k, theta_total, expected in [
            (0.0, 1, 10.0, 1.0 / 10.1),
            (50.0, 5, 10.0, 51.0 / 50.1),
        ]:
            stats = SuffStats(
                S=np.array([B_k]), B=np.array([B_k]), n=np.array([n_k]),
                U=np.array([n_k * theta_total]), R=np.array([B_k]),
                theta_total=theta_total, mass=np.array([theta_total]),
            )
            draws = np.array([sample_unique_rates(stats, hyper, rng)[0] for _ in range(n_draws)])
            shape = B_k + hyper.gamma1
            rate = n_k * theta_total + hyper.gamma2
            assert np.isclose(shape / rate, expected, atol=5e-4)
            sigma = np.sqrt(shape) / rate / np.sqrt(n_draws)
            assert abs(draws.mean() - expected) < 3 * sigma

    def test_seasonal_posterior_no_innovations_month(self):
        # month 1 has q=4 occurrences, no innovations, sum(lambda)=2
        season = np.array([1, 1, 1, 1] + [2] * 4)
        counts = np.zeros((2, 8), dtype=int)
        counts[:, 4:] = 1
        panel = CountPanel(counts=counts, season_of=season)
        eps = counts.copy()
        state = ModelState(
            alpha=np.zeros(2), z=np.zeros(2, dtype=int), phi_star=np.array([1.0]),
            theta=np.ones(12), tau=1.0, innovations=eps,
        )
        hyper = Hyperparams(xi1=1.0, xi2=1.0)
        stats = SuffStats.from_state(state, panel)
        rng = np.random.default_rng(21)
        n_draws = 100_000
        draws = np.array([sample_seasonals(stats, state, panel, hyper, rng)[0] for _ in range(n_draws)])
        # Gamma(1, 4*2 + 1) -> mean 1/9
        sigma = 1.0 / 9.0 / np.sqrt(n_draws)
        assert abs(draws.mean() - 1.0 / 9.0) < 3 * sigma

    def test_seasonal_posterior_absent_month_is_prior(self):
        season = np.full(8, 2, dtype=int)  # month 1 never occurs
        counts = np.ones((2, 8), dtype=int)
        panel = CountPanel(counts=counts, season_of=season)
        state = ModelState(
            alpha=np.zeros(2), z=np.zeros(2, dtype=int), phi_star=np.array([1.0]),
            theta=np.ones(12), tau=1.0, innovations=counts.copy(),
        )
        hyper = Hyperparams(xi1=3.0, xi2=2.0)
        stats = SuffStats.from_state(state, panel)
        rng = np.random.default_rng(22)
        n_draws = 100_000
        draws = np.array([sample_seasonals(stats, state, panel, hyper, rng)[0] for _ in range(n_draws)])
        sigma = np.sqrt(3.0) / 2.0 / np.sqrt(n_draws)
        assert abs(draws.mean() - 1.5) < 3 * sigma  # Gamma(3, 2) prior mean

    def test_thinning_posterior_parameters(self):
        # y = [1, 1, 1] with eps_2 = eps_3 = 0 and flat prior -> Beta(3, 1)
        panel = CountPanel(counts=np.array([[1, 1, 1]]), season_of=np.array([1, 1, 1]))
        state = ModelState(
            alpha=np.array([0.5]), z=np.array([0]), phi_star=np.array([1.0]),
            theta=np.ones(12), tau=1.0, innovations=np.array([[1, 0, 0]]),
        )
        rng = np.random.default_rng(23)
        n_draws = 200_000
        draws = np.array([
            sample_thinnings(state, panel, Hyperparams(eta1=1.0, eta2=1.0), rng)[0]
            for _ in range(n_draws)
        ])
        mean, var = 0.75, 3.0 / (16.0 * 5.0)  # Beta(3, 1)
        assert abs(draws.mean() - mean) < 3 * np.sqrt(var / n_draws)

    def test_thinning_posterior_recount_oracle(self):
        panel, truth = small_panel(L=5, T=120, rates=(2.0, 3.0), alpha=0.6, seed=29)
        hyper = Hyperparams(eta1=1.5, eta2=2.5)
        y = panel.counts
        eps_tail = truth.innovations[:, 1:]
        survivors = (y[:, 1:] - eps_tail).sum(axis=1)
        removed = (y[:, :-1] - y[:, 1:] + eps_tail).sum(axis=1)
        assert np.all(survivors >= 0) and np.all(removed >= 0)
        rng = np.random.default_rng(30)
        n_draws = 50_000
        draws = np.stack([sample_thinnings(truth, panel, hyper, rng) for _ in range(n_draws)])
        a = survivors + hyper.eta1
        b = removed + hyper.eta2
        mean = a / (a + b)
        sigma = np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)) / n_draws)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * sigma)

    def test_concentration_mixture_weight(self):
        pi, hi, lo, rate = concentration_mixture(K=3, L=100, kappa=0.5, a_tau=2.0, b_tau=4.0)
        odds = (2.0 + 3 - 1) / (100 * (4.0 - np.log(0.5)))
        assert np.isclose(pi, odds / (1 + odds), rtol=1e-12)
        assert np.isclose(pi, 0.0084511, atol=1e-6)
        assert hi == 2.0 + 3 and lo == 2.0 + 3 - 1
        assert np.isclose(rate, 4.0 - np.log(0.5), rtol=1e-12)

    def test_concentration_draws_positive_finite(self):
        rng = np.random.default_rng(31)
        hyper = Hyperparams(a_tau=2.0, b_tau=4.0)
        tau = 1.0
        for _ in range(2000):
            tau = sample_concentration(K=5, L=40, tau_old=tau, hyper=hyper, rng=rng)
            assert np.isfinite(tau) and tau > 0


class TestChains:
    def test_same_seed_identical_draws(self):
        panel, _ = small_panel(L=6, T=60)
        config = SamplerConfig(n_iterations=60, burn_in=10, thin_interval=5, seed=77)
        a = run_chain(panel, config)
        b = run_chain(panel, config)
        assert len(a) == len(b) == config.draws_per_chain
        assert_same_draws(a, b)

    def test_distinct_chains_differ(self):
        panel, _ = small_panel(L=6, T=60)
        config = SamplerConfig(n_iterations=40, burn_in=10, thin_interval=5,
                               seed=5, n_chains=2)
        chains = run_chains(panel, config)
        assert len(chains) == 2
        assert not np.allclose(chains[0].alpha[-1], chains[1].alpha[-1])

    @pytest.mark.parametrize("strategy", [INNOVATION_EXACT, INNOVATION_METROPOLIS])
    def test_chains_share_one_kernel_and_draw_as_if_alone(self, strategy, monkeypatch):
        panel, _ = small_panel(L=6, T=60)
        config = SamplerConfig(n_iterations=20, burn_in=4, thin_interval=4, seed=5, n_chains=3,
                               innovation_strategy=strategy, metropolis_threshold=2,
                               keep_innovations=True)
        alone = [run_chain(panel, config, chain_index=c) for c in range(3)]
        built = []
        init = InnovationKernel.__init__
        monkeypatch.setattr(InnovationKernel, "__init__",
                            lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        shared = run_chains(panel, config)
        assert len(built) == 1
        for a, b in zip(alone, shared):
            assert a.innovations is not None
            assert_same_draws(a, b)

    def test_draws_keep_innovations_only_when_asked(self):
        panel, _ = small_panel(L=6, T=60)
        config = SamplerConfig(n_iterations=30, burn_in=10, thin_interval=5, seed=3)
        lean = run_chain(panel, config)
        full = run_chain(panel, replace(config, keep_innovations=True))
        assert len(lean) == len(full) == config.draws_per_chain
        assert lean.innovations is None
        assert full.innovations.shape == (len(full),) + panel.counts.shape
        assert np.all(full.innovations[:, :, 0] == panel.counts[:, 0])
        assert_same_draws(lean, replace(full, innovations=None))
        # each stored draw keeps its own sweep's matrix, not the last one
        assert not np.array_equal(full.innovations[0], full.innovations[-1])

    def test_draw_count_arithmetic(self):
        # the real-data protocol: 5 chains x 5000 sweeps, burn 1000, thin 50
        config = SamplerConfig(n_iterations=5000, burn_in=1000, thin_interval=50, n_chains=5)
        assert config.draws_per_chain == 80
        assert config.draws_per_chain * config.n_chains == 400
        # the simulation protocol: 1000 sweeps, burn 100, thin 5
        config = SamplerConfig(n_iterations=1000, burn_in=100, thin_interval=5)
        assert config.draws_per_chain == 180

    def test_recorded_iterations_and_chain_indices(self):
        panel, _ = small_panel(L=4, T=48, rates=(1.0, 2.0))
        config = SamplerConfig(n_iterations=30, burn_in=10, thin_interval=4, seed=2)
        draws = run_chain(panel, config, chain_index=3)
        assert list(draws.iteration) == [14, 18, 22, 26, 30]
        assert np.all(draws.chain_index == 3)

    def test_validated_sweeps_hold_invariants(self):
        panel, _ = small_panel(L=6, T=60)
        config = SamplerConfig(n_iterations=40, burn_in=5, thin_interval=5,
                               seed=3, validate_sweeps=True)
        run_chain(panel, config)  # validate() raises on any violation

    def test_covariate_mode_requires_exposure(self):
        panel, _ = small_panel(L=4, T=48, rates=(1.0, 2.0))
        config = SamplerConfig(hyper=Hyperparams.default("covariate"))
        with pytest.raises(ConfigurationError):
            run_chain(panel, config)

    def test_covariate_mode_runs_and_validates(self):
        exposure = np.array([0.5, 1.0, 2.0, 4.0, 1.5, 0.8])
        panel, _ = small_panel(L=6, T=60, exposure=exposure)
        config = SamplerConfig(
            n_iterations=40, burn_in=10, thin_interval=5, seed=4,
            hyper=Hyperparams.default("covariate"), validate_sweeps=True,
        )
        draws = run_chain(panel, config)
        assert draws.mode == "covariate"
        assert len(draws) == config.draws_per_chain

    def test_covariate_mode_recovers_per_exposure_clusters(self):
        # exposures vary 8x across series; clustering must land on the
        # per-exposure rates, not the raw rates
        rng = np.random.default_rng(42)
        L = 24
        z_true = np.repeat([0, 1], L // 2)
        exposure = rng.uniform(0.5, 4.0, L)
        panel, truth = simulate_panel(
            np.array([0.4, 2.0]), z_true, 0.4, UNIT_THETA, SEASONS[:208], rng,
            exposure=exposure,
        )
        config = SamplerConfig(
            n_iterations=400, burn_in=100, thin_interval=5, seed=5,
            hyper=Hyperparams.default("covariate"),
        )
        draws = run_chain(panel, config)
        from poinar.diagnostics import (
            cluster_count_histogram,
            hamming_error,
            representative_assignment,
        )

        assert cluster_count_histogram(draws).mode == 2
        assert hamming_error(representative_assignment(draws), z_true) < 0.1
        psi = np.take_along_axis(draws.phi_star, draws.z, axis=1).mean(axis=0)
        assert abs(psi[z_true == 0].mean() - 0.4) < 0.15
        assert abs(psi[z_true == 1].mean() - 2.0) < 0.4

    def test_concat_preserves_chain_identity(self):
        panel, _ = small_panel(L=4, T=48, rates=(1.0, 2.0))
        config = SamplerConfig(n_iterations=30, burn_in=10, thin_interval=5, n_chains=2)
        merged = PosteriorDraws.concat(run_chains(panel, config))
        assert sorted(np.unique(merged.chain_index)) == [0, 1]
        assert len(merged.rate_sum_traces()) == 2

    def test_concat_pads_draws_of_any_cluster_count(self):
        def draw(K, eps):
            return ModelState(alpha=np.full(4, 0.5), z=np.arange(4) % K,
                              phi_star=np.arange(1.0, K + 1), theta=np.ones(12), tau=1.0,
                              innovations=eps)

        eps = np.ones((4, 3), dtype=np.int64)
        one = draws_from_states([draw(1, eps), draw(3, eps)])
        two = draws_from_states([draw(4, eps)], chain_index=[1])
        merged = PosteriorDraws.concat([one, two])
        assert merged.n_clusters.tolist() == [1, 3, 4]
        assert np.array_equal(merged.phi_star, [[1, np.nan, np.nan, np.nan],
                                                [1, 2, 3, np.nan], [1, 2, 3, 4]], equal_nan=True)
        assert np.array_equal(merged.stacked()[1], [[1, 1, 1, 1], [1, 2, 3, 1], [1, 2, 3, 4]])
        assert merged.chain_index.tolist() == [0, 0, 1]
        assert merged.innovations.shape == (3, 4, 3)
        with pytest.raises(ValueError, match="with and without innovations"):
            PosteriorDraws.concat([one, draws_from_states([draw(2, None)])])

    def test_suffstats_match_independent_recount(self):
        # plain-loop recount of every sufficient statistic on recorded sweeps
        panel, _ = small_panel(L=6, T=60)
        config = SamplerConfig(n_iterations=30, burn_in=10, thin_interval=5, seed=8,
                               keep_innovations=True)
        draws = run_chain(panel, config)
        for state in (draw_state(draws, d) for d in range(len(draws))):
            stats = SuffStats.from_state(state, panel)
            L, T = panel.counts.shape
            S = [sum(int(state.innovations[l, t]) for t in range(T)) for l in range(L)]
            R = [sum(int(state.innovations[l, t]) for l in range(L)) for t in range(T)]
            K = state.n_clusters
            B = [sum(S[l] for l in range(L) if state.z[l] == k) for k in range(K)]
            n = [sum(1 for l in range(L) if state.z[l] == k) for k in range(K)]
            theta_total = sum(state.theta[panel.season_of[t] - 1] for t in range(T))
            assert np.array_equal(stats.S, S)
            assert np.array_equal(stats.R, R)
            assert np.allclose(stats.B, B, rtol=1e-12)
            assert np.array_equal(stats.n, n)
            assert np.isclose(stats.theta_total, theta_total, rtol=1e-12)
            assert np.allclose(stats.U, np.array(n) * stats.theta_total, rtol=1e-12)

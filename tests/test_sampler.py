"""Sampler steps against independent oracles and their stated conditionals."""

import copy
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2_contingency

import oracles
from drawrows import assert_same_draws, draw_state, draws_from_states
from oracles import (
    convolution_innovation_pmf,
    innovation_pmf,
    innovation_support,
    quadrature_log_marginal,
)
from poinar import model, sampler
from poinar.harness import Scenario, scenario_by_name, simulate_scenario
from poinar.model import (
    MODE_COVARIATE,
    MODE_PLAIN,
    Hyperparams,
    ModelState,
    simulate_panel,
    simulate_poinar,
)
from poinar.panel import CountPanel, innovation_bounds
from poinar.sampler import (
    ConfigurationError,
    InnovationKernel,
    LogGammaTable,
    PosteriorDraws,
    SamplerConfig,
    SuffStats,
    concentration_mixture,
    log_innovation_total_marginal,
    run_chain,
    run_chains,
    sample_concentration,
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


def desk_with_outlier(lam: float) -> np.ndarray:
    """Desk easy-0.9 (40 x 208) and one INAR(1) series at thinning 0.5 and
    innovation rate ``lam``, whose counts sit near 2 lam."""
    desk = simulate_scenario(replace(scenario_by_name("easy-0.9"), L=40), sampler.stream(1, 0))[0]
    outlier = simulate_poinar(lam, 0.5, UNIT_THETA, desk.season_of, np.random.default_rng(0))
    return np.vstack([desk.counts, outlier])


def traced_kernel_peak(counts: np.ndarray, **kwargs) -> int:
    """The tracemalloc peak, in bytes, of building an ``InnovationKernel``
    on ``counts`` and running its first call."""
    rng = np.random.default_rng(5)
    alpha = rng.uniform(0.2, 0.8, counts.shape[0])
    rates = np.maximum(counts[:, 1:], 1) * rng.uniform(0.3, 0.7, counts[:, 1:].shape)
    tracemalloc.start()
    try:
        InnovationKernel(counts, **kwargs)(counts, alpha, rates, rng)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def kernel_draws(counts, alpha, rates, seed=0):
    """One ``InnovationKernel`` update of ``counts`` from zero innovations."""
    counts = np.asarray(counts)
    return InnovationKernel(counts)(np.zeros_like(counts), np.asarray(alpha, dtype=float),
                                    np.asarray(rates, dtype=float), np.random.default_rng(seed))


class TestInnovationConditional:
    def test_zero_previous_forces_all_innovation(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        out = InnovationKernel(np.array([[0, 3, 0, 2]]))(
            np.zeros((1, 4), dtype=np.int64), np.array([0.7]), np.full((1, 3), 2.0), rng)
        assert out.tolist() == [[0, 3, 0, 2]]
        assert rng.bit_generator.state == before  # no randomness needed

    def test_zero_current_forces_zero(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        out = InnovationKernel(np.array([[2, 0, 4, 0]]))(
            np.ones((1, 4), dtype=np.int64), np.array([0.7]), np.full((1, 3), 2.0), rng)
        assert out.tolist() == [[2, 0, 4, 0]]
        assert rng.bit_generator.state == before

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
        # a rate of 0 puts every cell at the lowest point of its support,
        # the rate -> 0 limit of the conditional
        counts = np.array([[3, 2, 5, 5, 0], [1, 4, 4, 2, 2]])
        with np.errstate(divide="ignore", invalid="ignore"):  # log(0), then -inf - -inf
            out = kernel_draws(counts, [0.5, 0.5], np.zeros((2, 4)))
        assert out.tolist() == [[3, 0, 3, 0, 0], [1, 3, 0, 0, 0]]

    def test_sample_frequencies_match_pmf(self):
        y_prev, y_curr, alpha, rate = 5, 4, 0.4, 1.5
        pmf = innovation_pmf(y_prev, y_curr, alpha, rate)
        n = 100_000
        draws = kernel_draws(np.tile([[y_prev, y_curr]], (n, 1)), np.full(n, alpha),
                             np.full((n, 1), rate), seed=6)[:, 1]
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

    def test_wide_buckets_draw_from_the_exact_pmf(self):
        # after a call, each exact cell draws from its bucket's running sums
        # over their total: a row-wise bucket of 200 cells with 300 to 384
        # support values, and a column-wise one of 6 cells with 385 to 400
        rng = np.random.default_rng(10)
        counts = np.vstack([rng.integers(299, 384, (100, 3)), rng.integers(384, 400, (3, 3))])
        counts[-1] = 399
        T = counts.shape[1]
        alpha = rng.uniform(0.05, 0.95, counts.shape[0])
        rates = rng.lognormal(np.log(100.0), 1.0, (counts.shape[0], T - 1))
        kernel = InnovationKernel(counts)
        # the buckets share their work grid, so each bucket's running sums
        # are read right after its own draw
        work = []
        for bucket in kernel.buckets:
            def draw(*args, bucket=bucket, draw=bucket.draw):
                draw(*args)
                work.append(bucket._logw.copy())
            bucket.draw = draw
        kernel(np.zeros_like(counts), alpha, rates, np.random.default_rng(11))
        assert [(b.row_wise, w.shape) for b, w in zip(kernel.buckets, work)] == [
            (True, (int(np.minimum(counts[:100, 1:], counts[:100, :-1]).max()) + 1, 200)),
            (False, (400, 6)),
        ]
        for bucket, grid in zip(kernel.buckets, work):
            for column, cell in enumerate(range(kernel.rows.size)[bucket.cells]):
                l, t = divmod(int(kernel.at[cell]), T - 1)
                pmf = innovation_pmf(int(counts[l, t]), int(counts[l, t + 1]), alpha[l],
                                     rates[l, t])
                sums = grid[: pmf.size, column]
                assert np.abs(np.diff(sums, prepend=0.0) / sums[-1] - pmf).max() < 1e-12

    def test_metropolis_stationary_distribution(self):
        # large-count cell updated by MH must converge to the exact conditional
        y_prev, y_curr, alpha, rate = 40, 35, 0.6, 12.0
        counts = np.array([[y_prev, y_curr]])
        rates = np.array([[rate]])
        alpha_v = np.array([alpha])
        rng = np.random.default_rng(8)
        eps = np.array([[y_prev, max(0, y_curr - y_prev)]])
        kernel = InnovationKernel(counts, mh_threshold=10)
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

    def test_metropolis_move_restarts_from_other_counts(self):
        # the move keeps its current cells' log-factorials across calls; a
        # kernel shared by chains must draw a new chain's first call as a
        # fresh kernel would
        rng = np.random.default_rng(5)
        counts = rng.poisson(60.0, (4, 50))
        alpha, rates = rng.uniform(0.2, 0.8, 4), rng.uniform(20.0, 40.0, (4, 49))
        start = innovation_bounds(counts)[0]
        fresh = InnovationKernel(counts, mh_threshold=30)
        first = fresh(start, alpha, rates, np.random.default_rng(3))
        shared = InnovationKernel(counts, mh_threshold=30)
        second = shared(shared(start, alpha, rates, np.random.default_rng(3)),
                        alpha, rates, np.random.default_rng(4))
        assert not np.array_equal(second, start)
        assert np.array_equal(shared(start, alpha, rates, np.random.default_rng(3)), first)


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

    @staticmethod
    def visit_log_weights(module, sweep, *args, **kwargs):
        """``sweep(*args, **kwargs)`` and the argument of every ``np.exp``
        call in ``module`` while it runs: one array of max-shifted
        log-weights per visit."""
        recorded = []

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x, *rest):
                recorded.append(np.array(x, copy=True))
                return np.exp(x, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "np", Numpy())
            return sweep(*args, **kwargs), recorded

    @pytest.mark.parametrize("mode", [MODE_PLAIN, MODE_COVARIATE])
    @pytest.mark.parametrize("gamma1", [1.0, 0.3, 1 / 3])
    def test_visit_log_weights_match_the_list_sweep_bit_for_bit(self, mode, gamma1):
        # two sweeps from 60 singletons, the second from the clusters the
        # first left and on the table it grew. At 1/3, table entries
        # gammaln(N + 1/3) in place of gammaln((B + 1/3) + s) would change
        # about half of these weights (at 0.3 none), so only the sweep's
        # gammaln keeps them equal.
        rng = np.random.default_rng(12)
        L, T = 60, 8
        eps = rng.poisson(rng.uniform(0.0, 40.0, (L, 1)), (L, T))
        eps[rng.random(L) < 0.2] = 0
        exposure = rng.uniform(0.2, 5.0, L) if mode == MODE_COVARIATE else None
        panel = CountPanel(counts=eps, season_of=rng.integers(1, 13, T), exposure=exposure)
        state = ModelState(alpha=np.full(L, 0.5), z=np.arange(L), phi_star=np.ones(L),
                           theta=rng.gamma(2.0, 0.5, 12), tau=1.5, innovations=eps)
        hyper = Hyperparams(gamma1=gamma1, gamma2=0.5, mode=mode)
        table = LogGammaTable(gamma1)
        ours = theirs = (state.z, SuffStats.from_state(state, panel, mode))
        for seed in (1, 2):
            ours, got = self.visit_log_weights(
                sampler, sample_memberships, replace(state, z=ours[0]), panel, ours[1], hyper,
                np.random.default_rng(seed), log_gamma=table)
            theirs, want = self.visit_log_weights(
                oracles, oracles.list_sample_memberships, replace(state, z=theirs[0]), panel,
                theirs[1], hyper, np.random.default_rng(seed))
            assert len(got) == len(want) == L
            differ = [i for i, (g, w) in enumerate(zip(got, want)) if g.tobytes() != w.tobytes()]
            assert not differ, f"sweep {seed}: visits {differ[:5]} weigh differently"
        assert 1 < ours[1].n.size < L


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


class TestKernelMemoryGuard:
    def test_refused_before_anything_sized_by_the_counts(self):
        # one series near 10^7 over 4000 weeks: its exact grids would take
        # about 1.2 TiB, and its log-factorial table alone 80 MB
        counts = np.random.default_rng(0).poisson(1e7, (1, 4000))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError,
                               match=r"series 'big' has the widest support.*"
                                     r"Pass --metropolis-threshold N"):
                InnovationKernel(counts, series_ids=["big"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_estimate_counts_the_built_grids(self, monkeypatch):
        panel, _ = small_panel(L=6, T=60)
        counts = panel.counts.copy()
        counts[2, 10:14] = 40  # a wide bucket of its own
        kernel = InnovationKernel(counts)
        grids = [b.logw0.size for b in kernel.buckets]
        assert {b.row_wise for b in kernel.buckets} == {True, False}
        # the log-factorial table runs to the largest count beside an active week
        lo, hi = innovation_bounds(counts)
        active = hi[:, 1:] > lo[:, 1:]
        top = np.maximum(counts[:, 1:], counts[:, :-1])[active].max()
        needed = (sampler._GRID_BYTES * sum(grids) + sampler._SHARED_BYTES * max(grids)
                  + sampler._STEP_BYTES * sum(b.logw0.shape[0] for b in kernel.buckets
                                              if b.row_wise)
                  + sampler._TABLE_BYTES * (int(top) + 2)
                  + sampler._CELL_BYTES * kernel.rows.size + sampler._ENTRY_BYTES * counts.size)
        monkeypatch.setattr(model, "physical_memory", lambda: needed)
        InnovationKernel(counts)
        monkeypatch.setattr(model, "physical_memory", lambda: needed - 1)
        with pytest.raises(ConfigurationError, match="series in row 2 has the widest"):
            InnovationKernel(counts)

    def test_metropolis_kernel_builds_no_table_for_its_own_weeks(self):
        # every week of a 1 x 4000 panel near 10^7 takes the Metropolis
        # move, which computes its log-factorials cell by cell: no 80 MB
        # table, whose build peaked at twice its size
        counts = np.random.default_rng(0).poisson(1e7, (1, 4000))
        rng = np.random.default_rng(1)
        eps = np.minimum(counts, rng.poisson(1e6, counts.shape))
        tracemalloc.start()
        try:
            kernel = InnovationKernel(counts, mh_threshold=30)
            kernel(eps, np.array([0.9]), np.full((1, 3999), 1e6), rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not kernel.buckets
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("shape", ["narrow", "outlier", "metropolis"])
    def test_memory_estimate_covers_the_traced_peak(self, monkeypatch, shape):
        # many narrow cells (a 2000 x 208 low-count panel: index arrays
        # lead), one wide outlier series (its grids lead), and a Metropolis
        # panel whose weeks of counts at most 30 are enumerated exactly
        if shape == "narrow":
            scenario = Scenario(name="wide", cluster_rates=(0.3, 0.8, 1.5, 3.0), thinning=0.3,
                                L=2000, T=208)
            counts, kwargs = simulate_scenario(scenario, sampler.stream(1, 0))[0].counts, {}
        else:
            counts = desk_with_outlier(1000.0)
            kwargs = {"mh_threshold": 30} if shape == "metropolis" else {}
        estimates = []
        monkeypatch.setattr(sampler, "refuse_over_memory",
                            lambda needed, what, cause: estimates.append(needed))
        peak = traced_kernel_peak(counts, **kwargs)
        assert len(estimates) == 1 and peak <= estimates[0]

    def test_outlier_series_memory_follows_one_float_per_grid_cell(self):
        # one series near 20,000 has about 4.2 million grid cells: 34 MB of
        # log-weights and as much again of the shared work grid. Keeping a
        # multiplier grid and work grids per bucket traced 155 MiB.
        counts = desk_with_outlier(10_000.0)
        assert 19_000 < counts[-1].max() < 22_000
        assert traced_kernel_peak(counts) < 110 * 2**20

    @pytest.mark.parametrize("mh_threshold", [None, 30],
                             ids=["exact-enumeration", "metropolis-poisson"])
    def test_table_beside_a_large_count_refused(self, mh_threshold):
        # a drop from 10^12 to 3: the week of 3 is enumerated exactly with
        # or without the Metropolis move, and its survivors' log-factorials
        # reach 10^12
        counts = np.array([[10**12, 3, 2, 4, 1]])
        tail = ("Pass --metropolis-threshold N" if mh_threshold is None
                else "Lower --metropolis-threshold")
        with pytest.raises(ConfigurationError,
                           match=r"log-factorial table.*series 'drop' has a count of "
                                 rf"1000000000000 next to an exactly enumerated week\. {tail}"):
            InnovationKernel(counts, mh_threshold, series_ids=["drop"])


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

    @pytest.mark.parametrize("threshold", [None, 2],
                             ids=["exact-enumeration", "metropolis-poisson"])
    def test_chains_share_one_kernel_and_draw_as_if_alone(self, threshold, monkeypatch):
        panel, _ = small_panel(L=6, T=60)
        config = SamplerConfig(n_iterations=20, burn_in=4, thin_interval=4, seed=5, n_chains=3,
                               metropolis_threshold=threshold,
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

    @staticmethod
    def validate_every_sweep(monkeypatch) -> list:
        """Make ``run_chain`` check the state and the statistics after each
        sweep; returns the list that collects one entry per checked sweep."""
        checked = []
        sweep = sampler.sweep

        def validating(state, panel, *args):
            stats = sweep(state, panel, *args)
            state.validate(panel)  # raises on any violation
            stats.validate()
            checked.append(state.n_clusters)
            return stats

        monkeypatch.setattr(sampler, "sweep", validating)
        return checked

    def test_validated_sweeps_hold_invariants(self, monkeypatch):
        panel, _ = small_panel(L=6, T=60)
        config = SamplerConfig(n_iterations=40, burn_in=5, thin_interval=5, seed=3)
        checked = self.validate_every_sweep(monkeypatch)
        run_chain(panel, config)
        assert len(checked) == 40

    def test_settings_that_keep_no_draws_rejected(self):
        with pytest.raises(ConfigurationError, match="keep no draws"):
            SamplerConfig(n_iterations=20, burn_in=10, thin_interval=20)
        assert SamplerConfig(n_iterations=20, burn_in=10, thin_interval=10).draws_per_chain == 1

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence takes no negative entropy
        with pytest.raises(ConfigurationError, match="seed"):
            SamplerConfig(seed=-1)

    # simulation, chains 0 and 3, and study scenario 2's replicates 0 and 1
    # (perfbench builds the (0,) and (0, i, 0) streams itself)
    @pytest.mark.parametrize("key", [(0,), (1, 0), (1, 3), (0, 2, 0), (0, 2, 1), (2, 2, 1)])
    def test_stream_is_the_spawn_key_sequence(self, key):
        raw = np.random.default_rng(np.random.SeedSequence(entropy=11, spawn_key=key))
        assert sampler.stream(11, *key).bit_generator.state == raw.bit_generator.state

    def test_chain_draws_from_stream_one(self):
        panel, _ = small_panel(L=6, T=60)
        config = SamplerConfig(n_iterations=30, burn_in=10, thin_interval=5, seed=11)
        raw = np.random.default_rng(np.random.SeedSequence(entropy=11, spawn_key=(1, 2)))
        assert_same_draws(run_chain(panel, config, chain_index=2),
                          run_chain(panel, config, rng=raw, chain_index=2))

    def test_covariate_mode_requires_exposure(self):
        panel, _ = small_panel(L=4, T=48, rates=(1.0, 2.0))
        config = SamplerConfig(hyper=Hyperparams.default("covariate"))
        with pytest.raises(ConfigurationError):
            run_chain(panel, config)

    def test_covariate_mode_runs_and_validates(self, monkeypatch):
        exposure = np.array([0.5, 1.0, 2.0, 4.0, 1.5, 0.8])
        panel, _ = small_panel(L=6, T=60, exposure=exposure)
        config = SamplerConfig(
            n_iterations=40, burn_in=10, thin_interval=5, seed=4,
            hyper=Hyperparams.default("covariate"),
        )
        checked = self.validate_every_sweep(monkeypatch)
        draws = run_chain(panel, config)
        assert len(checked) == 40
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

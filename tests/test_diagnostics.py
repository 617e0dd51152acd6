"""PSRF, clustering comparison and forecast metrics."""

import numpy as np
import pytest

from oracles import exhaustive_min_hamming
from poinar.diagnostics import (
    cluster_count_histogram,
    forecast_metrics,
    hamming_error,
    psrf,
    representative_assignment,
)
from poinar.model import ModelState
from poinar.sampler import PosteriorDraws


def _draws_from_memberships(zs, chains=None, iterations=None):
    states = [
        ModelState(
            alpha=np.zeros(len(z)), z=np.asarray(z), phi_star=np.ones(int(np.max(z)) + 1),
            theta=np.ones(12), tau=1.0,
        )
        for z in zs
    ]
    n = len(states)
    return PosteriorDraws(
        states=states,
        chain_index=np.zeros(n, dtype=int) if chains is None else np.asarray(chains),
        iteration=np.arange(n) if iterations is None else np.asarray(iterations),
    )


class TestPsrf:
    def test_identical_chains(self):
        chain = np.arange(10.0)
        assert psrf([chain, chain.copy()]) == pytest.approx(np.sqrt(9 / 10), abs=1e-12)

    def test_equal_means_different_phase(self):
        a = np.tile([0.0, 1.0], 8)
        b = np.tile([1.0, 0.0], 8)
        assert psrf([a, b]) == pytest.approx(np.sqrt(15 / 16), abs=1e-12)

    def test_degenerate_cases(self):
        assert psrf([np.ones(5), np.ones(5)]) == 1.0
        assert psrf([np.zeros(5), np.ones(5)]) == float("inf")

    def test_lower_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            chains = [rng.normal(size=n) for _ in range(int(rng.integers(2, 6)))]
            assert psrf(chains) >= np.sqrt((n - 1) / n) - 1e-12

    def test_diverged_chains_flagged_large(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, 200)
        b = rng.normal(25.0, 1.0, 200)
        assert psrf([a, b]) > 5.0

    def test_leading_axes_match_scalar_calls(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 3, 3, 20))  # (params..., chains, draws)
        batched = psrf(x)
        assert batched.shape == (4, 3)
        for i in range(4):
            for j in range(3):
                assert batched[i, j] == psrf(list(x[i, j]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            psrf([np.ones(5)])
        with pytest.raises(ValueError):
            psrf([np.ones(5), np.ones(6)])


class TestHamming:
    def test_identical(self):
        z = np.array([0, 1, 1, 2, 0])
        assert hamming_error(z, z) == 0.0

    def test_permuted_relabel(self):
        z = np.array([0, 1, 1, 2, 0, 2])
        relabeled = np.array([2, 0, 0, 1, 2, 1])
        assert hamming_error(relabeled, z) == 0.0

    def test_single_mismatch_fraction(self):
        z = np.repeat(np.arange(4), 25)
        z_est = z.copy()
        z_est[0] = 3
        assert hamming_error(z_est, z) == pytest.approx(0.01)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            L = int(rng.integers(5, 30))
            z_est = rng.integers(0, rng.integers(2, 6), L)
            z_true = rng.integers(0, rng.integers(2, 6), L)
            assert hamming_error(z_est, z_true) == pytest.approx(
                exhaustive_min_hamming(z_est, z_true), abs=1e-12
            )

    def test_symmetry_and_label_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            L = int(rng.integers(6, 25))
            a = rng.integers(0, 4, L)
            b = rng.integers(0, 5, L)
            assert hamming_error(a, b) == pytest.approx(hamming_error(b, a), abs=1e-12)
            perm = rng.permutation(5)
            assert hamming_error(perm[b], a) == pytest.approx(
                hamming_error(b, a), abs=1e-12
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_error(np.zeros(3, dtype=int), np.zeros(4, dtype=int))


class TestRepresentativeAssignment:
    def test_all_identical(self):
        z = np.array([0, 0, 1, 1])
        draws = _draws_from_memberships([z, z, z])
        assert np.array_equal(representative_assignment(draws), z)

    def test_majority_wins(self):
        common = np.array([0, 0, 1, 1])
        lone = np.array([0, 1, 2, 3])
        draws = _draws_from_memberships([common, lone, common])
        assert np.array_equal(representative_assignment(draws), common)

    def test_tie_break_earliest_chain_iteration(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 0, 1])  # equally far from each other
        draws = _draws_from_memberships([b, a], chains=[1, 0], iterations=[5, 9])
        assert np.array_equal(representative_assignment(draws), a)  # chain 0 first

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            representative_assignment(_draws_from_memberships([]))


class TestClusterCountHistogram:
    def test_mode(self):
        zs = [np.arange(k) for k in (4, 4, 4, 5)]
        hist = cluster_count_histogram(_draws_from_memberships(zs))
        assert hist.mode == 4
        assert hist.freqs == {4: 0.75, 5: 0.25}

    def test_point_mass(self):
        hist = cluster_count_histogram(_draws_from_memberships([np.array([0, 1])]))
        assert hist.freqs == {2: 1.0}
        assert hist.mode == 2


class TestForecastMetrics:
    def test_perfect_predictions(self):
        report = forecast_metrics([1.0, 2.0], [1.0, 2.0], [1, 2])
        assert report.rmse == 0.0 and report.bias == 0.0

    def test_constant_offset(self):
        truth = np.array([1.0, 2.0, 3.0])
        report = forecast_metrics(truth + 1.0, truth, [0, 1, 2])
        assert report.bias == pytest.approx(1.0)
        assert report.rmse == pytest.approx(1.0)

    def test_ape_single(self):
        report = forecast_metrics([2.0], [1.0], [1])
        assert report.ape == pytest.approx(1.0)

    def test_zero_truths_skipped(self):
        report = forecast_metrics([1.0, 3.0], [0.0, 2.0], [0, 2])
        assert report.n_zero_truth == 1
        assert report.ape == pytest.approx(0.5)

    def test_frequencies_sum_to_one_and_bucket_cap(self):
        rng = np.random.default_rng(4)
        last = rng.integers(0, 9, 500)
        pred = rng.normal(size=500)
        truth = rng.normal(size=500)
        report = forecast_metrics(pred, truth, last, bucket_cap=4)
        assert report.frequencies_sum() == pytest.approx(1.0, abs=1e-12)
        assert set(report.by_last_value) <= {0, 1, 2, 3, 4}
        pooled = report.by_last_value[4]
        assert pooled.n == int(np.sum(last >= 4))

    def test_rmse_decomposition(self):
        rng = np.random.default_rng(5)
        err = rng.normal(0.3, 1.1, 400)
        truth = rng.poisson(2.0, 400).astype(float)
        report = forecast_metrics(truth + err, truth, np.zeros(400, dtype=int))
        # mean(e^2) = mean(e)^2 + population variance of e, exactly
        assert report.rmse**2 == pytest.approx(report.bias**2 + err.var(), rel=1e-12)

    def test_standard_errors(self):
        report = forecast_metrics([1.0, 2.0, 4.0], [1.5, 2.5, 3.0], [0, 0, 1])
        b0 = report.by_last_value[0]
        assert b0.n == 2 and np.isfinite(b0.rmse_se) and np.isfinite(b0.bias_se)
        b1 = report.by_last_value[1]
        assert b1.n == 1 and np.isnan(b1.bias_se)  # a lone point has no spread

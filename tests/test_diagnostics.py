"""PSRF, clustering comparison and forecast metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drawrows import draws_from_states
from oracles import (
    add_at_hamming_error,
    add_at_mismatches,
    exhaustive_min_hamming,
    pairwise_mean_distances,
    pairwise_representative_assignment,
    per_draw_hamming_mean,
)
from poinar.diagnostics import (
    cluster_count_histogram,
    distinct_partitions,
    forecast_metrics,
    hamming_error,
    mean_hamming_error,
    psrf,
    representative_assignment,
)
from poinar import diagnostics
from poinar.harness import Scenario, simulate_scenario
from poinar.model import ModelState
from poinar.sampler import PosteriorDraws, SamplerConfig, run_chain


def _draws_from_memberships(zs, chains=None, iterations=None):
    states = [
        ModelState(
            alpha=np.zeros(len(z)), z=np.asarray(z), phi_star=np.ones(int(np.max(z)) + 1),
            theta=np.ones(12), tau=1.0,
        )
        for z in zs
    ]
    return draws_from_states(states, chains, iterations)


def _draws_from_label_rows(zs, chains, iterations):
    """Draws holding only the given membership rows, whatever their labels."""
    z = np.array(zs, dtype=np.int64)
    D, L = z.shape
    return PosteriorDraws(
        alpha=np.zeros((D, L)), z=z, phi_star=np.full((D, L), np.nan),
        n_clusters=np.array([np.unique(row).size for row in z]), theta=np.ones((D, 12)),
        tau=np.ones(D), chain_index=np.array(chains), iteration=np.array(iterations),
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

    def test_empty_input_named(self):
        with pytest.raises(ValueError, match="empty"):
            hamming_error([], [])

    @given(
        data=st.data(),
        L=st.integers(1, 40),
        labels=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=8, unique=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_bincount_table_matches_add_at_table(self, data, L, labels):
        # arbitrary, sparse and negative labels factorize to the same table
        pick = st.lists(st.sampled_from(labels), min_size=L, max_size=L)
        a = np.array(data.draw(pick))
        b = np.array(data.draw(pick))
        assert hamming_error(a, b) == add_at_hamming_error(a, b)


@st.composite
def membership_pairs(draw):
    """Two labelings of up to 1600 series with up to 800 labels a side,
    either side the larger. They agree on a drawn share of the series, or
    the second merges a block of the first's labels into one, so those rows
    of the table share no member with any other column and all but one
    must be matched to a zero cell."""
    L = draw(st.integers(1, 1600))
    k_a = draw(st.integers(1, min(L, 800)))
    k_b = draw(st.integers(1, min(L, 800)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.permutation(np.arange(L) % k_a)
    kind = draw(st.sampled_from(["agree", "merge"]))
    if kind == "agree":
        agree = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
        b = np.where(rng.random(L) < agree, a % k_b, rng.permutation(np.arange(L) % k_b))
    else:
        b = np.where(a < draw(st.integers(1, k_a)), -1, rng.permutation(np.arange(L) % k_b))
    return (b, a) if draw(st.booleans()) else (a, b)


def _factorized(a, b):
    return (*diagnostics._factorize(a), *diagnostics._factorize(b))


class TestSparseAssignment:
    @given(membership_pairs())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_assignment_on_both_sides_of_the_crossover(self, pair):
        a, b = pair
        expected = add_at_mismatches(a, b)
        inv_a, k_a, inv_b, k_b = _factorized(a, b)
        assert diagnostics._mismatches(inv_a, k_a, inv_b, k_b) == expected
        for args in ((inv_a, k_a, inv_b, k_b), (inv_b, k_b, inv_a, k_a)):
            assert a.shape[0] - diagnostics._sparse_overlap(*args) == expected
            assert a.shape[0] - diagnostics._dense_overlap(*args) == expected

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            L = int(rng.integers(1, 30))
            a = rng.integers(0, rng.integers(1, 7), L)
            b = rng.integers(0, rng.integers(1, 7), L)
            expected = round(exhaustive_min_hamming(a, b) * L)
            assert L - diagnostics._sparse_overlap(*_factorized(a, b)) == expected
            assert L - diagnostics._sparse_overlap(*_factorized(b, a)) == expected

    def test_table_size_picks_the_solver(self, monkeypatch):
        calls = []
        for name in ("_dense_overlap", "_sparse_overlap"):
            solve = getattr(diagnostics, name)
            monkeypatch.setattr(diagnostics, name,
                                lambda *args, name=name, solve=solve: calls.append(name)
                                or solve(*args))
        side = int(np.ceil(np.sqrt(diagnostics._SPARSE_MIN_CELLS)))
        for k in (side - 1, side):
            z = np.arange(k)
            assert diagnostics._mismatches(*_factorized(z, z[::-1])) == 0
        assert calls == ["_dense_overlap", "_sparse_overlap"]


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

    def test_exact_tie_that_float_averages_split(self):
        # six draws tie at exactly 12 mismatches in total; summed as floats,
        # their mean distances differ in the last bit, and the float rule
        # picked a later draw than the tie rule allows
        zs = [[1, 1, 1, 1, 1], [1, 1, 0, 0, 1], [1, 0, 0, 1, 0], [0, 0, 1, 1, 1],
              [1, 1, 0, 1, 0], [1, 1, 0, 0, 1], [1, 1, 1, 1, 1], [1, 1, 0, 1, 0],
              [1, 1, 1, 1, 1]]
        chains = [0, 0, 1, 0, 1, 1, 0, 1, 1]
        iterations = [3, 8, 1, 4, 2, 6, 7, 5, 0]
        draws = _draws_from_memberships(zs, chains, iterations)
        totals = _integer_totals(draws.z)
        tied = np.flatnonzero(totals == totals.min())
        assert tied.tolist() == [0, 3, 4, 6, 7, 8]
        avg = pairwise_mean_distances(draws.z)
        assert len(set(avg[tied].tolist())) > 1
        assert np.array_equal(representative_assignment(draws), zs[0])
        assert not np.array_equal(pairwise_representative_assignment(draws), zs[0])

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_oracle_up_to_rounded_ties(self, data):
        D = data.draw(st.integers(1, 12))
        L = data.draw(st.integers(1, 9))
        K = data.draw(st.integers(1, 4))
        # a few distinct rows, repeated, as a sampler's draws are
        pool = data.draw(st.lists(st.lists(st.integers(0, K - 1), min_size=L, max_size=L),
                                  min_size=1, max_size=D))
        zs = [pool[data.draw(st.integers(0, len(pool) - 1))] for _ in range(D)]
        chains = data.draw(st.lists(st.integers(0, 2), min_size=D, max_size=D))
        iterations = data.draw(st.permutations(range(D)))
        draws = _draws_from_label_rows(zs, chains, iterations)
        got = representative_assignment(draws)
        expected = pairwise_representative_assignment(draws)
        if np.array_equal(got, expected):
            return
        # the only allowed difference: the oracle's float means split an
        # exact integer tie, which the package breaks by (chain, iteration)
        totals = _integer_totals(draws.z)
        tied = np.flatnonzero(totals == totals.min())
        winner = min(tied, key=lambda i: (chains[i], iterations[i]))
        assert np.array_equal(got, draws.z[winner])
        avg = pairwise_mean_distances(draws.z)
        chosen = next(i for i in range(D) if np.array_equal(draws.z[i], expected))
        assert chosen in tied
        assert avg[chosen] == pytest.approx(avg[winner], rel=1e-12, abs=0)


    @pytest.mark.parametrize("min_cells", [0, diagnostics._SPARSE_MIN_CELLS])
    def test_matches_pairwise_oracle_on_a_wide_fit(self, monkeypatch, min_cells):
        # four sweeps from 400 singletons keep 50 to 150 clusters a draw;
        # with no crossover every pair is solved sparsely
        monkeypatch.setattr(diagnostics, "_SPARSE_MIN_CELLS", min_cells)
        scenario = Scenario(name="wide", cluster_rates=(0.3, 0.8, 1.5, 3.0), thinning=0.3,
                            L=400, T=104)
        panel = simulate_scenario(scenario, np.random.default_rng(13))[0]
        draws = run_chain(panel, SamplerConfig(n_iterations=4, burn_in=0, thin_interval=1,
                                               seed=4))
        assert len(np.unique(draws.n_clusters)) == 4 and draws.n_clusters.min() >= 40
        assert np.array_equal(representative_assignment(draws),
                              pairwise_representative_assignment(draws))


def _integer_totals(zs) -> np.ndarray:
    """Each draw's summed mismatch count to every draw, in exact integers."""
    L = zs.shape[1]
    return np.array([
        sum(round(add_at_hamming_error(a, b) * L) for b in zs) for a in zs
    ])


class TestDistinctPartitions:
    def test_first_appearance_order_and_counts(self):
        zs = np.array([[0, 1], [0, 0], [0, 1], [1, 0], [0, 0]])
        uniq, inverse, counts = distinct_partitions(zs)
        assert uniq.tolist() == [[0, 1], [0, 0], [1, 0]]
        assert inverse.tolist() == [0, 1, 0, 2, 1]
        assert counts.tolist() == [2, 2, 1]
        assert np.array_equal(uniq[inverse], zs)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mean_hamming_error_equals_per_draw_mean(self, data):
        D = data.draw(st.integers(1, 30))
        L = data.draw(st.integers(1, 12))
        K = data.draw(st.integers(1, 5))
        row = st.lists(st.integers(0, K - 1), min_size=L, max_size=L)
        pool = data.draw(st.lists(row, min_size=1, max_size=D))
        zs = np.array([pool[data.draw(st.integers(0, len(pool) - 1))] for _ in range(D)])
        z_true = np.array(data.draw(row))
        assert mean_hamming_error(zs, z_true) == per_draw_hamming_mean(zs, z_true)


class TestClusterCountHistogram:
    def test_mode(self):
        zs = [np.minimum(np.arange(5), k - 1) for k in (4, 4, 4, 5)]
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
        assert sum(b.frequency for b in report.by_last_value.values()) == pytest.approx(
            1.0, abs=1e-12)
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

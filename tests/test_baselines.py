"""The CLS fixed-point estimator and the series-average baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grid_search_sse, per_series_cls_fit, per_series_cls_panel, profiled_theta_sse
from poinar.baselines import cls_fit_panel
from poinar.forecast import conditional_mean_h_step
from poinar.io import ParseError, load_counts
from poinar.model import simulate_poinar

SEASONS = np.tile(np.arange(1, 13), 4000)


def simulated_series(lam=2.0, alpha=0.5, T=2000, seed=0, theta=None):
    theta = np.full(12, 1.0 / 12) if theta is None else theta
    rng = np.random.default_rng(seed)
    return simulate_poinar(lam, alpha, theta, SEASONS[:T], rng=rng), SEASONS[:T]


def fit_one(y, season, **kwargs):
    """``cls_fit_panel`` on the one-row panel ``y``."""
    return cls_fit_panel(np.asarray(y)[None], season, **kwargs)


class TestClsFit:
    def test_recovers_simulated_parameters(self):
        y, season = simulated_series(lam=2.0, alpha=0.5, T=2000, seed=1)
        est = fit_one(y, season)
        assert abs(est.alpha[0] - 0.5) < 0.1
        # pooled monthly innovation rate; per-month needs far longer series
        assert abs(est.lam[0] * est.theta[0].mean() - 2.0 / 12) < 0.15 * (2.0 / 12)

    def test_monthly_rates_consistent_in_the_limit(self):
        y, season = simulated_series(lam=2.0, alpha=0.5, T=40_000, seed=2)
        est = fit_one(y, season)
        monthly = est.lam[0] * est.theta[0]
        assert np.all(np.abs(monthly - 2.0 / 12) < 0.15 * (2.0 / 12))

    def test_theta_constraint(self):
        for seed in range(4):
            y, season = simulated_series(lam=1.0, alpha=0.3, T=300, seed=seed)
            est = fit_one(y, season)
            assert abs(est.theta[0].sum() - 1.0) < 1e-10

    def test_each_block_update_weakly_decreases_sse(self):
        y, season = simulated_series(lam=1.5, alpha=0.4, T=400, seed=3)
        est = fit_one(y, season, record_sse=True)
        assert not est.projected[0]
        trace = est.sse_traces[0]
        assert np.all(np.diff(trace) <= 1e-9 * max(1.0, trace[0]))

    def test_beats_grid_search_oracle(self):
        # informative series keep the seasonal floor projection out of play,
        # so the equality-constrained oracle bounds the same problem
        for seed in (5, 6, 7):
            y, season = simulated_series(lam=6.0, alpha=0.6, T=350, seed=seed)
            est = fit_one(y, season)
            assert not est.projected[0]
            assert est.sse[0] <= grid_search_sse(y, season) + 1e-6

    def test_sparse_series_projection_keeps_forecast_usable(self):
        # very sparse data can drive seasonal updates negative; the flagged
        # floor-and-renormalize keeps theta feasible and forecasts finite
        y, season = simulated_series(lam=1.2, alpha=0.6, T=350, seed=7)
        est = fit_one(y, season)
        assert est.projected[0]
        assert abs(est.theta[0].sum() - 1.0) < 1e-10
        assert np.all(est.theta[0] >= 0)
        assert np.isfinite(conditional_mean_h_step(2, est.alpha, est.lam, est.theta, [5])).all()

    def test_profiled_theta_agrees_with_cyclic_update_at_optimum(self):
        # at the fitted (alpha, lam) the KKT oracle can do no better
        y, season = simulated_series(lam=6.0, alpha=0.2, T=300, seed=8)
        est = fit_one(y, season)
        assert not est.projected[0]
        assert est.sse[0] <= profiled_theta_sse(y, season, est.alpha[0], est.lam[0]) + 1e-9

    def test_iid_data_drives_alpha_to_zero(self):
        estimates = []
        for seed in range(5):
            y, season = simulated_series(lam=3.0, alpha=0.0, T=5000, seed=10 + seed)
            estimates.append(fit_one(y, season).alpha[0])
        assert abs(np.mean(estimates)) < 0.1

    def test_deterministic_given_init(self):
        y, season = simulated_series(T=200, seed=12)
        a = fit_one(y, season)
        b = fit_one(y, season)
        for name in ("alpha", "lam", "theta"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_converges_quickly(self):
        y, season = simulated_series(T=500, seed=13)
        est = fit_one(y, season)
        assert est.converged[0] and est.iterations[0] <= 100

    def test_identically_zero_series_rejected(self):
        # no signal to fit: the row is flagged, not fitted, and keeps the zero model
        est = fit_one(np.zeros(100, dtype=int), SEASONS[:100])
        assert est.degenerate[0] and est.iterations[0] == 0 and not est.converged[0]
        assert est.alpha[0] == est.lam[0] == est.sse[0] == 0.0

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            fit_one(np.ones(10, dtype=int), SEASONS[:10])

    def test_reported_sse_matches_recompute(self):
        y, season = simulated_series(T=300, seed=14)
        est = fit_one(y, season)
        resid = y[1:] - est.alpha[0] * y[:-1] - est.lam[0] * est.theta[0][season[1:] - 1]
        assert est.sse[0] == pytest.approx(float(resid @ resid), rel=1e-12)


PANEL_FIELDS = ("alpha", "lam", "theta", "sse", "iterations", "converged", "projected",
                "degenerate")

# rows that steer the cyclic updates into each guarded branch
ROW_KINDS = ("poinar", "sparse", "zero", "constant", "first-only", "step", "single")


def _row(kind: str, T: int, rng: np.random.Generator, season) -> np.ndarray:
    if kind == "poinar":
        return simulate_poinar(rng.uniform(0.2, 8.0), rng.uniform(0.0, 0.9),
                               np.full(12, 1.0 / 12), season, rng=rng)
    if kind == "sparse":  # drives seasonal updates negative: floor projection
        return rng.poisson(rng.uniform(0.02, 0.4), T)
    if kind == "zero":  # no signal: flagged degenerate, zero model
        return np.zeros(T, dtype=np.int64)
    c = int(rng.integers(1, 5))
    if kind == "constant":  # flat theta leaves denom at rounding noise: the guard
        return np.full(T, c)
    if kind == "first-only":  # y_cur = 0 solves lam = 0: the abs(lam) <= 1e-12 branch
        return np.r_[c, np.zeros(T - 1, dtype=np.int64)]
    cut = int(rng.integers(1, T - 1))
    if kind == "step":  # creeps towards its fixed point: the iteration cap
        return np.r_[np.zeros(cut, dtype=np.int64), np.full(T - cut, c)]
    return np.r_[np.zeros(cut, dtype=np.int64), c, np.zeros(T - cut - 1, dtype=np.int64)]


@st.composite
def cls_panels(draw):
    T = draw(st.integers(14, 160))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        season = SEASONS[:T]
    else:  # a calendar that may leave some months out
        season = np.sort(rng.integers(1, 13, T))
    return np.array([_row(k, T, rng, season) for k in kinds]), season


def assert_same_panel_fit(a, b):
    for name in PANEL_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


class TestClsFitPanel:
    def test_witness_rows_hit_every_guarded_branch(self):
        T = 40
        season = SEASONS[:T]
        counts = np.array([
            _row("zero", T, None, season),
            np.full(T, 2),  # constant
            np.r_[3, np.zeros(T - 1, dtype=np.int64)],  # first-only
            np.r_[np.zeros(20, dtype=np.int64), np.full(T - 20, 2)],  # step
            np.r_[np.zeros(20, dtype=np.int64), 1, np.zeros(T - 21, dtype=np.int64)],  # single
        ])
        fit = cls_fit_panel(counts, season)
        assert fit.degenerate.tolist() == [True, False, False, False, False]
        # the denom guard kept lam at its start, the series mean
        assert fit.lam[1] == 2.0 and fit.converged[1]
        # lam = 0 skips the theta update: theta stays flat
        assert fit.lam[2] == 0.0 and np.array_equal(fit.theta[2], np.full(12, 1.0 / 12))
        assert fit.iterations[3] == 100 and not fit.converged[3]
        assert fit.projected[4]
        assert_same_panel_fit(fit, per_series_cls_panel(counts, season))

    @given(panel=cls_panels())
    @settings(max_examples=120, deadline=None)
    def test_matches_per_series_oracle_bit_for_bit(self, panel):
        counts, season = panel
        assert_same_panel_fit(cls_fit_panel(counts, season), per_series_cls_panel(counts, season))

    def test_starts_and_stops_where_the_oracle_is_told_to(self):
        # the start, tolerance and cap are fixed in the package and given to
        # the oracle explicitly: a sparse series that projects, and a step
        # that creeps towards its fixed point until the cap
        y, season = simulated_series(lam=1.2, alpha=0.6, T=350, seed=7)
        counts = np.array([y, np.r_[np.zeros(340, dtype=np.int64), np.full(10, 2)]])
        est = cls_fit_panel(counts, season)
        assert est.projected[0] and est.iterations[1] == 100 and not est.converged[1]
        for l, row in enumerate(counts):
            expected = per_series_cls_fit(row, season, init=(0.2, row.mean(), np.full(12, 1 / 12)),
                                          tol=1e-8, max_iter=100)
            got = (est.alpha[l], est.lam[l], est.theta[l], est.sse[l], est.iterations[l],
                   est.converged[l], est.projected[l])
            for g, e in zip(got, expected):
                assert np.array_equal(g, e)

    def test_traces_follow_each_series_until_it_converges(self):
        counts = np.array([simulated_series(lam=1.5, alpha=0.4, T=400, seed=s)[0] for s in (3, 4)])
        fit = cls_fit_panel(counts, SEASONS[:400], record_sse=True)
        for l in range(2):
            alone = fit_one(counts[l], SEASONS[:400], record_sse=True)
            assert fit.sse_traces[l] == alone.sse_traces[0]
            assert len(alone.sse_traces[0]) == 1 + 2 * alone.iterations[0]

    def test_degenerate_rows_forecast_zero(self):
        counts = np.array([np.zeros(30, dtype=np.int64), np.arange(30) % 4])
        fit = cls_fit_panel(counts, SEASONS[:30])
        means = conditional_mean_h_step(counts[:, -1], fit.alpha, fit.lam, fit.theta, [3])
        assert means[0] == 0.0 and means[1] > 0
        assert fit.iterations[0] == 0 and fit.sse[0] == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cls_fit_panel(np.ones((2, 10)), SEASONS[:10])
        with pytest.raises(ValueError):
            cls_fit_panel(np.ones(20), SEASONS[:20])
        with pytest.raises(ValueError):
            cls_fit_panel(np.ones((2, 20)), SEASONS[:19])


class TestClsForecast:
    """The study's CLS forecast: ``conditional_mean_h_step`` on the fit."""

    def test_no_carryover(self):
        y, season = simulated_series(T=300, seed=20)
        est = fit_one(y, season)
        mean = conditional_mean_h_step(5, 0.0, est.lam[0], est.theta[0], 4)
        assert mean == pytest.approx(est.lam[0] * est.theta[0, 3], abs=1e-12)

    def test_one_step_substitution(self):
        y, season = simulated_series(T=300, seed=21)
        est = fit_one(y, season)
        expected = est.alpha[0] * 3 + est.lam[0] * est.theta[0, 6]
        mean = conditional_mean_h_step(3, est.alpha[0], est.lam[0], est.theta[0], 7)
        assert mean == pytest.approx(expected, rel=1e-12)

    def test_matches_forecast_module(self):
        # one call over the panel's rows, as the study makes it, equals a
        # call per series
        counts = np.array([simulated_series(T=300, seed=s)[0] for s in (22, 23, 24)])
        est = cls_fit_panel(counts, SEASONS[:300])
        months = [2, 3, 4]
        panel = conditional_mean_h_step(counts[:, -1], est.alpha, est.lam, est.theta, months)
        for l in range(3):
            assert panel[l] == conditional_mean_h_step(
                counts[l, -1], est.alpha[l], est.lam[l], est.theta[l], months
            )


class TestSpp:
    """The series-average baseline: the panel's row means."""

    def test_examples(self):
        counts = np.array([[0, 1, 2, 0], [7, 7, 7, 7], [0, 0, 0, 4]])
        assert counts.mean(axis=1).tolist() == [0.75, 7.0, 1.0]

    def test_empty_rejected(self, tmp_path):
        # a counts file must hold weeks, so no series is empty
        path = tmp_path / "counts.csv"
        path.write_text("series_id\ns000\n")
        with pytest.raises(ParseError, match="no week columns"):
            load_counts(path)

    @given(seed=st.integers(0, 2**32 - 1), L=st.integers(1, 20), T=st.integers(1, 600),
           scale=st.sampled_from([0.1, 3.0, 1e4]))
    @settings(max_examples=80, deadline=None)
    def test_panel_row_means_equal_per_series_averages(self, seed, L, T, scale):
        counts = np.random.default_rng(seed).poisson(scale, (L, T))
        expected = [float(np.mean(row)) for row in counts]
        assert counts.mean(axis=1).tolist() == expected

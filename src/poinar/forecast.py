"""Exact one-step predictive distributions and conditional-mean forecasts.

The one-step-ahead count is the thinned carry-over plus a Poisson innovation,
so its pmf is the convolution of a Binomial(y_T, alpha) with a
Poisson(lambda * theta) and its mean is alpha * y_T + lambda * theta.

``posterior_predictive`` returns the draw-averaged pmfs of all series as one
zero-padded block, one row per series, and ``quantile`` reads every row's
quantiles off that block in one call.

Each series' pmfs are truncated at one point m, found by one stopping rule
before any grid is built: every draw's tail mean E[S; S > m] lies below
1e-12, which keeps pmf means exact to about 1e-12. The rule bounds the tail
mass too. S > m needs more than k = m - y_T innovations, and for Poisson(r)
innovations P(P > k) <= r/(k+1) P(P >= k), which the tail mean bounds, so
the mass past m is below 1e-12, 1000 times inside ``TAIL_MASS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, pdtrc, xlog1py, xlogy

from .model import ConfigurationError, refuse_over_memory, series_name
from .sampler import PosteriorDraws

# Truncation budgets: the bound on the tail's contribution to the mean, which
# stops a truncation point, and the tail mass every pmf row is checked
# against (the first implies the second, see above).
TAIL_MASS = 1e-9
_TAIL_MEAN = 1e-12


@dataclass(frozen=True)
class ForecastDistribution:
    """Truncated pmfs of future counts, one row per series.

    ``pmf[l, y]`` is the probability that series l shows ``y`` for y in
    0..y_max[l] and 0 past it; the tail beyond y_max[l] carries less than
    the truncation budget of 1e-9 mass. ``pmf`` is (L, M+1) with M the
    largest ``y_max``, and ``y_max`` is int64 (L,).
    """

    pmf: np.ndarray
    y_max: np.ndarray


def _check_pmfs(pmfs: np.ndarray):
    """Raise unless every row of ``pmfs`` is nonnegative and misses at most
    the tail budget of mass."""
    if np.any(pmfs < 0):
        raise ValueError("pmf entries must be nonnegative")
    if np.any(pmfs.sum(axis=1) < 1.0 - TAIL_MASS):
        raise ValueError("truncated pmf is missing more than the tail budget")


def conditional_mean_h_step(y_T, alpha, lam, theta, future_months):
    """h-step conditional mean: the last step of ``_mean_steps``, the one
    recursion ``posterior_conditional_means`` runs too. ``future_months`` is
    one month (1..12) or a 1-D sequence, that of week T+j at index j-1. The
    last axis of ``theta`` holds the 12 monthly effects; its leading axes
    broadcast with ``y_T``, ``alpha`` and ``lam``, so one call covers a
    stack of draws and series."""
    months = np.atleast_1d(np.asarray(future_months, dtype=np.int64))
    if months.ndim != 1 or months.size < 1:
        raise ValueError("need one month or a 1-D sequence of future months")
    *_, mean = _mean_steps(y_T, np.asarray(alpha, dtype=float), lam,
                           _month_effects(theta, months))
    return mean


def _month_effects(theta, months) -> np.ndarray:
    """``theta[..., months - 1]``, refusing a month outside 1..12."""
    months = np.asarray(months, dtype=np.int64)
    bad = months[(months < 1) | (months > 12)]
    if bad.size:
        raise ValueError(f"month must lie in 1..12, got {bad[0]}")
    return np.asarray(theta, dtype=float)[..., months - 1]


def _mean_steps(y_T, alpha, lam, effects: np.ndarray):
    """Yield m_j = alpha * m_{j-1} + lam * effects[..., j-1], j = 1..h, from m_0 = y_T."""
    mean = y_T
    for j in range(effects.shape[-1]):
        mean = alpha * mean + lam * effects[..., j]
        yield mean


def posterior_conditional_means(draws: PosteriorDraws, y_T, future_months,
                                series_ids: list[str] | None = None) -> np.ndarray:
    """Draw-averaged conditional means at horizons 1..h.

    ``y_T`` holds the counts at the forecast origin, shape (L,), and
    ``future_months`` the months of the h weeks after it, shape (h,). For
    several origins at once, give one row per origin: shapes (n, L) and
    (n, h). Row h-1 of the result is the h-step mean, shape (h, L) or
    (h, n, L). Rates carry the draws' exposure. A draw whose rate in one
    of the months overflows to inf raises ``ConfigurationError`` naming
    the series (``series_ids``, row numbers when not given).

    Each draw's means follow ``_mean_steps``, averaged once per step, so
    step h has the bits of the draw mean of ``conditional_mean_h_step`` on
    the first h months.
    """
    alpha, lam, theta = draws.stacked()
    y_T = np.asarray(y_T, dtype=float)
    months = np.asarray(future_months, dtype=np.int64)
    effects = _month_effects(theta, months.reshape(-1, 1, months.shape[-1]))  # (D, n, 1, h)
    with np.errstate(over="ignore"):  # an overflow to inf is refused just below
        rate = lam[..., None] * theta[:, None, np.unique(months) - 1]
    _refuse_overflow(np.isinf(rate).any(axis=(0, 2)), series_ids, "mean forecast")
    steps = _mean_steps(y_T.reshape(-1, y_T.shape[-1]), alpha[:, None], lam[:, None], effects)
    return np.stack([mean.mean(axis=0) for mean in steps]).reshape(months.shape[-1:] + y_T.shape)


# Grid cells (series x draws x support points) of one kernel pass in
# ``posterior_predictive``: each of the pass's four work arrays then holds
# at most 8 MB. A series whose own grid is larger gets a pass to itself.
_PASS_CELLS = 1 << 20

# The bytes of one cell of a pass's grid: ``_pmf_grid``'s four float64
# work arrays.
_PASS_BYTES_PER_CELL = 4 * 8
# The bytes of one cell of the (series, support) pmf block: the block, and
# the float64 CDF and one level's bool comparison ``quantile`` builds of it.
_BLOCK_BYTES_PER_CELL = 8 + 8 + 1


def _check_parameters(alpha: np.ndarray, rate: np.ndarray, series_ids: list[str] | None):
    bad = alpha[~((alpha >= 0.0) & (alpha <= 1.0))]
    if bad.size:
        raise ValueError(f"thinning probability must lie in [0, 1], got {bad[0]}")
    if not np.all(rate >= 0.0):
        raise ValueError("innovation rate must be nonnegative")
    _refuse_overflow(np.isinf(rate).any(axis=1), series_ids, "predictive pmf")


def _refuse_overflow(overflow: np.ndarray, series_ids: list[str] | None, what: str):
    """Raise ``ConfigurationError`` naming the first series flagged in
    ``overflow``, one bool per series, as having a rate that overflows."""
    bad = np.flatnonzero(overflow)
    if bad.size:
        raise ConfigurationError(
            f"series {series_name(int(bad[0]), series_ids)} has a draw whose innovation "
            "rate, its cluster rate times the month's seasonal effect, overflows to inf, so "
            f"its {what} cannot be computed"
        )


def _pmf_grid(y_T: int, alpha: np.ndarray, rate: np.ndarray, m: int) -> np.ndarray:
    """Exact one-step pmfs on 0..m, one row per (alpha, rate) pair.

    Row r is the pmf of Binomial(y_T, alpha[r]) survivors plus
    Poisson(rate[r]) innovations, shape (R, m+1). Entry [r, j] is computed
    the same way at any width m >= y_T, so a wider grid holds each narrower
    one as its prefix, bit for bit. The work runs on the transpose, with
    one contiguous row per count, and ``xlogy(j, r)`` is taken as j times
    ``xlogy(1, r)``: the same product of the same ``log``, one ``log`` per
    row instead of one per cell.
    """
    # log C(y_T, k) summed from the shorter side, c = min(k, y_T - k):
    # sum_{i<c} log(y_T - i) - log c!. The textbook gammaln(y_T + 1) - ...
    # cancels terms near gammaln(y_T + 1) and loses ~1e-13 at y_T = 400.
    k = np.arange(y_T + 1)
    c = np.minimum(k, y_T - k)
    log_falling = np.concatenate(([0.0], np.cumsum(np.log(y_T - np.arange(y_T // 2)))))
    # xlogy(k, alpha) + xlog1py(y_T - k, -alpha), zero where k or y_T - k is
    survive = _times_log(k, xlogy(1.0, alpha))
    lose = _times_log(y_T - k, xlog1py(1.0, -alpha))
    binom = np.exp((log_falling[c] - gammaln(c + 1))[:, None] + survive + lose)
    j = np.arange(m + 1)
    pois = np.exp(_times_log(j, xlogy(1.0, rate)) - gammaln(j + 1)[:, None] - rate)
    cols = np.zeros_like(pois)
    for s in k:  # survivors: y_T is small next to m, so loop over it
        cols[s:] += binom[s] * pois[: m + 1 - s]
    # C order: numpy sums a contiguous row pairwise, as the per-series
    # kernel's tail checks did, and a strided one in another order
    return np.ascontiguousarray(cols.T)


def _times_log(x: np.ndarray, log_y: np.ndarray) -> np.ndarray:
    """``x[i] * log_y`` in row i, and 0 in rows where x[i] is 0, as
    ``xlogy`` and ``xlog1py`` give it: shape (len(x), len(log_y))."""
    with np.errstate(invalid="ignore"):  # 0 * -inf, overwritten below
        out = x.astype(float)[:, None] * log_y
    out[x == 0] = 0.0
    return out


def _truncation_points(y_T: np.ndarray, alpha: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """Truncation point of each series, found without building a pmf grid.

    ``y_T`` holds each series' origin count, shape (n,), and ``alpha`` and
    ``rate`` one row of D draws per series, shape (n, D).
    A series' draws share one point m. It starts at the largest of their
    mean + 12*sqrt(mean), plus y_T, and grows by m*1.5 + 10 until every
    draw's tail mean, E[S; S > m] <= y_T P(P > k) + rate P(P >= k) with
    k = m - y_T >= 0 and P the Poisson(rate) innovations, lies below
    ``_TAIL_MEAN``. Points are float64, shape (n,), so that one past the
    range of int64 reaches the memory check as it is.
    """
    mean_hint = alpha * y_T[:, None] + rate
    top = np.ceil(mean_hint + 12.0 * np.sqrt(mean_hint)).max(axis=1)
    point = np.maximum(top + y_T, np.maximum(y_T, 1))
    todo = np.arange(point.size)
    while todo.size:
        y = y_T[todo, None]
        k = point[todo, None] - y
        r = rate[todo]
        at_least_k = np.where(k > 0, pdtrc(k - 1, r), 1.0)  # pdtrc(-1, r) is NaN
        tail_mean = y * pdtrc(k, r) + r * at_least_k
        todo = todo[~(tail_mean < _TAIL_MEAN).all(axis=1)]
        point[todo] = np.floor(point[todo] * 1.5) + 10
    return point


def _check_forecast_memory(point: np.ndarray, n_draws: int, series_ids: list[str] | None):
    """Raise ``ConfigurationError`` if the pmf block of the series with
    truncation points ``point``, ``quantile``'s arrays over it, and the
    largest pass's grid beside them would not fit in physical memory."""
    if point.size == 0:
        return
    widest = int(np.argmax(point))
    support = point[widest] + 1.0
    # a pass holds at most _PASS_CELLS cells, or one series' draws alone
    pass_cells = min(point.size * n_draws * support, max(_PASS_CELLS, n_draws * support))
    needed = (_BLOCK_BYTES_PER_CELL * point.size * support
              + _PASS_BYTES_PER_CELL * pass_cells)
    refuse_over_memory(
        needed,
        f"the predictive pmfs of {point.size} series from {n_draws} draws on "
        f"0..{point[widest]:,.0f}",
        f"series {series_name(widest, series_ids)} has the widest support: its draws' "
        "innovation rates are too large to forecast",
    )


def posterior_predictive(
    y_T,
    draws: PosteriorDraws,
    month: int,
    series_ids: list[str] | None = None,
) -> ForecastDistribution:
    """The exact one-step pmf of every series, averaged over the draws, as
    one block with a row per series.

    ``y_T`` holds the counts at the forecast origin, shape (L,), and
    ``month`` is the calendar month (1..12) of the forecast week. Each
    series' draws share one truncation point (``_truncation_points``), the
    one the series would get on its own. Every point is fixed before any
    grid is built. The series with the same origin count, sorted by point,
    then share kernel passes of at most ``_PASS_CELLS`` grid cells, each
    built once at its widest point; one draw-mean of the grid gives the
    pass's pmfs, each zeroed past its own point.

    A draw whose rate overflows to inf raises ``ConfigurationError``
    naming the series (``series_ids``, row numbers when not given) before
    any grid is built; so do points whose pmf block, with ``quantile``'s
    arrays over it, and largest pass would not fit in physical memory,
    naming the series of the widest point.
    """
    alpha, lam, theta = draws.stacked()
    with np.errstate(over="ignore"):  # an overflow to inf is refused just below
        rate = lam * _month_effects(theta, month)[:, None]
    alpha, rate = alpha.T, rate.T  # one row of draws per series
    _check_parameters(alpha, rate, series_ids)
    counts = np.array([int(y) for y in np.asarray(y_T)], dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError("origin counts must be nonnegative")
    point = _truncation_points(counts, alpha, rate)
    n_draws = alpha.shape[1]
    _check_forecast_memory(point, n_draws, series_ids)
    y_max = point.astype(np.int64)
    pmf = np.zeros((counts.size, int(y_max.max(initial=0)) + 1))
    for y in np.unique(counts).tolist():
        series = np.flatnonzero(counts == y)
        series = series[np.argsort(y_max[series], kind="stable")]
        while series.size:
            # one pass: the longest run whose grid at its widest point holds
            # at most _PASS_CELLS cells, or the first series alone
            cells = np.arange(1, series.size + 1) * n_draws * (y_max[series] + 1)
            ids = series[: max(1, int(np.searchsorted(cells, _PASS_CELLS, side="right")))]
            series = series[ids.size:]
            width = int(y_max[ids[-1]])
            grid = _pmf_grid(y, alpha[ids].ravel(), rate[ids].ravel(), width)
            pmfs = grid.reshape(ids.size, n_draws, width + 1).mean(axis=1)
            pmfs[np.arange(width + 1) > y_max[ids, None]] = 0.0
            _check_pmfs(pmfs)
            pmf[ids, : width + 1] = pmfs
    return ForecastDistribution(pmf, y_max)


def quantile(dist: ForecastDistribution, levels):
    """Smallest count whose CDF reaches each level, monotone in the level,
    for every row of ``dist`` at once.

    A block of L series gives shape (L,) for one level and (L, n) for n
    levels. The CDF is one ``cumsum`` along each row; a row's zero padding
    past its ``y_max`` adds exactly 0.0, so its last CDF value is the mass
    up to its own truncation point.
    """
    levels = np.asarray(levels, dtype=float)
    outside = levels[~((0.0 < levels) & (levels < 1.0))]
    if outside.size:
        raise ValueError(f"quantile level must lie strictly in (0, 1), got {outside[0]}")
    cdf = np.cumsum(dist.pmf, axis=1)
    if np.any(levels > cdf[:, -1:]):
        raise ValueError("requested quantile lies beyond the truncation point")
    # the number of CDF entries below a level is searchsorted(side="left");
    # one level at a time, so the comparison is no larger than the CDF
    counts = np.empty((cdf.shape[0], levels.size), dtype=np.intp)
    for i, level in enumerate(levels.reshape(-1)):
        counts[:, i] = np.count_nonzero(cdf < level, axis=1)
    return counts[:, 0] if levels.ndim == 0 else counts

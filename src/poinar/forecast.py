"""Exact one-step predictive distributions and conditional-mean forecasts.

The one-step-ahead count is the thinned carry-over plus a Poisson innovation,
so its pmf is the convolution of a Binomial(y_T, alpha) with a
Poisson(lambda * theta) and its mean is alpha * y_T + lambda * theta.

``posterior_predictive`` returns the draw-averaged pmfs of all series as one
zero-padded block, one row per series, and ``quantile`` reads every row's
quantiles off that block in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, pdtrc, xlog1py, xlogy

from .sampler import PosteriorDraws

# Truncation budgets: total probability mass left in the tail, and the bound
# on the tail's contribution to the mean (keeps pmf means exact to ~1e-12).
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
    """h-step conditional mean, h being the length of the last axis of
    ``future_months``.

    alpha**h * y_T + lam * sum_{j=1..h} alpha**(h-j) * theta_{m_j}, where
    ``future_months[..., j-1]`` is the month (1..12) of week T+j. Arguments
    broadcast: the last axis of ``theta`` holds the 12 monthly effects, and
    its leading axes and those of ``future_months`` broadcast with ``y_T``,
    ``alpha`` and ``lam``. One call thus covers a stack of draws, series and
    forecast origins; plain scalars give a scalar.
    """
    months = np.atleast_1d(np.asarray(future_months, dtype=np.int64))
    h = months.shape[-1]
    if h < 1:
        raise ValueError("need at least one future month")
    theta = np.asarray(theta, dtype=float)
    lead = np.broadcast_shapes(theta.shape[:-1], months.shape[:-1])
    path = np.take_along_axis(  # theta of each future week, shape lead + (h,)
        np.broadcast_to(theta, lead + theta.shape[-1:]),
        np.broadcast_to(months - 1, lead + (h,)),
        axis=-1,
    )
    alpha = np.asarray(alpha, dtype=float)
    powers = alpha[..., None] ** np.arange(h - 1, -1, -1, dtype=float)
    return alpha**h * y_T + lam * (powers * path).sum(axis=-1)


def posterior_conditional_means(
    draws: PosteriorDraws, y_T, future_months, exposure: np.ndarray | None = None
) -> np.ndarray:
    """Draw-averaged conditional means at horizons 1..h.

    ``y_T`` holds the counts at the forecast origin, shape (L,), and
    ``future_months`` the months of the h weeks after it, shape (h,). For
    several origins at once, give one row per origin: shapes (n, L) and
    (n, h). Row h-1 of the result is the h-step mean, shape (h, L) or
    (h, n, L). Covariate-mode draws need ``exposure``.
    """
    alpha, lam, theta = draws.stacked(exposure)
    y_T = np.asarray(y_T, dtype=float)
    months = np.asarray(future_months, dtype=np.int64)
    # draws lead, then one axis per origin axis of y_T, then series
    batch = (1,) * (y_T.ndim - 1)
    alpha = alpha.reshape(alpha.shape[:1] + batch + alpha.shape[1:])
    lam = lam.reshape(alpha.shape)
    theta = theta.reshape(theta.shape[:1] + batch + (1, theta.shape[1]))
    months = months[..., None, :]  # one path for every series
    return np.stack([
        conditional_mean_h_step(y_T, alpha, lam, theta, months[..., :h]).mean(axis=0)
        for h in range(1, months.shape[-1] + 1)
    ])


# Grid cells (series x draws x support points) of one kernel pass in
# ``posterior_predictive``: each of the pass's four work arrays then holds
# at most 8 MB. A series whose own grid is larger gets a pass to itself.
_PASS_CELLS = 1 << 20


def _check_parameters(alpha: np.ndarray, rate: np.ndarray):
    bad = alpha[~((alpha >= 0.0) & (alpha <= 1.0))]
    if bad.size:
        raise ValueError(f"thinning probability must lie in [0, 1], got {bad[0]}")
    if not np.all(rate >= 0.0):
        raise ValueError("innovation rate must be nonnegative")


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


def _start_points(y_T: int, alpha: np.ndarray, rate: np.ndarray) -> list[int]:
    """First truncation point of each series: the largest of its draws'
    mean + 12*sqrt(mean), plus y_T. One row of draws per series."""
    mean_hint = alpha * y_T + rate
    top = np.ceil(mean_hint + 12.0 * np.sqrt(mean_hint)).max(axis=1)
    return [max(int(t) + y_T, y_T, 1) for t in top.tolist()]


def _tails_met(y_T: int, rows: np.ndarray, rate: np.ndarray, m: int) -> np.ndarray:
    """Whether all draws of each series meet both tail budgets on 0..m.
    ``rows`` has shape (series, draws, m+1) and ``rate`` (series, draws)."""
    tail_mass = 1.0 - rows.sum(axis=2)
    # E[S; S > m] <= y_T P(P > m - y_T) + rate P(P >= m - y_T)
    tail_mean = y_T * _poisson_sf(m - y_T, rate) + rate * _poisson_sf(m - y_T - 1, rate)
    return (tail_mass < TAIL_MASS).all(axis=1) & (tail_mean < _TAIL_MEAN).all(axis=1)


def _passes(todo: np.ndarray, point: np.ndarray, n_draws: int):
    """Split ``todo``, sorted by candidate point, into runs of series whose
    grid at the run's widest point holds at most ``_PASS_CELLS`` cells."""
    first = 0
    for i in range(1, todo.size):
        if (i - first + 1) * n_draws * (int(point[todo[i]]) + 1) > _PASS_CELLS:
            yield todo[first:i]
            first = i
    yield todo[first:]


def _truncated_rows(y_T: int, alpha: np.ndarray, rate: np.ndarray, start: list[int]):
    """Exact one-step pmfs of series that share the origin count ``y_T``.

    ``alpha`` and ``rate`` hold one row of D draws per series, shape (n, D),
    and ``start`` the first candidate truncation point of each series. A
    series' draws share one point, grown by m*1.5 + 10 until all of them
    meet both tail budgets on its own prefix: the point the series would
    get alone. Series are gridded together, sorted by candidate point, in
    passes of at most ``_PASS_CELLS`` cells; a series whose candidate
    outgrows its pass's grid moves on to a wider pass. Yields
    ``(series, rows)``: the indices of series that settle at one point m
    and their rows, shape (len(series), D, m+1).
    """
    n_draws = alpha.shape[1]
    point = np.array(start, dtype=np.int64)
    todo = np.arange(alpha.shape[0])
    while todo.size:
        todo = todo[np.argsort(point[todo], kind="stable")]
        wider = []
        for ids in _passes(todo, point, n_draws):
            width = int(point[ids[-1]])
            grid = _pmf_grid(y_T, alpha[ids].ravel(), rate[ids].ravel(), width)
            grid = grid.reshape(ids.size, n_draws, width + 1)
            live = np.arange(ids.size)
            while live.size:
                again = []
                candidates = point[ids[live]]
                for m in np.unique(candidates).tolist():
                    at = live[candidates == m]
                    rows = grid[at, :, : m + 1]  # a C-contiguous copy
                    ok = _tails_met(y_T, rows, rate[ids[at]], m)
                    if ok.any():
                        yield ids[at[ok]], rows if ok.all() else rows[ok]
                    failed, grown = at[~ok], int(m * 1.5) + 10
                    point[ids[failed]] = grown
                    if grown <= width:
                        again.append(failed)
                    else:
                        wider.append(ids[failed])
                live = np.concatenate(again) if again else np.empty(0, dtype=np.int64)
        todo = np.concatenate(wider) if wider else np.empty(0, dtype=np.int64)


def _poisson_sf(k: int, rate: np.ndarray) -> np.ndarray:
    """P(Poisson(rate) > k); 1 for k < 0, where ``pdtrc`` gives NaN."""
    return pdtrc(k, rate) if k >= 0 else np.ones_like(rate)


def posterior_predictive(
    y_T,
    draws: PosteriorDraws,
    month: int,
    exposure: np.ndarray | None = None,
) -> ForecastDistribution:
    """The exact one-step pmf of every series, averaged over the draws, as
    one block with a row per series.

    ``y_T`` holds the counts at the forecast origin, shape (L,), and
    ``month`` is the calendar month (1..12) of the forecast week. Each
    series' draws share one truncation point, the one the series would get
    on its own. The series with the same origin count share one kernel
    pass, each of their draws a row of its grid, split into passes of at
    most ``_PASS_CELLS`` grid cells. Covariate-mode draws need the panel's
    ``exposure`` to scale each draw's per-exposure rate.
    """
    alpha, lam, theta = draws.stacked(exposure)
    rate = lam * theta[:, month - 1, None]
    alpha, rate = alpha.T, rate.T  # one row of draws per series
    _check_parameters(alpha, rate)
    counts = np.array([int(y) for y in np.asarray(y_T)], dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError("origin counts must be nonnegative")
    blocks = []  # (series, pmfs) of each block of series settling at one point
    for y in np.unique(counts).tolist():
        series = np.flatnonzero(counts == y)
        a, r = alpha[series], rate[series]
        for ids, rows in _truncated_rows(y, a, r, _start_points(y, a, r)):
            pmfs = rows.mean(axis=1)
            _check_pmfs(pmfs)  # once per block, not once per series
            blocks.append((series[ids], pmfs))
    width = max((pmfs.shape[1] for _, pmfs in blocks), default=1)
    pmf = np.zeros((counts.size, width))
    y_max = np.empty(counts.size, dtype=np.int64)
    for series, pmfs in blocks:
        pmf[series, : pmfs.shape[1]] = pmfs
        y_max[series] = pmfs.shape[1] - 1
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
    # the number of CDF entries below a level is searchsorted(side="left")
    counts = np.count_nonzero(cdf[:, None, :] < levels.reshape(-1, 1), axis=2)
    return counts[:, 0] if levels.ndim == 0 else counts

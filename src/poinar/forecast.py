"""Exact one-step predictive distributions and conditional-mean forecasts.

The one-step-ahead count is the thinned carry-over plus a Poisson innovation,
so its pmf is the convolution of a Binomial(y_T, alpha) with a
Poisson(lambda * theta) and its mean is alpha * y_T + lambda * theta.
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
    """Truncated pmf of a future count.

    ``pmf[y]`` is the probability of observing ``y`` for y in 0..y_max; the
    tail beyond y_max carries less than the truncation budget of 1e-9 mass.
    """

    pmf: np.ndarray
    y_max: int
    mean: float

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.ndim != 1 or pmf.shape[0] != self.y_max + 1:
            raise ValueError("pmf must cover 0..y_max")
        if np.any(pmf < 0):
            raise ValueError("pmf entries must be nonnegative")
        if pmf.sum() < 1.0 - 1e-9:
            raise ValueError("truncated pmf is missing more than the tail budget")
        object.__setattr__(self, "pmf", pmf)

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.pmf)

    def quantile(self, upsilon: float) -> int:
        return quantile(self, upsilon)

    def interval(self, lower: float, upper: float) -> tuple[int, int]:
        """Counts bracketing the given pair of quantile levels."""
        return self.quantile(lower), self.quantile(upper)


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


def _predictive_rows(y_T: int, alpha, rate, m: int | None = None) -> np.ndarray:
    """Exact one-step pmfs of D draws sharing one truncation point.

    Row d is the pmf on 0..m of Binomial(y_T, alpha[d]) survivors plus
    Poisson(rate[d]) innovations, shape (D, m+1). The shared m starts at the
    largest of the draws' mean + 12*sqrt(mean) + y_T (or at ``m``) and grows
    by m*1.5 + 10 until every row meets both tail budgets, so one draw gets
    the truncation point it would get on its own.
    """
    alpha = np.asarray(alpha, dtype=float)
    rate = np.asarray(rate, dtype=float)
    bad = alpha[~((alpha >= 0.0) & (alpha <= 1.0))]
    if bad.size:
        raise ValueError(f"thinning probability must lie in [0, 1], got {bad[0]}")
    if not np.all(rate >= 0.0):
        raise ValueError("innovation rate must be nonnegative")
    if m is None:
        mean_hint = alpha * y_T + rate
        m = int(np.ceil(mean_hint + 12.0 * np.sqrt(mean_hint)).max()) + y_T
    m = max(int(m), y_T, 1)

    # log C(y_T, k) summed from the shorter side, c = min(k, y_T - k):
    # sum_{i<c} log(y_T - i) - log c!. The textbook gammaln(y_T + 1) - ...
    # cancels terms near gammaln(y_T + 1) and loses ~1e-13 at y_T = 400.
    k = np.arange(y_T + 1)
    c = np.minimum(k, y_T - k)
    log_falling = np.concatenate(([0.0], np.cumsum(np.log(y_T - np.arange(y_T // 2)))))
    a = alpha[:, None]
    binom = np.exp(log_falling[c] - gammaln(c + 1) + xlogy(k, a) + xlog1py(y_T - k, -a))
    r = rate[:, None]
    while True:
        j = np.arange(m + 1)
        pois = np.exp(xlogy(j, r) - gammaln(j + 1) - r)
        rows = np.zeros_like(pois)
        for s in k:  # survivors: y_T is small next to m, so loop over it
            rows[:, s:] += binom[:, s, None] * pois[:, : m + 1 - s]
        tail_mass = 1.0 - rows.sum(axis=1)
        # E[S; S > m] <= y_T P(P > m - y_T) + rate P(P >= m - y_T)
        tail_mean = y_T * _poisson_sf(m - y_T, rate) + rate * _poisson_sf(m - y_T - 1, rate)
        if np.all(tail_mass < TAIL_MASS) and np.all(tail_mean < _TAIL_MEAN):
            return rows
        m = int(m * 1.5) + 10


def _poisson_sf(k: int, rate: np.ndarray) -> np.ndarray:
    """P(Poisson(rate) > k); 1 for k < 0, where ``pdtrc`` gives NaN."""
    return pdtrc(k, rate) if k >= 0 else np.ones_like(rate)


def _distribution(pmf: np.ndarray) -> ForecastDistribution:
    m = pmf.shape[0] - 1
    return ForecastDistribution(pmf=pmf, y_max=m, mean=float(np.arange(m + 1) @ pmf))


def predictive_pmf(
    y_T: int, alpha: float, lam: float, theta_next: float, y_max: int | None = None
) -> ForecastDistribution:
    """Exact pmf of the one-step-ahead count given the current count.

    The truncation point starts at mean + 12*sqrt(mean) + y_T (or at the
    caller's ``y_max``) and is extended until both tail budgets hold.
    """
    rows = _predictive_rows(int(y_T), [alpha], [lam * theta_next], y_max)
    return _distribution(rows[0])


def posterior_predictive(
    y_T,
    draws: PosteriorDraws,
    month: int,
    exposure: np.ndarray | None = None,
) -> list[ForecastDistribution]:
    """The exact one-step pmf of every series, averaged over the draws.

    ``y_T`` holds the counts at the forecast origin, shape (L,), and
    ``month`` is the calendar month (1..12) of the forecast week. Each
    series' draws share one truncation point. Covariate-mode draws need the
    panel's ``exposure`` to scale each draw's per-exposure rate.
    """
    alpha, lam, theta = draws.stacked(exposure)
    rate = lam * theta[:, month - 1, None]
    return [
        _distribution(_predictive_rows(int(y), alpha[:, l], rate[:, l]).mean(axis=0))
        for l, y in enumerate(np.asarray(y_T))
    ]


def quantile(dist: ForecastDistribution, upsilon: float) -> int:
    """Smallest count whose CDF reaches ``upsilon``; monotone in upsilon."""
    if not 0.0 < upsilon < 1.0:
        raise ValueError(f"quantile level must lie strictly in (0, 1), got {upsilon}")
    cdf = dist.cdf()
    if upsilon > cdf[-1]:
        raise ValueError("requested quantile lies beyond the truncation point")
    return int(np.searchsorted(cdf, upsilon, side="left"))

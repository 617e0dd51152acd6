"""The conditional least squares (CLS) baseline, fitted to every series of
a panel at once. (The other baseline, the series average, is the panel's
row means.)

The CLS estimator minimizes the one-step squared prediction error
sum_t (y_t - alpha*y_{t-1} - lam*theta_{s(t)})^2 subject to the seasonal
effects summing to one, by cycling through the stationarity conditions of the
Lagrangian: a joint (lam, alpha) solve given theta, then the constrained
theta solve given (alpha, lam).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .panel import N_MONTHS

_THETA_FLOOR = 1e-8
_TOL, _MAX_ITER = 1e-8, 100  # convergence threshold and iteration cap


@dataclass
class ClsPanelEstimate:
    """CLS estimates for every series of a panel, one entry or row per series.

    An identically zero series carries no signal to fit: it is flagged in
    ``degenerate`` and keeps the zero model (alpha = lam = 0, flat theta,
    no iterations), whose conditional mean is 0.
    """

    alpha: np.ndarray
    lam: np.ndarray
    theta: np.ndarray
    sse: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    projected: np.ndarray
    degenerate: np.ndarray
    sse_traces: list[list[float]] = field(default_factory=list)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products of two C-contiguous matrices; each row goes
    through the same BLAS ddot as ``a[i] @ b[i]``, so the sums are bit-equal
    to per-series ones (einsum or ``(a * b).sum(1)`` add in another order)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _squares(x: np.ndarray) -> np.ndarray:
    """Elementwise ``v**2`` through Python floats (libm pow), which is what a
    per-series fit on Python scalars computes; numpy's ``x * x`` differs in
    the last bit for some inputs."""
    return np.array([v**2 for v in x.tolist()])


def _sse(y_cur, y_lag, m_t, alpha, lam, theta) -> np.ndarray:
    th = theta.take(m_t, axis=1)
    resid = y_cur - alpha[:, None] * y_lag - lam[:, None] * th
    return _row_dots(resid, resid)


def cls_fit_panel(counts, season_of, record_sse: bool = False) -> ClsPanelEstimate:
    """Fit every series of a panel by cyclic CLS updates, all at once.

    Each iteration updates, for the series that have not yet converged, the
    joint (lam, alpha) minimizer given theta and then the constrained theta
    minimizer given (alpha, lam). Every series starts at alpha = 0.2, lam =
    its mean and a flat seasonal vector, and leaves the loop once its largest
    absolute parameter change drops below 1e-8, or unconverged after 100
    iterations. Every series keeps its own iteration count, convergence and
    projection flags, and its numbers equal those of fitting it alone, bit
    for bit.

    Parameters
    ----------
    counts : array of shape (L, T)
        Counts, T >= 14; identically zero rows are flagged, not fitted.
    season_of : sequence of int
        Month (1..12) of each week.
    record_sse : bool
        Keep each series' SSE after every block update in ``sse_traces``
        (each block is an exact coordinate minimizer, so a trace is
        nonincreasing except when a floor projection fires).
    """
    y = np.asarray(counts, dtype=float)
    if y.ndim != 2:
        raise ValueError("counts must be a 2-D (series x weeks) array")
    L, T = y.shape
    if T < 14:
        raise ValueError("need at least 14 observations to identify the CLS model")
    months = np.asarray(season_of, dtype=np.int64)
    if months.shape != (T,):
        raise ValueError("season_of must cover every week")

    m_t = months[1:] - 1
    n_i = np.bincount(m_t, minlength=N_MONTHS).astype(float)
    present = n_i > 0
    n_safe = np.where(present, n_i, 1.0)
    inv_n = np.where(present, 1.0 / n_safe, 0.0)
    inv_n_sum = inv_n.sum()

    alpha = np.full(L, 0.2)
    lam = y.mean(axis=1)
    theta = np.full((L, N_MONTHS), 1.0 / N_MONTHS)
    degenerate = ~np.any(y > 0, axis=1)
    alpha[degenerate] = 0.0  # the zero model: lam, the mean, is 0 and theta flat
    iterations = np.zeros(L, dtype=np.int64)
    converged = np.zeros(L, dtype=bool)
    projected = np.zeros(L, dtype=bool)
    traces: list[list[float]] = [[] for _ in range(L)] if record_sse else []

    # working copies of the series still iterating; rows leave on convergence
    rows = np.flatnonzero(~degenerate)
    y_cur = np.ascontiguousarray(y[rows, 1:])
    y_lag = np.ascontiguousarray(y[rows, :-1])
    a, lm, th = alpha[rows], lam[rows], theta[rows]
    s_y2 = _row_dots(y_lag, y_lag)
    s_yy = _row_dots(y_cur, y_lag)
    has_lag = s_y2 > 0
    proj = np.zeros(rows.size, dtype=bool)

    def record():
        for r, v in zip(rows.tolist(), _sse(y_cur, y_lag, m_t, a, lm, th).tolist()):
            traces[r].append(v)

    if record_sse:
        record()

    for it in range(1, _MAX_ITER + 1):
        if not rows.size:
            break
        a_old, lm_old, th_old = a, lm, th

        # joint (lam, alpha) minimizer given theta
        th_t = th.take(m_t, axis=1)
        s_th2 = _row_dots(th_t, th_t)
        s_yth = _row_dots(y_cur, th_t)
        s_lagth = _row_dots(y_lag, th_t)
        denom = s_y2 * s_th2 - _squares(s_lagth)
        solvable = denom > 1e-12 * np.maximum(s_y2 * s_th2, 1.0)
        lm = np.divide(s_y2 * s_yth - s_yy * s_lagth, denom, out=lm.copy(), where=solvable)
        a = np.divide(s_yy - lm * s_lagth, s_y2, out=a.copy(), where=has_lag)
        if record_sse:
            record()

        # constrained theta minimizer given (alpha, lam)
        upd = np.flatnonzero(np.abs(lm) > 1e-12)
        if upd.size:
            th = th.copy()
            lu = lm[upd]
            k = np.arange(upd.size)[:, None] * N_MONTHS + m_t
            d_i = np.bincount(
                k.ravel(), weights=(y_cur[upd] - a[upd, None] * y_lag[upd]).ravel(),
                minlength=upd.size * N_MONTHS,
            ).reshape(upd.size, N_MONTHS)
            c = 2.0 * lu / inv_n_sum * ((d_i * inv_n).sum(axis=1) - lu)
            new = np.where(
                present,
                (2.0 * lu[:, None] * d_i - c[:, None]) / (2.0 * _squares(lu)[:, None] * n_safe),
                0.0,
            )
            neg = np.flatnonzero(np.any(new[:, present] < 0, axis=1))
            if neg.size:
                floored = np.maximum(new[np.ix_(neg, present)], _THETA_FLOOR)
                floored /= floored.sum(axis=1, keepdims=True)
                new[np.ix_(neg, present)] = floored
                proj[upd[neg]] = True
            th[upd] = new
        if record_sse:
            record()

        delta = np.maximum(
            np.maximum(np.abs(a - a_old), np.abs(lm - lm_old)), np.abs(th - th_old).max(axis=1)
        )
        done = delta < _TOL
        iterations[rows] = it
        if done.any():
            out = rows[done]
            alpha[out], lam[out], theta[out] = a[done], lm[done], th[done]
            converged[out] = True
            projected[out] = proj[done]
            keep = ~done
            rows, a, lm, th, proj = rows[keep], a[keep], lm[keep], th[keep], proj[keep]
            y_cur, y_lag = y_cur[keep], y_lag[keep]
            s_y2, s_yy, has_lag = s_y2[keep], s_yy[keep], has_lag[keep]

    alpha[rows], lam[rows], theta[rows], projected[rows] = a, lm, th, proj
    sse = np.zeros(L)
    fitted = ~degenerate
    sse[fitted] = _sse(
        np.ascontiguousarray(y[fitted, 1:]), np.ascontiguousarray(y[fitted, :-1]), m_t,
        alpha[fitted], lam[fitted], theta[fitted],
    )
    return ClsPanelEstimate(
        alpha=alpha, lam=lam, theta=theta, sse=sse, iterations=iterations,
        converged=converged, projected=projected, degenerate=degenerate, sse_traces=traces,
    )

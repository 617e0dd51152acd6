"""Independent reference implementations the package is checked against.

Everything here is deliberately written from the definitions (brute force,
quadrature, exhaustive enumeration) and shares no code path with the package.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import stats as sps
from scipy.integrate import simpson


def convolution_innovation_pmf(y_prev: int, y_curr: int, alpha: float, rate: float) -> np.ndarray:
    """Innovation conditional via the direct survivor/innovation factorization:
    weight(e) = Binom(y_prev, alpha).pmf(y_curr - e) * Poisson(rate).pmf(e),
    normalized over the feasible support."""
    lo = max(0, y_curr - y_prev)
    eps = np.arange(lo, y_curr + 1)
    w = sps.binom.pmf(y_curr - eps, y_prev, alpha) * sps.poisson.pmf(eps, rate)
    return w / w.sum()


def scalar_predictive_pmf(y_T: int, alpha: float, rate: float, y_max: int | None = None) -> np.ndarray:
    """One-step predictive pmf of one draw on 0..m: scipy's Binomial(y_T, alpha)
    pmf convolved with its Poisson(rate) pmf.

    m starts at mean + 12*sqrt(mean) + y_T (or at ``y_max``) and grows by
    m*1.5 + 10 until the tail mass is below 1e-9 and the bound
    y_T P(P > m - y_T) + rate P(P >= m - y_T) on the tail's mean below 1e-12.
    """
    mean_hint = alpha * y_T + rate
    m = int(math.ceil(mean_hint + 12.0 * math.sqrt(mean_hint))) + y_T
    if y_max is not None:
        m = max(int(y_max), y_T)
    m = max(m, y_T, 1)
    binom_part = sps.binom.pmf(np.arange(y_T + 1), y_T, alpha)
    while True:
        pmf = np.convolve(binom_part, sps.poisson.pmf(np.arange(m + 1), rate))[: m + 1]
        tail_mean = y_T * sps.poisson.sf(m - y_T, rate) + rate * sps.poisson.sf(m - y_T - 1, rate)
        if 1.0 - pmf.sum() < 1e-9 and tail_mean < 1e-12:
            return pmf
        m = int(m * 1.5) + 10


def draw_averaged_pmf(y_T: int, alphas, rates) -> np.ndarray:
    """Mean over draws of ``scalar_predictive_pmf``, each draw on its own
    truncation point and zero beyond it."""
    pmfs = [scalar_predictive_pmf(y_T, a, r) for a, r in zip(alphas, rates)]
    acc = np.zeros(max(p.shape[0] for p in pmfs))
    for p in pmfs:
        acc[: p.shape[0]] += p
    return acc / len(pmfs)


def quadrature_log_marginal(
    s_total: int, mass: float, shape: float, rate: float,
    upper: float = 50.0, nodes: int = 100_001,
) -> float:
    """log integral_0^upper Poisson(s | lam*mass) Gamma(lam | shape, rate) dlam
    by Simpson's rule.

    Substituting lam = u^2 turns the integrand into
    2u * f(u^2): the lam^(shape-1) endpoint singularity disappears for all
    shape >= 1/2, so the same grid handles every base measure used here.
    """
    from scipy.special import gammaln

    if shape < 0.5:
        raise ValueError("u-substitution quadrature needs shape >= 1/2")
    u = np.linspace(0.0, np.sqrt(upper), nodes)
    lam = u**2
    exponent = 2.0 * shape - 1.0  # lam^(shape-1) * du-Jacobian = u^(2 shape - 1)
    log_u = np.full_like(u, -np.inf)
    np.log(u, out=log_u, where=u > 0)
    power_term = exponent * log_u if exponent != 0.0 else np.zeros_like(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        logf = (
            sps.poisson.logpmf(s_total, lam * mass)
            + shape * np.log(rate)
            - gammaln(shape)
            + power_term
            - rate * lam
            + np.log(2.0)
        )
    logf = np.where(np.isnan(logf), -np.inf, logf)  # 0 * inf corners of logpmf
    peak = logf.max()
    values = np.exp(logf - peak)
    return float(peak + np.log(simpson(values, x=u)))


def exhaustive_min_hamming(z_est: np.ndarray, z_true: np.ndarray) -> float:
    """Minimum mismatch fraction over every injective label mapping, by
    explicit enumeration (feasible for up to ~6 labels a side)."""
    z_est = np.asarray(z_est)
    z_true = np.asarray(z_true)
    est_labels = list(np.unique(z_est))
    true_labels = list(np.unique(z_true))
    L = z_est.shape[0]
    best = L
    if len(est_labels) <= len(true_labels):
        for image in itertools.permutations(true_labels, len(est_labels)):
            mapping = dict(zip(est_labels, image))
            mismatches = int(np.sum(np.array([mapping[a] for a in z_est]) != z_true))
            best = min(best, mismatches)
    else:
        for image in itertools.permutations(est_labels, len(true_labels)):
            mapping = dict(zip(true_labels, image))
            mismatches = int(np.sum(np.array([mapping[b] for b in z_true]) != z_est))
            best = min(best, mismatches)
    return best / L


def profiled_theta_sse(y: np.ndarray, season_of: np.ndarray, alpha: float, lam: float) -> float:
    """SSE at (alpha, lam) with the seasonal vector profiled out exactly.

    Solves the equality-constrained quadratic in theta through its KKT
    system, an independent route from the package's cyclic update.
    """
    y = np.asarray(y, dtype=float)
    months = np.asarray(season_of, dtype=np.int64)[1:] - 1
    resid = y[1:] - alpha * y[:-1]
    n_i = np.bincount(months, minlength=12).astype(float)
    d_i = np.bincount(months, weights=resid, minlength=12)
    present = np.flatnonzero(n_i > 0)
    p = present.shape[0]
    if lam == 0.0:
        return float(resid @ resid)
    # KKT: 2 lam^2 n_i theta_i + mu = 2 lam d_i ; sum_present theta_i = 1
    A = np.zeros((p + 1, p + 1))
    b = np.zeros(p + 1)
    for row, i in enumerate(present):
        A[row, row] = 2.0 * lam**2 * n_i[i]
        A[row, p] = 1.0
        b[row] = 2.0 * lam * d_i[i]
    A[p, :p] = 1.0
    b[p] = 1.0
    sol = np.linalg.solve(A, b)
    theta = np.zeros(12)
    theta[present] = sol[:p]
    fitted = lam * theta[months]
    err = resid - fitted
    return float(err @ err)


def grid_search_sse(
    y: np.ndarray,
    season_of: np.ndarray,
    n_points: int = 20,
    rounds: int = 3,
) -> float:
    """Best SSE over a refined (alpha, lam) grid with theta profiled."""
    y = np.asarray(y, dtype=float)
    a_lo, a_hi = -0.5, 1.2
    l_lo, l_hi = 1e-6, max(24.0 * y.mean(), 1.0)
    best = np.inf
    for _ in range(rounds):
        alphas = np.linspace(a_lo, a_hi, n_points)
        lams = np.linspace(l_lo, l_hi, n_points)
        values = np.array(
            [[profiled_theta_sse(y, season_of, a, l) for l in lams] for a in alphas]
        )
        ai, li = np.unravel_index(np.argmin(values), values.shape)
        best = min(best, float(values[ai, li]))
        da = (a_hi - a_lo) / (n_points - 1)
        dl = (l_hi - l_lo) / (n_points - 1)
        a_lo, a_hi = alphas[ai] - da, alphas[ai] + da
        l_lo, l_hi = max(lams[li] - dl, 1e-9), lams[li] + dl
    return best

"""Independent reference implementations the package is checked against.

Everything here is deliberately written from the definitions (brute force,
quadrature, exhaustive enumeration) and shares no code path with the package.
The exceptions are the last three sections: the earlier, simpler
implementations of the sweep hot spots and of the per-series predictive
pmfs, kept verbatim so that the faster package versions can be checked to
give exactly the same numbers, and the earlier per-cell counts CSV parser,
against which the package's parser is checked file by file.
"""

from __future__ import annotations

import csv
import datetime
import itertools
import math
from pathlib import Path

import numpy as np
from scipy import stats as sps
from scipy.integrate import simpson
from scipy.special import gammaln, pdtrc, xlog1py, xlogy

from poinar.io import ParseError, load_exposure, months_of
from poinar.panel import CountPanel
from poinar.sampler import (
    INNOVATION_EXACT,
    INNOVATION_METROPOLIS,
    SuffStats,
    log_innovation_total_marginal,
)


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


# ---------------------------------------------------------------------------
# Earlier sweep hot spots, kept verbatim as bit-identity references
# ---------------------------------------------------------------------------

_ALPHA_EPS = 1e-12


class PaddedInnovationKernel:
    """The innovation update with one grid padded to the widest support in
    the panel: every exact cell gets that many columns."""

    def __init__(self, counts: np.ndarray, strategy: str = INNOVATION_EXACT,
                 mh_threshold: int = 30):
        self.counts = counts
        self.strategy = strategy
        self.mh_threshold = mh_threshold
        self.lgam = gammaln(np.arange(int(counts.max()) + 2, dtype=float))
        self.yp = counts[:, :-1]
        self.yc = counts[:, 1:]
        self.lo = np.maximum(self.yc - self.yp, 0)
        width = np.minimum(self.yc, self.yp)

        active = width > 0
        if strategy == INNOVATION_METROPOLIS:
            self.mh_mask = active & (self.yc > mh_threshold)
            exact = active & ~self.mh_mask
        else:
            self.mh_mask = None
            exact = active
        # the active cells never change, so gather their geometry once
        self.rows, self.cols = np.nonzero(exact)
        self.base = self.lo[self.rows, self.cols]
        n = self.rows.size
        m = int(width[self.rows, self.cols].max()) + 1 if n else 0
        if n:
            w = width[self.rows, self.cols]
            valid = np.arange(m)[None, :] <= w[:, None]
            grid = (self.base[:, None] + np.arange(m)) * valid
            surv = (self.yc[self.rows, self.cols][:, None] - grid) * valid
            fail = (self.yp[self.rows, self.cols][:, None] - surv) * valid
            # log-factorial terms never change across sweeps; only the rate
            # term multiplies the support grid
            logw0 = -(self.lgam[grid + 1] + self.lgam[surv + 1] + self.lgam[fail + 1])
            logw0[~valid] = -np.inf
            self.grid0 = grid.astype(float)
            self.logw0 = logw0
        else:
            self.grid0 = np.zeros((0, 0))
            self.logw0 = np.zeros((0, 0))
        self._logw = np.empty_like(self.logw0)
        self._work = np.empty_like(self.logw0)
        self._below = np.empty(self.logw0.shape, dtype=bool)

    def __call__(self, eps: np.ndarray, alpha: np.ndarray, rates: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
        a = np.clip(alpha, _ALPHA_EPS, 1.0 - _ALPHA_EPS)
        log_odds = np.log1p(-a) - np.log(a)

        new = np.empty_like(self.counts)
        new[:, 0] = self.counts[:, 0]
        tail = self.lo.copy()  # deterministic cells resolve to their support point

        n = self.rows.size
        if n:
            log_c = np.log(rates[self.rows, self.cols])
            log_c += log_odds[self.rows]
            logw, work = self._logw, self._work
            np.multiply(self.grid0, log_c[:, None], out=logw)
            logw += self.logw0
            np.subtract(logw, logw.max(axis=1, keepdims=True), out=logw)
            np.exp(logw, out=logw)
            np.cumsum(logw, axis=1, out=work)
            u = rng.random(n) * work[:, -1]
            np.less(work, u[:, None], out=self._below)
            tail[self.rows, self.cols] = self.base + self._below.sum(axis=1)

        if self.mh_mask is not None:
            rows, cols = np.nonzero(self.mh_mask)
            if rows.size:
                lgam = self.lgam
                cur = eps[rows, cols + 1]
                prop = rng.poisson(rates[rows, cols])
                lo_c = self.lo[rows, cols]
                yc_c = self.yc[rows, cols]
                diff = self.yp[rows, cols] - yc_c
                feasible = (prop >= lo_c) & (prop <= yc_c)
                p_safe = np.clip(prop, lo_c, yc_c)
                log_ratio = (
                    (p_safe - cur) * log_odds[rows]
                    + lgam[yc_c - cur + 1] + lgam[diff + cur + 1]
                    - lgam[yc_c - p_safe + 1] - lgam[diff + p_safe + 1]
                )
                accept = feasible & (np.log(rng.random(rows.size)) < log_ratio)
                tail[rows, cols] = np.where(accept, p_safe, cur)

        new[:, 1:] = tail
        return new


def _relabel_by_first_appearance(z, *cluster_arrays):
    _, first = np.unique(z, return_index=True)
    old_order = np.argsort(first)  # old labels in order of first appearance
    perm = np.empty(old_order.shape[0], dtype=np.int64)
    perm[old_order] = np.arange(old_order.shape[0])
    return perm[z], tuple(arr[old_order] for arr in cluster_arrays)


def list_sample_memberships(state, panel, stats, hyper, rng, order=None):
    """One collapsed membership sweep over Python lists of the cluster
    statistics, recomputing every cluster's marginal at each visit."""
    g1, g2 = hyper.gamma1, hyper.gamma2
    S, mass = stats.S, stats.mass
    z = state.z.copy()
    B = list(stats.B)
    n = list(stats.n)
    U = list(stats.U)
    log_tau = np.log(state.tau)
    if order is None:
        order = np.arange(z.shape[0])

    for l in order:
        k = z[l]
        n[k] -= 1
        B[k] -= S[l]
        U[k] -= mass[l]
        if n[k] == 0:
            del n[k], B[k], U[k]
            z[z > k] -= 1
        K = len(n)
        nb = np.asarray(B)
        nu = np.asarray(U)
        logw = np.empty(K + 1)
        logw[:K] = np.log(np.asarray(n, dtype=float)) + log_innovation_total_marginal(
            S[l], mass[l], nb + g1, nu + g2
        )
        logw[K] = log_tau + log_innovation_total_marginal(S[l], mass[l], g1, g2)
        logw -= logw.max()
        w = np.exp(logw)
        k_new = int(np.searchsorted(np.cumsum(w), rng.random() * w.sum(), side="right"))
        if k_new == K:
            n.append(0)
            B.append(0.0)
            U.append(0.0)
        z[l] = k_new
        n[k_new] += 1
        B[k_new] += S[l]
        U[k_new] += mass[l]

    z, (B, n, U) = _relabel_by_first_appearance(
        z, np.asarray(B), np.asarray(n, dtype=np.int64), np.asarray(U)
    )
    new_stats = SuffStats(
        S=stats.S, B=B, n=n, U=U, R=stats.R,
        theta_total=stats.theta_total, mass=stats.mass,
    )
    return z, new_stats


def weekly_sample_thinnings(state, panel, hyper, rng):
    """The thinning update summing survivors and removed trials week by
    week, over (L, T-1) temporaries."""
    if state.innovations is None:
        raise ValueError("state carries no innovations")
    y = panel.counts
    eps_tail = state.innovations[:, 1:]
    survivors = (y[:, 1:] - eps_tail).sum(axis=1)
    removed = (y[:, :-1] - y[:, 1:] + eps_tail).sum(axis=1)
    return rng.beta(survivors + hyper.eta1, removed + hyper.eta2)


# ---------------------------------------------------------------------------
# Earlier predictive pmfs: one kernel call per series, kept verbatim
# ---------------------------------------------------------------------------

_TAIL_MASS = 1e-9
_TAIL_MEAN = 1e-12


def per_series_predictive_rows(y_T: int, alpha, rate, m: int | None = None) -> np.ndarray:
    """Exact one-step pmfs of D draws sharing one truncation point, shape
    (D, m+1); m starts at the largest mean + 12*sqrt(mean) + y_T and grows
    by m*1.5 + 10 until every row meets both tail budgets."""
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
        for s in k:
            rows[:, s:] += binom[:, s, None] * pois[:, : m + 1 - s]
        tail_mass = 1.0 - rows.sum(axis=1)
        tail_mean = y_T * _poisson_sf(m - y_T, rate) + rate * _poisson_sf(m - y_T - 1, rate)
        if np.all(tail_mass < _TAIL_MASS) and np.all(tail_mean < _TAIL_MEAN):
            return rows
        m = int(m * 1.5) + 10


def _poisson_sf(k: int, rate: np.ndarray) -> np.ndarray:
    return pdtrc(k, rate) if k >= 0 else np.ones_like(rate)


def per_series_posterior_predictive(y_T, draws, month: int, exposure=None) -> list[tuple]:
    """``(pmf, y_max, mean)`` of every series' draw-averaged one-step pmf,
    one kernel call per series."""
    alpha, lam, theta = draws.stacked(exposure)
    rate = lam * theta[:, month - 1, None]
    out = []
    for l, y in enumerate(np.asarray(y_T)):
        pmf = per_series_predictive_rows(int(y), alpha[:, l], rate[:, l]).mean(axis=0)
        m = pmf.shape[0] - 1
        out.append((pmf, m, float(np.arange(m + 1) @ pmf)))
    return out


# ---------------------------------------------------------------------------
# Earlier counts CSV parser: ``int()`` and a sign check on every cell
# ---------------------------------------------------------------------------


def per_cell_load_counts(path, exposure_path=None) -> CountPanel:
    """Read a counts CSV (and optionally an exposure CSV) into a panel."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if not header or header[0] != "series_id":
            raise ParseError(f"{path}: first header column must be 'series_id'")
        dates = []
        for j, cell in enumerate(header[1:], start=2):
            try:
                dates.append(datetime.date.fromisoformat(cell.strip()))
            except ValueError:
                raise ParseError(
                    f"{path}: header column {j} is not an ISO week-start date: {cell!r}"
                ) from None
        if not dates:
            raise ParseError(f"{path}: no week columns")

        ids: list[str] = []
        rows: list[list[int]] = []
        for i, row in enumerate(reader, start=2):
            if len(row) != len(dates) + 1:
                raise ParseError(
                    f"{path}: row {i} has {len(row)} cells, expected {len(dates) + 1}"
                )
            ids.append(row[0])
            values = []
            for j, cell in enumerate(row[1:], start=2):
                try:
                    value = int(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {i}, column {j}: not an integer count: {cell!r}"
                    ) from None
                if value < 0:
                    raise ParseError(
                        f"{path}: row {i}, column {j}: negative count {value}"
                    )
                values.append(value)
            rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no series rows")
    if len(set(ids)) != len(ids):
        raise ParseError(f"{path}: duplicate series ids")

    exposure = None
    if exposure_path is not None:
        exposure = load_exposure(exposure_path, ids)
    return CountPanel(
        counts=np.array(rows, dtype=np.int64),
        season_of=months_of(dates),
        exposure=exposure,
        series_ids=ids,
        week_starts=dates,
    )

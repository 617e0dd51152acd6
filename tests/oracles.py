"""Independent reference implementations the package is checked against.

Everything here is deliberately written from the definitions (brute force,
quadrature, exhaustive enumeration) and shares no code path with the package.
That includes ``innovation_pmf``, the exact conditional of one innovation
count, against which the sampler's vectorized ``InnovationKernel`` is
checked. The exceptions are the last six sections: the earlier, simpler
implementations of the sweep hot spots, of the per-series predictive pmfs
and of the study's scoring layers (per-series CLS fits, the pairwise
representative clustering), kept verbatim so that the faster package
versions can be checked to give the same numbers; the earlier per-cell
counts CSV parser, against which the package's parser is checked file by
file; and the earlier rendering of the CLI's forecast, evaluation and study
tables, one dict per row through ``csv.DictWriter``, and of its JSON
documents through ``json.dumps``, against which the command outputs are
checked byte for byte; and the checks of a sampler state's and its
statistics' invariants and the exposure CSV writer, which only tests call.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import itertools
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats as sps
from scipy.integrate import simpson
from scipy.optimize import linear_sum_assignment
from scipy.special import gammaln, pdtrc, xlog1py, xlogy

from poinar.baselines import ClsPanelEstimate
from poinar.diagnostics import (
    cluster_count_histogram,
    forecast_metrics,
    psrf,
    representative_assignment,
)
from poinar.forecast import posterior_conditional_means
from poinar.harness import METHOD_BNP, METHODS, holdout_origin_weeks
from poinar.io import ParseError, load_exposure, months_of, week_starts_from
from poinar.memberships import SuffStats, log_innovation_total_marginal
from poinar.model import ModelState, model_exposure
from poinar.panel import N_MONTHS, CountPanel, innovation_bounds


_ALPHA_EPS = 1e-12


def innovation_support(y_prev: int, y_curr: int) -> tuple[int, int]:
    """Feasible innovation range: max(0, y_curr - y_prev) .. y_curr."""
    return max(0, int(y_curr) - int(y_prev)), int(y_curr)


def innovation_pmf(y_prev: int, y_curr: int, alpha: float, rate: float) -> np.ndarray:
    """Exact conditional pmf of one innovation count over its support.

    The returned array aligns with ``range(lo, hi + 1)`` where
    ``(lo, hi) = innovation_support(y_prev, y_curr)``. The unnormalized weight
    of innovation e is
    ``(rate * (1 - alpha) / alpha)**e / (e! (y_curr-e)! (y_prev-y_curr+e)!)``,
    with alpha clamped to [1e-12, 1 - 1e-12] as the kernel clamps it.
    """
    if rate <= 0:
        raise ValueError("innovation rate must be positive")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"thinning probability must lie in [0, 1], got {alpha}")
    lo, hi = innovation_support(y_prev, y_curr)
    eps = np.arange(lo, hi + 1)
    a = min(max(alpha, _ALPHA_EPS), 1.0 - _ALPHA_EPS)
    log_c = np.log(rate) + np.log1p(-a) - np.log(a)
    logw = (
        eps * log_c
        - gammaln(eps + 1.0)
        - gammaln(y_curr - eps + 1.0)
        - gammaln(y_prev - y_curr + eps + 1.0)
    )
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def convolution_innovation_pmf(y_prev: int, y_curr: int, alpha: float, rate: float) -> np.ndarray:
    """Innovation conditional via the direct survivor/innovation factorization:
    weight(e) = Binom(y_prev, alpha).pmf(y_curr - e) * Poisson(rate).pmf(e),
    normalized over the feasible support."""
    lo = max(0, y_curr - y_prev)
    eps = np.arange(lo, y_curr + 1)
    w = sps.binom.pmf(y_curr - eps, y_prev, alpha) * sps.poisson.pmf(eps, rate)
    return w / w.sum()


def binomial_pmf(n: int, alpha: float) -> np.ndarray:
    """Binomial(n, alpha) pmf on 0..n, each term as exp(log C(n, k) + k log alpha
    + (n - k) log1p(-alpha)) with the binomial coefficient an exact integer;
    alpha = 0 and alpha = 1 are point masses.

    Within about 1e-15 of the exact pmf for n up to 400 and alpha from 1e-300
    to 1 - 1e-9, where scipy's ``binom.pmf(0, 342, 1e-300)`` is 1.0e-13 off.
    """
    pmf = np.zeros(n + 1)
    if alpha == 0.0:
        pmf[0] = 1.0
    elif alpha == 1.0:
        pmf[n] = 1.0
    else:
        log_a, log_b = math.log(alpha), math.log1p(-alpha)
        for k in range(n + 1):
            pmf[k] = math.exp(math.log(math.comb(n, k)) + k * log_a + (n - k) * log_b)
    return pmf


def scalar_predictive_pmf(y_T: int, alpha: float, rate: float, y_max: int | None = None) -> np.ndarray:
    """One-step predictive pmf of one draw on 0..m: the Binomial(y_T, alpha)
    pmf convolved with scipy's Poisson(rate) pmf.

    m starts at mean + 12*sqrt(mean) + y_T (or at ``y_max``) and grows by
    m*1.5 + 10 until the tail mass is below 1e-9 and the bound
    y_T P(P > m - y_T) + rate P(P >= m - y_T) on the tail's mean below 1e-12.
    """
    mean_hint = alpha * y_T + rate
    m = int(math.ceil(mean_hint + 12.0 * math.sqrt(mean_hint))) + y_T
    if y_max is not None:
        m = max(int(y_max), y_T)
    m = max(m, y_T, 1)
    binom_part = binomial_pmf(y_T, alpha)
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


def closed_form_h_step_mean(y_T, alpha, lam, theta, future_months):
    """The h-step conditional mean of Freeland & McCabe (2004), term by term:
    alpha^h y_T + lam sum_{j=1..h} alpha^(h-j) theta_{m_j}, with
    ``future_months`` one month or a 1-D sequence m_1..m_h. The last axis of
    ``theta`` holds the 12 monthly effects; its leading axes broadcast with
    ``y_T``, ``alpha`` and ``lam``."""
    months = np.atleast_1d(np.asarray(future_months, dtype=np.int64))
    h = months.size
    alpha = np.asarray(alpha, dtype=float)
    powers = alpha[..., None] ** np.arange(h - 1, -1, -1, dtype=float)
    path = np.asarray(theta, dtype=float)[..., months - 1]
    return alpha**h * y_T + lam * (powers * path).sum(axis=-1)


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


class PaddedInnovationKernel:
    """The innovation update with one grid padded to the widest support in
    the panel: every enumerated cell gets that many columns. ``series_ids``,
    which the package kernel names in its memory check, is accepted and
    not used, so that ``run_chain`` can build this in its place."""

    def __init__(self, counts: np.ndarray, series_ids=None):
        self.counts = counts
        self.lgam = gammaln(np.arange(int(counts.max()) + 2, dtype=float))
        self.yp = counts[:, :-1]
        self.yc = counts[:, 1:]
        self.lo = np.maximum(self.yc - self.yp, 0)
        width = np.minimum(self.yc, self.yp)

        # the active cells never change, so gather their geometry once
        self.rows, self.cols = np.nonzero(width > 0)
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

    def __call__(self, alpha: np.ndarray, rates: np.ndarray,
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

        new[:, 1:] = tail
        return new


def _relabel_by_first_appearance(z, *cluster_arrays):
    _, first = np.unique(z, return_index=True)
    old_order = np.argsort(first)  # old labels in order of first appearance
    perm = np.empty(old_order.shape[0], dtype=np.int64)
    perm[old_order] = np.arange(old_order.shape[0])
    return perm[z], tuple(arr[old_order] for arr in cluster_arrays)


def list_sample_memberships(state, panel, stats, hyper, rng, order=None, *, log_gamma=None):
    """One collapsed membership sweep over Python lists of the cluster
    statistics, recomputing every cluster's marginal at each visit.
    ``log_gamma``, the package sweep's table, is accepted and not used, so
    that ``run_chain`` can call this in its place."""
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
    """``(pmf, y_max)`` of every series' draw-averaged one-step pmf, one
    kernel call per series."""
    alpha, lam, theta = draws.stacked(exposure)
    rate = lam * theta[:, month - 1, None]
    out = []
    for l, y in enumerate(np.asarray(y_T)):
        pmf = per_series_predictive_rows(int(y), alpha[:, l], rate[:, l]).mean(axis=0)
        out.append((pmf, pmf.shape[0] - 1))
    return out


def per_series_quantile(pmf: np.ndarray, levels) -> np.ndarray:
    """Smallest count whose CDF reaches each level, one series' pmf at a
    time: one ``cumsum`` and one ``searchsorted``."""
    levels = np.asarray(levels, dtype=float)
    cdf = np.cumsum(pmf)
    if np.any(levels > cdf[-1]):
        raise ValueError("requested quantile lies beyond the truncation point")
    return np.searchsorted(cdf, levels, side="left")


# ---------------------------------------------------------------------------
# Earlier output rendering: one dict per row through ``csv.DictWriter``
# ---------------------------------------------------------------------------


def _dict_csv(path: Path, fieldnames: list[str], rows: list[dict]):
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def dict_forecasts_csv(path, panel, draws, quantiles: list[float], horizon: int):
    """``forecasts.csv`` of ``poinar forecast`` on ``panel``: one dict per
    series, quantiles from each series' own pmf and cdf."""
    exposure = model_exposure(panel, draws.mode)
    future = months_of(
        week_starts_from(panel.week_starts[-1] + datetime.timedelta(days=7), horizon)
    )
    y_last = panel.counts[:, -1]
    means = posterior_conditional_means(draws, y_last, future, exposure)
    dists = (per_series_posterior_predictive(y_last, draws, int(future[0]), exposure)
             if quantiles else [])

    q_fields = [f"q{q}" for q in quantiles]
    rows = []
    for l, sid in enumerate(panel.series_ids):
        row = {"series_id": sid, "y_last": int(y_last[l]), "mean": repr(float(means[0, l]))}
        if quantiles:
            row.update(zip(q_fields, per_series_quantile(dists[l][0], quantiles).tolist()))
        for h in range(2, horizon + 1):
            row[f"mean_step{h}"] = repr(float(means[h - 1, l]))
        rows.append(row)

    columns = ["series_id", "y_last", "mean"] + q_fields
    columns += [f"mean_step{h}" for h in range(2, horizon + 1)]
    _dict_csv(Path(path), columns, rows)


def dict_evaluation_files(out, panel, draws, holdout: int, origins: str, bucket_cap: int):
    """``evaluation.csv``, ``evaluation.json`` and ``forecast_details.csv``
    of ``poinar evaluate`` on ``panel``, written into ``out``: one dict per
    forecast and per bucket."""
    out = Path(out)
    exposure = model_exposure(panel, draws.mode)
    targets = np.array(holdout_origin_weeks(panel, holdout, origins), dtype=np.int64)
    y_prev = panel.counts[:, targets - 1].T
    months = panel.season_of[targets][:, None]
    preds = posterior_conditional_means(draws, y_prev, months, exposure)[0]
    actuals = panel.counts[:, targets].T
    rows = [
        {
            "series_id": sid,
            "week": int(w) + 1,
            "last_value": int(y_prev[i, l]),
            "prediction": float(preds[i, l]),
            "actual": int(actuals[i, l]),
        }
        for i, w in enumerate(targets)
        for l, sid in enumerate(panel.series_ids)
    ]
    report = forecast_metrics(
        preds.ravel(), actuals.ravel(), y_prev.ravel(), bucket_cap=bucket_cap
    )

    columns = ["last_value", "rmse", "rmse_se", "bias", "bias_se", "frequency", "n"]
    bucket_rows = [
        {"last_value": f"{key}+" if key == report.bucket_cap else str(key),
         **{c: repr(getattr(b, c)) for c in columns[1:-1]}, "n": b.n}
        for key, b in sorted(report.by_last_value.items())
    ]
    bucket_rows.append({"last_value": "overall", "rmse": repr(report.rmse), "rmse_se": "",
                        "bias": repr(report.bias), "bias_se": "", "frequency": repr(1.0),
                        "n": report.n_total})
    _dict_csv(out / "evaluation.csv", columns, bucket_rows)
    doc = {
        "rmse": report.rmse,
        "ape": report.ape,
        "bias": report.bias,
        "n_total": report.n_total,
        "n_ape": report.n_ape,
        "n_zero_truth": report.n_zero_truth,
        "bucket_cap": report.bucket_cap,
        "by_last_value": {
            str(k): dataclasses.asdict(v) for k, v in sorted(report.by_last_value.items())
        },
    }
    with (out / "evaluation.json").open("w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _dict_csv(
        out / "forecast_details.csv",
        ["series_id", "week", "last_value", "prediction", "actual"],
        [{**r, "prediction": repr(r["prediction"])} for r in rows],
    )


def dict_study_csv(path, report):
    """``study.csv`` of ``poinar study`` for ``report``: one dict per
    scenario and method, floats as their ``repr``."""
    rows = []
    for r in report.results:
        for method in METHODS:
            rows.append(
                {
                    "scenario": r.scenario.name,
                    "rates": "/".join(str(x) for x in r.scenario.cluster_rates),
                    "thinning": r.scenario.thinning,
                    "method": method,
                    "rmse": r.rmse[method],
                    "ape": r.ape[method],
                    "true_conditional_mean": r.true_mean,
                    "modal_k": r.modal_k if method == METHOD_BNP else "",
                    "hamming_representative": (
                        r.hamming_representative if method == METHOD_BNP else ""
                    ),
                }
            )
    rows = [{k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()}
            for row in rows]
    _dict_csv(
        Path(path),
        ["scenario", "rates", "thinning", "method", "rmse", "ape",
         "true_conditional_mean", "modal_k", "hamming_representative"],
        rows,
    )


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def truth_json(scenario, seed: int, panel, truth, next_month: int) -> str:
    """``truth.json`` of ``poinar simulate`` for the simulated ``scenario``."""
    return _json_text({
        "scenario": scenario.name,
        "seed": seed,
        "memberships": [int(k) for k in truth.z],
        "cluster_rates": [float(r) for r in truth.phi_star],
        "alpha": [float(a) for a in truth.alpha],
        "theta": [float(t) for t in truth.theta],
        "next_month": next_month,
        "series_ids": panel.series_ids,
    })


def diagnostics_json(draws, exposure) -> str:
    """``diagnostics.json`` of ``poinar fit`` for its ``draws``; the PSRFs
    only for two or more chains."""
    hist = cluster_count_histogram(draws)
    doc = {
        "n_draws": len(draws),
        "cluster_count_freqs": {str(k): v for k, v in hist.freqs.items()},
        "modal_clusters": hist.mode,
        "representative_assignment": [int(k) for k in representative_assignment(draws)],
    }
    if len(np.unique(draws.chain_index)) >= 2:
        doc["psrf_rate_sum"] = psrf(draws.rate_sum_traces(exposure))
        doc["psrf_alpha"] = psrf(draws.by_chain(draws.alpha)).tolist()
        doc["psrf_theta"] = psrf(draws.by_chain(draws.theta)).tolist()
    return _json_text(doc)


def study_json(report) -> str:
    """``study.json`` of ``poinar study`` for ``report``."""
    return _json_text({
        "scale": report.scale,
        "seed": report.seed,
        "n_replicates": report.n_replicates,
        "results": [
            {
                "scenario": r.scenario.name,
                "cluster_rates": list(r.scenario.cluster_rates),
                "thinning": r.scenario.thinning,
                "L": r.scenario.L,
                "T": r.scenario.T,
                "rmse": r.rmse,
                "ape": r.ape,
                "true_conditional_mean": r.true_mean,
                "modal_k": r.modal_k,
                "hamming_representative": r.hamming_representative,
                "hamming_mean": r.hamming_mean,
            }
            for r in report.results
        ],
    })


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


# ---------------------------------------------------------------------------
# Earlier scoring layers: one CLS fit per series, and the representative
# clustering over every pair of draws with float mean distances
# ---------------------------------------------------------------------------

_CLS_THETA_FLOOR = 1e-8


class DegenerateSeriesError(ValueError):
    """An identically zero series: no signal for the CLS model to fit."""


def per_series_cls_fit(series, season_of, init=None, tol: float = 1e-8, max_iter: int = 100):
    """Fit one series by cyclic CLS updates on Python scalars.

    Returns (alpha, lam, theta, sse, iterations, converged, projected) and
    raises ``DegenerateSeriesError`` on an identically zero series.
    """
    y = np.asarray(series, dtype=float)
    T = y.shape[0]
    if T < 14:
        raise ValueError("need at least 14 observations to identify the CLS model")
    if not np.any(y > 0):
        raise DegenerateSeriesError("series is identically zero")
    months = np.asarray(season_of, dtype=np.int64)

    m_t = months[1:] - 1
    y_lag = y[:-1]
    y_cur = y[1:]
    n_i = np.bincount(m_t, minlength=12).astype(float)
    present = n_i > 0

    if init is None:
        alpha, lam = 0.2, float(y.mean())
        theta = np.full(12, 1.0 / 12)
    else:
        alpha, lam = float(init[0]), float(init[1])
        theta = np.asarray(init[2], dtype=float).copy()

    s_y2 = float(y_lag @ y_lag)
    s_yy = float(y_cur @ y_lag)
    projected = False
    converged = False

    it = 0
    for it in range(1, max_iter + 1):
        alpha_old, lam_old, theta_old = alpha, lam, theta.copy()

        th_t = theta[m_t]
        s_th2 = float(th_t @ th_t)
        s_yth = float(y_cur @ th_t)
        s_lagth = float(y_lag @ th_t)
        denom = s_y2 * s_th2 - s_lagth**2
        if denom > 1e-12 * max(s_y2 * s_th2, 1.0):
            lam = (s_y2 * s_yth - s_yy * s_lagth) / denom
        if s_y2 > 0:
            alpha = (s_yy - lam * s_lagth) / s_y2

        if abs(lam) > 1e-12:
            d_i = np.bincount(m_t, weights=y_cur - alpha * y_lag, minlength=12)
            inv_n = np.where(present, 1.0 / np.where(present, n_i, 1.0), 0.0)
            c = 2.0 * lam / inv_n.sum() * (float((d_i * inv_n).sum()) - lam)
            theta = np.where(present, (2.0 * lam * d_i - c) / (2.0 * lam**2 * np.where(present, n_i, 1.0)), 0.0)
            if np.any(theta[present] < 0):
                theta[present] = np.maximum(theta[present], _CLS_THETA_FLOOR)
                theta[present] /= theta[present].sum()
                projected = True

        delta = max(abs(alpha - alpha_old), abs(lam - lam_old), float(np.abs(theta - theta_old).max()))
        if delta < tol:
            converged = True
            break

    resid = y_cur - alpha * y_lag - lam * theta[m_t]
    return alpha, lam, theta, float(resid @ resid), it, converged, projected


def per_series_cls_panel(counts, season_of) -> ClsPanelEstimate:
    """``cls_fit_panel``'s result assembled from one oracle fit per row,
    with the zero model for identically zero rows."""
    L = len(counts)
    out = ClsPanelEstimate(
        alpha=np.zeros(L), lam=np.zeros(L), theta=np.full((L, 12), 1.0 / 12), sse=np.zeros(L),
        iterations=np.zeros(L, dtype=np.int64), converged=np.zeros(L, dtype=bool),
        projected=np.zeros(L, dtype=bool), degenerate=np.zeros(L, dtype=bool),
    )
    for l, series in enumerate(counts):
        try:
            fit = per_series_cls_fit(series, season_of)
        except DegenerateSeriesError:
            out.degenerate[l] = True
            continue
        (out.alpha[l], out.lam[l], out.theta[l], out.sse[l], out.iterations[l],
         out.converged[l], out.projected[l]) = fit
    return out


def _add_at_contingency(z_a, z_b):
    labels_a, inv_a = np.unique(z_a, return_inverse=True)
    labels_b, inv_b = np.unique(z_b, return_inverse=True)
    table = np.zeros((labels_a.shape[0], labels_b.shape[0]), dtype=np.int64)
    np.add.at(table, (inv_a, inv_b), 1)
    return table


def add_at_mismatches(z_a, z_b) -> int:
    """Memberships left unmatched by the best injective relabeling, from a
    dense ``np.add.at`` table and ``linear_sum_assignment``."""
    z_a = np.asarray(z_a)
    table = _add_at_contingency(z_a, np.asarray(z_b))
    rows, cols = linear_sum_assignment(table, maximize=True)
    return z_a.shape[0] - int(table[rows, cols].sum())


def add_at_hamming_error(z_est, z_true) -> float:
    """Relabeling-optimal mismatch fraction from an ``np.add.at`` table."""
    return add_at_mismatches(z_est, z_true) / np.asarray(z_est).shape[0]


def per_draw_hamming_mean(zs, z_true) -> float:
    """Mean Hamming error of every draw, one draw at a time."""
    return float(np.mean([add_at_hamming_error(z, z_true) for z in zs]))


def pairwise_mean_distances(zs) -> np.ndarray:
    """Each draw's float mean Hamming distance to the others, over all
    D(D-1)/2 pairs of draws."""
    n = len(zs)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = add_at_hamming_error(zs[i], zs[j])
            dist[i, j] = dist[j, i] = d
    return dist.sum(axis=1) / (n - 1)


def pairwise_representative_assignment(draws) -> np.ndarray:
    """The draw with the smallest float mean distance to the others; ties go
    to the smallest (chain, iteration)."""
    zs = draws.z
    if len(zs) == 1:
        return zs[0].copy()
    avg = pairwise_mean_distances(zs)
    best = np.flatnonzero(avg <= avg.min())
    keys = sorted(best, key=lambda i: (draws.chain_index[i], draws.iteration[i]))
    return zs[keys[0]].copy()


# ---------------------------------------------------------------------------
# Invariant checks and an exposure writer that only the tests call
# ---------------------------------------------------------------------------


def validate_state(state: ModelState, panel: CountPanel | None = None):
    """Assert the structural invariants of ``state``."""
    L = state.z.shape[0]
    K = state.n_clusters
    if state.alpha.shape != (L,) or np.any((state.alpha < 0) | (state.alpha > 1)):
        raise AssertionError("alpha must be length L within [0, 1]")
    if np.any((state.z < 0) | (state.z >= K)):
        raise AssertionError("memberships must reference existing clusters")
    if len(np.unique(state.z)) != K:
        raise AssertionError("clusters must be contiguously indexed with no empties")
    if np.any(state.phi_star <= 0) or np.any(state.theta <= 0) or not state.tau > 0:
        raise AssertionError("rates, seasonals and concentration must be positive")
    if state.theta.shape != (N_MONTHS,):
        raise AssertionError("theta must have 12 entries")
    if panel is not None and state.innovations is not None:
        eps = state.innovations
        if eps.shape != panel.counts.shape:
            raise AssertionError("innovations must match the panel shape")
        lo, hi = innovation_bounds(panel.counts)
        if np.any(eps < lo) or np.any(eps > hi):
            raise AssertionError("innovation support bounds violated")


def validate_stats(stats: SuffStats):
    """Assert that ``stats``' totals agree and its clusters are non-empty."""
    if not np.isclose(stats.B.sum(), stats.S.sum(), rtol=1e-9):
        raise AssertionError("cluster totals must sum to the series totals")
    if not np.isclose(stats.R.sum(), stats.S.sum(), rtol=1e-9):
        raise AssertionError("weekly totals must sum to the series totals")
    if stats.n.sum() != stats.S.shape[0] or np.any(stats.n < 1):
        raise AssertionError("cluster sizes must be positive and sum to L")


def save_exposure(series_ids: list[str], exposure: np.ndarray, path):
    """Write an exposure CSV that ``io.load_exposure`` reads."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id", "exposure"])
        for sid, value in zip(series_ids, exposure):
            writer.writerow([sid, repr(float(value))])

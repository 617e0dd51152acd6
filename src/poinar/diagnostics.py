"""Convergence, clustering and forecast-quality diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .sampler import PosteriorDraws


def psrf(chains):
    """Potential scale reduction factor of scalars traced across chains.

    ``chains`` has shape (..., chains, draws): one PSRF per leading index,
    returned as a float when there is none. sqrt(((n-1)/n * W + B/n) / W)
    with W the mean within-chain variance and B the between-chain variance
    of the chain means scaled by the chain length n. Values near 1 indicate
    the chains have mixed.
    """
    x = np.asarray(chains, dtype=float)
    if x.ndim < 2 or x.shape[-2] < 2:
        raise ValueError("need at least two chains")
    n = x.shape[-1]
    if n < 2:
        raise ValueError("chains must share a common length of at least 2")
    W = x.var(axis=-1, ddof=1).mean(axis=-1)
    B = n * x.mean(axis=-1).var(axis=-1, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(((n - 1) / n * W + B / n) / W)
    r = np.where(W == 0.0, np.where(B == 0.0, 1.0, np.inf), r)
    return float(r) if r.ndim == 0 else r


def _contingency(z_a: np.ndarray, z_b: np.ndarray) -> np.ndarray:
    labels_a, inv_a = np.unique(z_a, return_inverse=True)
    labels_b, inv_b = np.unique(z_b, return_inverse=True)
    table = np.zeros((labels_a.shape[0], labels_b.shape[0]), dtype=np.int64)
    np.add.at(table, (inv_a, inv_b), 1)
    return table


def hamming_error(z_est, z_true) -> float:
    """Fraction of mismatched memberships under the best injective relabeling.

    The optimal mapping between estimated and true labels maximizes the total
    overlap of the label-contingency table (a rectangular assignment
    problem); the error is the remaining mismatch fraction, in [0, 1].
    """
    z_est = np.asarray(z_est)
    z_true = np.asarray(z_true)
    if z_est.shape != z_true.shape or z_est.ndim != 1:
        raise ValueError("membership vectors must share one dimension")
    table = _contingency(z_est, z_true)
    rows, cols = linear_sum_assignment(table, maximize=True)
    matched = int(table[rows, cols].sum())
    return (z_est.shape[0] - matched) / z_est.shape[0]


def representative_assignment(draws: PosteriorDraws) -> np.ndarray:
    """The stored clustering closest on average to all the others.

    Returns the drawn membership vector with minimum mean relabeling-optimal
    Hamming distance to the remaining draws; exact ties go to the smallest
    (chain, iteration) pair.
    """
    if len(draws) == 0:
        raise ValueError("no draws to choose from")
    zs = draws.z
    n = len(zs)
    if n == 1:
        return zs[0].copy()
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = hamming_error(zs[i], zs[j])
            dist[i, j] = dist[j, i] = d
    avg = dist.sum(axis=1) / (n - 1)
    best = np.flatnonzero(avg <= avg.min())
    keys = sorted(best, key=lambda i: (draws.chain_index[i], draws.iteration[i]))
    return zs[keys[0]].copy()


class ClusterCountHistogram(NamedTuple):
    freqs: dict[int, float]
    mode: int


def cluster_count_histogram(draws: PosteriorDraws) -> ClusterCountHistogram:
    """Relative frequency of the number of clusters across draws, plus its
    mode (ties resolved toward the smaller count)."""
    ks = draws.n_clusters
    if ks.size == 0:
        raise ValueError("no draws to tally")
    values, counts = np.unique(ks, return_counts=True)
    freqs = {int(k): float(c) / ks.size for k, c in zip(values, counts)}
    mode = int(values[np.argmax(counts)])
    return ClusterCountHistogram(freqs=freqs, mode=mode)


@dataclass(frozen=True)
class BucketStats:
    """Forecast errors within one last-observed-value bucket."""

    rmse: float
    rmse_se: float
    bias: float
    bias_se: float
    frequency: float
    n: int


@dataclass(frozen=True)
class EvalReport:
    """Forecast accuracy summary, overall and conditional on the last
    observed count.

    APE skips entries whose truth is zero; ``n_zero_truth`` records how many
    were skipped. Bucket keys are last-observed values, with everything at or
    above ``bucket_cap`` (when set) pooled into the cap's bucket.
    """

    rmse: float
    ape: float
    bias: float
    by_last_value: dict[int, BucketStats]
    n_total: int
    n_ape: int
    n_zero_truth: int
    bucket_cap: int | None = None

    def frequencies_sum(self) -> float:
        return sum(b.frequency for b in self.by_last_value.values())


def _sem(values: np.ndarray) -> float:
    if values.shape[0] < 2:
        return float("nan")
    return float(values.std(ddof=1) / np.sqrt(values.shape[0]))


def _bucket(pred: np.ndarray, truth: np.ndarray, frequency: float) -> BucketStats:
    err = pred - truth
    sq = err**2
    rmse = float(np.sqrt(sq.mean()))
    # delta method: se(rmse) = se(mse) / (2 rmse)
    se_mse = _sem(sq)
    rmse_se = 0.0 if rmse == 0.0 else float(se_mse / (2.0 * rmse))
    return BucketStats(
        rmse=rmse,
        rmse_se=rmse_se,
        bias=float(err.mean()),
        bias_se=_sem(err),
        frequency=frequency,
        n=err.shape[0],
    )


def forecast_metrics(predictions, truths, last_values, bucket_cap: int | None = None) -> EvalReport:
    """Overall and last-value-conditional RMSE, APE and bias.

    ``last_values`` are the observations the forecasts conditioned on; the
    per-bucket breakdown mirrors reporting tables indexed by that value.
    """
    pred = np.asarray(predictions, dtype=float)
    truth = np.asarray(truths, dtype=float)
    last = np.asarray(last_values)
    if not (pred.shape == truth.shape == last.shape) or pred.ndim != 1:
        raise ValueError("predictions, truths and last_values must align")

    err = pred - truth
    rmse = float(np.sqrt((err**2).mean()))
    bias = float(err.mean())
    positive = truth > 0
    n_ape = int(positive.sum())
    ape = float((np.abs(err[positive]) / truth[positive]).mean()) if n_ape else float("nan")

    keys = last.astype(np.int64)
    if bucket_cap is not None:
        keys = np.minimum(keys, bucket_cap)
    by_last: dict[int, BucketStats] = {}
    for key in np.unique(keys):
        mask = keys == key
        by_last[int(key)] = _bucket(pred[mask], truth[mask], float(mask.mean()))

    return EvalReport(
        rmse=rmse,
        ape=ape,
        bias=bias,
        by_last_value=by_last,
        n_total=pred.shape[0],
        n_ape=n_ape,
        n_zero_truth=pred.shape[0] - n_ape,
        bucket_cap=bucket_cap,
    )

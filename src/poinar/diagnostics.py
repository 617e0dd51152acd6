"""Convergence, clustering and forecast-quality diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ConfigurationError
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


def _factorize(z: np.ndarray) -> tuple[np.ndarray, int]:
    """Labels as 0..k-1 in sorted label order, and k."""
    labels, inverse = np.unique(z, return_inverse=True)
    return inverse.reshape(-1), labels.shape[0]


# The two assignment solvers below are imported where they are called: most
# commands solve no assignment, and loading scipy.optimize or
# scipy.sparse.csgraph takes a fraction of a second and megabytes of memory.
#
# Contingency tables with at least this many cells (k_a * k_b) are solved
# sparsely. On a 2-core Xeon, on random memberships of 40 to 2000 series,
# the dense solver took 20-30 us at 100 cells, 0.4-0.5 ms at 30,000, 0.8-1.4
# ms at 39,000 and 3.5-6.3 ms at 160,000; the sparse one 0.2-0.4 ms up to
# 7,000 cells, 0.6 ms at 30,000, 0.5-0.7 ms at 39,000 and 1.2-1.5 ms at
# 160,000. They meet between 30,000 and 40,000.
_SPARSE_MIN_CELLS = 40_000


def _dense_overlap(inv_a: np.ndarray, k_a: int, inv_b: np.ndarray, k_b: int) -> int:
    """The maximum total overlap of an injective relabeling of two factorized
    labelings, from their dense (k_a, k_b) contingency table."""
    from scipy.optimize import linear_sum_assignment

    table = np.bincount(inv_a * k_b + inv_b, minlength=k_a * k_b).reshape(k_a, k_b)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return int(table[rows, cols].sum())


def _sparse_overlap(inv_a: np.ndarray, k_a: int, inv_b: np.ndarray, k_b: int) -> int:
    """:func:`_dense_overlap` from the table's nonzero cells alone.

    With the smaller side as rows, the graph holds every nonzero cell and,
    per row, one dummy column of zero overlap that only that row reaches,
    so a full matching always exists. A cell of overlap o weighs (n + 1) -
    o >= 1 (the solver takes no zero weights), and a full matching weighs
    k_a * (n + 1) minus its overlap, so the minimum-weight one (Jonker and
    Volgenant's sparse shortest augmenting paths) has the maximum overlap.
    A row matched to its dummy stands for a row matched to a zero cell.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    if k_a > k_b:
        inv_a, k_a, inv_b, k_b = inv_b, k_b, inv_a, k_a
    n = inv_a.shape[0]
    cells, overlap = np.unique(inv_a * k_b + inv_b, return_counts=True)  # row-major
    rows, cols = np.divmod(cells, k_b)
    # each CSR row holds the row's cells and then its dummy, so the i-th
    # cell, in row r, sits at i + r
    indptr = np.zeros(k_a + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=k_a) + 1, out=indptr[1:])
    at = np.arange(cells.shape[0]) + rows
    weight = np.full(indptr[-1], n + 1.0)
    weight[at] -= overlap
    column = np.empty(indptr[-1], dtype=np.int64)
    column[at] = cols
    column[indptr[1:] - 1] = k_b + np.arange(k_a)
    graph = csr_array((weight, column, indptr), shape=(k_a, k_b + k_a))
    rows, cols = min_weight_full_bipartite_matching(graph)
    real = cols < k_b
    return int(overlap[np.searchsorted(cells, rows[real] * k_b + cols[real])].sum())


def _mismatches(inv_a: np.ndarray, k_a: int, inv_b: np.ndarray, k_b: int) -> int:
    """Memberships left unmatched by the best injective relabeling of two
    factorized labelings: n minus the maximum total overlap of their
    contingency table (a rectangular assignment problem), solved densely
    below ``_SPARSE_MIN_CELLS`` table cells and sparsely from there on."""
    solve = _dense_overlap if k_a * k_b < _SPARSE_MIN_CELLS else _sparse_overlap
    return inv_a.shape[0] - solve(inv_a, k_a, inv_b, k_b)


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
    if z_est.shape[0] == 0:
        raise ValueError("membership vectors are empty: no memberships to compare")
    return _mismatches(*_factorize(z_est), *_factorize(z_true)) / z_est.shape[0]


def distinct_partitions(zs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of a (draws, series) membership matrix, in order of
    first appearance, with each draw's row index among them and each row's
    multiplicity.

    Rows are told apart by their bytes: ``np.unique(zs, axis=0)`` views each
    row as a record of L fields, which alone takes milliseconds at L = 2000.
    """
    zs = np.ascontiguousarray(zs)
    index: dict[bytes, int] = {}
    inverse = np.array([index.setdefault(row.tobytes(), len(index)) for row in zs],
                       dtype=np.int64)
    _, first, counts = np.unique(inverse, return_index=True, return_counts=True)
    return zs[first], inverse, counts


def mean_hamming_error(zs, z_true) -> float:
    """Mean of :func:`hamming_error` over the rows of ``zs``, scoring each
    distinct row once; equal to the mean of the per-row errors bit for bit."""
    uniq, inverse, _ = distinct_partitions(zs)
    scores = np.array([hamming_error(z, z_true) for z in uniq])
    return float(np.mean(scores[inverse]))


def representative_assignment(draws: PosteriorDraws) -> np.ndarray:
    """The stored clustering closest on average to all the others.

    Returns the drawn membership vector with minimum mean relabeling-optimal
    Hamming distance to the remaining draws; exact ties go to the smallest
    (chain, iteration) pair.

    Works on the U distinct membership vectors: one assignment problem per
    pair of them, U(U-1)/2 in all, each giving an integer mismatch count.
    A draw's total distance is those counts weighted by how often each
    vector occurs, summed exactly in integers, so ties are exact. Pairs
    whose contingency table has ``_SPARSE_MIN_CELLS`` cells or more, such
    as those of hundreds of clusters a side, are solved as a sparse
    matching over the table's nonzero cells, which number at most the
    series count; smaller tables are solved densely. Both give the same
    integer count.
    """
    if len(draws) == 0:
        raise ValueError("no draws to choose from")
    zs = draws.z
    uniq, inverse, counts = distinct_partitions(zs)
    factors = [_factorize(z) for z in uniq]
    n_uniq = len(factors)
    mismatch = np.zeros((n_uniq, n_uniq), dtype=np.int64)
    for i in range(n_uniq):
        for j in range(i + 1, n_uniq):
            mismatch[i, j] = mismatch[j, i] = _mismatches(*factors[i], *factors[j])
    total = mismatch @ counts
    tied = np.flatnonzero(np.isin(inverse, np.flatnonzero(total == total.min())))
    best = min(tied, key=lambda i: (draws.chain_index[i], draws.iteration[i]))
    return zs[best].copy()


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
    if bucket_cap is not None and bucket_cap < 0:
        raise ConfigurationError("bucket cap must be non-negative")

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

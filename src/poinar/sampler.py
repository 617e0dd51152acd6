"""Collapsed Gibbs sampler for the clustered Poisson INAR(1) model.

One sweep resamples, in order: the latent innovation counts, the cluster
memberships (with the cluster rates integrated out), the unique cluster
rates, the monthly seasonal effects, the per-series thinning probabilities,
and the DP concentration parameter.

Series l's innovation rate at week t is e_l * psi_{z_l} * theta_{s(t)}: an
exposure e_l times its cluster's per-exposure rate and the month's seasonal
effect. Plain mode is the covariate model at unit exposure, and
``model.model_exposure`` is the one function that picks e from the mode, so
one formula and one set of conjugate updates cover both model variants.
"""

from __future__ import annotations

import math
import os
import signal
import threading
from bisect import bisect_left
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import gammaln

from .model import (
    MODE_COVARIATE,
    MODE_PLAIN,
    ConfigurationError,
    Hyperparams,
    ModelState,
    copies_that_fit,
    model_exposure,
    refuse_over_memory,
    series_name,
)
from .panel import N_MONTHS, CountPanel, innovation_bounds

# (1 - alpha) / alpha is undefined at the endpoints; the Beta posterior puts
# zero mass there, so clamping is numerically safe.
_ALPHA_EPS = 1e-12


@dataclass(frozen=True)
class SamplerConfig:
    """MCMC run settings."""

    n_iterations: int = 1000
    burn_in: int = 100
    thin_interval: int = 5
    n_chains: int = 1
    seed: int = 0
    hyper: Hyperparams = field(default_factory=Hyperparams)
    # None enumerates every week; N gives weeks of counts above N the MH move
    metropolis_threshold: int | None = None
    # stored draws keep their sweep's (L, T) innovation matrix only if asked
    keep_innovations: bool = False

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ConfigurationError("n_iterations must be positive")
        if not 0 <= self.burn_in < self.n_iterations:
            raise ConfigurationError("burn_in must be smaller than n_iterations")
        if self.thin_interval < 1:
            raise ConfigurationError("thin_interval must be at least 1")
        if self.draws_per_chain < 1:
            raise ConfigurationError(
                f"{self.n_iterations} sweeps with burn_in {self.burn_in} and thin_interval "
                f"{self.thin_interval} keep no draws"
            )
        if self.n_chains < 1:
            raise ConfigurationError("n_chains must be at least 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")

    @property
    def draws_per_chain(self) -> int:
        return (self.n_iterations - self.burn_in) // self.thin_interval


# the spawn keys of ``stream``, as the manifest records them
SEED_DERIVATION = (
    "streams use numpy SeedSequence(entropy=seed, spawn_key=(k, ...)): "
    "k=0 simulation, k=1 chains (then chain index), k=2 study replicates"
)


def stream(seed: int, *key: int) -> np.random.Generator:
    """The random stream of spawn ``key`` off the master ``seed``, the one
    place the keys are built: ``(0,)`` simulates a panel, ``(1, c)`` runs
    chain c, and ``(0, i, r)`` and ``(2, i, r)`` simulate and sample
    replicate r of study scenario i."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@dataclass
class PosteriorDraws:
    """Thinned post-burn-in parameter draws, one row per draw.

    ``alpha`` and ``z`` are (D, L); ``phi_star`` is (D, L), row d holding
    the ``n_clusters[d]`` cluster rates of draw d, then NaN; ``theta`` is
    (D, 12); ``tau``, ``chain_index`` and ``iteration`` are (D,);
    ``innovations`` is (D, L, T), or ``None`` for draws that keep none.
    ``fitted_to`` is ``(n_weeks, panel_sha256, week_starts_sha256)`` of the
    training panel for draws read from a file, ``None`` for draws a chain
    returns. Nothing modifies the arrays once ``run_chain`` or
    ``load_draws`` returns them.
    """

    alpha: np.ndarray
    z: np.ndarray
    phi_star: np.ndarray
    n_clusters: np.ndarray
    theta: np.ndarray
    tau: np.ndarray
    chain_index: np.ndarray
    iteration: np.ndarray
    innovations: np.ndarray | None = None
    mode: str = MODE_PLAIN
    fitted_to: tuple[int, str, str] | None = None

    def __len__(self) -> int:
        return self.alpha.shape[0]

    @property
    def states(self) -> list[ModelState]:
        """``ModelState`` views of the rows. Only perfbench's ``run_chain``
        hook reads them, until ROADMAP item 1 switches it to ``draws.z``."""
        return [ModelState(self.alpha[d], self.z[d], self.phi_star[d, :k], self.theta[d],
                           self.tau[d]) for d, k in enumerate(self.n_clusters.tolist())]

    def stacked(self, exposure: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """Every draw's parameters on a leading draw axis: ``(alpha, lam,
        theta)`` of shapes (D, L), (D, L) and (D, 12).

        ``lam`` is each series' effective innovation rate, phi*_{z_l} scaled
        by ``exposure`` when given; covariate-mode draws require it.
        """
        if len(self) == 0:
            raise ValueError("no posterior draws")
        if self.mode == MODE_COVARIATE and exposure is None:
            raise ConfigurationError("covariate-mode draws need the exposure vector")
        lam = np.take_along_axis(self.phi_star, self.z, axis=1)
        if exposure is not None:
            lam *= np.asarray(exposure, dtype=float)
        return self.alpha, lam, self.theta

    def by_chain(self, values: np.ndarray) -> np.ndarray:
        """Regroup per-draw ``values`` (leading draw axis) into shape
        (..., chains, draws per chain), the layout ``psrf`` reads."""
        values = np.asarray(values)
        _, sizes = np.unique(self.chain_index, return_counts=True)
        if np.any(sizes != sizes[0]):
            raise ValueError("chains hold different numbers of draws")
        order = np.argsort(self.chain_index, kind="stable")
        grouped = values[order].reshape((sizes.size, sizes[0]) + values.shape[1:])
        # contiguous, so each trace reduces in the same order as a 1-D array
        return np.ascontiguousarray(np.moveaxis(grouped, (0, 1), (-2, -1)))

    def rate_sum_traces(self, exposure: np.ndarray | None = None) -> np.ndarray:
        """Per-chain traces of the summed effective rates, shape (chains,
        draws per chain): a scalar functional that is invariant to cluster
        relabeling (used for convergence checks)."""
        return self.by_chain(self.stacked(exposure)[1].sum(axis=1))

    @classmethod
    def concat(cls, parts: list["PosteriorDraws"]) -> "PosteriorDraws":
        """The draws of ``parts`` one after another; they must share the
        mode, the width L and whether they keep innovations."""
        if not parts:
            raise ValueError("no draws to concatenate")
        modes = {p.mode for p in parts}
        if len(modes) != 1:
            raise ValueError("cannot mix draws from different model modes")
        if len({p.innovations is None for p in parts}) != 1:
            raise ValueError("cannot mix draws with and without innovations")
        arrays = {f.name: [getattr(p, f.name) for p in parts] for f in fields(cls)
                  if f.name not in ("mode", "fitted_to")}
        return cls(
            **{name: None if a[0] is None else np.concatenate(a) for name, a in arrays.items()},
            mode=parts[0].mode,
        )


@dataclass(frozen=True)
class SuffStats:
    """Sufficient statistics of the imputed innovations under a clustering.

    ``mass[l]`` is the seasonal mass a series multiplies its per-exposure
    rate by over the whole panel, e_l * Theta, with e the ``model_exposure``
    of ``mode``. ``U[k]`` sums ``mass`` over cluster members.
    """

    S: np.ndarray           # (L,) per-series innovation totals
    B: np.ndarray           # (K,) per-cluster innovation totals
    n: np.ndarray           # (K,) cluster sizes
    U: np.ndarray           # (K,) per-cluster summed seasonal mass
    R: np.ndarray           # (T,) per-week innovation totals
    theta_total: float      # Theta = sum_t theta_{s(t)}
    mass: np.ndarray        # (L,) per-series seasonal mass

    @classmethod
    def from_state(cls, state: ModelState, panel: CountPanel, mode: str = MODE_PLAIN) -> "SuffStats":
        if state.innovations is None:
            raise ValueError("state carries no innovations")
        eps = state.innovations
        theta_total = float(panel.month_weeks @ state.theta)
        mass = model_exposure(panel, mode) * theta_total
        S = eps.sum(axis=1).astype(float)
        K = state.n_clusters
        B = np.bincount(state.z, weights=S, minlength=K)
        n = np.bincount(state.z, minlength=K)
        U = np.bincount(state.z, weights=mass, minlength=K)
        return cls(
            S=S, B=B, n=n.astype(np.int64), U=U,
            R=eps.sum(axis=0).astype(float),
            theta_total=theta_total, mass=mass,
        )

    def validate(self):
        if not np.isclose(self.B.sum(), self.S.sum(), rtol=1e-9):
            raise AssertionError("cluster totals must sum to the series totals")
        if not np.isclose(self.R.sum(), self.S.sum(), rtol=1e-9):
            raise AssertionError("weekly totals must sum to the series totals")
        if self.n.sum() != self.S.shape[0] or np.any(self.n < 1):
            raise AssertionError("cluster sizes must be positive and sum to L")


# ---------------------------------------------------------------------------
# Step 1: latent innovations
# ---------------------------------------------------------------------------

class InnovationKernel:
    """Vectorized innovation update for weeks 2..T of one panel.

    Enumerating the support for every (series, week) cell at once is the
    sampler's hot loop. The exact cells are grouped into buckets by support
    width: a bucket holds the cells whose width lies in one half of an
    octave, [2^j, 1.5 * 2^j) or [1.5 * 2^j, 2^(j+1)), and pads them only to
    its own widest support, so the grid holds at most 1.5 times the useful
    support however wide the widest cell is. A bucket keeps one float64 per
    grid cell across sweeps, its log-factorial terms laid out support point
    by cell, and draws through work grids shared by all buckets. Given an
    ``mh_threshold``, cells whose count exceeds it get a Poisson-proposal
    MH move instead of exact enumeration; ``None`` enumerates every cell.

    Cells are addressed by flat indices computed once: ``at`` into the
    row-major (L, T-1) ``rates`` and ``at_eps = at + row + 1`` into the
    (L, T) innovation matrix. A call gathers with ``take``, which reads
    ``rates`` and ``eps`` in row-major order whatever their memory layout,
    and scatters into a flat view of the new matrix, which is allocated
    C-ordered whatever the layout of ``counts``; no (L, T-1) temporary is
    built.

    Before anything sized by the counts themselves is allocated, the
    buckets' grid cells are counted from the support widths, and the
    log-factorial table's entries from the largest count next to an
    exactly enumerated week; if their bytes, with the cells' index arrays
    and a call's temporaries, would exceed the machine's physical memory,
    the build raises ``ConfigurationError`` naming the series of the
    widest support or of that count (``series_ids``, row numbers when not
    given). The Metropolis move reads no table: it takes
    ``gammaln`` of its own cells' counts, of the proposals only once a
    chain has run one call. The kernel keeps the bytes counted,
    ``held_bytes``, and ``chain_bytes``, the part of them a chain run in a
    forked worker writes and so copies, by which ``run_chains`` sizes its
    pool.
    """

    def __init__(self, counts: np.ndarray, mh_threshold: int | None = None,
                 series_ids: list[str] | None = None):
        # the build reads counts and lower bounds as flat row-major arrays,
        # at ``at_eps`` (``at_eps - 1`` for the week before): ``take`` on a
        # strided (L, T-1) view would copy it whole first. The lower bounds
        # are C-ordered, pin week 1 to its count and hold every other cell's
        # lowest support point, so a call starts its draw from a copy.
        y = counts.reshape(-1)
        self._start, hi = innovation_bounds(counts)
        lo_flat = self._start.reshape(-1)
        width = hi[:, 1:] - self._start[:, 1:]

        active = width > 0
        if mh_threshold is not None:
            mh_mask = active & (counts[:, 1:] > mh_threshold)
            exact = active & ~mh_mask
        else:
            mh_mask = np.zeros_like(active)
            exact = active
        # the active cells never change, so gather their geometry once
        self.mh_rows, self.mh_at, self.mh_at_eps = _flat_cells(mh_mask)
        self.mh_lo = lo_flat.take(self.mh_at_eps)
        self.mh_yc = y.take(self.mh_at_eps)
        self.mh_diff = y.take(self.mh_at_eps - 1) - self.mh_yc
        # the MH cells' current counts and their two log-factorial terms,
        # kept across calls so that each call takes ``gammaln`` only of its
        # proposals; a call whose counts differ (a chain's first) recomputes
        self._mh_cur = None
        self._mh_log_fact = None

        rows, at, at_eps = _flat_cells(exact)
        w = width.take(at)
        del width, active, exact, mh_mask
        # the uniforms are drawn in row-major order; cells are stored bucket
        # by bucket, and ``draw_order`` maps the one to the other. A one-byte
        # key makes the stable sort a radix sort.
        mantissa, octave = np.frexp(w)  # w = mantissa * 2^octave, 0.5 <= mantissa < 1
        level = (2 * octave + (mantissa >= 0.75)).astype(np.uint8)
        del mantissa, octave
        self.draw_order = np.argsort(level, kind="stable")
        self.rows, self.at, self.at_eps = (a.take(self.draw_order) for a in (rows, at, at_eps))
        del rows, at, at_eps
        self.base = lo_flat.take(self.at_eps)
        w, level = w.take(self.draw_order), level.take(self.draw_order)
        starts = np.unique(level, return_index=True)[1]
        sizes = np.diff(np.r_[starts, w.size])
        points = np.maximum.reduceat(w, starts) + 1
        grids = points * sizes
        fixed, per_cell, per_point = _COLUMN_SUM_NS
        row_wise = _ROW_SUM_NS * (points - 1) < fixed + per_cell * sizes + per_point * grids
        # a bucket reads the log-factorials of counts up to its cells' own
        # y_curr or y_prev, so the table stops at the largest of these
        top = np.maximum(y.take(self.at_eps), y.take(self.at_eps - 1))
        self.held_bytes, self.chain_bytes = _check_grid_memory(
            w, points, grids, row_wise, self.rows, top, self.mh_rows.size, counts.size,
            series_ids, mh_threshold)
        lgam = gammaln(np.arange(int(top.max(initial=-1)) + 2, dtype=float))
        del level, top
        shared = (np.empty(grids.max(initial=0)), np.empty(grids.max(initial=0), dtype=bool),
                  np.arange(points.max(initial=0), dtype=float)[:, None])
        self.buckets = [
            _Bucket(slice(start, stop), self.base[start:stop], w[start:stop],
                    y.take(self.at_eps[start:stop]), y.take(self.at_eps[start:stop] - 1), lgam,
                    by_rows, *shared)
            for start, stop, by_rows in zip(starts, starts + sizes, row_wise)
        ]
        self._draws = np.empty(w.size, dtype=np.int64)

    def __call__(self, eps: np.ndarray, alpha: np.ndarray, rates: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
        """Draw a full innovation matrix given the current parameters.

        ``rates`` has shape (L, T-1): the innovation rate of series l at week
        t+1. The first-week column stays pinned to the first observations;
        single-point supports resolve deterministically.
        """
        a = np.clip(alpha, _ALPHA_EPS, 1.0 - _ALPHA_EPS)
        log_odds = np.log1p(-a) - np.log(a)

        n = self.rows.size
        if n:
            log_c = np.log(rates.take(self.at))
            log_c += log_odds.take(self.rows)
            u = rng.random(n).take(self.draw_order)
            for bucket in self.buckets:
                bucket.draw(log_c, u, self._draws)
            del log_c, u
            self._draws += self.base

        # deterministic cells resolve to their support point; C order
        # whatever the layout of ``counts``, so ``flat`` is a view
        new = self._start.copy()
        flat = new.reshape(-1)
        flat[self.at_eps] = self._draws

        rows = self.mh_rows
        if rows.size:
            cur = eps.take(self.mh_at_eps)
            lo_c, yc_c, diff = self.mh_lo, self.mh_yc, self.mh_diff
            if self._mh_cur is None or not np.array_equal(cur, self._mh_cur):
                self._mh_log_fact = (gammaln(yc_c - cur + 1), gammaln(diff + cur + 1))
            fact_yc, fact_diff = self._mh_log_fact
            prop = rng.poisson(rates.take(self.mh_at))
            feasible = (prop >= lo_c) & (prop <= yc_c)
            p_safe = np.clip(prop, lo_c, yc_c)
            prop_yc, prop_diff = gammaln(yc_c - p_safe + 1), gammaln(diff + p_safe + 1)
            log_ratio = (
                (p_safe - cur) * log_odds[rows]
                + fact_yc + fact_diff - prop_yc - prop_diff
            )
            accept = feasible & (np.log(rng.random(rows.size)) < log_ratio)
            np.copyto(fact_yc, prop_yc, where=accept)
            np.copyto(fact_diff, prop_diff, where=accept)
            self._mh_cur = np.where(accept, p_safe, cur)
            flat[self.mh_at_eps] = self._mh_cur

        return new


# The kernel's bytes, rounded up from tracemalloc peaks of builds and first
# calls: per grid cell, logw0; per cell of the largest bucket, the shared
# work and comparison grids; per point of a row-wise bucket, its row view
# and list slots; per table entry, the table and its range; per exact cell,
# Metropolis cell and panel entry, the arrays kept and the temporaries of a
# build and of one call.
_GRID_BYTES, _SHARED_BYTES, _STEP_BYTES, _TABLE_BYTES = 8, 8 + 1, 128, 2 * 8
_CELL_BYTES, _MH_CELL_BYTES, _ENTRY_BYTES = 96, 160, 32


def _check_grid_memory(width: np.ndarray, points: np.ndarray, grids: np.ndarray,
                       row_wise: np.ndarray, rows: np.ndarray, top: np.ndarray, n_mh: int,
                       n_entries: int, series_ids: list[str] | None,
                       mh_threshold: int | None) -> tuple[int, int]:
    """Raise ``ConfigurationError`` if the kernel would not fit in memory:
    buckets of ``points`` points and ``grids`` cells over the sorted widths
    ``width`` (of series ``rows``), the log-factorial table up to the count
    ``top``, and ``n_mh`` Metropolis cells in ``n_entries`` panel entries.

    Returns the bytes counted and the part of them a chain in a forked
    worker writes, and so copies: all but the log-weights, which it only
    reads, and the table, which only the build holds."""
    cell_bytes = _CELL_BYTES * width.size + _MH_CELL_BYTES * n_mh + _ENTRY_BYTES * n_entries
    if width.size == 0:
        return cell_bytes, cell_bytes
    log_weights = _GRID_BYTES * int(grids.sum())
    work_bytes = _SHARED_BYTES * int(grids.max()) + _STEP_BYTES * int(points[row_wise].sum())
    grid_bytes = log_weights + work_bytes
    largest = int(np.argmax(top))
    table_bytes = _TABLE_BYTES * (int(top[largest]) + 2)
    if grid_bytes >= table_bytes:
        widest = int(np.argmax(width))
        cause = (f"series {series_name(int(rows[widest]), series_ids)} has the widest "
                 f"support, {int(width[widest]) + 1} values")
    else:
        cause = (f"series {series_name(int(rows[largest]), series_ids)} has a count of "
                 f"{int(top[largest])} next to an exactly enumerated week")
    if mh_threshold is not None:
        what = "the exact enumeration of the weeks whose counts are at most --metropolis-threshold"
        advice = "Lower --metropolis-threshold, so that fewer weeks are enumerated exactly"
    else:
        what = "the exact innovation kernel"
        advice = ("Pass --metropolis-threshold N, which enumerates only the weeks whose "
                  "counts are at most N")
    needed = grid_bytes + table_bytes + cell_bytes
    refuse_over_memory(needed, f"the support grids and log-factorial table of {what}",
                       f"{cause}. {advice}")
    return needed, work_bytes + cell_bytes


def _flat_cells(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, flat (L, T-1) index and flat (L, T) index of each true cell of
    ``mask``, in row-major order."""
    at = np.flatnonzero(mask)
    rows = at // mask.shape[1]
    return rows, at, at + rows + 1


# Cost of one bucket's running sums on a (points, cells) grid, in ns,
# measured on a 2-core Xeon: numpy's cumsum along axis 0 pays a fixed cost
# and a strided loop per cell, adding whole rows pays a call per point.
_COLUMN_SUM_NS = (2500.0, 10.0, 4.0)  # fixed, per cell, per grid point
_ROW_SUM_NS = 600.0                   # per support point after the first
_BUILD_CHUNK = 2**14  # grid entries whose log-factorials a build gathers at once


class _Bucket:
    """The exact cells ``cells`` (a slice) of an ``InnovationKernel``, on a
    grid of shape (support points, cells) padded to their widest support.
    Its log-weight and comparison grids are views of the kernel's shared
    ones, valid until the next draw.

    A cell draws the number of its running weight sums that lie below
    ``u`` times its total. Padded points sit after each cell's last point
    and hold NaN: ``fmax`` skips them in the column maximum, they stay NaN
    through exp and the running sums without reaching a real point, never
    compare below the threshold, and the total is read at the cell's last
    point. So each cell draws what it would on its own support. NaN rather
    than -inf (weight zero) because numpy's vectorized exp sends a whole
    vector down a slow path for a -inf lane, and NaN does not: exp runs
    2-3 times faster on these grids. A cell whose real points hold NaN (a
    rate of 0 or inf) has a NaN total and draws offset 0, as with -inf
    padding. The last point is never below the threshold, so it is not
    compared.

    The running sums run one of two ways, chosen from the grid's shape by
    the measured costs above: wide grids add whole contiguous rows in place
    (``logw[i] += logw[i - 1]``, through one view per row), tall narrow ones
    take ``np.cumsum`` along axis 0 into the grid itself, which numpy
    computes as if input and output did not overlap. Both add each cell's
    weights one at a time from the first point on, so they give
    bit-identical sums.
    """

    def __init__(self, cells, base, width, y_curr, y_prev, lgam, row_wise, work, below, k):
        self.cells, self.base, self.row_wise = cells, base, row_wise
        m = int(width.max()) + 1
        c = width.shape[0]
        self._k = k[:m]  # the support offsets, a float64 column
        self._logw = logw = work[: m * c].reshape(m, c)
        # log-factorial terms never change across sweeps; only the rate
        # term multiplies the support grid. They are summed over the
        # unmasked grid, the work grid holding the innovation as int64, then
        # the survivors, then the thinned-away counts, with indices off the
        # table clipped; only the padding reads clipped entries, and it is
        # overwritten once at the end. The last two terms are gathered a
        # chunk at a time, so no second grid is built.
        lgam = lgam[1:]  # lgam[x] is now log x!
        counts = np.add.outer(np.arange(m), base, out=logw.view(np.int64))
        self.logw0 = logw0 = lgam.take(counts, mode="clip")
        flat, indices = logw0.reshape(-1), counts.reshape(-1)
        for y in (y_curr, y_prev):
            np.subtract(y, counts, out=counts)
            for i in range(0, m * c, _BUILD_CHUNK):
                flat[i:i + _BUILD_CHUNK] += lgam.take(indices[i:i + _BUILD_CHUNK], mode="clip")
        np.negative(logw0, out=logw0)
        logw0[np.greater.outer(np.arange(m), width, out=below[: m * c].reshape(m, c))] = np.nan
        # flat index of each cell's last point
        self._last = width * c + np.arange(c)
        self._below = below[: (m - 1) * c].reshape(m - 1, c)
        # the smallest unsigned type that holds an offset: summing bools
        # into it skips numpy's buffered cast to int64
        self._offsets = np.empty(c, dtype=np.min_scalar_type(m - 1))
        self._rows = list(logw) if row_wise else []

    def draw(self, log_c: np.ndarray, u: np.ndarray, out: np.ndarray):
        """Write each cell's offset into its support to ``out``, from the
        log rate-odds ``log_c`` and uniforms ``u`` of all the kernel's cells."""
        cells = self.cells
        logw = self._logw
        # the rate multiplier k + base is an integer below 2^53, exact in
        # float64, so the product has the bits of a stored multiplier grid's
        np.add(self._k, self.base, out=logw)
        logw *= log_c[cells]
        logw += self.logw0
        np.subtract(logw, np.fmax.reduce(logw, axis=0), out=logw)
        np.exp(logw, out=logw)
        if self.row_wise:
            rows = self._rows
            for prev, row in zip(rows, rows[1:]):
                row += prev
        else:
            np.cumsum(logw, axis=0, out=logw)
        total = logw.take(self._last)
        np.less(logw[:-1], u[cells] * total, out=self._below)
        np.add.reduce(self._below, axis=0, dtype=self._offsets.dtype, out=self._offsets)
        out[cells] = self._offsets


# ---------------------------------------------------------------------------
# Step 2: memberships (cluster rates collapsed out)
# ---------------------------------------------------------------------------

def log_innovation_total_marginal(s_total, mass, shape, rate):
    """Log marginal likelihood of an innovation total with its rate
    integrated out.

    log of  integral Poisson(s_total | lam * mass) Gamma(lam | shape, rate) dlam,
    a negative binomial. Vectorizes over any argument."""
    s_total = np.asarray(s_total, dtype=float)
    log_denom = np.log(np.asarray(rate) + mass)
    return (
        gammaln(s_total + shape) - gammaln(shape) - gammaln(s_total + 1.0)
        + shape * (np.log(rate) - log_denom)
        + s_total * (np.log(mass) - log_denom)
    )


def _relabel_by_first_appearance(z, *cluster_arrays):
    _, first = np.unique(z, return_index=True)
    old_order = np.argsort(first)  # old labels in order of first appearance
    perm = np.empty(old_order.shape[0], dtype=np.int64)
    perm[old_order] = np.arange(old_order.shape[0])
    return perm[z], tuple(arr[old_order] for arr in cluster_arrays)


class LogGammaTable:
    """``gammaln(gamma1 + N)`` for N = 0, 1, 2, ..., grown on demand.

    The membership weights read gammaln(shape_j + s) and gammaln(shape_j),
    with shape_j = B_j + gamma1 and integer totals B_j and s. Every float
    gamma1 is num / den with den a power of two; while N * den + num <=
    2^53, both B_j + gamma1 and (B_j + gamma1) + s are exact and equal
    gamma1 + N for N = B_j + s, so entry N is the value gammaln would
    compute. ``limit`` is the largest such N: beyond any panel for a dyadic
    gamma1 such as 1.0, 0.5 or 3.0, and 0 for 0.3 or 1/3, whose sweeps call
    gammaln instead.
    """

    def __init__(self, gamma1: float):
        self.gamma1 = float(gamma1)
        num, den = self.gamma1.as_integer_ratio()
        self.limit = (2**53 - num) // den
        self.values = np.empty(0)

    def covering(self, n: int, total: int) -> np.ndarray:
        """The table with entries 0..n at least (n <= ``total``): doubled
        when it grows, but to no more than ``total`` + 1 entries."""
        size = self.values.shape[0]
        if n >= size:
            new = np.arange(size, min(max(2 * size, n + 1), total + 1)) + self.gamma1
            self.values = np.concatenate((self.values, gammaln(new)))
        return self.values


def sample_memberships(
    state: ModelState,
    panel: CountPanel,
    stats: SuffStats,
    hyper: Hyperparams,
    rng: np.random.Generator,
    order: np.ndarray | None = None,
    *,
    log_gamma: LogGammaTable | None = None,
) -> tuple[np.ndarray, SuffStats]:
    """One full sweep of collapsed membership updates.

    Each series in turn is removed from its cluster and reassigned: a new
    cluster is opened with weight tau * p_0 and existing cluster j is joined
    with weight n_j * p_j, where the p's are the collapsed marginal
    likelihoods of the series' innovation total. Emptied clusters are removed
    and labels are canonicalized by first appearance, so the returned stats
    carry compacted B, n and U; the cluster rates must be re-instantiated
    afterwards.

    Each cluster keeps, in preallocated rows, the parts of its marginal that
    do not depend on the visiting series; a visit refreshes them only for
    the clusters it touches. When every series has the same seasonal mass m
    (always in plain mode), that includes the mass terms
    ``(log rate_j - log(rate_j + m)) * shape_j`` and ``log m - log(rate_j +
    m)``; otherwise they are recomputed at each visit. gammaln(shape_j + s)
    and gammaln(shape_j) are read from ``log_gamma`` (a chain passes its
    own, built here otherwise) while its ``limit`` covers the sweep's total.
    The terms of ``log_innovation_total_marginal`` are combined in its own
    order, so the draws are those of the plain per-visit formula.

    During the sweep each series holds its cluster's slot id rather than
    its label. A new cluster takes a fresh id, larger than every other, so
    the live ids stay sorted in the order of the clusters' rows, and a
    series finds its row by bisection. Removing an emptied cluster deletes
    its id and shifts the later clusters' rows down by one, which keeps
    their order and touches no series; the labels are computed once, at
    the end.
    """
    g1, g2 = hyper.gamma1, hyper.gamma2
    if log_gamma is None:
        log_gamma = LogGammaTable(g1)
    elif log_gamma.gamma1 != g1:
        raise ValueError("the log-gamma table was built for another gamma1")
    S, mass = stats.S, stats.mass
    L = S.shape[0]
    K = stats.n.shape[0]
    order = range(L) if order is None else np.asarray(order).tolist()

    # per-series terms, fixed for the whole sweep
    log_fact_s = gammaln(S + 1.0).tolist()
    log_mass = np.log(mass)
    log_open = (np.log(state.tau) + log_innovation_total_marginal(S, mass, g1, g2)).tolist()
    s_int = S.astype(np.int64)
    total = int(s_int.sum())  # bounds every B_j + s of the sweep
    exact = total <= log_gamma.limit
    memo = L > 0 and bool(np.all(mass == mass[0]))  # one mass for every series
    with np.errstate(divide="ignore"):
        log_count = np.log(np.arange(L + 1.0))

    # cluster quantities read one at a time live in lists, those read over
    # every cluster in rows with room for every series alone. The rows hold
    # what a visit reads: the mass terms under one mass for every series,
    # else rate_j and log rate_j, which share their rows.
    n, B, U = stats.n.tolist(), stats.B.tolist(), stats.U.tolist()
    table = np.empty((5, L + 1))
    log_n, log_gamma_shape, shape, fixed, slope = table
    rate, log_rate = fixed, slope
    B_at = np.zeros(L + 1, dtype=np.int64)  # B as indices into the table
    log_n[:K] = log_count.take(stats.n)
    np.add(stats.B, g1, out=shape[:K])
    rate_0 = stats.U + g2
    top = int(stats.B.max(initial=0))  # at least the largest B_j
    if exact:
        lg = log_gamma.covering(top, total)
        B_at[:K] = stats.B
        lg.take(B_at[:K], out=log_gamma_shape[:K])
    else:
        gammaln(shape[:K], out=log_gamma_shape[:K])
    if memo:
        m, log_m = float(mass[0]), float(log_mass[0])
        log_denom = np.log(rate_0 + m)
        np.subtract(np.log(rate_0), log_denom, out=fixed[:K])
        fixed[:K] *= shape[:K]
        np.subtract(log_m, log_denom, out=slope[:K])
    else:
        rate[:K] = rate_0
        np.log(rate_0, out=log_rate[:K])

    def refresh(k):
        shape[k] = shape_k = B[k] + g1
        log_n[k] = log_count[n[k]]
        if exact:
            B_at[k] = b = int(B[k])
            log_gamma_shape[k] = lg[b]
        else:
            log_gamma_shape[k] = gammaln(shape_k)
        rate_k = U[k] + g2
        if memo:
            denom = np.log(rate_k + m)
            fixed[k] = (np.log(rate_k) - denom) * shape_k
            slope[k] = log_m - denom
        else:
            rate[k] = rate_k
            log_rate[k] = np.log(rate_k)

    logw = np.empty(L + 1)
    cum = np.empty(L + 1)
    at = np.empty(L + 1, dtype=np.int64)
    scratch = np.empty((2, L + 1))

    def views(K):
        """The rows of the first K clusters, and K + 1 weights; rebuilt only
        when K changes."""
        return (B_at[:K], at[:K], logw[:K], log_gamma_shape[:K], fixed[:K], slope[:K],
                shape[:K], rate[:K], log_rate[:K], log_n[:K], scratch[0, :K],
                scratch[1, :K], logw[:K + 1], cum[:K + 1])

    # a visit's scalars, boxed: numpy takes a 0-d array operand faster than
    # a Python number, and computes the same values
    s_box, si_box, fact_box = np.empty(()), np.empty((), dtype=np.int64), np.empty(())
    m_box, log_m_box = np.empty(()), np.empty(())
    size = lg.shape[0] if exact else 0
    K_views = -1
    S, mass, s_int = S.tolist(), mass.tolist(), s_int.tolist()
    slots = state.z.tolist()  # each series' slot id, at first its label
    live = list(range(K))     # the clusters' slot ids, in row order
    fresh = K
    for l in order:
        s, m_l, si = S[l], mass[l], s_int[l]
        k = bisect_left(live, slots[l])
        n[k] -= 1
        B[k] -= s
        U[k] -= m_l
        if n[k] == 0:
            del n[k], B[k], U[k], live[k]
            table[:, k:K - 1] = table[:, k + 1:K]
            if exact:
                B_at[k:K - 1] = B_at[k + 1:K]
            K -= 1
        else:
            refresh(k)
        if K != K_views:
            (B_at_K, at_K, w, lgs_K, fixed_K, slope_K, shape_K, rate_K, log_rate_K, log_n_K,
             term, log_denom, w_all, c) = views(K)
            K_views = K

        # log n_j + log_innovation_total_marginal(s, m, shape_j, rate_j)
        s_box[()] = s
        fact_box[()] = log_fact_s[l]
        if exact:
            need = min(top + si, total)  # no B_j + s exceeds the total
            if need >= size:
                lg = log_gamma.covering(need, total)
                size = lg.shape[0]
            si_box[()] = si
            np.add(B_at_K, si_box, at_K)
            lg.take(at_K, 0, w, "clip")
        else:
            np.add(shape_K, s_box, w)
            gammaln(w, w)
        np.subtract(w, lgs_K, w)
        np.subtract(w, fact_box, w)
        if memo:
            np.add(w, fixed_K, w)
            np.multiply(slope_K, s_box, term)
        else:
            m_box[()], log_m_box[()] = m_l, log_mass[l]
            np.add(rate_K, m_box, log_denom)
            np.log(log_denom, log_denom)
            np.subtract(log_rate_K, log_denom, term)
            np.multiply(term, shape_K, term)
            np.add(w, term, w)
            np.subtract(log_m_box, log_denom, term)
            np.multiply(term, s_box, term)
        np.add(w, term, w)
        np.add(log_n_K, w, w)
        w_all[K] = log_open[l]

        # ufuncs and the searchsorted method, called directly: the Python
        # wrappers of max, sum, cumsum and np.searchsorted cost more than the
        # work at a few clusters, and compute the same values
        np.subtract(w_all, np.maximum.reduce(w_all), w_all)
        np.exp(w_all, w_all)
        np.add.accumulate(w_all, 0, None, c)
        k_new = int(c.searchsorted(rng.random() * np.add.reduce(w_all), "right"))
        if k_new == K:
            n.append(0)
            B.append(0.0)
            U.append(0.0)
            live.append(fresh)
            fresh += 1
            K += 1
        slots[l] = live[k_new]
        n[k_new] += 1
        B[k_new] += s
        U[k_new] += m_l
        if B[k_new] > top:
            top = int(B[k_new])
        refresh(k_new)

    z, (B, n, U) = _relabel_by_first_appearance(
        np.searchsorted(live, slots), np.array(B, dtype=float), np.array(n, dtype=np.int64),
        np.array(U, dtype=float))
    new_stats = SuffStats(
        S=stats.S, B=B, n=n, U=U, R=stats.R,
        theta_total=stats.theta_total, mass=stats.mass,
    )
    return z, new_stats


# ---------------------------------------------------------------------------
# Steps 3-6: conjugate parameter updates
# ---------------------------------------------------------------------------

def sample_unique_rates(stats: SuffStats, hyper: Hyperparams, rng: np.random.Generator) -> np.ndarray:
    """Draw each cluster rate from Gamma(B_k + gamma1, U_k + gamma2)."""
    shape = stats.B + hyper.gamma1
    rate = stats.U + hyper.gamma2
    return rng.gamma(shape, 1.0 / rate)


def sample_seasonals(
    stats: SuffStats,
    state: ModelState,
    panel: CountPanel,
    hyper: Hyperparams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw each monthly effect from its Gamma conditional.

    Months absent from the data contribute no likelihood; the formula then
    reduces to the Gamma(xi1, xi2) prior on its own.
    """
    month_eps = np.bincount(panel.season_of - 1, weights=stats.R, minlength=N_MONTHS)
    # per-series effective rates: exposure (mass / Theta) times the cluster rate
    lam_sum = float(((stats.mass / stats.theta_total) * state.phi_star[state.z]).sum())
    shape = month_eps + hyper.xi1
    rate = panel.month_weeks * lam_sum + hyper.xi2
    return rng.gamma(shape, 1.0 / rate)


def sample_thinnings(
    state: ModelState,
    panel: CountPanel,
    hyper: Hyperparams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw each thinning probability from its Beta conditional.

    The first parameter counts thinning survivors over weeks 2..T, the
    second counts thinned-away trials; only transitions contribute, so the
    innovation sums here run over t >= 2. Both are sums of
    y_t - eps_t and y_{t-1} - y_t + eps_t, which telescope to per-series
    totals; integer sums are exact, so no (L, T-1) temporary is needed.
    """
    if state.innovations is None:
        raise ValueError("state carries no innovations")
    y = panel.counts
    eps_sum = state.innovations[:, 1:].sum(axis=1)
    y_first, y_last = y[:, 0], y[:, -1]
    survivors = y.sum(axis=1) - y_first - eps_sum
    removed = y_first - y_last + eps_sum
    return rng.beta(survivors + hyper.eta1, removed + hyper.eta2)


def concentration_mixture(
    K: int, L: int, kappa: float, a_tau: float, b_tau: float
) -> tuple[float, float, float, float]:
    """Components of the concentration update given the auxiliary draw:
    (mixture weight pi, upper shape, lower shape, common rate)."""
    rate = b_tau - np.log(kappa)
    odds = (a_tau + K - 1.0) / (L * rate)
    pi = odds / (1.0 + odds)
    return pi, a_tau + K, a_tau + K - 1.0, rate


def sample_concentration(
    K: int, L: int, tau_old: float, hyper: Hyperparams, rng: np.random.Generator
) -> float:
    """Two-stage concentration update: draw the auxiliary Beta(tau+1, L)
    variable, then tau from the implied two-component Gamma mixture."""
    if K < 1:
        raise ValueError("need at least one cluster")
    kappa = rng.beta(tau_old + 1.0, L)
    pi, shape_hi, shape_lo, rate = concentration_mixture(K, L, kappa, hyper.a_tau, hyper.b_tau)
    shape = shape_hi if rng.random() < pi else shape_lo
    return float(rng.gamma(shape, 1.0 / rate))


# ---------------------------------------------------------------------------
# Chain orchestration
# ---------------------------------------------------------------------------

def _initial_state(panel: CountPanel, rng: np.random.Generator) -> ModelState:
    """Starting values: each series in its own cluster, alpha ~ Beta(1, 1),
    rates and seasonals ~ Gamma(1, 1), tau ~ Gamma(2, 4) (shape, rate)."""
    L = panel.n_series
    return ModelState(
        alpha=rng.beta(1.0, 1.0, size=L),
        z=np.arange(L, dtype=np.int64),
        phi_star=rng.gamma(1.0, 1.0, size=L),
        theta=rng.gamma(1.0, 1.0, size=N_MONTHS),
        tau=float(rng.gamma(2.0, 1.0 / 4.0)),
        innovations=None,
    )


def sweep(state: ModelState, panel: CountPanel, kernel: InnovationKernel, hyper: Hyperparams,
          rng: np.random.Generator, log_gamma: LogGammaTable) -> SuffStats:
    """One Gibbs sweep: update ``state`` in place through the six steps, in
    order, and return the sufficient statistics its clustering left.

    ``kernel`` is the panel's ``InnovationKernel`` and ``log_gamma`` the
    chain's ``LogGammaTable`` for ``hyper.gamma1``.
    """
    lam = model_exposure(panel, hyper.mode) * state.phi_star[state.z]
    rates = lam[:, None] * state.theta[panel.season_of[1:] - 1]
    state.innovations = kernel(state.innovations, state.alpha, rates, rng)
    stats = SuffStats.from_state(state, panel, mode=hyper.mode)
    state.z, stats = sample_memberships(state, panel, stats, hyper, rng, log_gamma=log_gamma)
    state.phi_star = sample_unique_rates(stats, hyper, rng)
    state.theta = sample_seasonals(stats, state, panel, hyper, rng)
    state.alpha = sample_thinnings(state, panel, hyper, rng)
    state.tau = sample_concentration(state.n_clusters, panel.n_series, state.tau, hyper, rng)
    return stats


def run_chain(
    panel: CountPanel,
    config: SamplerConfig,
    rng: np.random.Generator | None = None,
    chain_index: int = 0,
    kernel: InnovationKernel | None = None,
) -> PosteriorDraws:
    """Run one chain and return its thinned post-burn-in draws.

    Each iteration runs one ``sweep`` from the state the last one left;
    sweep burn_in + k * thin_interval fills row k - 1 of
    ``config.draws_per_chain`` preallocated rows, its innovations only
    under ``config.keep_innovations``. Deterministic given the generator's
    seed. ``kernel``, the panel's ``InnovationKernel`` under ``config``'s
    Metropolis threshold, is built here when not given.
    """
    hyper = config.hyper
    model_exposure(panel, hyper.mode)  # a covariate panel without exposure fails here
    if rng is None:
        rng = stream(config.seed, 1, chain_index)
    if kernel is None:
        kernel = _innovation_kernel(panel, config)

    L = panel.n_series
    log_gamma = LogGammaTable(hyper.gamma1)
    state = _initial_state(panel, rng)
    state.innovations = innovation_bounds(panel.counts)[0]

    D = config.draws_per_chain
    draws = PosteriorDraws(**{name: np.empty(shape, dtype) for name, (shape, dtype)
                              in _draw_arrays(L, panel.n_weeks, config).items()},
                           mode=hyper.mode)
    draws.phi_star.fill(np.nan)
    draws.chain_index.fill(chain_index)
    draws.iteration[:] = config.burn_in + config.thin_interval * np.arange(1, D + 1)
    for it in range(1, config.n_iterations + 1):
        sweep(state, panel, kernel, hyper, rng, log_gamma)
        if it > config.burn_in and (it - config.burn_in) % config.thin_interval == 0:
            d = (it - config.burn_in) // config.thin_interval - 1
            K = state.n_clusters
            draws.alpha[d], draws.z[d], draws.theta[d] = state.alpha, state.z, state.theta
            draws.phi_star[d, :K], draws.n_clusters[d], draws.tau[d] = state.phi_star, K, state.tau
            if config.keep_innovations:
                draws.innovations[d] = state.innovations
    return draws


def _draw_arrays(n_series: int, n_weeks: int,
                 config: SamplerConfig) -> dict[str, tuple[tuple[int, ...], type]]:
    """Shape and dtype of each array of one chain's ``PosteriorDraws``."""
    D, L = config.draws_per_chain, n_series
    arrays = {
        "alpha": ((D, L), np.float64), "z": ((D, L), np.int64),
        "phi_star": ((D, L), np.float64), "n_clusters": ((D,), np.int64),
        "theta": ((D, N_MONTHS), np.float64), "tau": ((D,), np.float64),
        "chain_index": ((D,), np.int64), "iteration": ((D,), np.int64),
    }
    if config.keep_innovations:
        arrays["innovations"] = ((D, L, n_weeks), np.int64)
    return arrays


def _innovation_kernel(panel: CountPanel, config: SamplerConfig) -> InnovationKernel:
    return InnovationKernel(
        panel.counts, mh_threshold=config.metropolis_threshold, series_ids=panel.series_ids)


def run_chains(panel: CountPanel, config: SamplerConfig) -> list[PosteriorDraws]:
    """Run ``config.n_chains`` independent chains with derived per-chain
    seeds and individually drawn starting points.

    The chains share one innovation kernel, built here: it keeps only the
    panel's geometry across calls and overwrites its work buffers on every
    call. They run side by side in forked worker processes on the usable
    CPUs (``_in_workers``), as many as memory holds when each chain copies
    the buffers it writes and holds its draws twice, as an array and
    pickled. Each chain draws from its own stream, so the draws are those of
    the chains run one after another, which is how they run on one CPU.
    """
    kernel = _innovation_kernel(panel, config)
    draw_bytes = sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype
                     in _draw_arrays(panel.n_series, panel.n_weeks, config).values())
    return _in_workers(lambda c: run_chain(panel, config, chain_index=c, kernel=kernel),
                       range(config.n_chains), lambda c: f"chain {c}",
                       held=kernel.held_bytes, per_worker=kernel.chain_bytes + 2 * draw_bytes)


# ---------------------------------------------------------------------------
# Independent tasks in forked worker processes
# ---------------------------------------------------------------------------

class WorkerExited(RuntimeError):
    """Raised when a worker process exits before its task returns."""


# a task's state in the table a pool's workers share with the parent
_STARTED, _DONE, _STOPPED = 1, 2, 3

# set in worker processes only: the (task function, tasks, state table)
# a worker inherited, and the index of the task it runs
_job = None
_running = None


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_workers(fn, tasks, describe, *, held: float = 0, per_worker: float = 0,
                done=None) -> list:
    """``[fn(t) for t in tasks]``, in task order, computed in forked worker
    processes on the usable CPUs.

    The pool takes one worker per usable CPU, at most one per task, and no
    more than fit in physical memory beside ``held`` bytes when each writes
    ``per_worker`` bytes of its own. With one worker, where the platform
    cannot fork, while another Python thread runs (a fork copies only
    the calling thread, so a lock another one holds stays held in the
    worker), or while a function of this module is wrapped in place
    (``_wrapped_in_place``), the tasks run here instead, one after another.
    Workers inherit ``fn`` and ``tasks`` through the fork, so only task
    indices and results are pickled. ``fn`` must draw only from random
    streams of its own, so that every result is the serial run's.
    ``done(i, result)``, if given, runs here as each result arrives, in
    task order.

    An exception ``fn`` raises reaches the caller with its type, from the
    first failing task in task order, as in the serial run. A worker that
    exits before its task returns raises ``WorkerExited``, naming the task
    by ``describe(task)``. No worker outlives the call.
    """
    tasks = list(tasks)
    results = []

    def collect(result):
        results.append(result)
        if done is not None:
            done(len(results) - 1, result)

    workers = copies_that_fit(held, per_worker, min(len(tasks), _usable_cpus()))
    if (workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1
            or _wrapped_in_place()):
        for task in tasks:
            collect(fn(task))
        return results

    import mmap
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # anonymous shared memory, which the workers inherit
    states = np.frombuffer(mmap.mmap(-1, len(tasks)), dtype=np.uint8)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(fn, tasks, states)) as pool:
        futures = [pool.submit(_run_task, i) for i in range(len(tasks))]
        try:
            for future in futures:
                collect(future.result())
        except BrokenProcessPool as exc:
            pool.shutdown()  # the workers are gone, so each state is final
            # the pool stops the other workers; their tasks read _STOPPED
            lost = np.flatnonzero(states == _STARTED)
            if not lost.size:
                lost = np.flatnonzero(states != _DONE)
            names = ", ".join(describe(tasks[i]) for i in lost.tolist())
            raise WorkerExited(f"{names or 'a task'} did not finish: its worker process "
                               "exited before returning") from exc
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return results


def _wrapped_in_place() -> bool:
    """Whether a function this module binds has been rebound to a wrapper
    that calls it (one with ``__wrapped__``, as ``functools.wraps`` sets),
    as a tracer or profiler does: what such a wrapper records in a worker
    would stay there."""
    return any(hasattr(value, "__wrapped__") for value in list(globals().values())
               if callable(value) and not isinstance(value, type))


def _adopt(fn, tasks, states):
    """Worker initializer: keep the job, and mark the running task
    ``_STOPPED`` when the pool terminates this worker."""
    global _job
    _job = (fn, tasks, states)
    signal.signal(signal.SIGTERM, _stopped)


def _stopped(signum, frame):
    states = _job[2]
    if _running is not None and states[_running] == _STARTED:
        states[_running] = _STOPPED
    os._exit(128 + signum)


def _run_task(i: int):
    global _running
    fn, tasks, states = _job
    _running = i
    states[i] = _STARTED
    try:
        return fn(tasks[i])
    finally:
        states[i] = _DONE
        _running = None

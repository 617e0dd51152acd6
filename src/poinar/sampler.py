"""Collapsed Gibbs sampler for the clustered Poisson INAR(1) model.

One sweep resamples, in order: the latent innovation counts, the cluster
memberships (with the cluster rates integrated out), the unique cluster
rates, the monthly seasonal effects, the per-series thinning probabilities,
and the DP concentration parameter.

In covariate mode every occurrence of the total seasonal mass attached to a
series is scaled by that series' exposure, so the same conjugate updates
cover both model variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import gammaln

from .model import MODE_COVARIATE, MODE_PLAIN, ConfigurationError, Hyperparams, ModelState
from .panel import N_MONTHS, CountPanel

INNOVATION_EXACT = "exact-enumeration"
INNOVATION_METROPOLIS = "metropolis-poisson"

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
    innovation_strategy: str = INNOVATION_EXACT
    metropolis_threshold: int = 30
    validate_sweeps: bool = False
    # stored draws keep their sweep's (L, T) innovation matrix only if asked
    keep_innovations: bool = False

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ConfigurationError("n_iterations must be positive")
        if not 0 <= self.burn_in < self.n_iterations:
            raise ConfigurationError("burn_in must be smaller than n_iterations")
        if self.thin_interval < 1:
            raise ConfigurationError("thin_interval must be at least 1")
        if self.n_chains < 1:
            raise ConfigurationError("n_chains must be at least 1")
        if self.innovation_strategy not in (INNOVATION_EXACT, INNOVATION_METROPOLIS):
            raise ConfigurationError(f"unknown innovation strategy {self.innovation_strategy!r}")

    @property
    def draws_per_chain(self) -> int:
        return (self.n_iterations - self.burn_in) // self.thin_interval


def chain_rng(seed: int, chain_index: int = 0) -> np.random.Generator:
    """Per-chain random stream derived from the master seed.

    Chain ``c`` uses ``SeedSequence(entropy=seed, spawn_key=(1, c))``; stream
    key 1 is reserved for sampling (0 is used for simulation)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(1, chain_index))
    return np.random.default_rng(ss)


@dataclass
class PosteriorDraws:
    """Thinned post-burn-in parameter draws, one row per draw.

    ``alpha`` and ``z`` are (D, L); ``phi_star`` is (D, L), row d holding
    the ``n_clusters[d]`` cluster rates of draw d, then NaN; ``theta`` is
    (D, 12); ``tau``, ``chain_index`` and ``iteration`` are (D,);
    ``innovations`` is (D, L, T), or ``None`` for draws that keep none.
    ``fitted_to`` is ``(n_weeks, panel_sha256, week_starts_sha256)`` of the
    training panel when the draws were read from a file that records it
    (the last is ``None`` when the file records no dates). Nothing
    modifies the arrays once ``run_chain`` or ``load_draws`` returns them.
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
    fitted_to: tuple[int, str, str | None] | None = None

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

    ``mass[l]`` is the seasonal mass a series multiplies its rate by over the
    whole panel: Theta in plain mode, exposure_l * Theta in covariate mode.
    ``U[k]`` sums ``mass`` over cluster members, so every conjugate update
    reads the same in both modes.
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
        theta_total = panel.season_summary().theta_total(state.theta)
        if mode == MODE_COVARIATE:
            if panel.exposure is None:
                raise ConfigurationError("covariate mode requires panel exposure")
            mass = panel.exposure * theta_total
        else:
            mass = np.full(panel.n_series, theta_total)
        S = eps.sum(axis=1).astype(float)
        K = state.n_clusters
        B = np.bincount(state.z, weights=S, minlength=K)
        n = np.bincount(state.z, minlength=K)
        U = np.bincount(state.z, weights=mass, minlength=K)
        return cls(
            S=S, B=B, n=n.astype(np.int64), U=U,
            R=eps.sum(axis=0).astype(float),
            theta_total=float(theta_total), mass=mass,
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

def innovation_support(y_prev: int, y_curr: int) -> tuple[int, int]:
    """Feasible innovation range: max(0, y_curr - y_prev) .. y_curr."""
    return max(0, int(y_curr) - int(y_prev)), int(y_curr)


def innovation_pmf(y_prev: int, y_curr: int, alpha: float, rate: float) -> np.ndarray:
    """Exact conditional pmf of one innovation count over its support.

    The returned array aligns with ``range(lo, hi + 1)`` where
    ``(lo, hi) = innovation_support(y_prev, y_curr)``. The unnormalized weight
    of innovation e is
    ``(rate * (1 - alpha) / alpha)**e / (e! (y_curr-e)! (y_prev-y_curr+e)!)``.
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


def sample_innovation(
    y_prev: int, y_curr: int, alpha: float, rate: float, rng: np.random.Generator
) -> int:
    """Exact draw from the innovation conditional.

    Deterministic cases need no randomness: y_curr = 0 forces 0 and
    y_prev = 0 forces y_curr."""
    lo, hi = innovation_support(y_prev, y_curr)
    if lo == hi:
        return lo
    pmf = innovation_pmf(y_prev, y_curr, alpha, rate)
    u = rng.random()
    return lo + int(np.searchsorted(np.cumsum(pmf), u, side="right"))


class InnovationKernel:
    """Vectorized innovation update for weeks 2..T of one panel.

    Enumerating the support for every (series, week) cell at once is the
    sampler's hot loop. The exact cells are grouped into buckets by support
    width: a bucket holds the cells whose width lies in one half of an
    octave, [2^j, 1.5 * 2^j) or [1.5 * 2^j, 2^(j+1)), and pads them only to
    its own widest support, so the grid holds at most 1.5 times the useful
    support however wide the widest cell is. Each bucket keeps its
    precomputed log-factorial terms and work buffers, laid out support
    point by cell, across sweeps. With the Metropolis strategy, cells whose
    current count exceeds the threshold get a Poisson-proposal MH move
    instead of exact enumeration.

    Cells are addressed by flat indices computed once: ``at`` into the
    row-major (L, T-1) ``rates`` and ``at_eps = at + row + 1`` into the
    (L, T) innovation matrix. A call gathers with ``take``, which reads
    ``rates`` and ``eps`` in row-major order whatever their memory layout,
    and scatters into a flat view of the new matrix, which is allocated
    C-ordered whatever the layout of ``counts``; no (L, T-1) temporary is
    built.
    """

    def __init__(self, counts: np.ndarray, strategy: str = INNOVATION_EXACT,
                 mh_threshold: int = 30):
        self.counts = counts
        self.strategy = strategy
        self.mh_threshold = mh_threshold
        self.lgam = gammaln(np.arange(int(counts.max()) + 2, dtype=float))
        yp = counts[:, :-1]
        yc = counts[:, 1:]
        self.lo = np.maximum(yc - yp, 0)
        width = np.minimum(yc, yp)

        active = width > 0
        if strategy == INNOVATION_METROPOLIS:
            mh_mask = active & (yc > mh_threshold)
            exact = active & ~mh_mask
        else:
            mh_mask = np.zeros_like(active)
            exact = active
        # the active cells never change, so gather their geometry once
        self.mh_rows, self.mh_at, self.mh_at_eps = _flat_cells(mh_mask)
        self.mh_lo = self.lo.take(self.mh_at)
        self.mh_yc = yc.take(self.mh_at)
        self.mh_diff = yp.take(self.mh_at) - self.mh_yc

        rows, at, at_eps = _flat_cells(exact)
        w = width.take(at)
        # the uniforms are drawn in row-major order; cells are stored bucket
        # by bucket, and ``draw_order`` maps the one to the other. A one-byte
        # key makes the stable sort a radix sort.
        mantissa, octave = np.frexp(w)  # w = mantissa * 2^octave, 0.5 <= mantissa < 1
        level = (2 * octave + (mantissa >= 0.75)).astype(np.uint8)
        self.draw_order = np.argsort(level, kind="stable")
        self.rows = rows[self.draw_order]
        self.at = at[self.draw_order]
        self.at_eps = at_eps[self.draw_order]
        self.base = self.lo.take(self.at)
        w, level = w[self.draw_order], level[self.draw_order]
        starts = np.unique(level, return_index=True)[1]
        self.buckets = [
            _Bucket(start, stop, self.base[start:stop], w[start:stop],
                    yc.take(self.at[start:stop]), yp.take(self.at[start:stop]), self.lgam)
            for start, stop in zip(starts, np.r_[starts[1:], w.size])
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

        # C order whatever the layout of ``counts``, so ``flat`` is a view
        new = np.empty(self.counts.shape, dtype=self.counts.dtype)
        new[:, 0] = self.counts[:, 0]
        new[:, 1:] = self.lo  # deterministic cells resolve to their support point
        flat = new.reshape(-1)

        n = self.rows.size
        if n:
            log_c = np.log(rates.take(self.at))
            log_c += log_odds.take(self.rows)
            u = rng.random(n).take(self.draw_order)
            for bucket in self.buckets:
                bucket.draw(log_c, u, self._draws)
            self._draws += self.base
            flat[self.at_eps] = self._draws

        rows = self.mh_rows
        if rows.size:
            lgam = self.lgam
            cur = eps.take(self.mh_at_eps)
            prop = rng.poisson(rates.take(self.mh_at))
            lo_c, yc_c, diff = self.mh_lo, self.mh_yc, self.mh_diff
            feasible = (prop >= lo_c) & (prop <= yc_c)
            p_safe = np.clip(prop, lo_c, yc_c)
            log_ratio = (
                (p_safe - cur) * log_odds[rows]
                + lgam[yc_c - cur + 1] + lgam[diff + cur + 1]
                - lgam[yc_c - p_safe + 1] - lgam[diff + p_safe + 1]
            )
            accept = feasible & (np.log(rng.random(rows.size)) < log_ratio)
            flat[self.mh_at_eps] = np.where(accept, p_safe, cur)

        return new


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


class _Bucket:
    """The exact cells ``start:stop`` of an ``InnovationKernel``, on a grid
    of shape (support points, cells) padded to their widest support.

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
    (``logw[i] += logw[i - 1]``), tall narrow ones take ``np.cumsum`` along
    axis 0. Both add each cell's weights one at a time from the first point
    on, so they give bit-identical sums.
    """

    def __init__(self, start, stop, base, width, y_curr, y_prev, lgam):
        self.cells = slice(start, stop)
        m = int(width.max()) + 1
        valid = np.arange(m)[:, None] <= width
        grid = (base + np.arange(m)[:, None]) * valid
        surv = (y_curr - grid) * valid
        fail = (y_prev - surv) * valid
        # log-factorial terms never change across sweeps; only the rate
        # term multiplies the support grid
        logw0 = -(lgam[grid + 1] + lgam[surv + 1] + lgam[fail + 1])
        logw0[~valid] = np.nan
        self.grid0 = grid.astype(float)
        self.logw0 = logw0
        c = logw0.shape[1]
        # flat index of each cell's last point
        self._last = width * c + np.arange(c)
        self._logw = np.empty_like(logw0)
        self._below = np.empty((m - 1, c), dtype=bool)
        # the smallest unsigned type that holds an offset: summing bools
        # into it skips numpy's buffered cast to int64
        self._offsets = np.empty(c, dtype=np.min_scalar_type(m - 1))
        fixed, per_cell, per_point = _COLUMN_SUM_NS
        self.row_wise = _ROW_SUM_NS * (m - 1) < fixed + per_cell * c + per_point * m * c
        if self.row_wise:
            self._steps = list(zip(self._logw[:-1], self._logw[1:]))
            self._work = self._logw
        else:
            self._work = np.empty_like(logw0)

    def draw(self, log_c: np.ndarray, u: np.ndarray, out: np.ndarray):
        """Write each cell's offset into its support to ``out``, from the
        log rate-odds ``log_c`` and uniforms ``u`` of all the kernel's cells."""
        cells = self.cells
        logw, work = self._logw, self._work
        np.multiply(self.grid0, log_c[cells], out=logw)
        logw += self.logw0
        np.subtract(logw, np.fmax.reduce(logw, axis=0), out=logw)
        np.exp(logw, out=logw)
        if self.row_wise:
            for prev, row in self._steps:
                row += prev
        else:
            np.cumsum(logw, axis=0, out=work)
        total = work.take(self._last)
        np.less(work[:-1], u[cells] * total, out=self._below)
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


def sample_memberships(
    state: ModelState,
    panel: CountPanel,
    stats: SuffStats,
    hyper: Hyperparams,
    rng: np.random.Generator,
    order: np.ndarray | None = None,
) -> tuple[np.ndarray, SuffStats]:
    """One full sweep of collapsed membership updates.

    Each series in turn is removed from its cluster and reassigned: a new
    cluster is opened with weight tau * p_0 and existing cluster j is joined
    with weight n_j * p_j, where the p's are the collapsed marginal
    likelihoods of the series' innovation total. Emptied clusters are removed
    and labels are canonicalized by first appearance, so the returned stats
    carry compacted B, n and U; the cluster rates must be re-instantiated
    afterwards.

    The cluster statistics live in preallocated arrays next to the parts of
    each cluster's marginal that do not depend on the visiting series; a
    visit refreshes those only for the clusters it touches. The terms of
    ``log_innovation_total_marginal`` are combined in its own order, and an
    emptied cluster is removed by shifting the later ones down, so the draws
    are those of the plain per-visit formula.
    """
    g1, g2 = hyper.gamma1, hyper.gamma2
    S, mass = stats.S, stats.mass
    z = state.z.copy()
    L = z.shape[0]
    K = stats.n.shape[0]
    if order is None:
        order = np.arange(L)

    # per-series terms, fixed for the whole sweep
    log_fact_s = gammaln(S + 1.0)
    log_mass = np.log(mass)
    log_open = np.log(state.tau) + log_innovation_total_marginal(S, mass, g1, g2)

    # one row per cluster quantity, with room for every series alone
    table = np.zeros((8, L + 1))
    n, B, U, shape, rate, log_gamma_shape, log_rate, log_n = table
    n[:K], B[:K], U[:K] = stats.n, stats.B, stats.U
    np.add(B[:K], g1, out=shape[:K])
    np.add(U[:K], g2, out=rate[:K])
    gammaln(shape[:K], out=log_gamma_shape[:K])
    np.log(rate[:K], out=log_rate[:K])
    np.log(n[:K], out=log_n[:K])

    def refresh(k):
        shape[k] = B[k] + g1
        rate[k] = U[k] + g2
        log_gamma_shape[k] = gammaln(shape[k])
        log_rate[k] = np.log(rate[k])
        log_n[k] = np.log(n[k])

    logw = np.empty(L + 1)
    cum = np.empty(L + 1)
    scratch = np.empty((2, L + 1))
    for l in order:
        s, m = S[l], mass[l]
        k = z[l]
        n[k] -= 1
        B[k] -= s
        U[k] -= m
        if n[k] == 0:
            table[:, k:K - 1] = table[:, k + 1:K]
            K -= 1
            z[z > k] -= 1
        else:
            refresh(k)

        # log n_j + log_innovation_total_marginal(s, m, shape_j, rate_j)
        w, log_denom, term = logw[:K], scratch[0, :K], scratch[1, :K]
        np.add(shape[:K], s, out=w)
        gammaln(w, out=w)
        w -= log_gamma_shape[:K]
        w -= log_fact_s[l]
        np.add(rate[:K], m, out=log_denom)
        np.log(log_denom, out=log_denom)
        np.subtract(log_rate[:K], log_denom, out=term)
        term *= shape[:K]
        w += term
        np.subtract(log_mass[l], log_denom, out=term)
        term *= s
        w += term
        np.add(log_n[:K], w, out=w)
        logw[K] = log_open[l]

        # ufuncs and the searchsorted method, called directly: the Python
        # wrappers of max, sum, cumsum and np.searchsorted cost more than the
        # work at a few clusters, and compute the same values
        w, c = logw[:K + 1], cum[:K + 1]
        w -= np.maximum.reduce(w)
        np.exp(w, out=w)
        np.add.accumulate(w, out=c)
        k_new = int(c.searchsorted(rng.random() * np.add.reduce(w), side="right"))
        if k_new == K:
            table[:, K] = 0.0
            K += 1
        z[l] = k_new
        n[k_new] += 1
        B[k_new] += s
        U[k_new] += m
        refresh(k_new)

    z, (B, n, U) = _relabel_by_first_appearance(z, B[:K], n[:K].astype(np.int64), U[:K])
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
    q = panel.season_summary().q
    # per-series effective rates: exposure (mass / Theta) times the cluster rate
    lam_sum = float(((stats.mass / stats.theta_total) * state.phi_star[state.z]).sum())
    shape = month_eps + hyper.xi1
    rate = q * lam_sum + hyper.xi2
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


def run_chain(
    panel: CountPanel,
    config: SamplerConfig,
    rng: np.random.Generator | None = None,
    chain_index: int = 0,
    kernel: InnovationKernel | None = None,
) -> PosteriorDraws:
    """Run one chain and return its thinned post-burn-in draws.

    Sweeps execute the six update steps in a fixed order; sweep burn_in +
    k * thin_interval fills row k - 1 of ``config.draws_per_chain``
    preallocated rows, its innovations only under
    ``config.keep_innovations``. Deterministic given the generator's seed.
    ``kernel``, the panel's ``InnovationKernel`` under ``config``'s
    strategy, is built here when not given.
    """
    hyper = config.hyper
    if hyper.mode == MODE_COVARIATE and panel.exposure is None:
        raise ConfigurationError("covariate mode requires an exposure vector")
    if rng is None:
        rng = chain_rng(config.seed, chain_index)

    counts = panel.counts
    L = panel.n_series
    month_idx = panel.season_of - 1
    exposure = panel.exposure if hyper.mode == MODE_COVARIATE else np.ones(L)
    if kernel is None:
        kernel = _innovation_kernel(panel, config)

    state = _initial_state(panel, rng)
    eps = np.empty_like(counts)
    eps[:, 0] = counts[:, 0]
    eps[:, 1:] = np.maximum(counts[:, 1:] - counts[:, :-1], 0)
    state.innovations = eps

    D = config.draws_per_chain
    draws = PosteriorDraws(
        alpha=np.empty((D, L)), z=np.empty((D, L), dtype=np.int64),
        phi_star=np.full((D, L), np.nan), n_clusters=np.empty(D, dtype=np.int64),
        theta=np.empty((D, N_MONTHS)), tau=np.empty(D), chain_index=np.full(D, chain_index),
        iteration=config.burn_in + config.thin_interval * np.arange(1, D + 1),
        innovations=np.empty((D, L, panel.n_weeks), dtype=np.int64)
        if config.keep_innovations else None,
        mode=hyper.mode,
    )
    for it in range(1, config.n_iterations + 1):
        rates = (exposure * state.phi_star[state.z])[:, None] * state.theta[month_idx[1:]]
        state.innovations = kernel(state.innovations, state.alpha, rates, rng)
        stats = SuffStats.from_state(state, panel, mode=hyper.mode)
        state.z, stats = sample_memberships(state, panel, stats, hyper, rng)
        state.phi_star = sample_unique_rates(stats, hyper, rng)
        state.theta = sample_seasonals(stats, state, panel, hyper, rng)
        state.alpha = sample_thinnings(state, panel, hyper, rng)
        state.tau = sample_concentration(state.n_clusters, L, state.tau, hyper, rng)

        if config.validate_sweeps:
            state.validate(panel)
            stats.validate()

        if it > config.burn_in and (it - config.burn_in) % config.thin_interval == 0:
            d = (it - config.burn_in) // config.thin_interval - 1
            K = state.n_clusters
            draws.alpha[d], draws.z[d], draws.theta[d] = state.alpha, state.z, state.theta
            draws.phi_star[d, :K], draws.n_clusters[d], draws.tau[d] = state.phi_star, K, state.tau
            if config.keep_innovations:
                draws.innovations[d] = state.innovations
    return draws


def _innovation_kernel(panel: CountPanel, config: SamplerConfig) -> InnovationKernel:
    return InnovationKernel(
        panel.counts,
        strategy=config.innovation_strategy,
        mh_threshold=config.metropolis_threshold,
    )


def run_chains(panel: CountPanel, config: SamplerConfig) -> list[PosteriorDraws]:
    """Run ``config.n_chains`` independent chains with derived per-chain
    seeds and individually drawn starting points.

    The chains run one after another and share one innovation kernel: it
    keeps only the panel's geometry across calls and overwrites its work
    buffers on every call.
    """
    kernel = _innovation_kernel(panel, config)
    return [
        run_chain(panel, config, chain_index=c, kernel=kernel)
        for c in range(config.n_chains)
    ]

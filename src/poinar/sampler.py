"""Collapsed Gibbs sampler for the clustered Poisson INAR(1) model.

One sweep resamples, in order: the latent innovation counts (``kernel``),
the cluster memberships with the cluster rates integrated out
(``memberships``), then, by the conjugate updates here, the unique cluster
rates, the monthly seasonal effects, the per-series thinning probabilities
and the DP concentration parameter. ``run_chains`` runs its chains in forked
workers (``workers``).

Series l's innovation rate at week t is e_l * psi_{z_l} * theta_{s(t)}: an
exposure e_l times its cluster's per-exposure rate and the month's seasonal
effect. A panel without exposure is fitted at unit exposure, and
``model.model_exposure`` is the one function that picks e from the panel, so
one formula and one set of conjugate updates cover both model variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import workers
from .kernel import InnovationKernel
from .memberships import LogGammaTable, SuffStats, sample_memberships
from .model import ConfigurationError, Hyperparams, ModelState, model_exposure, refuse_over_memory
from .panel import N_MONTHS, CountPanel


@dataclass(frozen=True)
class SamplerConfig:
    """MCMC run settings."""

    n_iterations: int = 1000
    burn_in: int = 100
    thin_interval: int = 5
    n_chains: int = 1
    seed: int = 0
    hyper: Hyperparams = field(default_factory=Hyperparams)
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
    ``exposure`` is the (L,) exposure of the panel the draws were fitted
    to, ``None`` for unit exposure. ``fitted_to`` is ``(n_weeks,
    panel_sha256, week_starts_sha256)`` of the training panel for draws
    read from a file, ``None`` for draws a chain returns. Nothing modifies
    the arrays once ``run_chain`` or ``load_draws`` returns them.
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
    exposure: np.ndarray | None = None
    fitted_to: tuple[int, str, str] | None = None

    def __len__(self) -> int:
        return self.alpha.shape[0]

    @property
    def states(self) -> list[ModelState]:
        """``ModelState`` views of the rows. Only perfbench's ``run_chain``
        hook reads them, until ROADMAP item 1 switches it to ``draws.z``."""
        return [ModelState(self.alpha[d], self.z[d], self.phi_star[d, :k], self.theta[d],
                           self.tau[d]) for d, k in enumerate(self.n_clusters.tolist())]

    def stacked(self) -> tuple[np.ndarray, ...]:
        """Every draw's parameters on a leading draw axis: ``(alpha, lam,
        theta)`` of shapes (D, L), (D, L) and (D, 12).

        ``lam`` is each series' effective innovation rate, phi*_{z_l} scaled
        by the draws' ``exposure``.
        """
        if len(self) == 0:
            raise ValueError("no posterior draws")
        lam = np.take_along_axis(self.phi_star, self.z, axis=1)
        if self.exposure is not None:
            lam *= self.exposure
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

    def rate_sum_traces(self) -> np.ndarray:
        """Per-chain traces of the summed effective rates, shape (chains,
        draws per chain): a scalar functional that is invariant to cluster
        relabeling (used for convergence checks)."""
        return self.by_chain(self.stacked()[1].sum(axis=1))

    @classmethod
    def concat(cls, parts: list["PosteriorDraws"]) -> "PosteriorDraws":
        """The draws of ``parts`` one after another; they must share the
        exposure, the width L and whether they keep innovations."""
        if not parts:
            raise ValueError("no draws to concatenate")
        if len({None if p.exposure is None else p.exposure.tobytes() for p in parts}) != 1:
            raise ValueError("cannot mix draws fitted under different exposures")
        if len({p.innovations is None for p in parts}) != 1:
            raise ValueError("cannot mix draws with and without innovations")
        arrays = {f.name: [getattr(p, f.name) for p in parts] for f in fields(cls)
                  if f.name not in ("exposure", "fitted_to")}
        return cls(
            **{name: None if a[0] is None else np.concatenate(a) for name, a in arrays.items()},
            exposure=parts[0].exposure,
        )


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
    lam = model_exposure(panel) * state.phi_star[state.z]
    rates = lam[:, None] * state.theta[panel.season_of[1:] - 1]
    state.innovations = kernel(state.alpha, rates, rng)
    stats = SuffStats.from_state(state, panel)
    state.z, stats = sample_memberships(state, stats, hyper, rng, log_gamma=log_gamma)
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
    seed. ``kernel``, the panel's ``InnovationKernel``, is built here when
    not given. The draws carry the panel's exposure.
    """
    hyper = config.hyper
    if rng is None:
        rng = stream(config.seed, 1, chain_index)
    if kernel is None:
        kernel = InnovationKernel(panel.counts, panel.series_ids)

    L = panel.n_series
    log_gamma = LogGammaTable(hyper.gamma1)
    state = _initial_state(panel, rng)

    D = config.draws_per_chain
    draws = PosteriorDraws(**{name: np.empty(shape, dtype) for name, (shape, dtype)
                              in _draw_arrays(L, panel.n_weeks, config).items()},
                           exposure=panel.exposure)
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


def draw_bytes(n_series: int, n_weeks: int, config: SamplerConfig) -> int:
    """The bytes of one chain's ``PosteriorDraws`` arrays."""
    return sum(math.prod(shape) * np.dtype(dtype).itemsize
               for shape, dtype in _draw_arrays(n_series, n_weeks, config).values())


def run_chains(panel: CountPanel, config: SamplerConfig) -> list[PosteriorDraws]:
    """Run ``config.n_chains`` independent chains with derived per-chain
    seeds and individually drawn starting points.

    The chains share one innovation kernel, built here: it keeps only the
    panel's geometry across calls and overwrites its work buffers on every
    call. They run side by side in forked worker processes on the usable
    CPUs (``workers.in_workers``), as many as memory holds when each chain
    copies the buffers it writes and holds its draws twice, as an array and
    pickled. Each chain draws from its own stream, so the draws are those of
    the chains run one after another, which is how they run on one CPU.
    Before any sweep, the fit is refused if the kernel and every chain's
    draws, held twice (the chains and their concatenation), would exceed
    physical memory.
    """
    kernel = InnovationKernel(panel.counts, panel.series_ids)
    per_chain = draw_bytes(panel.n_series, panel.n_weeks, config)
    refuse_over_memory(kernel.held_bytes + 2 * config.n_chains * per_chain,
                       f"the {config.n_chains * config.draws_per_chain} draws the chains keep",
                       "lower --iterations, raise --thin or leave out --include-innovations")
    return workers.in_workers(lambda c: run_chain(panel, config, chain_index=c, kernel=kernel),
                              range(config.n_chains), lambda c: f"chain {c}",
                              held=kernel.held_bytes, per_worker=kernel.chain_bytes + 2 * per_chain)

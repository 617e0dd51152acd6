"""Generative machinery: the model's settings and state, and Poisson INAR(1)
simulation of single series and clustered panels.

All randomness is passed in explicitly as a ``numpy.random.Generator`` so every
operation is pure and reproducible given a seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .panel import N_MONTHS, CountPanel, innovation_bounds

MODE_PLAIN = "plain"
MODE_COVARIATE = "covariate"


class ConfigurationError(ValueError):
    """Raised when settings are invalid or inconsistent with the data."""


def physical_memory() -> int | None:
    """This machine's physical memory in bytes, or None where the OS does
    not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def series_name(row: int, series_ids: list[str] | None) -> str:
    """How an error names the series in ``row``: its id, or its row number
    when no ids are given."""
    return repr(series_ids[row]) if series_ids is not None else f"in row {row}"


def refuse_over_memory(needed: float, what: str, cause: str):
    """Raise ``ConfigurationError`` if ``what`` would need ``needed`` bytes,
    more than this machine's physical memory; ``cause`` names the series
    that makes it so, and what to do. Where the OS does not say how much
    memory it has, refuse nothing."""
    memory = physical_memory()
    if memory is not None and needed > memory:
        raise ConfigurationError(
            f"{what} would need about {needed / 2**30:,.0f} GiB, more than this "
            f"machine's {memory / 2**30:,.1f} GiB; {cause}"
        )


def copies_that_fit(held: float, each: float, most: int) -> int:
    """The largest n <= ``most`` for which ``held`` bytes and n copies of
    ``each`` bytes fit in this machine's physical memory, and at least 1:
    ``most`` where the OS does not say."""
    memory = physical_memory()
    if memory is None or each <= 0:
        return most
    return max(1, min(most, int((memory - held) // each)))


@dataclass(frozen=True)
class Hyperparams:
    """Prior hyperparameters of the clustered INAR model.

    All Gamma distributions here are shape/rate parameterized: the collapsed
    membership weights and the conjugate rate updates only compose correctly
    under the rate convention.

    Attributes
    ----------
    eta1, eta2 : float
        Beta prior on the per-series thinning probabilities.
    xi1, xi2 : float
        Gamma prior on the monthly seasonal effects.
    gamma1, gamma2 : float
        Gamma base measure of the Dirichlet process over innovation rates
        (over per-exposure rates in covariate mode).
    a_tau, b_tau : float
        Gamma prior on the DP concentration parameter.
    mode : str
        ``"covariate"`` factors each rate as exposure times a clustered
        per-exposure rate; ``"plain"`` is that model at unit exposure (see
        ``model_exposure``).
    """

    eta1: float = 1.0
    eta2: float = 1.0
    xi1: float = 1.0
    xi2: float = 1.0
    gamma1: float = 1.0
    gamma2: float = 0.1
    a_tau: float = 2.0
    b_tau: float = 4.0
    mode: str = MODE_PLAIN

    def __post_init__(self):
        for name in ("eta1", "eta2", "xi1", "xi2", "gamma1", "gamma2", "a_tau", "b_tau"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise ConfigurationError(f"{name} must be a positive finite number, got {value}")
        if self.mode not in (MODE_PLAIN, MODE_COVARIATE):
            raise ConfigurationError(f"mode must be 'plain' or 'covariate', got {self.mode!r}")

    @classmethod
    def default(cls, mode: str = MODE_PLAIN) -> "Hyperparams":
        """Mode-appropriate defaults: base measure Gamma(1, 0.1) for plain
        rates, Gamma(0.5, 0.5) for exposure-adjusted per-unit rates."""
        if mode == MODE_COVARIATE:
            return cls(gamma1=0.5, gamma2=0.5, mode=mode)
        return cls(mode=mode)


def model_exposure(panel: CountPanel, mode: str) -> np.ndarray:
    """The exposure e_l each series' rate e_l * psi_{z_l} carries in ``mode``.

    Covariate mode uses the panel's exposure. Plain mode is the same model
    at unit exposure, so it gets a vector of ones; multiplying by it changes
    no value, and every rate and seasonal mass has one formula in both modes.
    """
    if mode != MODE_COVARIATE:
        return np.ones(panel.n_series)
    if panel.exposure is None:
        raise ConfigurationError("covariate mode requires an exposure vector (--exposure)")
    return panel.exposure


@dataclass
class ModelState:
    """One full parameter configuration of the clustered INAR model.

    Cluster labels are 0-based and contiguous: ``z`` takes values in
    ``0..K-1`` with no empty cluster, and ``phi_star[k]`` is the rate shared
    by cluster ``k`` (the per-exposure rate in covariate mode).

    ``innovations`` holds the imputed new-arrival counts; the first column is
    pinned to the first observations (the initial count is attributed wholly
    to innovation). It may be ``None`` for a state given without them.
    """

    alpha: np.ndarray
    z: np.ndarray
    phi_star: np.ndarray
    theta: np.ndarray
    tau: float
    innovations: np.ndarray | None = None

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.z = np.asarray(self.z, dtype=np.int64)
        self.phi_star = np.asarray(self.phi_star, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        self.tau = float(self.tau)
        if self.innovations is not None:
            self.innovations = np.asarray(self.innovations, dtype=np.int64)

    @property
    def n_clusters(self) -> int:
        return self.phi_star.shape[0]

    def validate(self, panel: CountPanel | None = None):
        """Assert the structural invariants."""
        L = self.z.shape[0]
        K = self.n_clusters
        if self.alpha.shape != (L,) or np.any((self.alpha < 0) | (self.alpha > 1)):
            raise AssertionError("alpha must be length L within [0, 1]")
        if np.any((self.z < 0) | (self.z >= K)):
            raise AssertionError("memberships must reference existing clusters")
        if len(np.unique(self.z)) != K:
            raise AssertionError("clusters must be contiguously indexed with no empties")
        if np.any(self.phi_star <= 0) or np.any(self.theta <= 0) or not self.tau > 0:
            raise AssertionError("rates, seasonals and concentration must be positive")
        if self.theta.shape != (N_MONTHS,):
            raise AssertionError("theta must have 12 entries")
        if panel is not None and self.innovations is not None:
            eps = self.innovations
            if eps.shape != panel.counts.shape:
                raise AssertionError("innovations must match the panel shape")
            lo, hi = innovation_bounds(panel.counts)
            if np.any(eps < lo) or np.any(eps > hi):
                raise AssertionError("innovation support bounds violated")


def simulate_poinar(
    lam: float,
    alpha: float,
    theta: np.ndarray,
    season_of: np.ndarray,
    rng: np.random.Generator,
    y0: int | None = None,
    return_innovations: bool = False,
):
    """Simulate one Poisson INAR(1) series with monthly innovation rates.

    The series has a week for every entry of ``season_of``. Each step
    carries over a binomial thinning of the previous count and adds a
    Poisson(lam * theta_{s(t)}) innovation. When ``y0`` is omitted the
    first observation is drawn near stationarity, from
    Poisson(lam * theta_{s(1)} / (1 - alpha)).

    Returns the length-T count series; with ``return_innovations=True`` also
    returns the simulated innovations (first entry set to the first count).
    """
    if lam < 0:
        raise ValueError("innovation rate must be nonnegative")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"thinning probability must lie in [0, 1], got {alpha}")
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0):
        raise ValueError("seasonal effects must be strictly positive")
    season_of = np.asarray(season_of, dtype=np.int64)
    T = season_of.shape[0]

    rates = lam * theta[season_of - 1]
    if y0 is None:
        if alpha >= 1.0:
            raise ValueError("alpha = 1 has no stationary start; pass y0 explicitly")
        y0 = int(rng.poisson(rates[0] / (1.0 - alpha)))

    innovations = rng.poisson(rates[1:]) if T > 1 else np.empty(0, dtype=np.int64)
    # the weekly recursion runs on Python ints: indexing numpy arrays one
    # scalar at a time would cost more than the binomial draws
    prev = int(y0)
    path = [prev]
    for e in innovations.tolist():
        prev = int(rng.binomial(prev, alpha)) + e
        path.append(prev)
    y = np.array(path, dtype=np.int64)
    eps = np.empty(T, dtype=np.int64)
    eps[0] = y0
    eps[1:] = innovations
    if return_innovations:
        return y, eps
    return y


def simulate_panel(
    cluster_rates: np.ndarray,
    memberships: np.ndarray,
    alpha,
    theta: np.ndarray,
    season_of: np.ndarray,
    rng: np.random.Generator,
    exposure: np.ndarray | None = None,
    series_ids: list[str] | None = None,
) -> tuple[CountPanel, ModelState]:
    """Simulate an L-series panel and keep its ground truth.

    Every series is an independent INAR(1) whose innovation rate is the rate
    of its cluster (times exposure when given), sharing the seasonal vector.

    Returns
    -------
    (CountPanel, ModelState)
        The simulated panel and the generating configuration, including the
        true innovations.
    """
    cluster_rates = np.asarray(cluster_rates, dtype=float)
    memberships = np.asarray(memberships, dtype=np.int64)
    if np.any((memberships < 0) | (memberships >= cluster_rates.shape[0])):
        raise ValueError("memberships must reference the given cluster rates")
    L = memberships.shape[0]
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (L,)).copy()
    season_of = np.asarray(season_of, dtype=np.int64)
    T = season_of.shape[0]
    if exposure is not None:
        exposure = np.asarray(exposure, dtype=float)
        if exposure.shape != (L,):
            raise ValueError("exposure must have one entry per series")

    counts = np.empty((L, T), dtype=np.int64)
    eps = np.empty((L, T), dtype=np.int64)
    for l in range(L):
        lam = cluster_rates[memberships[l]]
        if exposure is not None:
            lam *= exposure[l]
        counts[l], eps[l] = simulate_poinar(
            lam, alpha[l], theta, season_of, rng=rng, return_innovations=True
        )

    panel = CountPanel(
        counts=counts,
        season_of=season_of,
        exposure=exposure,
        series_ids=series_ids or [],
    )
    # tau has no ground-truth value for a fixed clustering; 1.0 is a placeholder.
    truth = ModelState(
        alpha=alpha,
        z=memberships,
        phi_star=cluster_rates,
        theta=np.asarray(theta, dtype=float),
        tau=1.0,
        innovations=eps,
    )
    return panel, truth

"""Generative helpers that only the tests use: binomial thinning, the
stationary INAR(1) mean, and Dirichlet-process prior draws (Chinese
restaurant process and stick breaking).

The package simulates and samples without them; the tests keep them as
checked statements of the model's building blocks.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def binomial_thin(x: int, alpha: float, rng: np.random.Generator) -> int:
    """Binomial thinning: the number of survivors among ``x`` independent
    Bernoulli(alpha) trials. Always between 0 and x."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"thinning probability must lie in [0, 1], got {alpha}")
    if x < 0:
        raise ValueError("cannot thin a negative count")
    return int(rng.binomial(int(x), alpha))


def stationary_mean(lam: float, alpha: float) -> float:
    """Marginal mean lambda / (1 - alpha) of a stationary INAR(1) with
    constant innovation rate."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError("stationarity requires alpha in [0, 1)")
    return lam / (1.0 - alpha)


def crp_draw(n: int, tau: float, rng: np.random.Generator) -> np.ndarray:
    """Draw cluster memberships for ``n`` items from a Chinese restaurant
    process with concentration ``tau``.

    The first item opens cluster 0; item i+1 then opens a new cluster with
    probability tau / (i + tau) and joins an existing cluster k with
    probability n_k / (i + tau). Labels are 0-based in order of appearance.
    """
    if n < 1:
        raise ValueError("need at least one item")
    if not tau > 0:
        raise ValueError("concentration must be positive")
    z = np.empty(n, dtype=np.int64)
    sizes: list[int] = []
    for i in range(n):
        if i == 0:
            z[0] = 0
            sizes.append(1)
            continue
        u = rng.random() * (i + tau)
        acc = 0.0
        for k, nk in enumerate(sizes):
            acc += nk
            if u < acc:
                z[i] = k
                sizes[k] += 1
                break
        else:
            z[i] = len(sizes)
            sizes.append(1)
    return z


class StickWeights(NamedTuple):
    beta: np.ndarray
    leftover: float


def stick_breaking(tau: float, truncation: int, rng: np.random.Generator) -> StickWeights:
    """Draw the first ``truncation`` DP weights by stick breaking.

    beta_k = nu_k * prod_{l<k} (1 - nu_l) with nu_k ~ Beta(1, tau). The
    returned ``leftover`` is the unassigned stick mass 1 - sum(beta).
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    if not tau > 0:
        raise ValueError("concentration must be positive")
    nu = rng.beta(1.0, tau, size=truncation)
    remaining = np.concatenate([[1.0], np.cumprod(1.0 - nu)])
    beta = nu * remaining[:-1]
    return StickWeights(beta=beta, leftover=float(remaining[-1]))


def crp_expected_clusters(n: int, tau: float) -> float:
    """Exact expected cluster count sum_{i=1}^n tau / (tau + i - 1)."""
    i = np.arange(n, dtype=float)
    return float(np.sum(tau / (tau + i)))

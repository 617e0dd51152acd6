"""Posterior draws assembled from ``ModelState``s, and single rows read back
as ``ModelState``s, for tests that state a draw one parameter set at a time.
"""

from __future__ import annotations

import numpy as np

from poinar.model import MODE_PLAIN, ModelState
from poinar.panel import N_MONTHS
from poinar.sampler import PosteriorDraws

DRAW_FIELDS = ("alpha", "z", "phi_star", "n_clusters", "theta", "tau", "chain_index",
               "iteration")


def draws_from_states(states, chain_index=None, iteration=None,
                      mode: str = MODE_PLAIN) -> PosteriorDraws:
    """``states`` as draws of chain 0 at iterations 0, 1, ... unless given;
    innovations are kept when every state has them."""
    D = len(states)
    L = states[0].z.shape[0] if states else 0
    phi_star = np.full((D, L), np.nan)
    for d, s in enumerate(states):
        phi_star[d, : s.n_clusters] = s.phi_star
    eps = [s.innovations for s in states]
    return PosteriorDraws(
        alpha=np.array([s.alpha for s in states], dtype=float).reshape(D, L),
        z=np.array([s.z for s in states], dtype=np.int64).reshape(D, L),
        phi_star=phi_star,
        n_clusters=np.array([s.n_clusters for s in states], dtype=np.int64),
        theta=np.array([s.theta for s in states], dtype=float).reshape(D, N_MONTHS),
        tau=np.array([s.tau for s in states], dtype=float),
        chain_index=np.zeros(D, dtype=np.int64) if chain_index is None
        else np.asarray(chain_index),
        iteration=np.arange(D) if iteration is None else np.asarray(iteration),
        innovations=np.array(eps) if states and all(e is not None for e in eps) else None,
        mode=mode,
    )


def draw_state(draws: PosteriorDraws, d: int) -> ModelState:
    """Draw ``d`` as a ``ModelState``, ``phi_star`` cut to its clusters."""
    return ModelState(
        alpha=draws.alpha[d],
        z=draws.z[d],
        phi_star=draws.phi_star[d, : draws.n_clusters[d]],
        theta=draws.theta[d],
        tau=draws.tau[d],
        innovations=None if draws.innovations is None else draws.innovations[d],
    )


def assert_same_draws(a: PosteriorDraws, b: PosteriorDraws):
    """Every array of ``a`` equals ``b``'s bit for bit, NaN padding included,
    and both keep innovations or neither does."""
    assert len(a) == len(b)
    for name in DRAW_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    assert (a.innovations is None) == (b.innovations is None)
    if a.innovations is not None:
        assert np.array_equal(a.innovations, b.innovations)
    assert a.mode == b.mode

"""Joint-distribution test of the whole sweep (Geweke, JASA 99:799-804, 2004).

The successive-conditional simulator alternates two steps: simulate
(innovations, counts) from the model given the parameters, then run one
``sampler.sweep`` on the new counts. If every step of the sweep leaves the
posterior invariant, the parameters' marginal is the prior. The chain's
means of label-free statistics are compared with those of independent prior
draws, with batch-means standard errors and a bound fixed before looking.

This checks what the per-step tests cannot: that the six steps compose, with
the exposure scaling, the week-1 convention (y_1 is all innovation), the
concentration mixture and the relabelling, to a sampler of the posterior.

At L = 4 every membership sweep of the plain case takes the list visit, and
every sweep of the covariate case, whose exposures differ, the table visit;
``test_sweep_identity`` pins both visits to the same draws.
"""

import numpy as np
import pytest

from generative import crp_draw
from poinar.kernel import InnovationKernel
from poinar.memberships import LogGammaTable
from poinar.model import Hyperparams, ModelState
from poinar.panel import N_MONTHS, CountPanel
from poinar.sampler import sweep

# small panels and priors that keep counts small: a rate e * phi * theta
# near 1 per week, over 6 weeks in months 1-3
SEASON_OF = np.array([1, 1, 2, 2, 3, 3])
MONTHS = np.unique(SEASON_OF) - 1
HYPER = dict(eta1=1.0, eta2=1.0, xi1=4.0, xi2=4.0, gamma1=2.0, gamma2=2.0, a_tau=2.0, b_tau=4.0)
EXPOSURE = np.array([0.5, 1.0, 1.5, 2.0])
ITERATIONS, BATCHES = 6_000, 40
PRIOR_DRAWS = 20_000
# a count this large is far beyond these priors; a sampler that drifts off
# its target makes the counts diverge, and the kernel's grids with them
COUNT_CAP = 200
# fixed before looking: every |z| over the whole set stays below it
Z_BOUND = 4.0
STATS = ("mean alpha", "mean theta (months 1-3)", "tau", "K", "mean series rate")


def prior_draw(L: int, hyper: Hyperparams, rng: np.random.Generator) -> ModelState:
    """Every parameter of an L-series panel drawn from its prior."""
    tau = rng.gamma(hyper.a_tau, 1.0 / hyper.b_tau)
    z = crp_draw(L, tau, rng)
    return ModelState(
        alpha=rng.beta(hyper.eta1, hyper.eta2, L),
        z=z,
        phi_star=rng.gamma(hyper.gamma1, 1.0 / hyper.gamma2, z.max() + 1),
        theta=rng.gamma(hyper.xi1, 1.0 / hyper.xi2, N_MONTHS),
        tau=tau,
    )


def statistics(state: ModelState) -> list[float]:
    """Label-free summaries of one parameter set, in the order of STATS."""
    return [state.alpha.mean(), state.theta[MONTHS].mean(), state.tau, state.n_clusters,
            state.phi_star[state.z].mean()]


def simulate_data(state: ModelState, exposure: np.ndarray,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(innovations, counts) given the parameters: y_1 ~ Poisson(e phi theta_s(1))
    is all innovation, and y_t = Binomial(y_{t-1}, alpha) + eps_t after."""
    rates = (exposure * state.phi_star[state.z])[:, None] * state.theta[SEASON_OF - 1]
    eps = rng.poisson(rates)
    y = eps.copy()
    for t in range(1, SEASON_OF.size):
        y[:, t] += rng.binomial(y[:, t - 1], state.alpha)
    return eps, y


def successive_conditional(exposure: np.ndarray | None,
                           rng: np.random.Generator) -> np.ndarray:
    """ITERATIONS rows of STATS from the successive-conditional simulator,
    on panels of ``exposure`` (unit exposure when ``None``)."""
    hyper = Hyperparams(**HYPER)
    log_gamma = LogGammaTable(hyper.gamma1)
    state = prior_draw(EXPOSURE.size, hyper, rng)
    out = np.empty((ITERATIONS, len(STATS)))
    for it in range(ITERATIONS):
        _, counts = simulate_data(state, np.ones(EXPOSURE.size) if exposure is None else exposure,
                                  rng)
        if counts.max() > COUNT_CAP:
            pytest.fail(f"iteration {it}: a simulated count of {counts.max()} passed the cap "
                        f"{COUNT_CAP}; the sweep has drifted off the posterior")
        panel = CountPanel(counts, SEASON_OF, exposure=exposure)
        sweep(state, panel, InnovationKernel(counts), hyper, rng, log_gamma)
        out[it] = statistics(state)
    return out


@pytest.fixture(scope="module")
def prior_moments():
    """Means and standard errors of STATS over independent prior draws."""
    rng = np.random.default_rng(2004)
    hyper = Hyperparams(**HYPER)
    draws = np.array([statistics(prior_draw(EXPOSURE.size, hyper, rng))
                      for _ in range(PRIOR_DRAWS)])
    return draws.mean(axis=0), draws.std(axis=0, ddof=1) / np.sqrt(PRIOR_DRAWS)


@pytest.mark.parametrize("exposure, seed", [(None, 1), (EXPOSURE, 2)],
                         ids=["plain-exact-enumeration-1", "covariate-exact-enumeration-2"])
def test_sweep_leaves_the_prior_invariant(prior_moments, exposure, seed):
    chain = successive_conditional(exposure, np.random.default_rng(seed))
    batches = chain.reshape(BATCHES, -1, len(STATS)).mean(axis=1)
    chain_se = batches.std(axis=0, ddof=1) / np.sqrt(BATCHES)
    prior_mean, prior_se = prior_moments
    z = (chain.mean(axis=0) - prior_mean) / np.hypot(chain_se, prior_se)
    report = ", ".join(f"{name} z={v:+.2f}" for name, v in zip(STATS, z))
    assert np.all(np.abs(z) < Z_BOUND), report

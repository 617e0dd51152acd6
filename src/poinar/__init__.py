"""Correlated low-count time series via a clustered Poisson INAR(1) model.

Each series carries over a binomially thinned share of its previous count and
adds Poisson innovations whose rates share a Dirichlet-process clustering
across series and a monthly seasonal profile across time.
"""

__version__ = "0.1.0"

from .baselines import ClsPanelEstimate, cls_fit_panel
from .diagnostics import (
    EvalReport,
    cluster_count_histogram,
    forecast_metrics,
    hamming_error,
    psrf,
    representative_assignment,
)
from .forecast import (
    ForecastDistribution,
    conditional_mean_h_step,
    posterior_conditional_means,
    posterior_predictive,
    quantile,
)
from .harness import Scenario, benchmark_scenarios, run_study
from .memberships import SuffStats, sample_memberships
from .model import Hyperparams, ModelState, simulate_panel, simulate_poinar
from .panel import CountPanel
from .sampler import (
    PosteriorDraws,
    SamplerConfig,
    run_chain,
    run_chains,
    sample_concentration,
    sample_seasonals,
    sample_thinnings,
    sample_unique_rates,
)

__all__ = [
    "__version__",
    "CountPanel",
    "Hyperparams",
    "ModelState",
    "simulate_poinar",
    "simulate_panel",
    "SamplerConfig",
    "SuffStats",
    "PosteriorDraws",
    "sample_memberships",
    "sample_unique_rates",
    "sample_seasonals",
    "sample_thinnings",
    "sample_concentration",
    "run_chain",
    "run_chains",
    "ForecastDistribution",
    "conditional_mean_h_step",
    "posterior_conditional_means",
    "posterior_predictive",
    "quantile",
    "ClsPanelEstimate",
    "cls_fit_panel",
    "psrf",
    "hamming_error",
    "representative_assignment",
    "cluster_count_histogram",
    "forecast_metrics",
    "EvalReport",
    "Scenario",
    "benchmark_scenarios",
    "run_study",
]

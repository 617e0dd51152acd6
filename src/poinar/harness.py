"""Simulation study: scenario grid, method comparison and the rolling
one-step evaluation protocol.

The study simulates panels from known clusterings, fits the Bayesian model
plus the CLS and series-average baselines, and scores every method's
one-step-ahead mean against the *true* conditional mean computed from the
generating parameters (never from data).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import DegenerateSeriesError, cls_fit, cls_forecast, spp_fit_forecast
from .diagnostics import (
    EvalReport,
    cluster_count_histogram,
    forecast_metrics,
    hamming_error,
    representative_assignment,
)
from .forecast import posterior_conditional_means
from .io import months_of, week_starts_from
from .model import MODE_COVARIATE, simulate_panel
from .panel import CountPanel
from .sampler import ConfigurationError, PosteriorDraws, SamplerConfig, run_chain

SEPARATIONS = {
    "easy": (1.0, 3.0, 6.0, 10.0),
    "med": (0.01, 0.5, 1.2, 2.0),
    "hard": (0.1, 0.2, 0.3, 0.6),
}
THINNINGS = (0.1, 0.5, 0.9)
SIM_START = datetime.date(2001, 1, 1)

THETA_UNIT = "unit"
THETA_SAMPLED = "sampled"

METHOD_BNP = "BNP"
METHOD_CLS = "CLS"
METHOD_SPP = "SPP"
METHODS = (METHOD_BNP, METHOD_CLS, METHOD_SPP)


@dataclass(frozen=True)
class Scenario:
    """One simulated design point: cluster rates, a common thinning value,
    and equally sized clusters."""

    name: str
    cluster_rates: tuple[float, ...]
    thinning: float
    L: int = 100
    T: int = 208
    theta_mode: str = THETA_UNIT
    seed: int = 0

    def __post_init__(self):
        if any(r <= 0 for r in self.cluster_rates):
            raise ConfigurationError("cluster rates must be strictly positive")
        if not 0.0 <= self.thinning < 1.0:
            raise ConfigurationError("thinning must lie in [0, 1)")
        if self.L < 1 or self.L % len(self.cluster_rates) != 0:
            raise ConfigurationError("series count must be positive and divide into equal clusters")
        if self.theta_mode not in (THETA_UNIT, THETA_SAMPLED):
            raise ConfigurationError(f"unknown theta mode {self.theta_mode!r}")

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_rates)

    def memberships(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_clusters), self.L // self.n_clusters)


def benchmark_scenarios(L: int = 100, T: int = 208) -> list[Scenario]:
    """The 3x3 separation-by-thinning grid plus the single-cluster sanity
    case (all series sharing one rate)."""
    scenarios = []
    idx = 0
    for sep, rates in SEPARATIONS.items():
        for thin in THINNINGS:
            scenarios.append(
                Scenario(name=f"{sep}-{thin}", cluster_rates=rates, thinning=thin,
                         L=L, T=T, seed=idx)
            )
            idx += 1
    scenarios.append(
        Scenario(name="single-cluster", cluster_rates=(3.0,), thinning=0.5,
                 L=L, T=T, seed=idx)
    )
    return scenarios


def scenario_by_name(name: str, L: int = 100, T: int = 208) -> Scenario:
    for sc in benchmark_scenarios(L=L, T=T):
        if sc.name == name:
            return sc
    names = ", ".join(s.name for s in benchmark_scenarios())
    raise ConfigurationError(f"unknown scenario {name!r}; available: {names}")


def simulate_scenario(scenario: Scenario, rng: np.random.Generator,
                      theta_prior: tuple[float, float] = (1.0, 1.0)):
    """Simulate one panel plus its truth; returns (panel, truth, next_month).

    The week calendar starts at a fixed date so the season map, and the month
    of the first out-of-sample week, follow real month boundaries.
    """
    dates = week_starts_from(SIM_START, scenario.T + 1)
    months = months_of(dates)
    if scenario.theta_mode == THETA_SAMPLED:
        theta = rng.gamma(theta_prior[0], 1.0 / theta_prior[1], size=12)
    else:
        theta = np.ones(12)
    panel, truth = simulate_panel(
        cluster_rates=np.array(scenario.cluster_rates),
        memberships=scenario.memberships(),
        alpha=scenario.thinning,
        theta=theta,
        season_of=months[: scenario.T],
        rng=rng,
    )
    panel = replace(panel, week_starts=dates[: scenario.T])
    return panel, truth, int(months[scenario.T])


@dataclass
class ScenarioResult:
    """Pooled method accuracy and cluster recovery for one scenario."""

    scenario: Scenario
    rmse: dict[str, float]
    ape: dict[str, float]
    true_mean: float
    modal_k: list[int]
    hamming_representative: list[float]
    hamming_mean: list[float]
    n_replicates: int


@dataclass
class StudyReport:
    scale: str
    seed: int
    n_replicates: int
    sampler: SamplerConfig
    results: list[ScenarioResult] = field(default_factory=list)

    def result(self, name: str) -> ScenarioResult:
        for r in self.results:
            if r.scenario.name == name:
                return r
        raise KeyError(name)

    def to_rows(self) -> list[dict]:
        rows = []
        for r in self.results:
            for method in METHODS:
                rows.append(
                    {
                        "scenario": r.scenario.name,
                        "rates": "/".join(str(x) for x in r.scenario.cluster_rates),
                        "thinning": r.scenario.thinning,
                        "method": method,
                        "rmse": r.rmse[method],
                        "ape": r.ape[method],
                        "true_conditional_mean": r.true_mean,
                        "modal_k": r.modal_k if method == METHOD_BNP else "",
                        "hamming_representative": (
                            r.hamming_representative if method == METHOD_BNP else ""
                        ),
                    }
                )
        return rows


DESK_L = 40
DESK_REPLICATES = 3


def default_study_config(seed: int = 0) -> SamplerConfig:
    """The in-sample protocol: 1000 sweeps, first 100 discarded, every 5th
    kept (180 draws)."""
    return SamplerConfig(n_iterations=1000, burn_in=100, thin_interval=5,
                         n_chains=1, seed=seed)


def run_study(
    scenarios: list[Scenario] | None = None,
    sampler_config: SamplerConfig | None = None,
    scale: str = "desk",
    n_replicates: int | None = None,
    seed: int = 0,
    progress=None,
) -> StudyReport:
    """Simulate, fit and score every scenario.

    Desk scale shrinks the panels to 40 series and averages 3 replicates so
    the grid finishes in minutes; full scale keeps the 100-series design with
    a single replicate. Replicate r of scenario i simulates with stream
    (0, i, r) and samples with stream (2, i, r) off the study seed.
    """
    if scale not in ("desk", "full"):
        raise ValueError("scale must be 'desk' or 'full'")
    if scenarios is None:
        scenarios = benchmark_scenarios()
    if scale == "desk":
        scenarios = [replace(sc, L=DESK_L) for sc in scenarios]
        reps = DESK_REPLICATES if n_replicates is None else n_replicates
    else:
        reps = 1 if n_replicates is None else n_replicates
    if reps < 1:
        raise ConfigurationError("the study needs at least one replicate")
    config = sampler_config or default_study_config(seed)

    report = StudyReport(scale=scale, seed=seed, n_replicates=reps, sampler=config)
    for si, sc in enumerate(scenarios):
        errors: dict[str, list[np.ndarray]] = {m: [] for m in METHODS}
        apes: dict[str, list[np.ndarray]] = {m: [] for m in METHODS}
        true_means: list[np.ndarray] = []
        modal_k: list[int] = []
        ham_repr: list[float] = []
        ham_mean: list[float] = []

        for r in range(reps):
            sim_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(0, si, r))
            )
            panel, truth, next_month = simulate_scenario(sc, sim_rng)
            y_last = panel.counts[:, -1]
            truth_rates = truth.phi_star[truth.z]
            truth_next = truth.alpha * y_last + truth_rates * truth.theta[next_month - 1]
            true_means.append(truth_next)

            chain_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(2, si, r))
            )
            draws = run_chain(panel, config, rng=chain_rng)
            predictions = {
                METHOD_BNP: posterior_conditional_means(draws, y_last, [next_month])[0],
                METHOD_CLS: _cls_predictions(panel, next_month),
                METHOD_SPP: np.array([spp_fit_forecast(s) for s in panel.counts]),
            }
            for m in METHODS:
                err = predictions[m] - truth_next
                errors[m].append(err)
                apes[m].append(np.abs(err) / truth_next)

            hist = cluster_count_histogram(draws)
            modal_k.append(hist.mode)
            z_repr = representative_assignment(draws)
            ham_repr.append(hamming_error(z_repr, truth.z))
            ham_mean.append(float(np.mean([hamming_error(z, truth.z) for z in draws.z])))
            if progress is not None:
                progress(f"{sc.name} replicate {r + 1}/{reps} done")

        report.results.append(
            ScenarioResult(
                scenario=sc,
                rmse={
                    m: float(np.sqrt(np.mean(np.concatenate(errors[m]) ** 2)))
                    for m in METHODS
                },
                ape={m: float(np.mean(np.concatenate(apes[m]))) for m in METHODS},
                true_mean=float(np.mean(np.concatenate(true_means))),
                modal_k=modal_k,
                hamming_representative=ham_repr,
                hamming_mean=ham_mean,
                n_replicates=reps,
            )
        )
    return report


def _cls_predictions(panel: CountPanel, next_month: int) -> np.ndarray:
    preds = np.empty(panel.n_series)
    for l in range(panel.n_series):
        series = panel.counts[l]
        try:
            est = cls_fit(series, panel.season_of)
            preds[l] = cls_forecast(est, series[-1], next_month)
        except DegenerateSeriesError:
            preds[l] = 0.0  # an all-zero series carries no basis for more
    return preds


# ---------------------------------------------------------------------------
# Rolling one-step evaluation on a holdout (the real-data protocol)
# ---------------------------------------------------------------------------

def holdout_origin_weeks(panel: CountPanel, holdout: int, origins: str = "monthly") -> list[int]:
    """0-based indices of the forecast target weeks inside the holdout.

    ``monthly`` keeps the first week of each month (where the month label
    changes); ``weekly`` keeps every holdout week.
    """
    T = panel.n_weeks
    if not 1 <= holdout < T:
        raise ConfigurationError("holdout must leave at least one training week")
    start = T - holdout
    if origins == "weekly":
        return list(range(start, T))
    if origins == "monthly":
        return [w for w in range(start, T) if panel.season_of[w] != panel.season_of[w - 1]]
    raise ConfigurationError("origins must be 'monthly' or 'weekly'")


def rolling_one_step_evaluation(
    panel: CountPanel,
    draws: PosteriorDraws,
    holdout: int,
    origins: str = "monthly",
    bucket_cap: int | None = 4,
    exposure: np.ndarray | None = None,
) -> tuple[EvalReport, list[dict]]:
    """Score draw-averaged one-step forecasts against the held-out counts.

    The draws should come from a fit on the training prefix; each target week
    conditions on the actually observed previous week. Returns the report and
    the per-forecast rows (series, week, last value, prediction, actual).
    """
    if draws.mode == MODE_COVARIATE and exposure is None:
        exposure = panel.exposure
    targets = np.array(holdout_origin_weeks(panel, holdout, origins), dtype=np.int64)
    if not targets.size:
        raise ConfigurationError("no forecast origins inside the holdout")

    y_prev = panel.counts[:, targets - 1].T  # (origins, series)
    months = panel.season_of[targets][:, None]
    preds = posterior_conditional_means(draws, y_prev, months, exposure)[0]
    actuals = panel.counts[:, targets].T

    rows = [
        {
            "series_id": sid,
            "week": int(w) + 1,
            "last_value": int(y_prev[i, l]),
            "prediction": float(preds[i, l]),
            "actual": int(actuals[i, l]),
        }
        for i, w in enumerate(targets)
        for l, sid in enumerate(panel.series_ids)
    ]
    report = forecast_metrics(
        preds.ravel(), actuals.ravel(), y_prev.ravel(), bucket_cap=bucket_cap
    )
    return report, rows

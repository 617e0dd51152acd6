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

from . import workers
from .baselines import cls_fit_panel
from .diagnostics import (
    EvalReport,
    cluster_count_histogram,
    forecast_metrics,
    hamming_error,
    mean_hamming_error,
    representative_assignment,
)
from .forecast import conditional_mean_h_step, posterior_conditional_means
from .io import months_of, week_starts_from
from .model import ConfigurationError, refuse_over_memory, simulate_panel
from .panel import CountPanel
from .sampler import PosteriorDraws, SamplerConfig, draw_bytes, run_chain, stream

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


def benchmark_scenarios() -> list[Scenario]:
    """The 3x3 separation-by-thinning grid plus the single-cluster sanity
    case (all series sharing one rate), each at ``Scenario``'s default size;
    ``dataclasses.replace`` resizes one."""
    scenarios = [
        Scenario(name=f"{sep}-{thin}", cluster_rates=rates, thinning=thin)
        for sep, rates in SEPARATIONS.items()
        for thin in THINNINGS
    ]
    scenarios.append(Scenario(name="single-cluster", cluster_rates=(3.0,), thinning=0.5))
    return scenarios


def scenario_by_name(name: str) -> Scenario:
    for sc in benchmark_scenarios():
        if sc.name == name:
            return sc
    names = ", ".join(s.name for s in benchmark_scenarios())
    raise ConfigurationError(f"unknown scenario {name!r}; available: {names}")


def simulate_scenario(scenario: Scenario, rng: np.random.Generator):
    """Simulate one panel plus its truth; returns (panel, truth, next_month).

    The week calendar starts at a fixed date so the season map, and the month
    of the first out-of-sample week, follow real month boundaries. Seasonal
    effects are all 1, or Gamma(1, 1) draws under the ``sampled`` theta mode.
    """
    dates = week_starts_from(SIM_START, scenario.T + 1)
    months = months_of(dates)
    if scenario.theta_mode == THETA_SAMPLED:
        theta = rng.gamma(1.0, 1.0, size=12)
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


@dataclass
class StudyReport:
    scale: str
    seed: int
    n_replicates: int
    results: list[ScenarioResult] = field(default_factory=list)

    def columns(self) -> dict[str, list]:
        """The study table, one list per column: a row per scenario and
        method, methods inner. ``modal_k`` and ``hamming_representative``
        are empty strings on the baselines' rows."""
        rows = [(r, m) for r in self.results for m in METHODS]
        return {
            "scenario": [r.scenario.name for r, _ in rows],
            "rates": ["/".join(str(x) for x in r.scenario.cluster_rates) for r, _ in rows],
            "thinning": [r.scenario.thinning for r, _ in rows],
            "method": [m for _, m in rows],
            "rmse": [r.rmse[m] for r, m in rows],
            "ape": [r.ape[m] for r, m in rows],
            "true_conditional_mean": [r.true_mean for r, _ in rows],
            "modal_k": [r.modal_k if m == METHOD_BNP else "" for r, m in rows],
            "hamming_representative": [
                r.hamming_representative if m == METHOD_BNP else "" for r, m in rows
            ],
        }


DESK_L = 40
DESK_REPLICATES = 3


def run_study(
    scenarios: list[Scenario] | None = None,
    sampler_config: SamplerConfig | None = None,
    scale: str = "desk",
    n_replicates: int | None = None,
    progress=None,
) -> StudyReport:
    """Simulate, fit and score every scenario.

    Desk scale shrinks the panels to 40 series and averages 3 replicates so
    the grid finishes in minutes; full scale keeps the 100-series design with
    a single replicate. Replicate r of scenario i simulates with stream
    (0, i, r) and samples with stream (2, i, r) off the study seed,
    ``sampler_config.seed``. Fits default to ``SamplerConfig()``, the
    in-sample protocol at seed 0: 1000 sweeps, the first 100 discarded,
    every 5th kept (180 draws).

    The replicates run side by side in forked worker processes on the
    usable CPUs (``workers.in_workers``), as many as memory holds when
    each keeps its chain's draws, one after another on one CPU; their own
    streams make the report the same either way. Before any panel is
    simulated, the study is refused if one replicate's draws would exceed
    physical memory. ``progress`` gets one line per replicate, in scenario
    and replicate order, as its result arrives. A scenario named twice is
    refused: its two rows would differ only by their streams.
    """
    if scale not in ("desk", "full"):
        raise ValueError("scale must be 'desk' or 'full'")
    if scenarios is None:
        scenarios = benchmark_scenarios()
    names = [sc.name for sc in scenarios]
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise ConfigurationError(f"scenario {repeated[0]!r} is named more than once")
    if scale == "desk":
        scenarios = [replace(sc, L=DESK_L) for sc in scenarios]
        reps = DESK_REPLICATES if n_replicates is None else n_replicates
    else:
        reps = 1 if n_replicates is None else n_replicates
    if reps < 1:
        raise ConfigurationError("the study needs at least one replicate")
    config = sampler_config or SamplerConfig()
    # a replicate holds its chain's draws while it scores them
    per_replicate = max(draw_bytes(sc.L, sc.T, config) for sc in scenarios)
    refuse_over_memory(per_replicate, f"the {config.draws_per_chain} draws a replicate keeps",
                       "lower --iterations or raise --thin")

    tasks = [(si, r) for si in range(len(scenarios)) for r in range(reps)]

    def report_done(i, _):
        si, r = tasks[i]
        progress(f"{scenarios[si].name} replicate {r + 1}/{reps} done")

    # every replicate scores its fit with the dense assignment solver: load it
    # once here, so that forked workers share its pages instead of each
    # loading its own
    import scipy.optimize  # noqa: F401

    replicates = workers.in_workers(
        lambda task: _replicate(scenarios[task[0]], *task, config), tasks,
        lambda task: f"{scenarios[task[0]].name} replicate {task[1] + 1}/{reps}",
        per_worker=per_replicate, done=report_done if progress is not None else None,
    )
    report = StudyReport(scale=scale, seed=config.seed, n_replicates=reps)
    for si, sc in enumerate(scenarios):
        runs = replicates[si * reps:(si + 1) * reps]
        errors, apes, true_means, modal_k, ham_repr, ham_mean = zip(*runs)
        report.results.append(
            ScenarioResult(
                scenario=sc,
                rmse={
                    m: float(np.sqrt(np.mean(np.concatenate([e[m] for e in errors]) ** 2)))
                    for m in METHODS
                },
                ape={m: float(np.mean(np.concatenate([a[m] for a in apes]))) for m in METHODS},
                true_mean=float(np.mean(np.concatenate(true_means))),
                modal_k=list(modal_k),
                hamming_representative=list(ham_repr),
                hamming_mean=list(ham_mean),
            )
        )
    return report


def _replicate(sc: Scenario, si: int, r: int, config: SamplerConfig) -> tuple:
    """Replicate ``r`` of scenario ``si``, ``sc``: simulate, fit and score.
    Returns each method's forecast errors and absolute percentage errors
    (dicts by method), the true conditional means, the modal cluster count,
    and the representative and mean Hamming errors."""
    panel, truth, next_month = simulate_scenario(sc, stream(config.seed, 0, si, r))
    y_last = panel.counts[:, -1]
    truth_next = conditional_mean_h_step(
        y_last, truth.alpha, truth.phi_star[truth.z], truth.theta, [next_month]
    )

    draws = run_chain(panel, config, rng=stream(config.seed, 2, si, r))
    # an all-zero series keeps the zero CLS model, which forecasts 0
    cls = cls_fit_panel(panel.counts, panel.season_of)
    predictions = {
        METHOD_BNP: posterior_conditional_means(draws, y_last, [next_month])[0],
        METHOD_CLS: conditional_mean_h_step(
            y_last, cls.alpha, cls.lam, cls.theta, [next_month]
        ),
        METHOD_SPP: panel.counts.mean(axis=1),
    }
    errors = {m: predictions[m] - truth_next for m in METHODS}
    apes = {m: np.abs(errors[m]) / truth_next for m in METHODS}
    return (errors, apes, truth_next, cluster_count_histogram(draws).mode,
            hamming_error(representative_assignment(draws), truth.z),
            mean_hamming_error(draws.z, truth.z))


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
) -> tuple[EvalReport, dict]:
    """Score draw-averaged one-step forecasts against the held-out counts.

    The draws should come from a fit on the training prefix; each target week
    conditions on the actually observed previous week. Returns the report and
    the per-forecast table as columns, one entry per (target week, series)
    pair, weeks outer: ``series_id`` (a list), and the int64 arrays ``week``
    (1-based), ``last_value`` and ``actual`` and the float array
    ``prediction``. Rates use the exposure the draws were fitted with.
    """
    targets = np.array(holdout_origin_weeks(panel, holdout, origins), dtype=np.int64)
    if not targets.size:
        raise ConfigurationError("no forecast origins inside the holdout")

    y_prev = panel.counts[:, targets - 1].T  # (origins, series)
    months = panel.season_of[targets][:, None]
    preds = posterior_conditional_means(draws, y_prev, months, panel.series_ids)[0]
    actuals = panel.counts[:, targets].T

    details = {
        "series_id": panel.series_ids * targets.size,
        "week": np.repeat(targets + 1, panel.n_series),
        "last_value": y_prev.ravel(),
        "prediction": preds.ravel(),
        "actual": actuals.ravel(),
    }
    report = forecast_metrics(details["prediction"], details["actual"],
                              details["last_value"], bucket_cap=bucket_cap)
    return report, details

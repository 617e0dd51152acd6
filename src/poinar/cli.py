"""Command-line pipeline: simulate panels, fit the sampler, forecast,
evaluate holdout accuracy and run the scenario study.

Every run writes a ``manifest.json`` (resolved parameters, seeds, library
versions) sufficient to reproduce its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import datetime
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import io
from .diagnostics import cluster_count_histogram, psrf, representative_assignment
from .forecast import TAIL_MASS, posterior_conditional_means, posterior_predictive, quantile
from .harness import (
    default_study_config,
    benchmark_scenarios,
    rolling_one_step_evaluation,
    run_study,
    scenario_by_name,
    simulate_scenario,
)
from .model import MODE_COVARIATE, MODE_PLAIN, Hyperparams
from .sampler import (
    ConfigurationError,
    PosteriorDraws,
    SamplerConfig,
    run_chains,
)

_USAGE_EXIT = 2
_FAILURE_EXIT = 1

# glibc's mallopt parameters and the values its adaptive thresholds reach
# at most on a 64-bit machine
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024
_TRIM_THRESHOLD_BYTES = 2 * _MMAP_THRESHOLD_BYTES


def _pin_allocator_thresholds():
    """Fix glibc malloc's mmap and trim thresholds for this process.

    By default glibc maps each block above its mmap threshold (128 KB at
    start) afresh, paying a page fault per page, returns a heap top above
    its trim threshold to the kernel, and raises both thresholds to fit
    the largest mapped block freed so far. How fast a command's numpy
    temporaries of a few hundred KB are would then depend on which arrays
    the process happened to free before; on a 2-core Xeon a fixed loop of
    800 KB ``exp``/``cumsum`` calls took 24 ms or 40 ms by that alone.
    Pinning the thresholds at glibc's adaptive maximum makes it the same
    for every command and every run. On other C libraries this does
    nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings of one CLI invocation, recorded in the manifest."""

    command: str
    inputs: dict
    out_dir: str
    options: dict

    def __post_init__(self):
        for name, path in self.inputs.items():
            if path is not None and not Path(path).exists():
                raise FileNotFoundError(f"{name} file not found: {path}")
        quantiles = self.options.get("quantiles")
        if quantiles is not None:
            if any(not 0.0 < q <= 1.0 - TAIL_MASS for q in quantiles):
                raise ConfigurationError(
                    f"quantiles must lie in (0, 1 - {TAIL_MASS}]: the truncated "
                    "predictive pmf has no higher quantiles"
                )
            if any(b <= a for a, b in zip(quantiles, quantiles[1:])):
                raise ConfigurationError("quantiles must be strictly increasing")
        if self.options.get("horizon", 1) < 1:
            raise ConfigurationError("horizon must be at least 1")

    def manifest_params(self) -> dict:
        return {"inputs": self.inputs, "out": self.out_dir, **self.options}


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("POINAR_OUT")
    if not out:
        raise ConfigurationError("no output directory: pass --out or set POINAR_OUT")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _quantile_levels(text: str) -> list[float]:
    """The levels of a comma-separated ``--quantiles`` value."""
    levels = []
    for item in text.split(","):
        try:
            levels.append(float(item))
        except ValueError:
            raise ConfigurationError(f"--quantiles item {item!r} is not a number") from None
    return levels


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict]):
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _hyper_from_args(args) -> Hyperparams:
    hyper = Hyperparams.default(args.mode)
    overrides = {
        name: getattr(args, name)
        for name in ("eta1", "eta2", "xi1", "xi2", "gamma1", "gamma2", "a_tau", "b_tau")
        if getattr(args, name) is not None
    }
    return replace(hyper, **overrides) if overrides else hyper


def _sampler_config_from_args(args) -> SamplerConfig:
    return SamplerConfig(
        n_iterations=args.iterations,
        burn_in=args.burn_in,
        thin_interval=args.thin,
        n_chains=args.chains,
        seed=args.seed,
        hyper=_hyper_from_args(args),
        innovation_strategy=args.innovation_strategy,
        metropolis_threshold=args.metropolis_threshold,
        keep_innovations=args.include_innovations,
    )


def _load_panel_and_draws(args) -> tuple:
    """Load the counts and the draws fitted to them, plus the exposure the
    draws' mode uses (``None`` for plain-mode draws)."""
    panel = io.load_counts(args.counts, exposure_path=args.exposure)
    draws = io.load_draws(args.draws)
    width = draws.alpha.shape[1]
    if width != panel.n_series:
        raise io.IntegrityError(
            f"{args.draws}: draws cover {width} series, but {args.counts} "
            f"holds {panel.n_series}"
        )
    mismatch = io.fitted_panel_mismatch(draws, panel)
    if mismatch:
        raise io.IntegrityError(
            f"{args.draws} was not fitted to {args.counts}: {mismatch}"
        )
    exposure = panel.exposure if draws.mode == MODE_COVARIATE else None
    return panel, draws, exposure


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    out = _out_dir(args)
    scenario = scenario_by_name(args.scenario)
    if args.series is not None:
        scenario = replace(scenario, L=args.series)
    config = RunConfig(
        command="simulate",
        inputs={},
        out_dir=str(out),
        options={
            "scenario": scenario.name,
            "series": scenario.L,
            "weeks": scenario.T,
            "theta_mode": args.theta_mode,
            "seed": args.seed,
        },
    )
    scenario = replace(scenario, theta_mode=args.theta_mode)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed, spawn_key=(0,)))
    panel, truth, next_month = simulate_scenario(scenario, rng)

    io.save_counts(panel, out / "counts.csv")
    truth_doc = {
        "scenario": scenario.name,
        "seed": args.seed,
        "memberships": [int(k) for k in truth.z],
        "cluster_rates": [float(r) for r in truth.phi_star],
        "alpha": [float(a) for a in truth.alpha],
        "theta": [float(t) for t in truth.theta],
        "next_month": next_month,
        "series_ids": panel.series_ids,
    }
    with (out / "truth.json").open("w") as fh:
        json.dump(truth_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    io.write_manifest(out, "simulate", config.manifest_params())
    print(f"wrote {out / 'counts.csv'} and {out / 'truth.json'}")
    return 0


def cmd_fit(args) -> int:
    out = _out_dir(args)
    config = RunConfig(
        command="fit",
        inputs={"counts": args.counts, "exposure": args.exposure},
        out_dir=str(out),
        options={
            "mode": args.mode,
            "iterations": args.iterations,
            "burn_in": args.burn_in,
            "thin": args.thin,
            "chains": args.chains,
            "seed": args.seed,
            "innovation_strategy": args.innovation_strategy,
            "include_innovations": args.include_innovations,
        },
    )
    if args.mode == MODE_COVARIATE and args.exposure is None:
        raise ConfigurationError("covariate mode requires --exposure")
    panel = io.load_counts(args.counts, exposure_path=args.exposure)
    sampler_config = _sampler_config_from_args(args)
    needed = 2 if args.chains >= 2 else 1  # the PSRF needs two draws per chain
    if sampler_config.draws_per_chain < needed:
        raise ConfigurationError(
            f"--iterations, --burn-in and --thin keep {sampler_config.draws_per_chain} "
            f"draws per chain; {needed} needed"
        )
    chains = run_chains(panel, sampler_config)
    draws = PosteriorDraws.concat(chains)
    io.save_draws(draws, out / "draws.jsonl", panel)

    hist = cluster_count_histogram(draws)
    diagnostics = {
        "n_draws": len(draws),
        "cluster_count_freqs": {str(k): v for k, v in hist.freqs.items()},
        "modal_clusters": hist.mode,
        "representative_assignment": [int(k) for k in representative_assignment(draws)],
    }
    exposure = panel.exposure if args.mode == MODE_COVARIATE else None
    if len(chains) >= 2:
        diagnostics["psrf_rate_sum"] = psrf(draws.rate_sum_traces(exposure))
        diagnostics["psrf_alpha"] = psrf(draws.by_chain(draws.alpha)).tolist()
        diagnostics["psrf_theta"] = psrf(draws.by_chain(draws.theta)).tolist()
    with (out / "diagnostics.json").open("w") as fh:
        json.dump(diagnostics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    io.write_manifest(out, "fit", config.manifest_params())
    print(f"wrote {out / 'draws.jsonl'} ({len(draws)} draws) and diagnostics.json")
    return 0


def cmd_forecast(args) -> int:
    out = _out_dir(args)
    quantiles = _quantile_levels(args.quantiles) if args.quantiles else []
    config = RunConfig(
        command="forecast",
        inputs={"counts": args.counts, "draws": args.draws, "exposure": args.exposure},
        out_dir=str(out),
        options={"quantiles": quantiles, "horizon": args.horizon},
    )
    panel, draws, exposure = _load_panel_and_draws(args)
    if panel.week_starts is None:
        raise ConfigurationError("counts file carries no week dates")
    future = io.months_of(
        io.week_starts_from(
            panel.week_starts[-1] + datetime.timedelta(days=7), args.horizon
        )
    )
    y_last = panel.counts[:, -1]
    means = posterior_conditional_means(draws, y_last, future, exposure)
    dists = posterior_predictive(y_last, draws, int(future[0]), exposure) if quantiles else []

    q_fields = [f"q{q}" for q in quantiles]
    rows = []
    for l, sid in enumerate(panel.series_ids):
        row = {"series_id": sid, "y_last": int(y_last[l]), "mean": repr(float(means[0, l]))}
        if quantiles:
            row.update(zip(q_fields, quantile(dists[l], quantiles).tolist()))
        for h in range(2, args.horizon + 1):
            row[f"mean_step{h}"] = repr(float(means[h - 1, l]))
        rows.append(row)

    fields = ["series_id", "y_last", "mean"] + q_fields
    fields += [f"mean_step{h}" for h in range(2, args.horizon + 1)]
    _write_csv(out / "forecasts.csv", fields, rows)
    io.write_manifest(out, "forecast", config.manifest_params())
    print(f"wrote {out / 'forecasts.csv'} for {panel.n_series} series")
    return 0


def cmd_evaluate(args) -> int:
    out = _out_dir(args)
    config = RunConfig(
        command="evaluate",
        inputs={"counts": args.counts, "draws": args.draws, "exposure": args.exposure},
        out_dir=str(out),
        options={
            "holdout": args.holdout,
            "origins": args.origins,
            "bucket_cap": args.bucket_cap,
        },
    )
    panel, draws, exposure = _load_panel_and_draws(args)
    report, rows = rolling_one_step_evaluation(
        panel, draws, holdout=args.holdout, origins=args.origins,
        bucket_cap=args.bucket_cap, exposure=exposure,
    )

    columns = ["last_value", "rmse", "rmse_se", "bias", "bias_se", "frequency", "n"]
    bucket_rows = [
        {"last_value": f"{key}+" if key == report.bucket_cap else str(key),
         **{c: repr(getattr(b, c)) for c in columns[1:-1]}, "n": b.n}
        for key, b in sorted(report.by_last_value.items())
    ]
    bucket_rows.append({"last_value": "overall", "rmse": repr(report.rmse), "rmse_se": "",
                        "bias": repr(report.bias), "bias_se": "", "frequency": repr(1.0),
                        "n": report.n_total})
    _write_csv(out / "evaluation.csv", columns, bucket_rows)
    doc = {
        "rmse": report.rmse,
        "ape": report.ape,
        "bias": report.bias,
        "n_total": report.n_total,
        "n_ape": report.n_ape,
        "n_zero_truth": report.n_zero_truth,
        "bucket_cap": report.bucket_cap,
        "by_last_value": {
            str(k): asdict(v) for k, v in sorted(report.by_last_value.items())
        },
    }
    with (out / "evaluation.json").open("w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_csv(
        out / "forecast_details.csv",
        ["series_id", "week", "last_value", "prediction", "actual"],
        [{**r, "prediction": repr(r["prediction"])} for r in rows],
    )
    io.write_manifest(out, "evaluate", config.manifest_params())
    print(f"wrote {out / 'evaluation.csv'} over {report.n_total} forecasts")
    return 0


def cmd_study(args) -> int:
    out = _out_dir(args)
    config = RunConfig(
        command="study",
        inputs={},
        out_dir=str(out),
        options={
            "scale": args.scale,
            "scenarios": args.scenarios,
            "replicates": args.replicates,
            "seed": args.seed,
            "iterations": args.iterations,
            "burn_in": args.burn_in,
            "thin": args.thin,
        },
    )
    scenarios = None
    if args.scenarios:
        scenarios = [scenario_by_name(name) for name in args.scenarios.split(",")]
    sampler_config = replace(
        default_study_config(args.seed),
        n_iterations=args.iterations,
        burn_in=args.burn_in,
        thin_interval=args.thin,
    )
    report = run_study(
        scenarios=scenarios,
        sampler_config=sampler_config,
        scale=args.scale,
        n_replicates=args.replicates,
        seed=args.seed,
        progress=(lambda msg: print(msg)) if args.verbose else None,
    )

    rows = [
        {k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()}
        for row in report.to_rows()
    ]
    _write_csv(
        out / "study.csv",
        ["scenario", "rates", "thinning", "method", "rmse", "ape",
         "true_conditional_mean", "modal_k", "hamming_representative"],
        rows,
    )
    doc = {
        "scale": report.scale,
        "seed": report.seed,
        "n_replicates": report.n_replicates,
        "results": [
            {
                "scenario": r.scenario.name,
                "cluster_rates": list(r.scenario.cluster_rates),
                "thinning": r.scenario.thinning,
                "L": r.scenario.L,
                "T": r.scenario.T,
                "rmse": r.rmse,
                "ape": r.ape,
                "true_conditional_mean": r.true_mean,
                "modal_k": r.modal_k,
                "hamming_representative": r.hamming_representative,
                "hamming_mean": r.hamming_mean,
            }
            for r in report.results
        ],
    }
    with (out / "study.json").open("w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    io.write_manifest(out, "study", config.manifest_params())
    print(f"wrote {out / 'study.csv'} for {len(report.results)} scenarios")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poinar",
        description="Clustered Poisson INAR(1) modeling of correlated low-count series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    names = ", ".join(s.name for s in benchmark_scenarios())
    p = sub.add_parser("simulate", help="simulate a scenario panel with ground truth")
    p.add_argument("--scenario", required=True, help=f"one of: {names}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--series", type=int, default=None, help="override the series count")
    p.add_argument("--theta-mode", choices=["unit", "sampled"], default="unit")
    p.add_argument("--out", default=None, help="output directory (or POINAR_OUT)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="run the sampler on a counts panel")
    p.add_argument("--counts", required=True)
    p.add_argument("--exposure", default=None)
    p.add_argument("--mode", choices=[MODE_PLAIN, MODE_COVARIATE], default=MODE_PLAIN)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--burn-in", type=int, default=100)
    p.add_argument("--thin", type=int, default=5)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--innovation-strategy",
                   choices=["exact-enumeration", "metropolis-poisson"],
                   default="exact-enumeration")
    p.add_argument("--metropolis-threshold", type=int, default=30)
    p.add_argument("--include-innovations", action="store_true")
    for name in ("eta1", "eta2", "xi1", "xi2", "gamma1", "gamma2", "a-tau", "b-tau"):
        p.add_argument(f"--{name}", type=float, default=None, dest=name.replace("-", "_"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="point, quantile and interval forecasts")
    p.add_argument("--counts", required=True)
    p.add_argument("--draws", required=True)
    p.add_argument("--exposure", default=None)
    p.add_argument("--quantiles", default="0.5,0.95,0.99")
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", help="rolling one-step holdout evaluation")
    p.add_argument("--counts", required=True)
    p.add_argument("--draws", required=True)
    p.add_argument("--exposure", default=None)
    p.add_argument("--holdout", type=int, default=52)
    p.add_argument("--origins", choices=["monthly", "weekly"], default="monthly")
    p.add_argument("--bucket-cap", type=int, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("study", help="run the scenario comparison study")
    p.add_argument("--scale", choices=["desk", "full"], default="desk")
    p.add_argument("--scenarios", default=None, help="comma-separated scenario names")
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--burn-in", type=int, default=100)
    p.add_argument("--thin", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_study)

    return parser


def main(argv=None) -> int:
    _pin_allocator_thresholds()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit 2 for usage errors
        return exc.code if isinstance(exc.code, int) else _USAGE_EXIT
    try:
        return args.func(args)
    except (FileNotFoundError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (io.ParseError, io.IntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())

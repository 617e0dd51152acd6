"""Command-line pipeline: simulate panels, fit the sampler, forecast,
evaluate holdout accuracy and run the scenario study.

``main`` creates the output directory, runs one ``cmd_*``, which writes its
files and returns the line to print, and then writes ``manifest.json``
(every parsed option, the output directory, library versions), sufficient
to reproduce the outputs byte for byte. A failed command writes no manifest,
and removes the output directory if it created it.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import datetime
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import io
from .diagnostics import cluster_count_histogram, psrf, representative_assignment
from .forecast import TAIL_MASS, posterior_conditional_means, posterior_predictive, quantile
from .harness import (
    benchmark_scenarios,
    rolling_one_step_evaluation,
    run_study,
    scenario_by_name,
    simulate_scenario,
)
from .model import ConfigurationError, Hyperparams
from .sampler import PosteriorDraws, SamplerConfig, run_chains, stream
from .workers import WorkerExited

_USAGE_EXIT = 2
_FAILURE_EXIT = 1

# a path option naming what is missing, unreadable or of the wrong kind
_PATH_ERRORS = (FileNotFoundError, FileExistsError, NotADirectoryError, IsADirectoryError,
                PermissionError)

# the priors settable from the command line
_HYPERPARAMS = [f.name for f in fields(Hyperparams)]

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


@contextmanager
def _out_dir(args):
    """Create the output directory and yield it. If the block fails and
    this call created the directory, remove it with what the command wrote
    there, then each parent it created that is empty by then, nearest
    first: another run's output under a shared new parent stays. A
    directory that existed is left alone."""
    out = args.out or os.environ.get("POINAR_OUT")
    if not out:
        raise ConfigurationError("no output directory: pass --out or set POINAR_OUT")
    path = Path(out)
    created = [p for p in [path, *path.parents] if not p.exists()]  # leaf first
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    except BaseException:
        if created:
            shutil.rmtree(path, ignore_errors=True)
            for parent in created[1:]:
                try:
                    parent.rmdir()
                except OSError:  # not empty: it holds another run's files
                    break
        raise


def _parameters(args, out: Path) -> dict:
    """Every parsed option under its argparse dest, as given, with ``out``
    resolved: what the manifest records of a run."""
    params = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    params["out"] = str(out)
    return params


def _quantile_levels(text: str) -> list[float]:
    """The levels of a comma-separated ``--quantiles`` value, checked to lie
    inside the truncated predictive pmf and to increase strictly."""
    levels = []
    for item in text.split(","):
        try:
            levels.append(float(item))
        except ValueError:
            raise ConfigurationError(f"--quantiles item {item!r} is not a number") from None
    if any(not 0.0 < q <= 1.0 - TAIL_MASS for q in levels):
        raise ConfigurationError(
            f"quantiles must lie in (0, 1 - {TAIL_MASS}]: the truncated "
            "predictive pmf has no higher quantiles"
        )
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigurationError("quantiles must be strictly increasing")
    return levels


def _write_csv(path: Path, header: list[str], rows: list):
    """Write ``header`` and then ``rows``, each a sequence of cells in the
    header's order, in the csv module's default (excel) dialect, which
    writes a float as its round-trip ``repr``. Raises
    ``ValueError`` before writing when a row's width differs from the
    header's."""
    widths = set(map(len, rows)) - {len(header)}
    if widths:
        raise ValueError(f"{path}: a row holds {widths.pop()} cells, the header {len(header)}")
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _hyper_from_args(args) -> Hyperparams:
    """The fit's default priors, the covariate variant's under
    ``--exposure``, with each one given on the command line."""
    given = {name: getattr(args, name) for name in _HYPERPARAMS
             if getattr(args, name) is not None}
    return replace(Hyperparams.default(args.exposure is not None), **given)


def _load_panel_and_draws(args) -> tuple:
    """Load the counts and the draws fitted to them."""
    panel = io.load_counts(args.counts)
    draws = io.load_draws(args.draws)
    mismatch = io.fitted_panel_mismatch(draws, panel)
    if mismatch:
        raise io.IntegrityError(f"{args.draws} does not fit {args.counts}: {mismatch}")
    return panel, draws


def _sweep_config(args, **settings) -> SamplerConfig:
    """The ``SamplerConfig`` of the ``_add_sweep_options`` values and ``settings``."""
    return SamplerConfig(n_iterations=args.iterations, burn_in=args.burn_in,
                         thin_interval=args.thin, seed=args.seed, **settings)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args, out: Path) -> str:
    scenario = replace(scenario_by_name(args.scenario), theta_mode=args.theta_mode)
    if args.series is not None:
        scenario = replace(scenario, L=args.series)
    panel, truth, next_month = simulate_scenario(scenario, stream(args.seed, 0))

    io.save_counts(panel, out / "counts.csv")
    io.write_json(out / "truth.json", {
        "scenario": scenario.name,
        "seed": args.seed,
        "memberships": [int(k) for k in truth.z],
        "cluster_rates": [float(r) for r in truth.phi_star],
        "alpha": [float(a) for a in truth.alpha],
        "theta": [float(t) for t in truth.theta],
        "next_month": next_month,
        "series_ids": panel.series_ids,
    })
    return f"wrote {out / 'counts.csv'} and {out / 'truth.json'}"


def cmd_fit(args, out: Path) -> str:
    panel = io.load_counts(args.counts, exposure_path=args.exposure)
    sampler_config = _sweep_config(
        args, n_chains=args.chains, hyper=_hyper_from_args(args),
        keep_innovations=args.include_innovations,
    )
    if args.chains >= 2 and sampler_config.draws_per_chain < 2:
        raise ConfigurationError(
            "--iterations, --burn-in and --thin keep 1 draw per chain; "
            "the PSRF of two or more chains needs 2"
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
    if len(chains) >= 2:
        diagnostics["psrf_rate_sum"] = psrf(draws.rate_sum_traces())
        diagnostics["psrf_alpha"] = psrf(draws.by_chain(draws.alpha)).tolist()
        diagnostics["psrf_theta"] = psrf(draws.by_chain(draws.theta)).tolist()
    io.write_json(out / "diagnostics.json", diagnostics)
    return f"wrote {out / 'draws.jsonl'} ({len(draws)} draws) and diagnostics.json"


def cmd_forecast(args, out: Path) -> str:
    quantiles = _quantile_levels(args.quantiles) if args.quantiles else []
    if args.horizon < 1:
        raise ConfigurationError("horizon must be at least 1")
    panel, draws = _load_panel_and_draws(args)
    last = panel.week_starts[-1]
    room = (datetime.date.max - last).days // 7  # weeks the calendar holds past the last
    if args.horizon > room:
        raise ConfigurationError(
            f"--horizon {args.horizon} runs past the calendar, whose last week starts "
            f"{last + datetime.timedelta(days=7 * room)}, {room} weeks after the counts' last week"
        )
    future = io.months_of(io.week_starts_from(last + datetime.timedelta(days=7), args.horizon))
    y_last = panel.counts[:, -1]
    q_columns = []
    if quantiles:  # first, so that an overflowing rate is refused with the pmfs' message
        dist = posterior_predictive(y_last, draws, int(future[0]), series_ids=panel.series_ids)
        q_columns = quantile(dist, quantiles).T.tolist()
    means = posterior_conditional_means(draws, y_last, future,
                                        series_ids=panel.series_ids).tolist()

    header = ["series_id", "y_last", "mean"] + [f"q{q}" for q in quantiles]
    header += [f"mean_step{h}" for h in range(2, args.horizon + 1)]
    rows = list(zip(panel.series_ids, y_last.tolist(), means[0], *q_columns, *means[1:]))
    _write_csv(out / "forecasts.csv", header, rows)
    return f"wrote {out / 'forecasts.csv'} for {panel.n_series} series"


def cmd_evaluate(args, out: Path) -> str:
    panel, draws = _load_panel_and_draws(args)
    report, details = rolling_one_step_evaluation(
        panel, draws, holdout=args.holdout, origins=args.origins, bucket_cap=args.bucket_cap,
    )

    columns = ["last_value", "rmse", "rmse_se", "bias", "bias_se", "frequency", "n"]
    bucket_rows = [
        (f"{key}+" if key == report.bucket_cap else str(key),
         *(getattr(b, c) for c in columns[1:-1]), b.n)
        for key, b in sorted(report.by_last_value.items())
    ]
    bucket_rows.append(("overall", report.rmse, "", report.bias, "", 1.0, report.n_total))
    _write_csv(out / "evaluation.csv", columns, bucket_rows)
    io.write_json(out / "evaluation.json", {
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
    })
    _write_csv(
        out / "forecast_details.csv",
        ["series_id", "week", "last_value", "prediction", "actual"],
        list(zip(details["series_id"], details["week"].tolist(),
                 details["last_value"].tolist(), details["prediction"].tolist(),
                 details["actual"].tolist())),
    )
    return f"wrote {out / 'evaluation.csv'} over {report.n_total} forecasts"


def cmd_study(args, out: Path) -> str:
    scenarios = None
    if args.scenarios is not None:
        scenarios = [scenario_by_name(name) for name in args.scenarios.split(",")]
    report = run_study(
        scenarios=scenarios,
        sampler_config=_sweep_config(args),
        scale=args.scale,
        n_replicates=args.replicates,
        progress=(lambda msg: print(msg)) if args.verbose else None,
    )

    table = report.columns()
    _write_csv(out / "study.csv", list(table), list(zip(*table.values())))
    io.write_json(out / "study.json", {
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
    })
    return f"wrote {out / 'study.csv'} for {len(report.results)} scenarios"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_sweep_options(p: argparse.ArgumentParser):
    """The sweep count, burn-in, thinning and seed of ``fit`` and ``study``,
    defaulting to ``SamplerConfig``'s; ``_sweep_config`` reads them back."""
    p.add_argument("--iterations", type=int, default=SamplerConfig.n_iterations)
    p.add_argument("--burn-in", type=int, default=SamplerConfig.burn_in)
    p.add_argument("--thin", type=int, default=SamplerConfig.thin_interval)
    p.add_argument("--seed", type=int, default=SamplerConfig.seed)


def _simulate_options(p: argparse.ArgumentParser):
    names = ", ".join(s.name for s in benchmark_scenarios())
    p.add_argument("--scenario", required=True, help=f"one of: {names}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--series", type=int, default=None, help="override the series count")
    p.add_argument("--theta-mode", choices=["unit", "sampled"], default="unit")
    p.add_argument("--out", default=None, help="output directory (or POINAR_OUT)")
    p.set_defaults(func=cmd_simulate)


def _fit_options(p: argparse.ArgumentParser):
    p.add_argument("--counts", required=True)
    p.add_argument("--exposure", default=None, help="exposure CSV: fit in covariate mode")
    _add_sweep_options(p)
    p.add_argument("--chains", type=int, default=SamplerConfig.n_chains)
    p.add_argument("--include-innovations", action="store_true")
    for name in _HYPERPARAMS:
        p.add_argument(f"--{name.replace('_', '-')}", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fit)


def _forecast_options(p: argparse.ArgumentParser):
    p.add_argument("--counts", required=True)
    p.add_argument("--draws", required=True)
    p.add_argument("--quantiles", default="0.5,0.95,0.99")
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_forecast)


def _evaluate_options(p: argparse.ArgumentParser):
    p.add_argument("--counts", required=True)
    p.add_argument("--draws", required=True)
    p.add_argument("--holdout", type=int, default=52)
    p.add_argument("--origins", choices=["monthly", "weekly"], default="monthly")
    p.add_argument("--bucket-cap", type=int, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)


def _study_options(p: argparse.ArgumentParser):
    p.add_argument("--scale", choices=["desk", "full"], default="desk")
    p.add_argument("--scenarios", default=None, help="comma-separated scenario names")
    p.add_argument("--replicates", type=int, default=None)
    _add_sweep_options(p)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_study)


# each subcommand's help line and the function adding its options
_COMMANDS = {
    "simulate": ("simulate a scenario panel with ground truth", _simulate_options),
    "fit": ("run the sampler on a counts panel", _fit_options),
    "forecast": ("point, quantile and interval forecasts", _forecast_options),
    "evaluate": ("rolling one-step holdout evaluation", _evaluate_options),
    "study": ("run the scenario comparison study", _study_options),
}
_EPILOG = f"poinar commands: {', '.join(_COMMANDS)}"


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given the command line ``argv``,
    one in which only the invoked subcommand has its options.

    The top-level parser takes no option with a value, so the invoked
    subcommand is the first argument that does not start with "-". Every
    subcommand is listed either way, so ``poinar --help`` and an unknown
    command's error name all five, as does each subcommand's help; the
    others' options, ``-h`` included, are left out, since adding each
    builds an argparse help formatter.
    """
    parser = argparse.ArgumentParser(
        prog="poinar",
        description="Clustered Poisson INAR(1) modeling of correlated low-count series",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    invoked = None if argv is None else next((a for a in argv if not a.startswith("-")), None)
    for name, (help_text, add_options) in _COMMANDS.items():
        built = argv is None or name == invoked
        p = sub.add_parser(name, help=help_text, add_help=built, epilog=_EPILOG)
        if built:
            add_options(p)
    return parser


def main(argv=None) -> int:
    _pin_allocator_thresholds()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:  # argparse uses exit 2 for usage errors
        return exc.code if isinstance(exc.code, int) else _USAGE_EXIT
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's SeedSequence takes no negative entropy
            raise ConfigurationError("--seed must be non-negative")
        with _out_dir(args) as out:
            done = args.func(args, out)
    except (*_PATH_ERRORS, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (io.ParseError, io.IntegrityError, WorkerExited) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _FAILURE_EXIT
    io.write_manifest(out, args.command, _parameters(args, out))
    print(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())

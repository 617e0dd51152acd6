"""The CLI's forecast, evaluation and study tables, byte for byte against the
earlier rendering kept in ``oracles``: one dict per row through
``csv.DictWriter`` and one quantile search per series."""

from dataclasses import replace

import numpy as np
import pytest

from oracles import dict_evaluation_files, dict_forecasts_csv, dict_study_csv
from poinar import io
from poinar.cli import main
from poinar.harness import Scenario, run_study, scenario_by_name, simulate_scenario
from poinar.sampler import SamplerConfig

TRAIN = 100
# ids the csv module must quote: a comma, and a double quote it doubles
IDS = ["north", "a,b", 'say "hi"', "east", "s4", "s5", "s6", "s7"]


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """Training and full panels, an exposure file, and a plain and a
    covariate fit of the training panel."""
    root = tmp_path_factory.mktemp("outputs")
    sc = Scenario(name="bytes", cluster_rates=(0.5, 3.0), thinning=0.4, L=8, T=140)
    panel, _, _ = simulate_scenario(sc, np.random.default_rng(23))
    counts = panel.counts.copy()
    counts[3, TRAIN - 1] = 40  # one wide pmf among narrow ones
    full = replace(panel, counts=counts, series_ids=IDS)
    train = replace(full, counts=counts[:, :TRAIN], season_of=full.season_of[:TRAIN],
                    week_starts=full.week_starts[:TRAIN])
    io.save_counts(full, root / "full.csv")
    io.save_counts(train, root / "train.csv")
    io.save_exposure(IDS, np.linspace(0.5, 4.0, len(IDS)), root / "exposure.csv")
    sweeps = ["--iterations", "40", "--burn-in", "10", "--thin", "5", "--seed", "2"]
    assert main(["fit", "--counts", str(root / "train.csv"), *sweeps,
                 "--out", str(root / "plain")]) == 0
    assert main(["fit", "--counts", str(root / "train.csv"), "--mode", "covariate",
                 "--exposure", str(root / "exposure.csv"), *sweeps,
                 "--out", str(root / "covariate")]) == 0
    return root


def _inputs(root, mode: str, counts: str) -> tuple[list[str], object, object]:
    """CLI arguments for the ``mode`` fit on ``counts``, and the panel and
    draws the oracle renders from."""
    exposure = str(root / "exposure.csv") if mode == "covariate" else None
    argv = ["--counts", str(root / counts), "--draws", str(root / mode / "draws.jsonl")]
    if exposure:
        argv += ["--exposure", exposure]
    panel = io.load_counts(root / counts, exposure_path=exposure)
    return argv, panel, io.load_draws(root / mode / "draws.jsonl")


@pytest.mark.parametrize("mode, quantiles, horizon", [
    ("plain", "0.5,0.95,0.99", 1),
    ("plain", "0.05,0.5,0.95,0.99", 3),
    ("covariate", "0.5,0.95,0.99", 4),
])
def test_forecasts_csv(fitted, tmp_path, mode, quantiles, horizon):
    argv, panel, draws = _inputs(fitted, mode, "train.csv")
    assert main(["forecast", *argv, "--quantiles", quantiles, "--horizon", str(horizon),
                 "--out", str(tmp_path / "cli")]) == 0
    dict_forecasts_csv(tmp_path / "oracle.csv", panel, draws,
                       [float(q) for q in quantiles.split(",")], horizon)
    got = (tmp_path / "cli" / "forecasts.csv").read_bytes()
    assert got == (tmp_path / "oracle.csv").read_bytes()
    assert b'"a,b"' in got and b'"say ""hi"""' in got


@pytest.mark.parametrize("mode, origins", [
    ("plain", "monthly"), ("plain", "weekly"), ("covariate", "weekly"),
])
def test_evaluation_files(fitted, tmp_path, mode, origins):
    argv, panel, draws = _inputs(fitted, mode, "full.csv")
    assert main(["evaluate", *argv, "--holdout", "40", "--origins", origins,
                 "--out", str(tmp_path / "cli")]) == 0
    (tmp_path / "oracle").mkdir()
    dict_evaluation_files(tmp_path / "oracle", panel, draws, 40, origins, 4)
    for name in ("evaluation.csv", "evaluation.json", "forecast_details.csv"):
        assert ((tmp_path / "cli" / name).read_bytes()
                == (tmp_path / "oracle" / name).read_bytes()), name


def test_study_csv(tmp_path):
    assert main(["study", "--scenarios", "hard-0.1,easy-0.5", "--replicates", "1",
                 "--iterations", "30", "--burn-in", "10", "--thin", "5", "--seed", "3",
                 "--out", str(tmp_path / "cli")]) == 0
    report = run_study(
        scenarios=[scenario_by_name("hard-0.1"), scenario_by_name("easy-0.5")],
        sampler_config=SamplerConfig(n_iterations=30, burn_in=10, thin_interval=5, seed=3),
        scale="desk", n_replicates=1, seed=3,
    )
    dict_study_csv(tmp_path / "oracle.csv", report)
    assert (tmp_path / "cli" / "study.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

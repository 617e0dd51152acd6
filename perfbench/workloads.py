"""The benchmark's workloads.

Each workload makes its inputs from the seed (``setup``), names the CLI calls
that make up one op (``calls``), and checks an op's outputs (``check``)
against values the benchmark computes itself from the input files.

Why each workload exists:

* ``fit-wide``: ``poinar fit --chains 2`` on 2000 low-count series. A short
  chain keeps the cluster count in the hundreds, so the membership sweep
  (a Python loop over series x clusters) does most of the work; the PSRF
  block and the JSON draws I/O also run at a width of 2000.
* ``study-desk``: ``poinar study --scale desk`` on easy-0.9, med-0.5 and
  hard-0.1. At 40 series the innovation kernel does most of the work, driven
  by easy-0.9's wide supports; the CLS/SPP baselines, the representative
  clustering and Hamming scoring ride along.
* ``forecast-dc``: ``poinar forecast`` then ``poinar evaluate`` on a
  188x418 panel shaped like criterion 12's, with the sampler kept in setup.
  Exact predictive pmfs do most of the work; a sampler change should leave
  this workload unchanged.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
from pathlib import Path

import numpy as np

from tracer import support_cells

DC_RATES = (0.3, 0.8, 1.5, 3.0)
DC_THINNING = 0.3


def simulate_counts(path: Path, name: str, L: int, T: int, seed: int, train: int | None = None):
    """Simulate a dc-like panel (cluster rates 0.3/0.8/1.5/3.0, thinning 0.3)
    and write it, plus its first ``train`` weeks, as counts CSVs."""
    from dataclasses import replace

    from poinar.harness import Scenario, simulate_scenario
    from poinar.io import save_counts

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    scenario = Scenario(name=name, cluster_rates=DC_RATES, thinning=DC_THINNING, L=L, T=T)
    panel, _, _ = simulate_scenario(scenario, rng)
    save_counts(panel, path)
    if train is not None:
        prefix = replace(panel, counts=panel.counts[:, :train],
                         season_of=panel.season_of[:train],
                         week_starts=panel.week_starts[:train])
        save_counts(prefix, path.with_name("train.csv"))


def read_counts(path: Path) -> tuple[list[datetime.date], list[str], np.ndarray]:
    """Dates, series ids and counts of a counts CSV."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    dates = [datetime.date.fromisoformat(c) for c in rows[0][1:]]
    ids = [r[0] for r in rows[1:]]
    return dates, ids, np.array([[int(c) for c in r[1:]] for r in rows[1:]], dtype=np.int64)


def read_draws(path: Path) -> tuple[dict, list[dict]]:
    lines = path.read_text().splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


def _canonical(z) -> bytes:
    """Membership vector relabelled by first appearance, as bytes."""
    _, first, inverse = np.unique(np.asarray(z), return_index=True, return_inverse=True)
    rank = np.empty(first.shape[0], dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.shape[0])
    return rank[inverse].tobytes()


def input_properties(chains) -> dict:
    """Properties of a workload's sampler inputs and draws.

    ``chains`` holds (counts, membership vectors) pairs. ``support_fill`` is
    useful innovation support cells over the padded grid, summed over the
    panels; ``distinct_partition_share`` counts distinct partitions (up to
    relabelling) per draw; ``mean_k`` is the mean cluster count of a draw.
    """
    useful = padded = 0
    zs = []
    for counts, chain_zs in chains:
        u, p = support_cells(counts)
        useful += u
        padded += p
        zs.extend(chain_zs)
    return {
        "support_fill": useful / padded if padded else 0.0,
        "distinct_partition_share": len({_canonical(z) for z in zs}) / len(zs) if zs else 0.0,
        "mean_k": float(np.mean([np.unique(z).size for z in zs])) if zs else 0.0,
    }


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


class Workload:
    name = ""
    # True when the op itself runs the sampler, so the traced warm-up op
    # sees the chains input_properties needs.
    samples_in_op = True

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs: Path | None = None

    def setup(self, directory: Path):
        """Generate the inputs into ``directory`` and use them from now on."""
        raise NotImplementedError

    def calls(self, out: Path) -> list[tuple[str, list[str]]]:
        """(command, argv) of each CLI call of one op, writing under ``out``."""
        raise NotImplementedError

    def check(self, out: Path) -> list[str]:
        """Problems found in an op's outputs; empty when they are correct."""
        raise NotImplementedError

    def setup_chains(self) -> list:
        """(counts, memberships) pairs of the setup's own fit, if it has one."""
        return []


class FitWide(Workload):
    name = "fit-wide"

    def __init__(self, seed: int, toy: bool):
        super().__init__(seed)
        self.L, self.T = (40, 60) if toy else (2000, 208)
        self.chains, self.iterations, self.burn_in, self.thin = 2, 2, 0, 1

    @property
    def n_draws(self) -> int:
        return self.chains * ((self.iterations - self.burn_in) // self.thin)

    def setup(self, directory: Path):
        simulate_counts(directory / "counts.csv", self.name, self.L, self.T, self.seed)
        self.inputs = directory

    def calls(self, out):
        return [("fit", [
            "fit", "--counts", str(self.inputs / "counts.csv"), "--out", str(out / "fit"),
            "--chains", str(self.chains), "--iterations", str(self.iterations),
            "--burn-in", str(self.burn_in), "--thin", str(self.thin),
            "--seed", str(self.seed),
        ])]

    def check(self, out):
        problems = []
        header, records = read_draws(out / "fit" / "draws.jsonl")
        if header.get("n_draws") != self.n_draws or len(records) != self.n_draws:
            problems.append(f"draws.jsonl holds {len(records)} draws "
                            f"(header {header.get('n_draws')}), expected {self.n_draws}")
        for i, rec in enumerate(records):
            if not len(rec["alpha"]) == len(rec["z"]) == self.L:
                problems.append(f"draw {i} has alpha/z widths {len(rec['alpha'])}/"
                                f"{len(rec['z'])}, expected {self.L}")
            elif max(rec["z"]) >= len(rec["phi_star"]):
                problems.append(f"draw {i} references a missing cluster")
        diag = json.loads((out / "fit" / "diagnostics.json").read_text())
        if diag["n_draws"] != self.n_draws or len(diag["psrf_alpha"]) != self.L:
            problems.append("diagnostics.json does not match the draws")
        return problems


class StudyDesk(Workload):
    name = "study-desk"
    scenarios = ("easy-0.9", "med-0.5", "hard-0.1")

    def __init__(self, seed: int, toy: bool):
        super().__init__(seed)
        self.iterations, self.burn_in, self.thin = (6, 2, 2) if toy else (60, 10, 2)

    def setup(self, directory: Path):
        # The study simulates its own panels from the seed. Setup generates
        # the same panels in memory, from the harness's documented streams
        # (0, scenario, replicate), so setup_s is the study's input generation.
        from dataclasses import replace

        from poinar.harness import DESK_L, scenario_by_name, simulate_scenario

        self.panels = []
        for index, name in enumerate(self.scenarios):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(0, index, 0)))
            scenario = replace(scenario_by_name(name), L=DESK_L)
            self.panels.append(simulate_scenario(scenario, rng)[0])
        self.inputs = directory

    def calls(self, out):
        return [("study", [
            "study", "--scale", "desk", "--scenarios", ",".join(self.scenarios),
            "--replicates", "1", "--iterations", str(self.iterations),
            "--burn-in", str(self.burn_in), "--thin", str(self.thin),
            "--seed", str(self.seed), "--out", str(out / "study"),
        ])]

    def check(self, out):
        doc = json.loads((out / "study" / "study.json").read_text())
        results = doc["results"]
        problems = []
        if [r["scenario"] for r in results] != list(self.scenarios):
            problems.append(f"study.json covers {[r['scenario'] for r in results]}")
        for r in results:
            for method, value in r["rmse"].items():
                if not math.isfinite(value):
                    problems.append(f"{r['scenario']} {method} RMSE is {value}")
        return problems


class ForecastDc(Workload):
    name = "forecast-dc"
    samples_in_op = False
    quantiles = (0.5, 0.95, 0.99)

    def __init__(self, seed: int, toy: bool):
        super().__init__(seed)
        self.L, self.T = (20, 120) if toy else (188, 418)
        self.holdout, self.horizon = 52, 4
        self.train = self.T - self.holdout
        self.iterations, self.burn_in, self.thin = (8, 2, 2) if toy else (70, 10, 2)

    def setup(self, directory: Path):
        from poinar.cli import main

        simulate_counts(directory / "full.csv", self.name, self.L, self.T, self.seed,
                        train=self.train)
        argv = ["fit", "--counts", str(directory / "train.csv"), "--out", str(directory / "fit"),
                "--iterations", str(self.iterations), "--burn-in", str(self.burn_in),
                "--thin", str(self.thin), "--seed", str(self.seed)]
        if main(argv) != 0:
            raise RuntimeError(f"poinar {' '.join(argv)} failed")
        self.inputs = directory

    def setup_chains(self):
        _, _, counts = read_counts(self.inputs / "train.csv")
        _, records = read_draws(self.inputs / "fit" / "draws.jsonl")
        return [(counts, [r["z"] for r in records])]

    def calls(self, out):
        draws = str(self.inputs / "fit" / "draws.jsonl")
        return [
            ("forecast", [
                "forecast", "--counts", str(self.inputs / "train.csv"), "--draws", draws,
                "--horizon", str(self.horizon),
                "--quantiles", ",".join(str(q) for q in self.quantiles),
                "--out", str(out / "forecast"),
            ]),
            ("evaluate", [
                "evaluate", "--counts", str(self.inputs / "full.csv"), "--draws", draws,
                "--holdout", str(self.holdout), "--origins", "monthly",
                "--out", str(out / "evaluate"),
            ]),
        ]

    def expected_means(self) -> dict[int, np.ndarray]:
        """Draw-averaged h-step conditional means, h = 1..horizon, computed
        from draws.jsonl and the training counts alone."""
        dates, _, counts = read_counts(self.inputs / "train.csv")
        _, records = read_draws(self.inputs / "fit" / "draws.jsonl")
        alpha = np.array([r["alpha"] for r in records])
        lam = np.array([np.asarray(r["phi_star"])[r["z"]] for r in records])
        theta = np.array([r["theta"] for r in records])
        months = [(dates[-1] + datetime.timedelta(days=7 * j)).month
                  for j in range(1, self.horizon + 1)]
        y_last = counts[:, -1]
        means = {}
        acc = np.zeros_like(alpha)  # sum_j alpha^(h-j) theta_{m_j}, by Horner's rule
        for h, month in enumerate(months, start=1):
            acc = alpha * acc + theta[:, month - 1][:, None]
            means[h] = (alpha**h * y_last + lam * acc).mean(axis=0)
        return means

    def check(self, out):
        problems = []
        expected = self.expected_means()
        with (out / "forecast" / "forecasts.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.L:
            problems.append(f"forecasts.csv has {len(rows)} rows, expected {self.L}")
        for l, row in enumerate(rows[: self.L]):
            columns = ["mean"] + [f"mean_step{h}" for h in range(2, self.horizon + 1)]
            for h, column in enumerate(columns, start=1):
                if not _close(float(row[column]), float(expected[h][l])):
                    problems.append(f"{row['series_id']} {column} {row[column]} "
                                    f"!= {expected[h][l]!r}")
            qs = [int(row[f"q{q}"]) for q in self.quantiles]
            if any(b < a for a, b in zip(qs, qs[1:])) or qs[0] < 0:
                problems.append(f"{row['series_id']} quantiles {qs} are not nondecreasing")

        dates, _, _ = read_counts(self.inputs / "full.csv")
        start = len(dates) - self.holdout
        origins = sum(dates[w].month != dates[w - 1].month for w in range(start, len(dates)))
        doc = json.loads((out / "evaluate" / "evaluation.json").read_text())
        freq = sum(b["frequency"] for b in doc["by_last_value"].values())
        if abs(freq - 1.0) > 1e-12:
            problems.append(f"evaluation.json frequencies sum to {freq!r}")
        if doc["n_total"] != self.L * origins:
            problems.append(f"evaluation.json n_total {doc['n_total']} != {self.L} x {origins}")
        return problems


WORKLOADS = {w.name: w for w in (FitWide, StudyDesk, ForecastDc)}

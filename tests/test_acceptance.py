"""Acceptance gate: the shipped criteria, each at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``) carrying
the measured values, and asserts the criterion. Stated runtime budgets are
asserted too. The slower end-to-end criteria sit at the bottom of the file.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from drawrows import DRAW_FIELDS, one_draw_pmf
from oracles import (
    closed_form_h_step_mean,
    convolution_innovation_pmf,
    exhaustive_min_hamming,
    grid_search_sse,
    innovation_pmf,
    innovation_support,
    quadrature_log_marginal,
)
from poinar.baselines import cls_fit_panel
from poinar.cli import main
from poinar.diagnostics import cluster_count_histogram, hamming_error, psrf
from poinar.forecast import quantile
from poinar.harness import (
    benchmark_scenarios,
    run_study,
    scenario_by_name,
    simulate_scenario,
)
from poinar.io import load_counts, load_draws, save_counts, save_draws
from poinar.kernel import InnovationKernel
from poinar.memberships import log_innovation_total_marginal
from poinar.model import simulate_poinar
from poinar.sampler import PosteriorDraws, SamplerConfig, run_chain, run_chains
from poinar.workers import in_workers


def report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" | {detail}"
    print(line, flush=True)
    assert ok, line


def desk_panel(name: str, entropy: int):
    scenario = replace(scenario_by_name(name), L=40)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(0,)))
    return simulate_scenario(scenario, rng)


def test_c01_innovation_sampler_exactness():
    """pmf matches the convolution oracle on the full grid; empirical draw
    frequencies stay inside 3-sigma bands."""
    started = time.monotonic()
    worst = 0.0
    for y_prev in range(13):
        for y_curr in range(13):
            for alpha in (0.1, 0.5, 0.9):
                for rate in (0.5, 1.0, 5.0):
                    ours = innovation_pmf(y_prev, y_curr, alpha, rate)
                    oracle = convolution_innovation_pmf(y_prev, y_curr, alpha, rate)
                    worst = max(worst, float(np.abs(ours - oracle).max()))
    exact_ok = worst < 1e-12

    # empirical check on representative interior cells (cells with expected
    # count below 10 are covered by the exact check; a 3-sigma band is not
    # meaningful for them)
    n = 100_000
    rng = np.random.default_rng(2024)
    freq_ok = True
    configs = [
        (y_prev, y_curr, alpha, rate)
        for (y_prev, y_curr) in ((5, 5), (12, 8), (3, 9))
        for (alpha, rate) in ((0.1, 5.0), (0.5, 1.0), (0.9, 0.5))
    ]
    for y_prev, y_curr, alpha, rate in configs:
        counts = np.tile([[y_prev, y_curr]], (n, 1))
        out = InnovationKernel(counts)(np.full(n, alpha), np.full((n, 1), rate), rng)
        draws = out[:, 1]
        pmf = innovation_pmf(y_prev, y_curr, alpha, rate)
        lo, _ = innovation_support(y_prev, y_curr)
        for k, p in enumerate(pmf):
            if n * p < 10:
                continue
            observed = np.sum(draws == lo + k)
            if abs(observed - n * p) >= 3 * np.sqrt(n * p * (1 - p)):
                freq_ok = False

    elapsed = time.monotonic() - started
    report(
        "criterion 1: innovation sampler exactness",
        exact_ok and freq_ok and elapsed < 10.0,
        f"max pmf error {worst:.2e}, empirical 3-sigma ok={freq_ok}, {elapsed:.1f}s < 10s",
    )


def test_c02_collapsed_weights_match_quadrature():
    """Collapsed membership weights against the numeric-quadrature marginal
    likelihood, plain and covariate, relative error < 1e-6."""
    started = time.monotonic()
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(50):
        s_total = int(rng.integers(0, 21))
        theta_total = rng.uniform(5.0, 50.0)
        exposure = rng.uniform(0.2, 3.0) if i % 2 else 1.0  # covariate on odd draws
        mass = exposure * theta_total
        g1 = rng.uniform(0.5, 3.0)
        g2 = rng.uniform(0.05, 2.0)
        # new-cluster weight: prior parameters
        ours = np.exp(log_innovation_total_marginal(s_total, mass, g1, g2))
        oracle = np.exp(quadrature_log_marginal(s_total, mass, g1, g2))
        worst = max(worst, abs(ours - oracle) / oracle)
        # existing-cluster weight: posterior given the other members
        a_j = float(rng.integers(0, 61))
        others_mass = float(rng.integers(1, 6)) * mass
        ours = np.exp(log_innovation_total_marginal(s_total, mass, g1 + a_j, g2 + others_mass))
        oracle = np.exp(quadrature_log_marginal(s_total, mass, g1 + a_j, g2 + others_mass))
        worst = max(worst, abs(ours - oracle) / oracle)
    elapsed = time.monotonic() - started
    report(
        "criterion 2: collapsed weights vs quadrature",
        worst < 1e-6 and elapsed < 30.0,
        f"max rel err {worst:.2e} over 50 instances, {elapsed:.1f}s < 30s",
    )


def test_c03_stationarity_properties():
    """Long-run mean, dispersion and lag-1 autocorrelation of the simulator."""
    started = time.monotonic()
    means, ratios, acfs = [], [], []
    season = np.ones(10**5, dtype=int)
    theta = np.ones(12)
    for seed in range(5):
        y = simulate_poinar(1.0, 0.5, theta, season, rng=np.random.default_rng(seed))
        means.append(y.mean())
        ratios.append(y.var() / y.mean())
        acfs.append(np.corrcoef(y[:-1], y[1:])[0, 1])
    mean_err = abs(np.mean(means) - 2.0) / 2.0
    ratio_err = abs(np.mean(ratios) - 1.0)
    acf_err = abs(np.mean(acfs) - 0.5)
    elapsed = time.monotonic() - started
    report(
        "criterion 3: stationarity properties",
        mean_err < 0.02 and ratio_err < 0.03 and acf_err < 0.02 and elapsed < 5.0,
        f"mean {np.mean(means):.4f} (err {mean_err:.2%}), var/mean {np.mean(ratios):.4f}, "
        f"acf1 {np.mean(acfs):.4f}, {elapsed:.1f}s < 5s",
    )


def test_c07_cls_validity():
    """Constraint, monotone descent, oracle bound and convergence on 20
    randomized informative series."""
    rng = np.random.default_rng(31)
    all_ok = True
    details = []
    for i in range(20):
        lam = rng.uniform(8.0, 16.0)
        alpha = rng.uniform(0.05, 0.85)
        T = int(rng.integers(156, 313))
        theta = rng.gamma(20.0, 1.0, 12)
        theta /= theta.sum()
        season = np.tile(np.arange(1, 13), T // 12 + 1)[:T]
        y = simulate_poinar(lam, alpha, theta, season,
                            rng=np.random.default_rng(1000 + i))
        est = cls_fit_panel(y[None], season, record_sse=True)
        trace = est.sse_traces[0]
        constraint = abs(est.theta[0].sum() - 1.0) < 1e-10
        downhill = bool(np.all(np.diff(trace) <= 1e-9 * max(1.0, trace[0])))
        converged = bool(est.converged[0]) and est.iterations[0] <= 100
        oracle = grid_search_sse(y, season)
        beats = est.sse[0] <= oracle + 1e-6
        clean = not est.projected[0]
        ok = constraint and downhill and converged and beats and clean
        all_ok &= ok
        if not ok:
            details.append(
                f"series {i}: constraint={constraint} downhill={downhill} "
                f"converged={converged} beats_oracle={beats} unprojected={clean}"
            )
    report("criterion 7: CLS validity", all_ok, "; ".join(details) or "20/20 series clean")


def test_c08_forecast_identities():
    """Mean identity, mass budget, quantile monotonicity, and the h-step
    recursion against the closed form."""
    mean_ok = mass_ok = True
    worst_mean = 0.0
    cases = [
        (y_T, alpha, rate)
        for y_T in (0, 1, 2, 5, 12)
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0)
        for rate in (0.1, 1.0, 5.0, 20.0)
    ]
    assert len(cases) == 100
    for y_T, alpha, rate in cases:
        pmf = one_draw_pmf(y_T, alpha, rate).pmf[0]
        err = abs(pmf @ np.arange(pmf.size) - (alpha * y_T + rate))
        worst_mean = max(worst_mean, err)
        mean_ok &= err < 1e-10
        mass_ok &= pmf.sum() >= 1 - 1e-9

    mono_ok = True
    levels = np.linspace(0.02, 0.98, 25)
    for y_T, alpha, rate in ((0, 0.5, 1.0), (5, 0.25, 5.0), (12, 0.75, 0.1)):
        dist = one_draw_pmf(y_T, alpha, rate)
        qs = [quantile(dist, u)[0] for u in levels]
        mono_ok &= bool(np.all(np.diff(qs) >= 0))

    from poinar.forecast import conditional_mean_h_step

    rng = np.random.default_rng(4)
    recursion_ok = True
    for _ in range(20):
        theta = rng.gamma(1.0, 1.0, 12)
        months = rng.integers(1, 13, 8)
        y_T = int(rng.integers(0, 10))
        alpha = rng.uniform(0, 1)
        lam = rng.uniform(0.05, 6.0)
        for h in range(1, 9):
            step = conditional_mean_h_step(y_T, alpha, lam, theta, months[:h])
            target = closed_form_h_step_mean(y_T, alpha, lam, theta, months[:h])
            recursion_ok &= bool(np.isclose(step, target, rtol=1e-12, atol=1e-12))

    report(
        "criterion 8: forecast identities",
        mean_ok and mass_ok and mono_ok and recursion_ok,
        f"max mean error {worst_mean:.2e}, mass ok={mass_ok}, "
        f"monotone={mono_ok}, recursion={recursion_ok}",
    )


def test_c10_hamming_matches_exhaustive_oracle():
    """Optimal-mapping Hamming equals the brute-force minimum, 200 instances."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(200):
        L = int(rng.integers(6, 40))
        z_est = rng.integers(0, rng.integers(2, 6), L)
        z_true = rng.integers(0, rng.integers(2, 6), L)
        diff = abs(hamming_error(z_est, z_true) - exhaustive_min_hamming(z_est, z_true))
        worst = max(worst, diff)
    report(
        "criterion 10: Hamming assignment vs exhaustive oracle",
        worst < 1e-12,
        f"max |difference| {worst:.1e} over 200 instances with K <= 5",
    )


def test_c11_reproducibility(tmp_path):
    """Identical config + seed give byte-identical outputs; persistence
    round-trips exactly."""
    def run_pipeline(base: Path) -> dict[str, bytes]:
        sim = base / "sim"
        fit = base / "fit"
        fc = base / "fc"
        assert main(["simulate", "--scenario", "med-0.5", "--series", "8",
                     "--seed", "5", "--out", str(sim)]) == 0
        assert main(["fit", "--counts", str(sim / "counts.csv"), "--out", str(fit),
                     "--iterations", "80", "--burn-in", "20", "--thin", "5",
                     "--seed", "9", "--chains", "2"]) == 0
        assert main(["forecast", "--counts", str(sim / "counts.csv"),
                     "--draws", str(fit / "draws.jsonl"),
                     "--quantiles", "0.5,0.95,0.99", "--out", str(fc)]) == 0
        return {
            str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()
        }

    first = run_pipeline(tmp_path / "run")
    second = run_pipeline(tmp_path / "run")  # overwrite in place, same config
    identical = first == second

    draws = load_draws(tmp_path / "run" / "fit" / "draws.jsonl")
    save_draws(draws, tmp_path / "copy.jsonl", load_counts(tmp_path / "run" / "sim" / "counts.csv"))
    again = load_draws(tmp_path / "copy.jsonl")
    round_trip = all(
        np.array_equal(getattr(draws, name), getattr(again, name), equal_nan=True)
        for name in DRAW_FIELDS
    )
    report(
        "criterion 11: reproducibility and round-trip",
        identical and round_trip,
        f"{len(first)} files byte-identical={identical}, round-trip exact={round_trip}",
    )


def desk_seeds(name: str, score) -> list:
    """``score(draws, truth)`` of a default-config chain on the desk panel
    ``name`` of each seed 0-4, the seeds fitted side by side in worker
    processes; each seed draws from its own streams."""
    def fit(seed):
        panel, truth, _ = desk_panel(name, seed)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
        return score(run_chain(panel, SamplerConfig(), rng=rng), truth)

    return in_workers(fit, range(5), lambda seed: f"seed {seed}")


@pytest.mark.slow
def test_c04_cluster_recovery_easy_desk():
    """Modal K = 4 with mean Hamming < 10% in at least 4 of 5 seeds."""
    started = time.monotonic()
    good = 0
    lines = []
    scores = desk_seeds("easy-0.5", lambda draws, truth: (
        cluster_count_histogram(draws).mode,
        float(np.mean([hamming_error(z, truth.z) for z in draws.z]))))
    for seed, (mode, ham) in enumerate(scores):
        ok = mode == 4 and ham < 0.10
        good += ok
        lines.append(f"seed {seed}: K={mode} hamming={ham:.3f}")
    elapsed = time.monotonic() - started
    report(
        "criterion 4: cluster recovery (easy, desk scale)",
        good >= 4 and elapsed < 300.0,
        f"{good}/5 seeds ok ({'; '.join(lines)}), {elapsed:.0f}s < 300s",
    )


@pytest.mark.slow
def test_c05_single_cluster_sanity():
    """No spurious clusters: modal K = 1 in at least 4 of 5 seeds."""
    started = time.monotonic()
    modes = desk_seeds("single-cluster", lambda draws, truth: cluster_count_histogram(draws).mode)
    good = sum(mode == 1 for mode in modes)
    elapsed = time.monotonic() - started
    report(
        "criterion 5: single-cluster sanity",
        good >= 4 and elapsed < 180.0,
        f"{good}/5 seeds modal K=1 (modes {modes}), {elapsed:.0f}s < 180s",
    )


@pytest.mark.slow
def test_c09_psrf_across_chains():
    """PSRF of the summed rates below 1.1 on the easy desk-scale scenario,
    3 chains at the real-data chain protocol."""
    panel, _, _ = desk_panel("easy-0.5", 0)
    config = SamplerConfig(n_iterations=5000, burn_in=1000, thin_interval=50,
                           n_chains=3, seed=0)
    draws = PosteriorDraws.concat(run_chains(panel, config))
    value = psrf(draws.rate_sum_traces())
    report(
        "criterion 9: PSRF convergence",
        value < 1.1,
        f"PSRF(sum of rates) = {value:.4f} < 1.1 over 3 chains x 80 draws",
    )


def test_c12_table2_shaped_evaluation(tmp_path):
    """The evaluate pipeline on a simulated 188x418 panel produces the full
    last-value-conditional report with coherent frequencies and finite SEs."""
    from poinar.harness import Scenario

    scenario = Scenario(
        name="dc-like", cluster_rates=(0.3, 0.8, 1.5, 3.0), thinning=0.3,
        L=188, T=418,
    )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=12, spawn_key=(0,)))
    panel, truth, _ = simulate_scenario(scenario, rng)
    train = replace(
        panel,
        counts=panel.counts[:, :366],
        season_of=panel.season_of[:366],
        week_starts=panel.week_starts[:366],
    )
    save_counts(panel, tmp_path / "full.csv")
    save_counts(train, tmp_path / "train.csv")

    fit_dir = tmp_path / "fit"
    assert main([
        "fit", "--counts", str(tmp_path / "train.csv"), "--out", str(fit_dir),
        "--iterations", "300", "--burn-in", "60", "--thin", "12", "--seed", "1",
    ]) == 0
    ev_dir = tmp_path / "eval"
    assert main([
        "evaluate", "--counts", str(tmp_path / "full.csv"),
        "--draws", str(fit_dir / "draws.jsonl"),
        "--holdout", "52", "--origins", "monthly", "--out", str(ev_dir),
    ]) == 0

    doc = json.loads((ev_dir / "evaluation.json").read_text())
    buckets = doc["by_last_value"]
    freq_sum = sum(b["frequency"] for b in buckets.values())
    keys = sorted(int(k) for k in buckets)
    finite = all(
        np.isfinite([b["rmse"], b["rmse_se"], b["bias"], b["bias_se"]]).all()
        for b in buckets.values()
    )
    shaped = keys == [0, 1, 2, 3, 4] and all(b["n"] >= 2 for b in buckets.values())
    report(
        "criterion 12: holdout evaluation report shape",
        abs(freq_sum - 1.0) < 1e-12 and finite and shaped and doc["n_total"] > 0,
        f"buckets {keys}, freq sum {freq_sum:.12f}, finite SEs={finite}, "
        f"n={doc['n_total']}",
    )


@pytest.mark.slow
def test_c06_method_ordering_desk_grid():
    """BNP beats both baselines against the true conditional mean in at
    least 7 of the 9 scenarios at desk scale."""
    started = time.monotonic()
    grid = [s for s in benchmark_scenarios() if s.name != "single-cluster"]
    study = run_study(grid, scale="desk")
    wins = 0
    lines = []
    for result in study.results:
        bnp, cls_, spp = (result.rmse[m] for m in ("BNP", "CLS", "SPP"))
        won = bnp <= cls_ and bnp <= spp
        wins += won
        lines.append(f"{result.scenario.name}: {bnp:.3f}/{cls_:.3f}/{spp:.3f}")
    elapsed = time.monotonic() - started
    report(
        "criterion 6: method ordering on the scenario grid",
        wins >= 7 and elapsed < 1800.0,
        f"BNP best in {wins}/9 (BNP/CLS/SPP: {'; '.join(lines)}), {elapsed:.0f}s < 1800s",
    )

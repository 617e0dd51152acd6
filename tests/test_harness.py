"""Scenario grid and study machinery."""

import numpy as np
import pytest

import poinar.harness as harness
from drawrows import draws_from_states
from oracles import (
    pairwise_representative_assignment,
    per_draw_hamming_mean,
    per_series_cls_panel,
    validate_state,
)
from poinar.harness import (
    Scenario,
    holdout_origin_weeks,
    benchmark_scenarios,
    rolling_one_step_evaluation,
    run_study,
    scenario_by_name,
    simulate_scenario,
)
from poinar.forecast import posterior_conditional_means
from poinar.model import ConfigurationError, ModelState
from poinar.sampler import SamplerConfig, run_chain


class TestScenarios:
    def test_grid_contents(self):
        scenarios = benchmark_scenarios()
        assert len(scenarios) == 10
        names = [s.name for s in scenarios]
        assert "easy-0.5" in names and "single-cluster" in names
        easy = scenario_by_name("easy-0.1")
        assert easy.cluster_rates == (1.0, 3.0, 6.0, 10.0)
        assert all(s.L == 100 and s.T == 208 for s in scenarios)
        med = scenario_by_name("med-0.9")
        assert med.cluster_rates == (0.01, 0.5, 1.2, 2.0)
        hard = scenario_by_name("hard-0.1")
        assert hard.cluster_rates == (0.1, 0.2, 0.3, 0.6)

    def test_equal_cluster_sizes_required(self):
        with pytest.raises(ValueError):
            Scenario(name="bad", cluster_rates=(1.0, 2.0, 3.0), thinning=0.5, L=100)

    def test_memberships_partition(self):
        sc = scenario_by_name("easy-0.5")
        z = sc.memberships()
        assert np.array_equal(np.bincount(z), [25, 25, 25, 25])

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            scenario_by_name("impossible")

    def test_simulate_scenario_calendar(self):
        sc = Scenario(name="t", cluster_rates=(2.0,), thinning=0.3, L=4, T=60)
        panel, truth, next_month = simulate_scenario(sc, np.random.default_rng(0))
        assert panel.n_weeks == 60
        assert panel.week_starts is not None
        assert 1 <= next_month <= 12
        validate_state(truth, panel)


class TestStudy:
    def test_desk_study_smoke_and_determinism(self):
        sc = Scenario(name="smoke", cluster_rates=(1.0, 6.0), thinning=0.3, L=8, T=120)
        config = SamplerConfig(n_iterations=150, burn_in=30, thin_interval=5, seed=11)
        report_a = run_study([sc], sampler_config=config, scale="full",
                             n_replicates=2)
        report_b = run_study([sc], sampler_config=config, scale="full",
                             n_replicates=2)
        assert report_a.seed == 11  # the study seed is the config's
        result, = (r for r in report_a.results if r.scenario.name == "smoke")
        assert set(result.rmse) == {"BNP", "CLS", "SPP"}
        assert all(np.isfinite(v) for v in result.rmse.values())
        assert all(np.isfinite(v) for v in result.ape.values())
        assert result.true_mean > 0
        assert len(result.modal_k) == 2
        result_b, = (r for r in report_b.results if r.scenario.name == "smoke")
        for name in ("rmse", "ape"):
            assert getattr(result, name) == getattr(result_b, name)

    def test_settings_that_keep_no_draws_rejected(self):
        with pytest.raises(ConfigurationError, match="keep no draws"):
            run_study([scenario_by_name("hard-0.1")], n_replicates=1,
                      sampler_config=SamplerConfig(n_iterations=20, burn_in=10, thin_interval=20))

    @pytest.mark.slow
    def test_desk_scale_shrinks_series_count(self):
        sc = scenario_by_name("hard-0.1")
        config = SamplerConfig(n_iterations=60, burn_in=10, thin_interval=5, seed=3)
        report = run_study([sc], sampler_config=config, scale="desk",
                           n_replicates=1)
        assert report.results[0].scenario.L == 40

    def test_report_equals_the_one_from_per_series_scoring(self, monkeypatch):
        # a near-zero cluster rate leaves some short series all zero
        sc = Scenario(name="oracle", cluster_rates=(0.02, 4.0), thinning=0.4, L=6, T=40)
        config = SamplerConfig(n_iterations=60, burn_in=10, thin_interval=2, seed=2)
        kwargs = dict(sampler_config=config, scale="full", n_replicates=3)
        report = run_study([sc], **kwargs)
        monkeypatch.setattr(harness, "cls_fit_panel", per_series_cls_panel)
        monkeypatch.setattr(harness, "representative_assignment",
                            pairwise_representative_assignment)
        monkeypatch.setattr(harness, "mean_hamming_error", per_draw_hamming_mean)
        assert report == run_study([sc], **kwargs)

    def test_rows_cover_methods(self):
        sc = Scenario(name="rows", cluster_rates=(2.0,), thinning=0.2, L=4, T=80)
        config = SamplerConfig(n_iterations=60, burn_in=10, thin_interval=5, seed=5)
        report = run_study([sc], sampler_config=config, scale="full",
                           n_replicates=1)
        table = report.columns()
        assert table["method"] == ["BNP", "CLS", "SPP"]


class TestShrinkageDominance:
    @pytest.mark.slow
    def test_bnp_beats_series_average_with_replicate_averaging(self):
        # pooling beats the constant-mean predictor whenever counts carry
        # over; checked on the low-thinning row, where the series average is
        # at its most competitive
        grid = [scenario_by_name(name) for name in ("easy-0.1", "med-0.1", "hard-0.1")]
        report = run_study(grid, sampler_config=SamplerConfig(seed=1), scale="desk",
                           n_replicates=5)
        for result in report.results:
            assert result.rmse["BNP"] <= result.rmse["SPP"], result.scenario.name


class TestPosteriorMeanForecasts:
    def test_matches_manual_average(self):
        states = []
        rng = np.random.default_rng(6)
        for _ in range(7):
            states.append(
                ModelState(
                    alpha=rng.uniform(0, 1, 3),
                    z=np.array([0, 1, 0]),
                    phi_star=rng.uniform(0.5, 3.0, 2),
                    theta=rng.gamma(1, 1, 12),
                    tau=1.0,
                )
            )
        draws = draws_from_states(states)
        y_prev = np.array([2, 0, 5])
        month = 4
        manual = np.mean(
            [s.alpha * y_prev + s.phi_star[s.z] * s.theta[month - 1] for s in states],
            axis=0,
        )
        got = posterior_conditional_means(draws, y_prev, [month])[0]
        assert np.allclose(got, manual, atol=1e-12)


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(7)
    sc = Scenario(name="eval", cluster_rates=(1.0, 3.0), thinning=0.3, L=6, T=160)
    panel, truth, _ = simulate_scenario(sc, rng)
    from dataclasses import replace

    train_panel = replace(
        panel, counts=panel.counts[:, :120], season_of=panel.season_of[:120],
        week_starts=panel.week_starts[:120],
    )
    config = SamplerConfig(n_iterations=120, burn_in=20, thin_interval=10, seed=9)
    draws = run_chain(train_panel, config)
    return panel, draws


class TestRollingEvaluation:
    def test_monthly_origins_change_of_month(self, fitted):
        panel, _ = fitted
        weeks = holdout_origin_weeks(panel, holdout=40, origins="monthly")
        for w in weeks:
            assert panel.season_of[w] != panel.season_of[w - 1]
        weekly = holdout_origin_weeks(panel, holdout=40, origins="weekly")
        assert len(weekly) == 40

    def test_report_shape(self, fitted):
        panel, draws = fitted
        report, details = rolling_one_step_evaluation(panel, draws, holdout=40,
                                                      origins="weekly", bucket_cap=4)
        assert report.n_total == 40 * panel.n_series
        assert sum(b.frequency for b in report.by_last_value.values()) == pytest.approx(
            1.0, abs=1e-12)
        assert {"series_id", "week", "last_value", "prediction", "actual"} <= set(details)
        assert all(len(column) == report.n_total for column in details.values())

    def test_holdout_bounds(self, fitted):
        panel, draws = fitted
        with pytest.raises(ValueError):
            holdout_origin_weeks(panel, holdout=panel.n_weeks)

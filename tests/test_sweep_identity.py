"""The sweep hot spots against their earlier, simpler versions.

``sample_memberships`` and ``InnovationKernel`` keep their cluster statistics
and support grids in preallocated arrays and buckets, and
``sample_thinnings`` works from per-series totals. They must draw exactly
what the list-based sweep, the padded kernel and the week-by-week thinning
update in ``oracles`` draw, seed for seed; criterion 11 compares two runs of
the same code, so only these tests pin the draws to the earlier ones.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

import drawrows
import oracles
from poinar import sampler
from poinar.harness import Scenario, scenario_by_name, simulate_scenario
from poinar.model import MODE_COVARIATE, MODE_PLAIN, Hyperparams, ModelState
from poinar.panel import CountPanel
from poinar.sampler import (
    InnovationKernel,
    LogGammaTable,
    SamplerConfig,
    SuffStats,
    run_chain,
    sample_memberships,
    sample_thinnings,
)


def scenario_panel(scenario: Scenario, entropy: int):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=(0,)))
    return simulate_scenario(scenario, rng)[0]


def desk_panel(name: str, entropy: int):
    return scenario_panel(replace(scenario_by_name(name), L=40), entropy)


def outlier_panel():
    """Desk easy-0.5 with one series at 400 for ten weeks."""
    panel = desk_panel("easy-0.5", 3)
    counts = panel.counts.copy()
    counts[7, 100:110] = 400
    return replace(panel, counts=counts)


def chain_with(panel, config, monkeypatch, oracle: bool):
    with monkeypatch.context() as patch:
        if oracle:
            patch.setattr(sampler, "sample_memberships", oracles.list_sample_memberships)
            patch.setattr(sampler, "InnovationKernel", oracles.PaddedInnovationKernel)
            patch.setattr(sampler, "sample_thinnings", oracles.weekly_sample_thinnings)
        return run_chain(panel, config)


def assert_same_draws(ours, reference):
    assert len(ours) == len(reference) > 0
    assert ours.innovations is not None
    drawrows.assert_same_draws(ours, reference)


def sweep_config(n_iterations, **kwargs):
    return SamplerConfig(n_iterations=n_iterations, burn_in=0, thin_interval=1,
                         keep_innovations=True, **kwargs)


CASES = {
    "desk-easy-0.9": lambda: (desk_panel("easy-0.9", 11), sweep_config(40, seed=2)),
    "desk-hard-0.1": lambda: (desk_panel("hard-0.1", 12), sweep_config(40, seed=3)),
    # three sweeps from singletons keep hundreds of clusters
    "wide-400": lambda: (
        scenario_panel(Scenario(name="wide", cluster_rates=(0.3, 0.8, 1.5, 3.0),
                                thinning=0.3, L=400, T=104), 13),
        sweep_config(3, seed=4),
    ),
    # two sweeps from 400 singletons: K falls through the hundreds, and the
    # log-gamma table grows as the clusters merge
    "wide-singletons": lambda: (
        scenario_panel(Scenario(name="wide", cluster_rates=(0.3, 0.8, 1.5, 3.0),
                                thinning=0.3, L=400, T=52), 19),
        sweep_config(2, seed=11),
    ),
    "covariate": lambda: (
        replace(desk_panel("med-0.5", 14),
                exposure=np.random.default_rng(15).uniform(0.5, 4.0, 40)),
        sweep_config(30, seed=5, hyper=Hyperparams.default("covariate")),
    ),
    "metropolis": lambda: (
        desk_panel("easy-0.9", 16),
        sweep_config(30, seed=6, metropolis_threshold=4),
    ),
    "outlier": lambda: (outlier_panel(), sweep_config(15, seed=7)),
    # criterion 12's 188 series over four years: K falls to a few clusters
    # within about 20 sweeps, where numpy's per-call cost dominates both
    # hot steps
    "dc-like-188": lambda: (
        scenario_panel(Scenario(name="dc-like", cluster_rates=(0.3, 0.8, 1.5, 3.0),
                                thinning=0.3, L=188, T=208), 17),
        sweep_config(50, seed=9),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_chain_draws_match_reference_sweep(case, monkeypatch):
    panel, config = CASES[case]()
    ours = chain_with(panel, config, monkeypatch, oracle=False)
    reference = chain_with(panel, config, monkeypatch, oracle=True)
    assert_same_draws(ours, reference)
    if case in ("wide-400", "wide-singletons"):
        assert ours.n_clusters[0] >= 100
    if case == "dc-like-188":
        assert np.all(ours.n_clusters[-20:] <= 8)


def wide_panel(L: int, entropy: int, exposure: bool = False):
    panel = scenario_panel(Scenario(name="wide", cluster_rates=(0.3, 0.8, 1.5, 3.0),
                                    thinning=0.3, L=L, T=52), entropy)
    if exposure:
        panel = replace(panel, exposure=np.random.default_rng(entropy).uniform(0.5, 4.0, L))
    return panel


# three sweeps from singletons at width, where hundreds of clusters empty in
# a sweep, beyond the plain dyadic-gamma1 cases above: under per-series
# exposures (a mass per visit), with a gamma1 the log-gamma table cannot
# hold, and both
WIDE_CASES = {
    "covariate": lambda: (
        wide_panel(220, 22, exposure=True),
        sweep_config(3, seed=13, hyper=Hyperparams.default("covariate")),
    ),
    "gamma1-0.3": lambda: (wide_panel(200, 23), sweep_config(3, seed=14,
                                                             hyper=Hyperparams(gamma1=0.3))),
    "covariate-gamma1-0.3": lambda: (
        wide_panel(200, 24, exposure=True),
        sweep_config(3, seed=15, hyper=replace(Hyperparams.default("covariate"), gamma1=0.3)),
    ),
}


@pytest.mark.parametrize("case", sorted(WIDE_CASES))
def test_wide_chains_from_singletons_match_reference_sweep(case, monkeypatch):
    panel, config = WIDE_CASES[case]()
    assert panel.n_series >= 200
    ours = chain_with(panel, config, monkeypatch, oracle=False)
    assert_same_draws(ours, chain_with(panel, config, monkeypatch, oracle=True))
    # every sweep empties clusters, and many remain
    assert np.all(np.diff(np.r_[panel.n_series, ours.n_clusters]) < 0)
    assert ours.n_clusters[-1] >= 20


@st.composite
def membership_inputs(draw):
    """A membership sweep's inputs: 1 to 40 series with innovation totals
    up to a few hundred, started from singletons or from a few clusters,
    under plain mass or covariate mass (per-series or one shared exposure),
    with a dyadic or a non-dyadic gamma1."""
    L = draw(st.integers(1, 40))
    T = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = rng.poisson(rng.uniform(0.0, 40.0, (L, 1)), (L, T))
    eps[rng.random(L) < 0.2] = 0
    clusters = draw(st.sampled_from(["singletons", "few"]))
    if clusters == "singletons":
        z = np.arange(L)
    else:
        z = np.unique(rng.integers(0, draw(st.integers(1, 4)), L), return_inverse=True)[1]
    mass = draw(st.sampled_from(["plain", "per-series", "one exposure"]))
    mode = MODE_PLAIN if mass == "plain" else MODE_COVARIATE
    exposure = {"plain": None, "per-series": rng.uniform(0.2, 5.0, L),
                "one exposure": np.full(L, 2.5)}[mass]
    panel = CountPanel(counts=eps, season_of=rng.integers(1, 13, T), exposure=exposure)
    state = ModelState(alpha=np.full(L, 0.5), z=z, phi_star=np.ones(z.max() + 1),
                       theta=rng.gamma(2.0, 0.5, 12), tau=float(rng.lognormal(0.0, 1.5)),
                       innovations=eps)
    hyper = Hyperparams(gamma1=draw(st.sampled_from([1.0, 0.5, 0.25, 3.0, 0.3, 1 / 3])),
                        gamma2=draw(st.floats(0.05, 3.0)), mode=mode)
    order = rng.permutation(L) if draw(st.booleans()) else None
    return state, panel, hyper, order, draw(st.integers(0, 2**32 - 1))


@given(membership_inputs())
@settings(max_examples=150, deadline=None)
def test_membership_sweeps_match_list_sweeps(inputs):
    state, panel, hyper, order, seed = inputs
    rng_ours = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    stats = SuffStats.from_state(state, panel, hyper.mode)
    table = LogGammaTable(hyper.gamma1)
    ours, expected = (state.z, stats), (state.z, stats)
    for _ in range(2):  # the second sweep reuses the table the first grew
        ours = sample_memberships(replace(state, z=ours[0]), panel, ours[1], hyper, rng_ours,
                                  order, log_gamma=table)
        expected = oracles.list_sample_memberships(replace(state, z=expected[0]), panel,
                                                   expected[1], hyper, rng_ref, order)
        (z, got), (z_ref, want) = ours, expected
        assert np.array_equal(z, z_ref)
        for name in ("B", "n", "U"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert rng_ours.bit_generator.state == rng_ref.bit_generator.state
    assert table.values.shape[0] <= int(stats.S.sum()) + 1


@pytest.mark.parametrize("gamma1", [1.0, 0.5, 0.3])
def test_table_grows_mid_sweep_as_clusters_merge(gamma1):
    # 30 singletons with 10 innovations each and a small tau merge into a
    # few clusters, so cluster totals pass the table's first size
    L = 30
    eps = np.zeros((L, 4), dtype=np.int64)
    eps[:, 2] = 10
    panel = CountPanel(counts=eps, season_of=np.arange(1, 5))
    state = ModelState(alpha=np.full(L, 0.5), z=np.arange(L), phi_star=np.ones(L),
                       theta=np.ones(12), tau=0.05, innovations=eps)
    hyper = Hyperparams(gamma1=gamma1)
    stats = SuffStats.from_state(state, panel)
    table = LogGammaTable(gamma1)
    z, ours = sample_memberships(state, panel, stats, hyper, np.random.default_rng(1),
                                 log_gamma=table)
    z_ref, want = oracles.list_sample_memberships(state, panel, stats, hyper,
                                                  np.random.default_rng(1))
    assert np.array_equal(z, z_ref) and np.array_equal(ours.B, want.B)
    assert np.array_equal(ours.U, want.U)
    assert ours.B.max() > 20
    if gamma1 == 0.3:  # not dyadic: the sweep calls gammaln and builds no table
        assert table.values.shape[0] == 0
    else:  # built to the largest singleton total, 10, then grown
        assert table.values.shape[0] > 11


@pytest.mark.parametrize("gamma1", [1.0, 0.5, 0.25, 3.0, 1 / 3])
def test_log_gamma_table_holds_what_the_sweep_computes(gamma1):
    # gammaln(shape_j + s), shape_j = B_j + gamma1, against entry B_j + s
    B, s = np.arange(3000)[:, None], np.arange(300)
    table = LogGammaTable(gamma1)
    swept = gammaln((B + gamma1) + s)
    if table.limit >= 3299:
        assert np.array_equal(table.covering(3299, 3299)[B + s], swept)
    else:  # 1/3 is rounded, and so is B + 1/3 + s in one order or the other
        assert table.limit == 0
        assert not np.array_equal(gammaln((B + s) + gamma1), swept)


def test_log_gamma_table_is_exact_only_for_dyadic_gamma1():
    assert LogGammaTable(1.0).limit >= 2**52
    assert LogGammaTable(0.25).limit >= 2**50
    assert LogGammaTable(0.3).limit == 0
    assert LogGammaTable(1 / 3).limit == 0
    # 1 + 2^-40 is dyadic, but N + g1 needs 54 bits from N = 2^13 - 1 on
    table = LogGammaTable(1.0 + 2.0**-40)
    assert table.limit == 2**13 - 2
    N = np.arange(table.limit + 1)
    assert np.array_equal((N + table.gamma1) - table.gamma1, N)
    assert ((table.limit + 1) + table.gamma1) - table.gamma1 != table.limit + 1


def test_log_gamma_table_grows_on_demand_up_to_the_total():
    table = LogGammaTable(0.5)
    assert table.covering(3, 1000).shape == (4,)
    assert table.covering(5, 1000).shape == (8,)    # doubled
    assert table.covering(600, 1000).shape == (601,)
    assert table.covering(700, 1000).shape == (1001,)  # doubling capped at the total
    assert np.array_equal(table.values, gammaln(np.arange(1001) + 0.5))


@st.composite
def kernel_inputs(draw):
    """A small panel mixing all-zero rows, single-week spikes up to 400 and
    large counts, with parameters and a Metropolis threshold or None."""
    L = draw(st.integers(1, 6))
    T = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.zeros((L, T), dtype=np.int64)
    for l in range(L):
        kind = draw(st.sampled_from(["zero", "low", "spike", "large"]))
        if kind == "low":
            counts[l] = rng.poisson(rng.uniform(0.2, 4.0), T)
        elif kind == "spike":
            counts[l] = rng.poisson(1.0, T)
            counts[l, rng.integers(T)] = draw(st.integers(1, 400))
        elif kind == "large":
            counts[l] = rng.poisson(rng.uniform(20.0, 300.0), T)
    alpha = rng.uniform(0.0, 1.0, L)
    alpha[rng.random(L) < 0.2] = draw(st.sampled_from([0.0, 1.0]))
    rates = rng.lognormal(0.0, 2.0, (L, T - 1))
    threshold = draw(st.none() | st.integers(0, 50))
    return counts, alpha, rates, threshold, draw(st.integers(0, 2**32 - 1))


@given(kernel_inputs())
@settings(max_examples=150, deadline=None)
def test_bucketed_kernel_matches_padded_kernel(inputs):
    counts, alpha, rates, threshold, seed = inputs
    eps = counts.copy()
    eps[:, 1:] = np.maximum(counts[:, 1:] - counts[:, :-1], 0)
    rng_ours = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    kernel = InnovationKernel(counts, threshold)
    reference = oracles.PaddedInnovationKernel(counts, threshold)
    for _ in range(2):  # the second call starts from drawn innovations
        ours = kernel(eps, alpha, rates, rng_ours)
        expected = reference(eps, alpha, rates, rng_ref)
        assert np.array_equal(ours, expected)
        assert rng_ours.bit_generator.state == rng_ref.bit_generator.state
        eps = ours

    yp, yc = counts[:, :-1], counts[:, 1:]
    lo = np.maximum(yc - yp, 0)
    assert np.array_equal(ours[:, 0], counts[:, 0])
    assert np.all((ours[:, 1:] >= lo) & (ours[:, 1:] <= yc))
    fixed = np.minimum(yp, yc) == 0
    assert np.array_equal(ours[:, 1:][fixed], lo[fixed])


def layouts(matrix):
    """``matrix`` as C- and Fortran-ordered copies and as a strided view."""
    L, width = matrix.shape
    wider = np.zeros((L, 2 * width), dtype=matrix.dtype)
    wider[:, ::2] = matrix
    return {
        "C": np.ascontiguousarray(matrix),
        "F": np.asfortranarray(matrix),
        "strided": wider[:, ::2],
    }


@given(kernel_inputs())
@settings(max_examples=40, deadline=None)
def test_kernel_reads_any_layout_and_writes_a_new_matrix(inputs):
    counts, alpha, rates, threshold, seed = inputs
    eps = counts.copy()
    eps[:, 1:] = np.maximum(counts[:, 1:] - counts[:, :-1], 0)
    expected = oracles.PaddedInnovationKernel(counts, threshold)(
        eps, alpha, rates, np.random.default_rng(seed))
    for counts_layout, counts_in in layouts(counts).items():
        kernel = InnovationKernel(counts_in, threshold)
        for eps_layout, eps_in in layouts(eps).items():
            for rates_layout, rates_in in layouts(rates).items():
                ours = kernel(eps_in, alpha, rates_in, np.random.default_rng(seed))
                where = (counts_layout, eps_layout, rates_layout)
                assert np.array_equal(ours, expected), where
                assert np.array_equal(counts_in, counts), where
                assert np.array_equal(eps_in, eps), where
                assert not np.shares_memory(ours, counts_in), where
                assert not np.shares_memory(ours, eps_in), where


def test_chain_draws_do_not_depend_on_the_counts_layout():
    # a (weeks x series) array passed transposed gives a Fortran-ordered panel
    panel = desk_panel("easy-0.9", 18)
    transposed = replace(panel, counts=np.ascontiguousarray(panel.counts.T).T)
    assert transposed.counts.flags.f_contiguous and not transposed.counts.flags.c_contiguous
    for threshold in (None, 4):
        config = sweep_config(5, seed=10, metropolis_threshold=threshold)
        assert_same_draws(run_chain(transposed, config), run_chain(panel, config))


@pytest.mark.parametrize("seed", range(20))
def test_kernel_matches_padded_kernel_on_degenerate_rates(seed):
    # rates of 0, inf, NaN and denormals make a cell's log weights NaN or
    # -inf; the NaN-padded buckets must still draw what -inf padding drew
    rng = np.random.default_rng(seed)
    L, T = 6, 40
    counts = rng.poisson(rng.uniform(0.5, 60.0, (L, 1)), (L, T))
    rates = rng.lognormal(0.0, 2.0, (L, T - 1))
    kind = rng.integers(0, 8, (L, T - 1))
    for k, value in enumerate([0.0, np.inf, np.nan, 1e-320]):
        rates[kind == k] = value
    alpha = rng.uniform(0.0, 1.0, L)
    alpha[:2] = 0.0, 1.0
    eps = counts.copy()
    eps[:, 1:] = np.maximum(counts[:, 1:] - counts[:, :-1], 0)
    with np.errstate(all="ignore"):
        ours = InnovationKernel(counts)(eps, alpha, rates, np.random.default_rng(seed))
        expected = oracles.PaddedInnovationKernel(counts)(
            eps, alpha, rates, np.random.default_rng(seed))
    assert np.array_equal(ours, expected)


@st.composite
def thinning_inputs(draw):
    """A panel of 1 to 5 series over 1 to 12 weeks, some rows all zero, with
    innovations inside their supports."""
    L = draw(st.integers(1, 5))
    T = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.poisson(rng.uniform(0.0, 6.0, (L, 1)), (L, T))
    counts[rng.random(L) < 0.3] = 0
    lo = np.maximum(counts[:, 1:] - counts[:, :-1], 0)
    eps = counts.copy()
    eps[:, 1:] = rng.integers(lo, counts[:, 1:] + 1)
    hyper = Hyperparams(eta1=draw(st.floats(0.1, 5.0)), eta2=draw(st.floats(0.1, 5.0)))
    return counts, eps, hyper, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("weeks", [1, 2, None])
@given(inputs=thinning_inputs())
@settings(max_examples=40, deadline=None)
def test_thinnings_from_totals_match_weekly_sums(weeks, inputs):
    counts, eps, hyper, seed = inputs
    if weeks is not None:
        counts, eps = counts[:, :weeks], eps[:, :weeks]
    L, T = counts.shape
    panel = CountPanel(counts=counts, season_of=np.ones(T, dtype=np.int64))
    state = ModelState(alpha=np.full(L, 0.5), z=np.zeros(L, dtype=np.int64),
                       phi_star=np.ones(1), theta=np.ones(12), tau=1.0, innovations=eps)
    rng_ours = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    ours = sample_thinnings(state, panel, hyper, rng_ours)
    expected = oracles.weekly_sample_thinnings(state, panel, hyper, rng_ref)
    assert np.array_equal(ours, expected)
    assert rng_ours.bit_generator.state == rng_ref.bit_generator.state


def test_outlier_grid_follows_useful_support():
    panel = outlier_panel()
    counts = panel.counts
    width = np.minimum(counts[:, 1:], counts[:, :-1])
    useful = int((width[width > 0] + 1).sum())
    grid_cells = sum(b.logw0.size for b in InnovationKernel(counts).buckets)
    assert grid_cells <= 1.5 * useful
    # the padded grid gives every active cell the outlier's 401 columns
    padded = oracles.PaddedInnovationKernel(counts)
    assert padded.grid0.size > 10 * grid_cells


def test_outlier_chain_time_is_bounded():
    # on a 2-core Xeon the padded kernel took 1.6-2.0 s for these 30 sweeps,
    # the bucketed one about 0.15 s
    panel = outlier_panel()
    started = time.perf_counter()
    draws = run_chain(panel, sweep_config(30, seed=8))
    elapsed = time.perf_counter() - started
    assert len(draws) == 30
    assert elapsed < 1.0, f"30 sweeps took {elapsed:.2f} s"

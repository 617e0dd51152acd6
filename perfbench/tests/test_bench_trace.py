"""The tracer times the package without changing what it computes."""

import poinar.cli
from tracer import Tracer, leftover_wrappers, package_modules, summarize
from workloads import simulate_counts


def _bindings():
    return {(m.__name__, k): v for m in package_modules() for k, v in vars(m).items()}


def _fit(counts, out):
    return poinar.cli.main([
        "fit", "--counts", str(counts), "--out", str(out), "--chains", "2",
        "--iterations", "8", "--burn-in", "2", "--thin", "2", "--seed", "4",
    ])


def test_traced_fit_writes_identical_outputs(tmp_path):
    counts = tmp_path / "counts.csv"
    simulate_counts(counts, "trace-test", L=24, T=80, seed=3)
    before = _bindings()
    assert _fit(counts, tmp_path / "plain") == 0
    tracer = Tracer()
    with tracer.installed():
        assert _fit(counts, tmp_path / "traced") == 0

    for name in ("draws.jsonl", "diagnostics.json"):
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    summary, covered = summarize(tracer.spans)
    assert summary["sampler.innovations"]["calls"] == 2 * 8
    assert summary["sampler.memberships"]["visits"] == 2 * 8 * 24
    assert summary["sampler.suffstats"]["calls"] == 2 * 8
    assert summary["io.save_draws"]["bytes"] == (tmp_path / "plain" / "draws.jsonl").stat().st_size
    root = [s for s in tracer.spans if s.parent < 0]
    assert len(root) == 1 and root[0].name == "cli.command"
    assert covered == root[0].end - root[0].start
    assert leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

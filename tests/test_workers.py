"""Independent chains and study replicates in forked worker processes.

Each chain and each study replicate draws from its own stream, so a run on
two workers must write every byte a run on one writes. The worker count is
forced through ``workers._usable_cpus``, so the pool runs on a machine with
one CPU too, and ``os.fork`` is counted to show that it did.
"""

import functools
import multiprocessing
import multiprocessing.connection
import os
import shutil
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import poinar.kernel
import poinar.workers
from oracles import save_exposure
from poinar import harness, io, model, sampler
from poinar.cli import main
from poinar.harness import run_study, scenario_by_name, simulate_scenario
from poinar.kernel import InnovationKernel
from poinar.memberships import SuffStats
from poinar.model import ConfigurationError
from poinar.sampler import SamplerConfig, run_chain, run_chains
from poinar.workers import WorkerExited, in_workers


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count; returns the pids of the processes forked.
    Every process forked must have been reaped by the end of the test."""
    forked, every = [], []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            forked.append(pid)
            every.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)

    def use(n):
        monkeypatch.setattr(poinar.workers, "_usable_cpus", lambda: n)
        forked.clear()
        return forked

    yield use
    assert multiprocessing.active_children() == []
    for pid in every:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def small_panel():
    scenario = replace(scenario_by_name("easy-0.9"), L=8, T=60)
    return simulate_scenario(scenario, sampler.stream(4, 0))[0]


class _Refused(Exception):
    pass


class _ExitsWhenPickled:
    """A result whose worker exits while pickling it, as one killed while
    it sends its result back would."""

    def __reduce__(self):
        os._exit(3)


class TestPool:
    def test_results_in_task_order_from_workers(self, cpus):
        forked = cpus(2)
        seen = []
        got = in_workers(lambda t: (t * t, os.getpid()), range(7), str,
                         done=lambda i, result: seen.append((i, result)))
        assert [r for r, _ in got] == [t * t for t in range(7)]
        assert len(forked) == 2 and {pid for _, pid in got} <= set(forked)
        # each result is handed over here as it arrives, in task order
        assert seen == list(enumerate(got))

    def test_one_worker_runs_here(self, cpus):
        forked = cpus(1)
        got = in_workers(lambda t: os.getpid(), range(3), str)
        assert got == [os.getpid()] * 3 and forked == []

    @pytest.mark.parametrize("n_cpus, n_tasks, workers", [(10**6, 3, 3), (2, 5, 2), (1, 5, None)])
    def test_pool_size_is_cpus_capped_by_tasks(self, cpus, n_cpus, n_tasks, workers):
        # None: no pool, so the tasks run here
        forked = cpus(n_cpus)
        assert in_workers(lambda t: t, range(n_tasks), str) == list(range(n_tasks))
        assert len(forked) == (workers or 0)

    def test_another_thread_keeps_the_tasks_here(self, cpus):
        # a fork would copy only this thread, and any lock the other holds
        forked = cpus(2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            got = in_workers(lambda t: (t, os.getpid()), range(3), str)
        finally:
            release.set()
            other.join()
        assert got == [(t, os.getpid()) for t in range(3)] and forked == []

    def test_a_wrapped_function_keeps_the_chains_here(self, monkeypatch, cpus):
        # what a tracer's wrapper records must reach this process
        seen = []

        @functools.wraps(run_chain)
        def traced(*args, **kwargs):
            seen.append(kwargs["chain_index"])
            return run_chain(*args, **kwargs)

        monkeypatch.setattr(sampler, "run_chain", traced)
        forked = cpus(2)
        assert len(run_chains(small_panel(), chains_config(2))) == 2
        assert seen == [0, 1] and forked == []

    def test_a_wrapped_function_of_another_module_keeps_the_chains_here(self, monkeypatch, cpus):
        # sampler binds sample_memberships, which memberships defines; the
        # chains call it once a sweep: 2 chains of 12 sweeps
        seen = []
        original = sampler.sample_memberships

        @functools.wraps(original)
        def traced(*args, **kwargs):
            seen.append(len(seen))
            return original(*args, **kwargs)

        monkeypatch.setattr(sampler, "sample_memberships", traced)
        forked = cpus(2)
        assert len(run_chains(small_panel(), chains_config(2))) == 2
        assert len(seen) == 24 and forked == []

    @pytest.mark.parametrize("cls, name", [(InnovationKernel, "__call__"),
                                            (SuffStats, "from_state")])
    def test_a_wrapped_method_keeps_the_chains_here(self, monkeypatch, cpus, cls, name):
        # a wrapper set on the class alone, as a profiler sets it, must see
        # every call the chains make, as on one CPU
        seen = []
        raw = vars(cls)[name]
        method = getattr(raw, "__func__", raw)  # a classmethod's function

        @functools.wraps(method)
        def traced(*args, **kwargs):
            seen.append(len(seen))
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, traced if raw is method else classmethod(traced))
        cpus(1)
        run_chains(small_panel(), chains_config(2))
        serial, seen[:] = len(seen), []
        forked = cpus(2)
        assert len(run_chains(small_panel(), chains_config(2))) == 2
        assert serial > 0 and len(seen) == serial and forked == []

    def test_first_failing_task_in_order_raises_its_error(self, cpus):
        cpus(2)

        def task(t):
            if t >= 2:
                raise ConfigurationError(f"task {t}")
            return t

        with pytest.raises(ConfigurationError, match="task 2"):
            in_workers(task, range(5), str)

    @pytest.mark.parametrize("returns", [True, False], ids=["result", "exception"])
    def test_what_does_not_pickle_raises_here_in_task_order(self, cpus, returns):
        # a lock does not pickle, so neither does a result or an exception
        # holding one: the pickling error comes back instead
        def task(t):
            if t == 1 and returns:
                return threading.Lock()
            if t == 1:
                error = ValueError("holds a lock")
                error.lock = threading.Lock()
                raise error
            return t

        seen = []
        cpus(2)
        with pytest.raises(TypeError, match=r"^cannot pickle '_thread\.lock' object$"):
            in_workers(task, range(4), str, done=lambda i, result: seen.append(i))
        assert seen == [0]

    def test_worker_exiting_while_it_sends_its_result_is_named(self, cpus):
        forked = cpus(2)
        with pytest.raises(WorkerExited, match=r"^task 1 did not finish"):
            in_workers(lambda t: _ExitsWhenPickled() if t == 1 else t, range(4),
                       lambda t: f"task {t}")
        assert len(forked) == 2

    def test_worker_gone_when_handed_a_task_is_named(self, monkeypatch, cpus):
        # a worker that exits after a reply breaks the pipe its next task
        # index goes down; whichever worker task 2 goes to, it is named
        class Broken:
            def __init__(self, pipe):
                self.pipe = pipe

            def send(self, i):
                if i == 2:
                    raise BrokenPipeError(32, "Broken pipe")
                self.pipe.send(i)

            def __getattr__(self, name):
                return getattr(self.pipe, name)

        pipe = multiprocessing.connection.Pipe

        def breaking():
            here, there = pipe()
            return Broken(here), there

        monkeypatch.setattr(multiprocessing.connection, "Pipe", breaking)
        cpus(2)
        with pytest.raises(WorkerExited, match=r"^task 2 did not finish"):
            in_workers(lambda t: t, range(4), lambda t: f"task {t}")

    @pytest.mark.parametrize("error", [KeyboardInterrupt, ValueError])
    def test_raising_here_stops_a_worker_still_running(self, cpus, error):
        # task 1 would run for a minute; the fixture checks it was reaped
        def task(t):
            if t == 1:
                time.sleep(60)
            return t

        def done(i, result):
            raise error

        cpus(2)
        start = time.monotonic()
        with pytest.raises(error):
            in_workers(task, range(3), str, done=done)
        assert time.monotonic() - start < 30


def chains_config(n_chains, **kwargs):
    return SamplerConfig(n_iterations=12, burn_in=2, thin_interval=2, seed=6, n_chains=n_chains,
                         keep_innovations=True, **kwargs)


class TestMemory:
    def test_workers_lowered_to_those_that_fit(self, monkeypatch, cpus):
        panel = small_panel()
        config = chains_config(3)
        kernel = InnovationKernel(panel.counts)
        draws = run_chain(panel, config)
        draw_bytes = sum(v.nbytes for v in vars(draws).values() if isinstance(v, np.ndarray))
        worker = kernel.chain_bytes + 2 * draw_bytes
        for memory, workers in [(kernel.held_bytes + 3 * worker, 3),
                                (kernel.held_bytes + 3 * worker - 1, 2),
                                (kernel.held_bytes + 2 * worker, 2)]:
            monkeypatch.setattr(model, "physical_memory", lambda: memory)
            forked = cpus(4)
            assert len(run_chains(panel, config)) == 3
            assert len(forked) == workers
        # one worker runs the chains here; a panel whose kernel and draws,
        # held twice, fit alone still fits
        for memory in (kernel.held_bytes + 2 * worker - 1, kernel.held_bytes + 6 * draw_bytes):
            monkeypatch.setattr(model, "physical_memory", lambda: memory)
            forked = cpus(4)
            assert len(run_chains(panel, config)) == 3
            assert forked == []
        monkeypatch.setattr(model, "physical_memory", lambda: kernel.held_bytes - 1)
        with pytest.raises(ConfigurationError, match="would need"):
            run_chains(panel, config)

    def test_kept_draws_beyond_memory_refused_before_any_sweep(self, monkeypatch, cpus):
        # the kernel fits, but not the draws of 3 chains held twice: by the
        # chains and by their concatenation
        panel = small_panel()
        config = chains_config(3)
        kernel = InnovationKernel(panel.counts)
        draws = run_chain(panel, config)
        draw_bytes = sum(v.nbytes for v in vars(draws).values() if isinstance(v, np.ndarray))
        sweeps = []
        sweep = sampler.sweep
        monkeypatch.setattr(sampler, "sweep", lambda *args: sweeps.append(1) or sweep(*args))
        forked = cpus(2)
        monkeypatch.setattr(model, "physical_memory",
                            lambda: kernel.held_bytes + 6 * draw_bytes - 1)
        with pytest.raises(ConfigurationError,
                           match=r"^the 15 draws the chains keep would need .*; lower "
                                 r"--iterations, raise --thin or leave out "
                                 r"--include-innovations$"):
            run_chains(panel, config)
        assert sweeps == [] and forked == []

    def test_study_draws_beyond_memory_refused_before_any_replicate(self, monkeypatch,
                                                                     tmp_path, capsys):
        # a desk replicate keeps one chain's draws of a 40-series panel
        config = SamplerConfig(n_iterations=30, burn_in=10, thin_interval=1)
        panel = simulate_scenario(replace(scenario_by_name("hard-0.1"), L=harness.DESK_L),
                                  sampler.stream(0, 0))[0]
        draws = run_chain(panel, config)
        draw_bytes = sum(v.nbytes for v in vars(draws).values() if isinstance(v, np.ndarray))
        simulated, pools = [], []
        simulate = harness.simulate_scenario
        monkeypatch.setattr(harness, "simulate_scenario",
                            lambda *args: simulated.append(args) or simulate(*args))

        def pool(fn, tasks, describe, **kwargs):
            pools.append(kwargs["per_worker"])
            raise _Refused

        monkeypatch.setattr(poinar.workers, "in_workers", pool)
        monkeypatch.setattr(model, "physical_memory", lambda: draw_bytes - 1)
        with pytest.raises(ConfigurationError,
                           match=r"^the 20 draws a replicate keeps would need .*; lower "
                                 r"--iterations or raise --thin$"):
            run_study([scenario_by_name("hard-0.1")], config, n_replicates=2)
        assert simulated == [] and pools == []
        # the command line's usage error: exit 2, nothing written
        out = tmp_path / "study"
        assert main(["study", "--scenarios", "hard-0.1", "--replicates", "1", "--iterations",
                     "30", "--burn-in", "10", "--thin", "1", "--out", str(out)]) == 2
        assert "--iterations" in capsys.readouterr().err
        assert not out.exists() and simulated == [] and pools == []
        # one replicate's draws fit, and size the pool's workers
        monkeypatch.setattr(model, "physical_memory", lambda: draw_bytes)
        with pytest.raises(_Refused):
            run_study([scenario_by_name("hard-0.1")], config, n_replicates=2)
        assert pools == [draw_bytes]

    def test_chain_bytes_exclude_only_what_workers_read(self):
        kernel = InnovationKernel(small_panel().counts)
        log_weights = poinar.kernel._GRID_BYTES * sum(b.logw0.size for b in kernel.buckets)
        assert 0 < kernel.chain_bytes <= kernel.held_bytes - log_weights


class TestWorkerFailure:
    def test_exited_chain_is_named(self, monkeypatch, cpus):
        def exiting(panel, config, rng=None, chain_index=0, kernel=None):
            if chain_index == 1:
                os._exit(3)
            return run_chain(panel, config, rng, chain_index, kernel)

        monkeypatch.setattr(sampler, "run_chain", exiting)
        forked = cpus(2)
        with pytest.raises(WorkerExited, match=r"^chain 1 did not finish"):
            run_chains(small_panel(), chains_config(3))
        assert len(forked) == 2

    def test_exited_replicate_is_named(self, monkeypatch, cpus):
        def exiting(seed, *key):
            if key == (0, 1, 0):
                os._exit(3)
            return sampler.stream(seed, *key)

        monkeypatch.setattr(harness, "stream", exiting)
        cpus(2)
        with pytest.raises(WorkerExited, match=r"^easy-0\.5 replicate 1/2 did not finish"):
            run_study([scenario_by_name("hard-0.1"), scenario_by_name("easy-0.5")],
                      sampler_config=SamplerConfig(n_iterations=6, burn_in=2, thin_interval=2),
                      n_replicates=2)

    @pytest.mark.parametrize("exits, code, message", [
        (True, 1, "chain 1 did not finish: its worker process exited"),
        (False, 2, "chain 1 is refused"),
    ])
    def test_fit_fails_and_removes_its_output(self, monkeypatch, cpus, tmp_path, capsys,
                                              exits, code, message):
        # a package error keeps its type and exit code across the fork
        def failing(panel, config, rng=None, chain_index=0, kernel=None):
            if chain_index == 1 and exits:
                os._exit(3)
            if chain_index == 1:
                raise ConfigurationError("chain 1 is refused")
            return run_chain(panel, config, rng, chain_index, kernel)

        io.save_counts(small_panel(), tmp_path / "counts.csv")
        monkeypatch.setattr(sampler, "run_chain", failing)
        forked = cpus(2)
        out = tmp_path / "new" / "fit"
        assert main(["fit", "--counts", str(tmp_path / "counts.csv"), "--chains", "2",
                     "--iterations", "12", "--burn-in", "2", "--thin", "2",
                     "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "new").exists()
        assert len(forked) == 2

    def test_fit_names_the_chain_whose_worker_exits_while_returning(self, monkeypatch, cpus,
                                                                    tmp_path, capsys):
        # chain 1's worker exits while it pickles the chain's result; the
        # other two chains finish
        def exiting(panel, config, rng=None, chain_index=0, kernel=None):
            draws = run_chain(panel, config, rng, chain_index, kernel)
            return _ExitsWhenPickled() if chain_index == 1 else draws

        io.save_counts(small_panel(), tmp_path / "counts.csv")
        monkeypatch.setattr(sampler, "run_chain", exiting)
        forked = cpus(2)
        out = tmp_path / "new" / "fit"
        assert main(["fit", "--counts", str(tmp_path / "counts.csv"), "--chains", "3",
                     "--iterations", "12", "--burn-in", "2", "--thin", "2",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: chain 1 did not finish: its worker process exited")
        assert not (tmp_path / "new").exists()
        assert len(forked) == 2


def outputs(out) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def run_on(cpus, n_cpus, argv, out, capsys):
    """Output files but the manifest, and stdout, of ``argv`` run on
    ``n_cpus`` usable CPUs, and the number of processes it forked."""
    forked = cpus(n_cpus)
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 0
    files, stdout = outputs(out), capsys.readouterr().out
    shutil.rmtree(out)
    return files, stdout, len(forked)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("workers")
    panel = small_panel()
    io.save_counts(panel, root / "counts.csv")
    save_exposure(panel.series_ids, np.linspace(0.5, 2.0, panel.n_series),
                     root / "exposure.csv")
    return root


@pytest.mark.parametrize("mode", ["plain", "covariate"],
                         ids=["plain-exact-enumeration", "covariate-exact-enumeration"])
@pytest.mark.parametrize("chains", [1, 2, 3])
def test_fit_writes_the_same_bytes_on_one_and_two_workers(cpus, inputs, tmp_path, capsys,
                                                          chains, mode):
    argv = ["fit", "--counts", str(inputs / "counts.csv"), "--chains", str(chains),
            "--iterations", "16", "--burn-in", "4", "--thin", "2", "--seed", "3",
            "--include-innovations"]
    if mode == "covariate":
        argv += ["--exposure", str(inputs / "exposure.csv")]
    one = run_on(cpus, 1, argv, tmp_path / "fit", capsys)
    two = run_on(cpus, 2, argv, tmp_path / "fit", capsys)
    assert one[:2] == two[:2]
    assert set(one[0]) == {"draws.jsonl", "diagnostics.json"}
    assert (one[2], two[2]) == (0, min(chains, 2) if chains > 1 else 0)


def test_study_writes_and_prints_the_same_bytes_on_one_and_two_workers(cpus, tmp_path, capsys):
    argv = ["study", "--scale", "desk", "--scenarios", "hard-0.1,easy-0.5", "--replicates", "2",
            "--iterations", "20", "--burn-in", "4", "--thin", "4", "--seed", "7", "--verbose"]
    one = run_on(cpus, 1, argv, tmp_path / "study", capsys)
    two = run_on(cpus, 2, argv, tmp_path / "study", capsys)
    assert one[:2] == two[:2]
    assert set(one[0]) == {"study.csv", "study.json"}
    assert one[1].splitlines()[:4] == [
        "hard-0.1 replicate 1/2 done", "hard-0.1 replicate 2/2 done",
        "easy-0.5 replicate 1/2 done", "easy-0.5 replicate 2/2 done",
    ]
    assert (one[2], two[2]) == (0, 2)

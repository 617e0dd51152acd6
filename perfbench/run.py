"""Run one benchmark workload of the poinar CLI and print its metrics.

    python3 perfbench/run.py --workload fit-wide --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy. One process runs one workload:

1. set up the inputs from ``--seed`` three times (``setup_s`` is the median)
   and check the three setups wrote identical files;
2. run one warm-up op under the tracer, which gives the input properties
   and checks that tracing changes no output byte;
3. run ops in a closed loop, one at a time, until ``--seconds`` have passed,
   checking every op's outputs.

With ``--trace 0`` every op is untraced and the end-to-end metrics are
printed. With ``--trace 1`` untraced and traced ops alternate and the
per-layer metrics are printed, each the median over the traced ops. The
last line of standard output is one JSON object; the lines before it give
every metric by name and unit, the sample counts and the machine facts.
Spans and the full result go to ``.perfbench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from io import StringIO
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
MIN_COVERAGE = 0.95
# The host's speed drifts by 20 to 40 % over tens of seconds, for a plain
# Python loop as much as for poinar, so raw wall-time medians of 25-second
# runs spread by more than the bounds. Each timed region is therefore
# bracketed by two calibrations, and end-to-end times are reported at the
# reference speed at which one calibration takes this long.
REFERENCE_CALIBRATION_S = 0.020
# Pinned before numpy is imported: the benchmark measures one thread.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

COMMANDS = ("fit", "study", "forecast", "evaluate")

PER_LAYER = [
    ("sampler.innovations.self_s", "s"),
    ("sampler.innovations.calls", "count"),
    ("sampler.innovations.support_cells", "count"),
    ("sampler.innovations.support_fill", "ratio"),
    ("sampler.innovations.ns_per_support_cell", "ns"),
    ("sampler.memberships.self_s", "s"),
    ("sampler.memberships.series_visits", "count"),
    ("sampler.memberships.mean_clusters", "count"),
    ("sampler.memberships.us_per_visit", "us"),
    ("sampler.suffstats.self_s", "s"),
    ("sampler.rates.self_s", "s"),
    ("sampler.seasonals.self_s", "s"),
    ("sampler.thinnings.self_s", "s"),
    ("sampler.concentration.self_s", "s"),
    ("sampler.run_chain.self_s", "s"),
    ("sampler.sweeps", "count"),
    ("sampler.ms_per_sweep", "ms"),
    ("sampler.mean_k", "count"),
    ("forecast.predictive_pmf.self_s", "s"),
    ("forecast.predictive_pmf.calls", "count"),
    ("forecast.predictive_pmf.us_per_call", "us"),
    ("forecast.posterior_predictive.self_s", "s"),
    ("forecast.posterior_predictive.calls", "count"),
    ("forecast.h_step.self_s", "s"),
    ("forecast.h_step.calls", "count"),
    ("forecast.quantile.self_s", "s"),
    ("diagnostics.representative_assignment.self_s", "s"),
    ("diagnostics.hamming_error.self_s", "s"),
    ("diagnostics.hamming_error.calls", "count"),
    ("diagnostics.psrf.self_s", "s"),
    ("diagnostics.forecast_metrics.self_s", "s"),
    ("diagnostics.distinct_partition_share", "ratio"),
    ("baselines.cls_fit.self_s", "s"),
    ("baselines.cls_fit.calls", "count"),
    ("baselines.cls_fit.iterations", "count"),
    ("baselines.cls_fit.converged_share", "ratio"),
    ("model.simulate_panel.self_s", "s"),
    ("harness.simulate_scenario.self_s", "s"),
    ("harness.posterior_mean_forecasts.self_s", "s"),
    ("harness.rolling_one_step_evaluation.self_s", "s"),
    ("harness.run_study.self_s", "s"),
    ("io.load_counts.self_s", "s"),
    ("io.save_draws.self_s", "s"),
    ("io.load_draws.self_s", "s"),
    ("io.write_manifest.self_s", "s"),
    ("io.draws_bytes", "bytes"),
    ("cli.command.self_s", "s"),
    ("cli.write_csv.self_s", "s"),
    *((f"op.{c}_s", "s") for c in COMMANDS),
    ("host.calibration_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.self_coverage", "ratio"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke test")
    return parser.parse_args(argv)


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {name: os.environ[name] for name in THREAD_ENV},
    }


def calibration_s(x) -> float:
    """Wall time of a fixed mix of interpreter and numpy work on the array
    ``x`` that never calls poinar."""
    import numpy

    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    for _ in range(20):
        numpy.exp(x).cumsum()
    return time.perf_counter() - start


def snapshot(directory: Path) -> dict[str, bytes]:
    """Every file under ``directory`` except run manifests, which record the
    output path."""
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def diff_files(a: dict, b: dict) -> list[str]:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


class Runner:
    """Runs one workload's ops and collects their times, spans and problems."""

    def __init__(self, workload, cli, work: Path):
        import numpy

        self.workload = workload
        self.calibration_array = numpy.linspace(0.0, 1.0, 100_000)
        self.calibrations: list[float] = []
        self.cli = cli  # poinar.cli, so a traced op calls the wrapped main
        self.work = work
        self.out = work / "op"
        self.reference = None  # outputs of the warm-up op
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def calibrate(self) -> float:
        seconds = calibration_s(self.calibration_array)
        self.calibrations.append(seconds)
        return seconds

    @staticmethod
    def at_reference(wall: float, before: float, after: float) -> float:
        """``wall`` scaled to the reference speed, judged by the
        calibrations just before and after it."""
        return wall * 2.0 * REFERENCE_CALIBRATION_S / (before + after)

    def setup(self) -> list[dict]:
        """Set up SETUP_REPEATS times; each record holds the wall time and
        the time at reference speed."""
        times, files = [], []
        for i in range(SETUP_REPEATS):
            directory = self.work / f"setup{i}"
            directory.mkdir(parents=True)
            gc.collect()
            before = self.calibrate()
            start = time.perf_counter()
            with redirect_stdout(StringIO()):
                self.workload.setup(directory)
            wall = time.perf_counter() - start
            after = self.calibrate()
            times.append({"wall": wall, "ref": self.at_reference(wall, before, after)})
            files.append(snapshot(directory))
        for other in files[1:]:
            if diff_files(files[0], other):
                self.problems.append(
                    f"setup is not reproducible: {diff_files(files[0], other)}")
        return times

    def op(self, tracer=None) -> dict | None:
        """Run one op. Returns its per-call wall times, their sum and that
        sum at reference speed, or None when the op failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.attempted += 1
        times = {}
        gc.collect()
        if tracer is not None:
            tracer.begin_op(self.attempted)
        before = self.calibrate()
        command = "op"
        try:
            with tracer.installed() if tracer is not None else nullcontext():
                for command, argv in self.workload.calls(self.out):
                    start = time.perf_counter()
                    with redirect_stdout(StringIO()):
                        code = self.cli.main(argv)
                    times[command] = time.perf_counter() - start
                    if code != 0:
                        return self._fail(f"poinar {command} exited with {code}")
        except Exception:
            traceback.print_exc()
            return self._fail(f"poinar {command} raised")
        after = self.calibrate()
        wall = sum(times.values())
        record = {"calls": times, "wall": wall, "ref": self.at_reference(wall, before, after)}
        try:
            problems = self.workload.check(self.out)
        except Exception as exc:
            traceback.print_exc()
            problems = [f"output check raised {exc!r}"]
        outputs = snapshot(self.out)
        if self.reference is None:
            self.reference = outputs
        elif diff_files(self.reference, outputs):
            problems.append(f"outputs differ from the warm-up op's: "
                            f"{diff_files(self.reference, outputs)}")
        if problems:
            return self._fail("; ".join(problems[:5]))
        return record

    def _fail(self, message: str):
        self.failed += 1
        self.problems.append(f"op {self.attempted}: {message}")
        print(f"perfbench: op {self.attempted} failed: {message}", file=sys.stderr)
        return None


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(summary: dict, props: dict) -> dict:
    """Per-layer metrics of one traced op from its span summary."""
    def get(name, key="self_s"):
        return summary.get(name, {}).get(key, 0)

    def per(numerator, denominator, scale=1.0):
        return numerator * scale / denominator if denominator else 0.0

    m = {}
    inn = "sampler.innovations"
    m[f"{inn}.self_s"] = get(inn)
    m[f"{inn}.calls"] = get(inn, "calls")
    m[f"{inn}.support_cells"] = get(inn, "cells")
    m[f"{inn}.support_fill"] = props["support_fill"]
    m[f"{inn}.ns_per_support_cell"] = per(get(inn), get(inn, "cells"), 1e9)
    mem = "sampler.memberships"
    m[f"{mem}.self_s"] = get(mem)
    m[f"{mem}.series_visits"] = get(mem, "visits")
    m[f"{mem}.mean_clusters"] = per(get(mem, "clusters"), get(mem, "calls"))
    m[f"{mem}.us_per_visit"] = per(get(mem), get(mem, "visits"), 1e6)
    steps = ("suffstats", "rates", "seasonals", "thinnings", "concentration", "run_chain")
    for step in steps:
        m[f"sampler.{step}.self_s"] = get(f"sampler.{step}")
    # every sampler span runs inside run_chain, so their self times add up
    # to the chains' wall time
    chain_s = sum(get(n) for n in (inn, mem, *(f"sampler.{s}" for s in steps)))
    m["sampler.sweeps"] = get(inn, "calls")
    m["sampler.ms_per_sweep"] = per(chain_s, get(inn, "calls"), 1e3)
    m["sampler.mean_k"] = props["mean_k"]
    pmf = "forecast.predictive_pmf"
    m[f"{pmf}.self_s"] = get(pmf)
    m[f"{pmf}.calls"] = get(pmf, "calls")
    m[f"{pmf}.us_per_call"] = per(get(pmf), get(pmf, "calls"), 1e6)
    for name in ("forecast.posterior_predictive", "forecast.h_step"):
        m[f"{name}.self_s"] = get(name)
        m[f"{name}.calls"] = get(name, "calls")
    m["forecast.quantile.self_s"] = get("forecast.quantile")
    for name in ("representative_assignment", "hamming_error", "psrf", "forecast_metrics"):
        m[f"diagnostics.{name}.self_s"] = get(f"diagnostics.{name}")
    m["diagnostics.hamming_error.calls"] = get("diagnostics.hamming_error", "calls")
    m["diagnostics.distinct_partition_share"] = props["distinct_partition_share"]
    cls = "baselines.cls_fit"
    m[f"{cls}.self_s"] = get(cls)
    m[f"{cls}.calls"] = get(cls, "calls")
    m[f"{cls}.iterations"] = get(cls, "iterations")
    m[f"{cls}.converged_share"] = per(get(cls, "converged"), get(cls, "calls"))
    for name in ("model.simulate_panel", "harness.simulate_scenario",
                 "harness.posterior_mean_forecasts", "harness.rolling_one_step_evaluation",
                 "harness.run_study", "io.load_counts", "io.save_draws", "io.load_draws",
                 "io.write_manifest", "cli.command", "cli.write_csv"):
        m[f"{name}.self_s"] = get(name)
    m["io.draws_bytes"] = get("io.save_draws", "bytes") + get("io.load_draws", "bytes")
    return m


def run(args, workload, cli, tracer_mod, work: Path) -> dict:
    from workloads import input_properties

    runner = Runner(workload, cli, work)
    setups = runner.setup()

    # Warm-up: traced, so it yields the input properties and shows that the
    # traced outputs are the reference every untraced op must reproduce.
    warm = tracer_mod.Tracer()
    warm_op = runner.op(warm)
    if warm.missing:
        print(f"perfbench: trace targets not found: {warm.missing}", file=sys.stderr)
    chains = warm.chains if workload.samples_in_op else workload.setup_chains()
    props = input_properties(chains)
    if warm_op is not None:
        _, covered = tracer_mod.summarize(warm.spans)
        if covered < MIN_COVERAGE * warm_op["wall"]:
            runner.problems.append(
                f"warm-up spans cover {covered:.3f} s of {warm_op['wall']:.3f} s")

    untraced, traced, summaries, spans = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    warm_ops = runner.attempted
    while time.perf_counter() < deadline or runner.attempted == warm_ops:
        op = runner.op()
        if op is not None:
            untraced.append(op)
        if args.trace:
            tracer = tracer_mod.Tracer()
            op = runner.op(tracer)
            if op is not None:
                traced.append(op)
                summary, covered = tracer_mod.summarize(tracer.spans)
                summaries.append((summary, covered / op["wall"]))
                spans.extend(tracer.spans)
    leftovers = tracer_mod.leftover_wrappers()
    if leftovers:
        runner.problems.append(f"tracer wrappers left installed: {leftovers}")

    per_command = {c: [op["calls"][c] for op in untraced if c in op["calls"]] for c in COMMANDS}
    op_ref = median([op["ref"] for op in untraced])
    if args.trace:
        if not traced:
            runner.problems.append("no traced op succeeded")
        low = [c for _, c in summaries if c < MIN_COVERAGE]
        if low:
            runner.problems.append(f"span self times cover only {min(low):.3f} of an op")
        per_op = [layer_metrics(s, props) for s, _ in summaries]
        metrics = {name: median([m[name] for m in per_op]) for name in per_op[0]} if per_op else {}
        for c in COMMANDS:
            metrics[f"op.{c}_s"] = median(per_command[c])
        metrics["host.calibration_ms"] = median(runner.calibrations) * 1e3
        traced_ref = median([op["ref"] for op in traced])
        metrics["trace.overhead"] = traced_ref / op_ref - 1.0 if op_ref else 0.0
        metrics["trace.self_coverage"] = min((c for _, c in summaries), default=0.0)
        units = dict(PER_LAYER)
        with (WORK / f"spans-{workload.name}.jsonl").open("w") as fh:
            for span in spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
    else:
        metrics = {
            "op_s": op_ref,
            "setup_s": median([s["ref"] for s in setups]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)

    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_facts(),
        "inputs": props,
        "setups": setups,
        "ops": {"untraced": untraced, "traced": traced},
        "per_command_median_s": {c: median(v) for c, v in per_command.items() if v},
        "wall_median_s": {"op": median([op["wall"] for op in untraced]),
                          "setup": median([s["wall"] for s in setups])},
        "calibration_median_s": median(runner.calibrations),
        "problems": runner.problems,
        "result": {
            "correct": not runner.problems,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                        for name, unit in units.items()},
        },
    }


def report(doc: dict):
    result = doc["result"]
    ops = doc["ops"]
    print(f"perfbench {doc['workload']} seed={doc['seed']} trace={doc['trace']}")
    print(f"machine: {json.dumps(doc['machine'], sort_keys=True)}")
    print(f"inputs: {json.dumps(doc['inputs'], sort_keys=True)}")
    n_ops = len(ops["untraced"])
    for command, value in doc["per_command_median_s"].items():
        print(f"{command}_s: median wall {value:.6f} s over {n_ops} untraced ops")
    for name, value in doc["wall_median_s"].items():
        print(f"{name}_wall_s: median wall {value:.6f} s")
    print(f"calibration: median {doc['calibration_median_s'] * 1e3:.3f} ms; end-to-end "
          f"times are at the speed where it takes {REFERENCE_CALIBRATION_S * 1e3:g} ms")
    print(f"error_rate: {result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} ops failed, warm-up included)")
    for problem in doc["problems"][:10]:
        print(f"problem: {problem}")
    if len(doc["problems"]) > 10:
        print(f"problem: ... and {len(doc['problems']) - 10} more")
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "poinar" / "__init__.py").is_file():
        print(f"perfbench: no poinar package under {src}", file=sys.stderr)
        return 2
    for name in THREAD_ENV:
        os.environ[name] = "1"
    sys.path[:0] = [str(src), str(HERE)]

    import poinar
    import poinar.cli

    import tracer
    from workloads import WORKLOADS

    if Path(poinar.__file__).resolve().parent != (src / "poinar").resolve():
        print(f"perfbench: imported poinar from {poinar.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, args.toy)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        doc = run(args, workload, poinar.cli, tracer, work)
    except Exception:
        traceback.print_exc()
        print("perfbench: the workload could not be set up or run", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with (WORK / f"result-{args.workload}-trace{args.trace}.json").open("w") as fh:
        json.dump(doc, fh, indent=1)
    report(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())

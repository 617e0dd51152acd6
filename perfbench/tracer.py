"""Span tracer that times calls into poinar's modules from outside the package.

Installing a ``Tracer`` rebinds every module-level reference to a target
function, in every ``poinar`` module, to a wrapper that records one span per
call: name, start, end, parent span and op id. ``InnovationKernel.__call__``
and ``SuffStats.from_state`` are wrapped on their classes. Uninstalling puts
the original objects back. No file of the package is edited, so a traced op
runs the same statements, and draws the same random numbers, as an untraced
one; only the wrappers' own clock reads are added.

A span's self time is its duration minus the durations of its child spans.
Spans of one op share an op id; the first span recorded by an op has no
parent inside the package and is the op's root.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

_MARK = "__perfbench_span__"

# (span name, module, function): every reference to the function bound at
# module level anywhere in the package is rebound.
FUNCTIONS = [
    ("sampler.run_chain", "sampler", "run_chain"),
    ("sampler.memberships", "sampler", "sample_memberships"),
    ("sampler.rates", "sampler", "sample_unique_rates"),
    ("sampler.seasonals", "sampler", "sample_seasonals"),
    ("sampler.thinnings", "sampler", "sample_thinnings"),
    ("sampler.concentration", "sampler", "sample_concentration"),
    ("forecast.predictive_pmf", "forecast", "predictive_pmf"),
    ("forecast.posterior_predictive", "forecast", "posterior_predictive"),
    ("forecast.h_step", "forecast", "conditional_mean_h_step"),
    ("forecast.quantile", "forecast", "quantile"),
    ("diagnostics.representative_assignment", "diagnostics", "representative_assignment"),
    ("diagnostics.hamming_error", "diagnostics", "hamming_error"),
    ("diagnostics.psrf", "diagnostics", "psrf"),
    ("diagnostics.forecast_metrics", "diagnostics", "forecast_metrics"),
    ("baselines.cls_fit", "baselines", "cls_fit"),
    ("model.simulate_panel", "model", "simulate_panel"),
    ("harness.simulate_scenario", "harness", "simulate_scenario"),
    ("harness.posterior_mean_forecasts", "harness", "posterior_mean_forecasts"),
    ("harness.rolling_one_step_evaluation", "harness", "rolling_one_step_evaluation"),
    ("harness.run_study", "harness", "run_study"),
    ("io.load_counts", "io", "load_counts"),
    ("io.save_draws", "io", "save_draws"),
    ("io.load_draws", "io", "load_draws"),
    ("io.write_manifest", "io", "write_manifest"),
    ("cli.command", "cli", "main"),
    ("cli.command", "cli", "cmd_fit"),
    ("cli.command", "cli", "cmd_forecast"),
    ("cli.command", "cli", "cmd_evaluate"),
    ("cli.command", "cli", "cmd_study"),
    ("cli.write_csv", "cli", "_write_csv"),
]

# (span name, module, class, attribute): wrapped on the class itself.
METHODS = [
    ("sampler.innovations", "sampler", "InnovationKernel", "__call__"),
    ("sampler.suffstats", "sampler", "SuffStats", "from_state"),
]


def support_cells(counts: np.ndarray) -> tuple[int, int]:
    """(useful, padded) innovation support cells of one sweep over a panel.

    A transition cell with ``w = min(y_prev, y_curr) > 0`` has ``w + 1``
    feasible innovation values; the padded grid gives every such cell as
    many columns as the widest one in the panel.
    """
    width = np.minimum(counts[:, 1:], counts[:, :-1])
    active = width[width > 0]
    if active.size == 0:
        return 0, 0
    return int((active + 1).sum()), int(active.size * (int(active.max()) + 1))


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name: str, parent: int, op: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.info = None

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "info": self.info}


# Hooks read counts off a call's arguments and result. ``before`` hooks run
# outside the span; ``after`` hooks return the span's info dict.

def _before_run_chain(tracer, args, kwargs):
    panel = args[0] if args else kwargs["panel"]
    tracer.panel_support = support_cells(panel.counts)


def _after_run_chain(tracer, args, kwargs, result):
    panel = args[0] if args else kwargs["panel"]
    tracer.chains.append((panel.counts, [s.z.copy() for s in result.states]))
    return None


def _after_innovations(tracer, args, kwargs, result):
    useful, padded = tracer.panel_support or (0, 0)
    return {"cells": useful, "grid": padded}


def _after_memberships(tracer, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    order = kwargs.get("order", args[5] if len(args) > 5 else None)
    visits = state.z.shape[0] if order is None else len(order)
    return {"visits": visits, "clusters": state.n_clusters}


def _after_cls_fit(tracer, args, kwargs, result):
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _draws_bytes(path_index):
    def hook(tracer, args, kwargs, result):
        path = args[path_index] if len(args) > path_index else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return hook


BEFORE = {"sampler.run_chain": _before_run_chain}
AFTER = {
    "sampler.run_chain": _after_run_chain,
    "sampler.innovations": _after_innovations,
    "sampler.memberships": _after_memberships,
    "baselines.cls_fit": _after_cls_fit,
    "io.save_draws": _draws_bytes(1),
    "io.load_draws": _draws_bytes(0),
}


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "poinar" or name.startswith("poinar."))]


class Tracer:
    """Records spans while installed; see the module docstring.

    ``chains`` keeps each chain's panel counts and drawn memberships, so a
    workload can compute properties of its inputs from one traced op.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.chains: list = []
        self.op = -1
        self.panel_support = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        before, after = BEFORE.get(name), AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            stack, spans = tracer._stack, tracer.spans
            span = Span(name, stack[-1] if stack else -1, tracer.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if after is not None:
                span.info = after(tracer, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self):
        """Wrap every target the package still has; the names of targets it
        lacks are kept in ``missing``, and their metrics read 0."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        for modname in sorted({t[1] for t in FUNCTIONS + METHODS}):
            try:
                importlib.import_module(f"poinar.{modname}")
            except ModuleNotFoundError:
                pass
        modules = package_modules()
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules.get(f"poinar.{modname}"), attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules.get(f"poinar.{modname}"), clsname, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                self.missing.append(f"{modname}.{clsname}.{attr}")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def begin_op(self, op_id: int):
        """Start a fresh span list for op ``op_id``."""
        self.op = op_id
        self.spans = []
        self._stack = []


def leftover_wrappers() -> list[str]:
    """Names of package attributes that are still tracer wrappers."""
    found = []
    for module in package_modules():
        for key, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, raw in vars(value).items():
                    if hasattr(getattr(raw, "__func__", raw), _MARK):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return found


def summarize(spans: list[Span]) -> tuple[dict, float]:
    """Per span name: calls, self seconds and summed info counts; plus the
    summed self time of all spans, which equals the parentless spans' total
    duration."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    out: dict = {}
    covered = 0.0
    for i, span in enumerate(spans):
        self_s = span.end - span.start - child[i]
        covered += self_s
        entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        for key, value in (span.info or {}).items():
            entry[key] = entry.get(key, 0) + value
    return out, covered

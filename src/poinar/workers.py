"""Independent tasks, such as chains and study replicates, in forked
worker processes."""

from __future__ import annotations

import os
import signal
import threading

import numpy as np

from .model import copies_that_fit


class WorkerExited(RuntimeError):
    """Raised when a worker process exits before its task returns."""


# a task's state in the table a pool's workers share with the parent
_STARTED, _DONE, _STOPPED = 1, 2, 3

# set in worker processes only: the (task function, tasks, state table)
# a worker inherited, and the index of the task it runs
_job = None
_running = None


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def in_workers(fn, tasks, describe, *, held: float = 0, per_worker: float = 0,
               done=None) -> list:
    """``[fn(t) for t in tasks]``, in task order, computed in forked worker
    processes on the usable CPUs.

    The pool takes one worker per usable CPU, at most one per task, and no
    more than fit in physical memory beside ``held`` bytes when each writes
    ``per_worker`` bytes of its own. With one worker, where the platform
    cannot fork, while another Python thread runs (a fork copies only
    the calling thread, so a lock another one holds stays held in the
    worker), or while a function a chain calls is wrapped in place
    (``_wrapped_in_place``), the tasks run here instead, one after another.
    Workers inherit ``fn`` and ``tasks`` through the fork, so only task
    indices and results are pickled. ``fn`` must draw only from random
    streams of its own, so that every result is the serial run's.
    ``done(i, result)``, if given, runs here as each result arrives, in
    task order.

    An exception ``fn`` raises reaches the caller with its type, from the
    first failing task in task order, as in the serial run. A worker that
    exits before its task returns raises ``WorkerExited``, naming the task
    by ``describe(task)``. No worker outlives the call.
    """
    tasks = list(tasks)
    results = []

    def collect(result):
        results.append(result)
        if done is not None:
            done(len(results) - 1, result)

    workers = copies_that_fit(held, per_worker, min(len(tasks), _usable_cpus()))
    if (workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1
            or _wrapped_in_place()):
        for task in tasks:
            collect(fn(task))
        return results

    import mmap
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # anonymous shared memory, which the workers inherit
    states = np.frombuffer(mmap.mmap(-1, len(tasks)), dtype=np.uint8)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(fn, tasks, states)) as pool:
        futures = [pool.submit(_run_task, i) for i in range(len(tasks))]
        try:
            for future in futures:
                collect(future.result())
        except BrokenProcessPool as exc:
            pool.shutdown()  # the workers are gone, so each state is final
            # the pool stops the other workers; their tasks read _STOPPED
            lost = np.flatnonzero(states == _STARTED)
            if not lost.size:
                lost = np.flatnonzero(states != _DONE)
            names = ", ".join(describe(tasks[i]) for i in lost.tolist())
            raise WorkerExited(f"{names or 'a task'} did not finish: its worker process "
                               "exited before returning") from exc
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return results


def _wrapped_in_place() -> bool:
    """Whether a function bound in ``sampler``, ``kernel`` or
    ``memberships``, the namespaces a chain calls through, or a method of a
    class one of them defines, has been rebound to a wrapper that calls it,
    as a tracer or profiler does: what such a wrapper records in a worker
    would stay there.

    A wrapper carries the function it wraps as ``__wrapped__``, as
    ``functools.wraps`` sets it. So does the ``__repr__`` a dataclass
    generates, through ``reprlib.recursive_repr``, but what it wraps was
    compiled from a string, not read from a source file.
    """
    from . import kernel, memberships, sampler  # sampler imports this module

    found = []
    for module in (sampler, kernel, memberships):
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == module.__name__:
                # a classmethod's function is its __func__
                found += [getattr(attr, "__func__", attr) for attr in vars(value).values()]
            elif callable(value) and not isinstance(value, type):
                found.append(value)
    return any(hasattr(fn, "__wrapped__") and getattr(
                   getattr(fn.__wrapped__, "__code__", None), "co_filename", None) != "<string>"
               for fn in found)


def _adopt(fn, tasks, states):
    """Worker initializer: keep the job, and mark the running task
    ``_STOPPED`` when the pool terminates this worker."""
    global _job
    _job = (fn, tasks, states)
    signal.signal(signal.SIGTERM, _stopped)


def _stopped(signum, frame):
    states = _job[2]
    if _running is not None and states[_running] == _STARTED:
        states[_running] = _STOPPED
    os._exit(128 + signum)


def _run_task(i: int):
    global _running
    fn, tasks, states = _job
    _running = i
    states[i] = _STARTED
    try:
        return fn(tasks[i])
    finally:
        states[i] = _DONE
        _running = None

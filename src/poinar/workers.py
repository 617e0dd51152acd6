"""Independent tasks, such as chains and study replicates, in forked
worker processes."""

from __future__ import annotations

import os
import signal
import threading

from .model import copies_that_fit


class WorkerExited(RuntimeError):
    """Raised when a worker process exits before its task returns."""


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
    cannot fork, while another Python thread runs (a fork copies only the
    calling thread, so a lock another one holds stays held in the worker),
    or while a function a chain calls is wrapped in place
    (``_wrapped_in_place``), the tasks run here instead, one after another.
    Workers inherit ``fn`` and ``tasks`` through the fork, and each is sent
    one task index at a time, as it falls idle, down a pipe of its own.
    ``fn`` must draw only from random streams of its own, so that every
    result is the serial run's. ``done(i, result)``, if given, runs here as
    each result arrives, in task order.

    An exception ``fn`` raises, or the error pickling its result, reaches
    the caller with its type, from the first failing task in task order, as
    in the serial run. A worker that exits before its task returns, even
    while sending its result, raises ``WorkerExited``, naming that task by
    ``describe(task)``. No worker outlives the call.
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

    from multiprocessing.connection import Pipe, wait
    # pipe -> pid; pipe -> task; task -> (failed, value), value None if its worker exited
    pids, carried, replies, pending = {}, {}, {}, iter(range(len(tasks)))

    def hand_out(pipe):  # the next task, or None to stop
        i = next(pending, None)
        try:
            pipe.send(i)
            if i is not None:
                carried[pipe] = i
        except OSError:  # the worker exited after its last reply
            if i is not None:
                replies[i] = (True, None)

    try:
        for _ in range(workers):
            pipe, end = Pipe()
            pid = os.fork()
            if not pid:
                _serve(fn, tasks, end, [pipe, *pids])
            end.close()
            pids[pipe] = pid
            hand_out(pipe)
        for i in range(len(tasks)):
            while i not in replies:
                for pipe in wait(list(carried)):
                    task = carried.pop(pipe)
                    try:
                        replies[task] = pipe.recv()
                        hand_out(pipe)
                    except (EOFError, OSError):  # the worker exited
                        replies[task] = (True, None)
            failed, value = replies.pop(i)
            if failed:
                raise value if value is not None else WorkerExited(
                    f"{describe(tasks[i])} did not finish: its worker process exited before "
                    "returning")
            collect(value)
    finally:
        for pipe, pid in pids.items():
            if pipe in carried:  # running a task nothing will collect
                os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
    return results


def _serve(fn, tasks, pipe, inherited):
    """A worker: reply to each task index ``pipe`` brings, until ``None``."""
    try:
        for other in inherited:  # the parent's ends of pipes the fork copied
            other.close()
        while (i := pipe.recv()) is not None:
            try:
                pipe.send((False, fn(tasks[i])))
            except Exception as exc:  # from fn, or from pickling its result
                try:
                    pipe.send((True, exc))
                except Exception as error:  # the exception does not pickle
                    pipe.send((True, error))
    finally:
        os._exit(0)


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

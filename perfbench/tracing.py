"""Per-layer tracing for the traced benchmark run.

Wraps the public entry points of each layer of ``repro`` from outside the
package: the wrappers are installed into the already-imported modules and
classes, record calls, inclusive time and self time (inclusive time minus
the time spent in other wrapped calls beneath it), and are removed again
with :meth:`LayerTracer.uninstall`.  Nothing under ``src/`` knows about
them.  Untraced timing runs call :func:`assert_untraced` first, so they
never measure a wrapped program.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import types
from collections import defaultdict

_MARK = "__perfbench_original__"


def _engine_run_pre(args):
    return args[0].events_processed


def _engine_run_post(acc, args, result, pre):
    acc["sim.events"] += args[0].events_processed - pre


def _service_pre(args):
    channel = args[0]
    return channel.transfers, channel.wait_cycles


def _service_post(acc, args, result, pre):
    channel = args[0]
    acc["dram.transfers"] += channel.transfers - pre[0]
    acc["dram.wait_cycles"] += channel.wait_cycles - pre[1]


def _parallel_for_post(acc, args, stats, pre):
    acc["runtime.chunks"] += len(stats.chunks)
    acc["runtime.steals"] += stats.steals
    acc["runtime.atomic_ops"] += stats.atomic_operations
    acc["runtime.sched_cycles"] += stats.sched_cycles


def _coloring_post(acc, args, run, pre):
    acc["kernels.coloring.rounds"] += run.rounds
    acc["kernels.coloring.conflicts"] += sum(run.conflicts_per_round)


def _bfs_post(acc, args, run, pre):
    acc["kernels.bfs.levels"] += run.n_levels


def _store_get_post(acc, args, value, pre):
    if value is not None:
        acc["store.hits"] += 1


#: (module, attribute path, span name, pre hook, post hook).  A span name
#: shared by two targets (a sharded store delegating to its shards) is
#: accounted once, at the outermost call.
TARGETS = [
    ("repro.sim.engine", "Engine.run", "sim.run",
     _engine_run_pre, _engine_run_post),
    ("repro.runtime.base", "LoopContext.__init__", "runtime.loop_setup",
     None, None),
    ("repro.runtime.base", "LoopContext.spawn_workers", "runtime.loop_setup",
     None, None),
    ("repro.runtime.base", "RuntimeSpec.parallel_for", "runtime.parallel_for",
     None, _parallel_for_post),
    ("repro.machine.core", "Chip.execute", "machine.execute", None, None),
    ("repro.sim.resources", "MemoryChannel.service", "dram.service",
     _service_pre, _service_post),
    ("repro.machine.costs", "WorkCosts.range_cost", "machine.range_cost",
     None, None),
    ("repro.machine.cache", "access_profile_cached", "machine.profile",
     None, None),
    ("repro.kernels.coloring.sequential", "greedy_coloring", "kernels.greedy",
     None, None),
    ("repro.kernels.base", "flat_gather", "kernels.gather", None, None),
    ("repro.kernels.coloring.parallel", "parallel_coloring",
     "kernels.coloring", None, _coloring_post),
    ("repro.kernels.bfs.layered", "simulate_bfs", "kernels.bfs",
     None, _bfs_post),
    ("repro.kernels.irregular", "simulate_irregular", "kernels.irregular",
     None, None),
    ("repro.graph.suite", "suite_graph", "graph.build", None, None),
    ("repro.experiments.harness", "ordered_suite_graph", "graph.build",
     None, None),
    ("repro.campaign.store", "ResultStore.get", "store.get",
     None, _store_get_post),
    ("repro.campaign.store", "ResultStore.put", "store.put", None, None),
    ("repro.serve.shards", "ShardedResultStore.get", "store.get",
     None, _store_get_post),
    ("repro.serve.shards", "ShardedResultStore.put", "store.put", None, None),
    ("repro.campaign.journal", "Journal.append", "journal.append",
     None, None),
    ("repro.campaign.runners", "run_cell", "campaign.cell", None, None),
    ("repro.serve.client", "submit_job", "serve.submit", None, None),
    ("repro.serve.client", "job_results", "serve.results", None, None),
]

#: The kernel entry points: ``harness.self_s`` is pass time outside them.
KERNEL_ENTRIES = ("kernels.coloring", "kernels.bfs", "kernels.irregular")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


def assert_untraced() -> None:
    """Raise unless every traced entry point is the original function and
    the program's own tracer, metrics registry and checker are off."""
    from repro.check.checker import active as check_active
    from repro.obs.metrics import active as metrics_active
    from repro.obs.tracer import active as tracer_active
    wrapped = [f"{module}.{path}" for module, path, *_ in TARGETS
               if hasattr(getattr(*_resolve(module, path)), _MARK)]
    if wrapped:
        raise RuntimeError(f"tracing wrappers installed: {wrapped}")
    if tracer_active() or metrics_active() or check_active():
        raise RuntimeError("repro.obs or repro.check instrumentation active")


class LayerTracer:
    """Installs the wrappers and accumulates per-span totals.

    Each thread keeps its own call stack and accumulator (the served
    workload calls the store from the event-loop thread and the kernels
    from the dispatch thread); :meth:`snapshot` merges them.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._accs: list[defaultdict] = []
        self._patched: list[tuple[object, str, object]] = []

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.acc = defaultdict(float)
            with self._lock:
                self._accs.append(local.acc)
        return local.stack, local.acc

    def wrap(self, fn, span: str, pre=None, post=None):
        """Return *fn* wrapped to account its calls under *span*."""
        state = self._thread_state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, acc = state()
            if stack and stack[-1][0] == span:
                return fn(*args, **kwargs)
            before = pre(args) if pre is not None else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                acc[span + ".calls"] += 1
                acc[span + ".total"] += elapsed
                acc[span + ".self"] += elapsed - frame[1]
            if post is not None:
                post(acc, args, result, before)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self) -> None:
        """Wrap every target, in its module and wherever it was imported."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module, path, span, pre, post in TARGETS:
            owner, name = _resolve(module, path)
            original = owner.__dict__[name]
            wrapper = self.wrap(original, span, pre, post)
            owners = [owner]
            if isinstance(owner, types.ModuleType):
                owners = [m for key, m in list(sys.modules.items())
                          if (key == "repro" or key.startswith("repro."))
                          and m is not None]
            for holder in owners:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        """Restore every original entry point."""
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    def snapshot(self) -> dict[str, float]:
        """Merged totals of every thread so far."""
        merged: defaultdict = defaultdict(float)
        with self._lock:
            for acc in self._accs:
                for key, value in list(acc.items()):
                    merged[key] += value
        return dict(merged)


def delta(after: dict, before: dict) -> defaultdict:
    """Per-key difference of two snapshots (missing keys count as 0)."""
    out: defaultdict = defaultdict(float)
    for key, value in after.items():
        out[key] = value - before.get(key, 0.0)
    return out

"""Byte-identity pins for the simulated core's instrumentation hooks.

One small fixed colouring kernel runs under each runtime family, once
with a seeded SMT hang plus thread kill and once tripping the event
watchdog.  Each cell runs under ``tracing()`` and, separately, under
``checking()``; the sha256 of the exported Chrome trace and of the
checker report's JSON are pinned.  A change to where or how the engine,
the resources or the runtimes emit hook events must leave every digest
unchanged; a deliberate change to the trace or report format must
update them and say why.
"""

import hashlib
import json

import pytest

from repro import check
from repro.graph import generators as gen
from repro.kernels.coloring.parallel import parallel_coloring
from repro.machine.config import KNF
from repro.obs.export import write_chrome_trace
from repro.obs.tracer import tracing
from repro.runtime.base import (Partitioner, ProgrammingModel, RuntimeSpec,
                                Schedule)
from repro.sim.engine import SimulationTimeout
from repro.sim.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec

CFG = KNF.with_(name="hook-digests", n_cores=4, smt_per_core=2)
THREADS = 6

_HANG_KILL = FaultPlan(seed=3, specs=(
    FaultSpec(FaultKind.SMT_HANG, target=1, start=2000.0, duration=5000.0),
    FaultSpec(FaultKind.THREAD_KILL, target=2, start=3000.0)))

#: cell -> (runtime spec, fault plan or None, REPRO_MAX_EVENTS or None)
CELLS = {
    "omp-static": (RuntimeSpec(ProgrammingModel.OPENMP,
                               schedule=Schedule.STATIC, chunk=8), None, None),
    "omp-dynamic": (RuntimeSpec(ProgrammingModel.OPENMP,
                                schedule=Schedule.DYNAMIC, chunk=8),
                    None, None),
    "cilk": (RuntimeSpec(ProgrammingModel.CILK, chunk=8), None, None),
    "tbb": (RuntimeSpec(ProgrammingModel.TBB,
                        partitioner=Partitioner.SIMPLE, chunk=8), None, None),
    "cilk-hang-kill": (RuntimeSpec(ProgrammingModel.CILK, chunk=8),
                       _HANG_KILL, None),
    "omp-dynamic-watchdog": (RuntimeSpec(ProgrammingModel.OPENMP,
                                         schedule=Schedule.DYNAMIC, chunk=8),
                             None, 40),
}

TRACE_SHA256 = {
    "cilk":
        "d1f188825b7569cb9364fc29727cab2574ed5974ebc9efb0c4e2ec7b41bdf0f4",
    "cilk-hang-kill":
        "6c6dad9450ff55610c6042b6e3fe6285b27cd1eb4561a273b022ccb48424114a",
    "omp-dynamic":
        "c7c8202a7d297dd4f55896e1d1043e4a805f8d281033f744408b0b58ccdc5cee",
    "omp-dynamic-watchdog":
        "a49e0dff7843b862a9ea748e02dd223905b8800d42d0d535877f36d4d18e4102",
    "omp-static":
        "4ef0a45120f8e5c32bffbfd530824fc7e3ca0f9a63fa2ccb8c472e6ba94eaea6",
    "tbb":
        "e4dd8e19ab79143afb8a91640376881b4f1bed49f9fae61bc2ec3afea2017a84",
}

REPORT_SHA256 = {
    "cilk":
        "a56a406614d5094e146337f3e2b364fc0c98d16afcf3796b57fb583da60835ca",
    "cilk-hang-kill":
        "c3ab4f235c228c2b06b1b88de9f4b537662d2268f4476aa277dd315fa9399ee4",
    "omp-dynamic":
        "4a6234c3b2876abe76b2cf6587fa72a7eb29f370a91b4f8561d7b698c0d9d81c",
    "omp-dynamic-watchdog":
        "72b61470de730cf988d99d3e3512dd5595109c3595086dfd41b9128cd2655079",
    "omp-static":
        "c8f7ff3ef77d67d795759879f24902026b22f6f5293d07f33e2271b0b864e921",
    "tbb":
        "ffd9e07ca106b1f9927147698642bcd846f4b9d0e74dea78363975a18b59771e",
}


def _run(cell, monkeypatch):
    spec, plan, max_events = CELLS[cell]
    for knob in ("REPRO_MAX_EVENTS", "REPRO_MAX_SIM_CYCLES",
                 "REPRO_COLOR_RACE_FRACTION"):
        monkeypatch.delenv(knob, raising=False)
    if max_events is not None:
        monkeypatch.setenv("REPRO_MAX_EVENTS", str(max_events))
    faults = FaultInjector(plan) if plan is not None else None
    graph = gen.erdos_renyi(120, 480, seed=7)
    if max_events is None:
        parallel_coloring(graph, THREADS, spec=spec, config=CFG, seed=1,
                          faults=faults)
    else:
        with pytest.raises(SimulationTimeout):
            parallel_coloring(graph, THREADS, spec=spec, config=CFG, seed=1,
                              faults=faults)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_trace_digest(cell, tmp_path, monkeypatch):
    with tracing() as tracer:
        _run(cell, monkeypatch)
    path = tmp_path / "trace.json"
    write_chrome_trace(tracer, path)
    assert _sha256(path.read_bytes()) == TRACE_SHA256[cell]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_report_digest(cell, monkeypatch):
    with check.checking() as checker:
        _run(cell, monkeypatch)
    report = checker.finalize().to_dict()
    text = json.dumps(report, sort_keys=True)
    assert _sha256(text.encode()) == REPORT_SHA256[cell]

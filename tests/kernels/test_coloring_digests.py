"""Byte-identity pins for the colouring kernels' semantics.

Each cell runs one colouring and hashes (sha256) everything it decides:
the colours, the colour count, the rounds, the conflicts found per round
and the simulated cycles.  The cells cover one and several threads under
every runtime family, a graph needing more than 64 colours (the replay's
and the re-fit's overflow paths), a shuffled vertex order, every
same-instant clash racing (``REPRO_COLOR_RACE_FRACTION=1.0``) and a
faulted run; plus the sequential First-Fit continuing a partial colouring
in a given order, and Jones-Plassmann.  A faster implementation of any of
these kernels must leave every digest unchanged.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.graph import generators as gen
from repro.graph.reorder import apply_ordering
from repro.kernels.coloring.jones_plassmann import (jones_plassmann_coloring,
                                                    simulate_jones_plassmann)
from repro.kernels.coloring.parallel import parallel_coloring
from repro.kernels.coloring.sequential import greedy_coloring
from repro.machine.config import KNF
from repro.runtime.base import (Partitioner, ProgrammingModel, RuntimeSpec,
                                Schedule, TlsMode)
from repro.sim.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec

CFG = KNF.with_(name="coloring-digests", n_cores=4, smt_per_core=2)

FAMILIES = {
    "omp-static": RuntimeSpec(ProgrammingModel.OPENMP,
                              schedule=Schedule.STATIC, chunk=5),
    "omp-dynamic": RuntimeSpec(ProgrammingModel.OPENMP,
                               schedule=Schedule.DYNAMIC, chunk=7),
    "cilk": RuntimeSpec(ProgrammingModel.CILK, tls_mode=TlsMode.HOLDER,
                        chunk=7),
    "tbb": RuntimeSpec(ProgrammingModel.TBB, partitioner=Partitioner.SIMPLE,
                       chunk=5),
}

_HANG_KILL = FaultPlan(seed=3, specs=(
    FaultSpec(FaultKind.SMT_HANG, target=1, start=2000.0, duration=5000.0),
    FaultSpec(FaultKind.THREAD_KILL, target=2, start=3000.0)))


def _mesh():
    return gen.tube_mesh(900, 45, 10, 1.0, 3, seed=6)


def _dense():
    """Nearly complete: First-Fit needs well over 64 colours."""
    return gen.erdos_renyi(120, 40_000, seed=4)


#: cell -> (graph factory, family, threads, race-fraction override, faults)
CELLS = {
    **{f"{fam}-t1": (_mesh, fam, 1, None, None) for fam in FAMILIES},
    **{f"{fam}-t8": (_mesh, fam, 8, None, None) for fam in FAMILIES},
    "dense-omp-dynamic-t8": (_dense, "omp-dynamic", 8, None, None),
    "dense-tbb-t8-race1": (_dense, "tbb", 8, "1.0", None),
    "shuffled-cilk-t8": (lambda: apply_ordering(_mesh(), "random", seed=5),
                         "cilk", 8, None, None),
    "race1-omp-static-t8": (_mesh, "omp-static", 8, "1.0", None),
    "faulted-cilk-t8": (_mesh, "cilk", 8, None, _HANG_KILL),
}

RUN_SHA256 = {
    "cilk-t1":
        "d5e35aa1b670ea9b05da52d04175426732ea4ecdaa8a1ebf8ed6a49b7c9ad9cf",
    "cilk-t8":
        "6e131fa34c91fb553bb816135b962e5f83f95b4f8ca748289027ac1a53bb7abe",
    "dense-omp-dynamic-t8":
        "34ea3a6252d543092594429125b8e74136a0b8d9fa924fe0cba33472b3c5b238",
    "dense-tbb-t8-race1":
        "3b1a17d6d8a1b887a851ca51a77df641827259a76db4c1f11303956e2c1dd705",
    "faulted-cilk-t8":
        "cfabf52f56759a1bf1d755b00a4f8056e9dc8b248d67ceb7f1b071c45ba67fbf",
    "omp-dynamic-t1":
        "15a95afa320609903a293892a1a7a4ddf6b0f31c833a321782652e842b42d383",
    "omp-dynamic-t8":
        "809e8f3d34b6fd94c3192c8a258ef29f34e42c306045cf3a141f6055f9098ffb",
    "omp-static-t1":
        "acdc606b6db82b5062357a4389932ce2a243cd296a674ac236a67f4ac0e84984",
    "omp-static-t8":
        "91ebe3fc5e5bddb1d8c4fe945426fb653b36eb3a188eeebbb53f22e996c7c977",
    "race1-omp-static-t8":
        "52926bde14c1b01dce2f87798fd48d29e042bf486f12b33d14dafee5753910b8",
    "shuffled-cilk-t8":
        "e588cd4132456fbe42ec739d4711f737255fd82f5f84dd9432ae059ea94bfe61",
    "tbb-t1":
        "86f7f2d2b2ded4965d8f33c0ca4fc6fb2ebdeb2157d8e30c1d3c50caf800e2ed",
    "tbb-t8":
        "582a429a4587da9ad6965559e865939acc12c4f3447852f5d520c1856987c7f8",
}

GREEDY_SHA256 = {
    "mesh":
        "3a8971e785523f73076449a527a122db2016867f733f82a187d0dbabadb5d42d",
    "dense":
        "601245619fbc82ca22aa495f0e89ba1480165b0dc2b479bc2a13cc97fd428dfc",
}

JP_SHA256 = {
    "mesh":
        "dfa6cb55ca0cddd2da82b067f69f0e4691fa5d25bb6485534ce34a7ae9f7bcfe",
    "dense":
        "6c74215bd6d46c69e5b432aae59d21bb655aa0445d9af76270ac7ae1922ffe8f",
}


def _digest(colors, **scalars) -> str:
    h = hashlib.sha256(np.ascontiguousarray(colors, dtype=np.int64).tobytes())
    h.update(json.dumps(scalars, sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_parallel_coloring_digest(cell, monkeypatch):
    make_graph, family, threads, race, plan = CELLS[cell]
    for knob in ("REPRO_MAX_EVENTS", "REPRO_MAX_SIM_CYCLES",
                 "REPRO_COLOR_RACE_FRACTION"):
        monkeypatch.delenv(knob, raising=False)
    if race is not None:
        monkeypatch.setenv("REPRO_COLOR_RACE_FRACTION", race)
    graph = make_graph()
    faults = FaultInjector(plan) if plan is not None else None
    run = parallel_coloring(graph, threads, FAMILIES[family], config=CFG,
                            cache_scale=0.05, seed=2, faults=faults)
    if make_graph is _dense:
        assert run.n_colors > 64
    assert _digest(run.colors, n_colors=run.n_colors, rounds=run.rounds,
                   conflicts=run.conflicts_per_round,
                   cycles=repr(float(run.total_cycles))) == RUN_SHA256[cell]


@pytest.mark.parametrize("name", sorted(GREEDY_SHA256))
def test_greedy_continuation_digest(name):
    """First-Fit over a shuffled half of the vertices, continuing a
    colouring of the other half."""
    graph = _mesh() if name == "mesh" else _dense()
    n = graph.n_vertices
    perm = np.random.default_rng(11).permutation(n)
    first, rest = np.sort(perm[: n // 2]), perm[n // 2:]
    _, colors = greedy_coloring(graph, order=first)
    n_colors, colors = greedy_coloring(graph, order=rest, colors=colors)
    assert _digest(colors, n_colors=n_colors) == GREEDY_SHA256[name]


@pytest.mark.parametrize("name", sorted(JP_SHA256))
def test_jones_plassmann_digest(name):
    graph = _mesh() if name == "mesh" else _dense()
    n_colors, colors, rounds = jones_plassmann_coloring(graph, seed=3)
    sim = simulate_jones_plassmann(graph, 8, config=CFG, cache_scale=0.05,
                                   seed=3)
    assert np.array_equal(sim.colors, colors)
    assert _digest(colors, n_colors=n_colors, rounds=rounds,
                   sim_rounds=sim.rounds,
                   cycles=repr(float(sim.total_cycles))) == JP_SHA256[name]

"""Jones–Plassmann parallel colouring (comparison baseline, extension).

The speculation-based algorithm the paper uses (Gebremedhin–Manne line)
is one of two classic parallel colouring families; the other is
Jones–Plassmann: give every vertex a random priority, and in each round
colour exactly the vertices whose priority beats all *uncoloured*
neighbours.  No conflicts ever occur — the price is more rounds
(O(log n / log log n) in expectation on bounded-degree graphs).

This module provides the real algorithm (round-synchronous, vectorised)
and a simulated-machine wrapper, so the repository can compare the two
families' round counts and simulated runtimes (an ablation the paper's
related-work section §III-A implies but does not run).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import rng_from_seed
from repro.graph.csr import CSRGraph
from repro.kernels.base import AccessSet, KernelRun, gather_neighbors
from repro.kernels.coloring.sequential import first_fit_mex

__all__ = ["jones_plassmann_coloring", "simulate_jones_plassmann",
           "JonesPlassmannRun"]


def jones_plassmann_coloring(graph: CSRGraph, seed=0, max_rounds: int = 10_000):
    """Round-synchronous Jones-Plassmann.

    Returns ``(n_colors, colors, rounds)``; the colouring is always
    proper (asserted by tests), colours are 1-based.
    """
    n = graph.n_vertices
    indptr, indices = graph.indptr, graph.indices
    colors = np.zeros(n, dtype=np.int64)
    if n == 0:
        return 0, colors, 0
    rng = rng_from_seed(seed)
    # random priorities with index tie-break (a permutation is simplest)
    priority = rng.permutation(n).astype(np.int64)

    uncolored = np.arange(n, dtype=np.int64)
    rounds = 0
    while uncolored.size and rounds < max_rounds:
        rounds += 1
        nbrs, seg = gather_neighbors(indptr, indices, uncolored)
        # a vertex is a local max if no *uncoloured* neighbour outranks it
        contested = colors[nbrs] == 0
        beat = contested & (priority[nbrs] > priority[uncolored[seg]])
        losers = np.zeros(len(uncolored), dtype=bool)
        if len(nbrs):
            np.logical_or.at(losers, seg, beat)
        winners = uncolored[~losers]
        # colour winners: smallest colour unused by (coloured) neighbours
        _first_fit(indptr, indices, colors, winners)
        uncolored = uncolored[losers]
    if uncolored.size:
        raise RuntimeError(f"did not converge in {max_rounds} rounds")
    return int(colors.max()), colors, rounds


def _first_fit(indptr, indices, colors, verts):
    """First-fit each vertex of *verts* (no two are adjacent)."""
    nbrs, _ = gather_neighbors(indptr, indices, verts)
    offsets = np.zeros(len(verts) + 1, dtype=np.int64)
    np.cumsum(indptr[verts + 1] - indptr[verts], out=offsets[1:])
    colors[verts] = first_fit_mex(colors[nbrs], offsets)


def _round_access(graph: CSRGraph, visit: np.ndarray) -> AccessSet:
    """Footprint of one JP round: item ``i`` may write
    ``colors[visit[i]]`` (if it wins) and reads its neighbours' colours
    and priorities.

    A loser's neighbour-colour read can overlap a winning neighbour's
    commit within the same region, but round-synchronous semantics make
    the commit visible only next round — the overlap is benign by
    construction (winners form an independent set, so first-fit reads
    never decide on a cell written this round).
    """

    def written(lo, hi):
        return visit[lo:hi]

    def read(lo, hi):
        return gather_neighbors(graph.indptr, graph.indices, visit[lo:hi])[0]

    return (AccessSet("jp-round")
            .writes("colors", written)
            .reads("colors", read)
            .benign_race("colors",
                         "round-synchronous JP: winner commits become "
                         "visible next round; winners are an independent "
                         "set so no first-fit decision depends on a "
                         "same-round write"))


@dataclass
class JonesPlassmannRun(KernelRun):
    """Result of one simulated Jones-Plassmann execution."""

    colors: np.ndarray = None
    n_colors: int = 0
    rounds: int = 0

    def __init__(self):
        KernelRun.__init__(self)
        self.colors = None
        self.n_colors = 0
        self.rounds = 0


def simulate_jones_plassmann(graph: CSRGraph, n_threads: int, spec=None,
                             config=None, cache_scale: float = 1.0,
                             seed: int = 0) -> JonesPlassmannRun:
    """Price the JP rounds on the simulated machine.

    Each round scans the remaining uncoloured vertices (priority compare
    per neighbour, then a first-fit for the winners) — charged through
    the same colouring cost model, one ``parallel_for`` per round.
    """
    from repro.machine.cache import access_profile_cached
    from repro.machine.config import KNF
    from repro.machine.costs import coloring_tentative_costs
    from repro.runtime.base import ProgrammingModel, RuntimeSpec

    config = config or KNF
    if spec is None:
        spec = RuntimeSpec(model=ProgrammingModel.OPENMP, chunk=16)
    run = JonesPlassmannRun()
    n = graph.n_vertices
    if n == 0:
        run.colors = np.zeros(0, dtype=np.int64)
        return run

    profile = access_profile_cached(graph, config, n_threads, 4, cache_scale)
    costs = coloring_tentative_costs(graph, profile)

    # replicate the algorithm round structure to know each round's visit set
    rng = rng_from_seed(seed)
    priority = rng.permutation(n).astype(np.int64)
    colors = np.zeros(n, dtype=np.int64)
    uncolored = np.arange(n, dtype=np.int64)
    while uncolored.size:
        st = spec.parallel_for(config, n_threads, costs.take(uncolored),
                               tls_entries=graph.max_degree + 1,
                               seed=seed + run.rounds,
                               access=_round_access(graph, uncolored))
        run.add_loop(st)
        nbrs, seg = gather_neighbors(graph.indptr, graph.indices, uncolored)
        beat = (colors[nbrs] == 0) & (priority[nbrs]
                                      > priority[uncolored[seg]])
        losers = np.zeros(len(uncolored), dtype=bool)
        if len(nbrs):
            np.logical_or.at(losers, seg, beat)
        _first_fit(graph.indptr, graph.indices, colors, uncolored[~losers])
        uncolored = uncolored[losers]
        run.rounds += 1
    run.colors = colors
    run.n_colors = int(colors.max()) if n else 0
    return run

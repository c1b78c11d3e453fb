"""Iterative parallel speculative colouring (Algorithms 2-4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, tube_mesh
from repro.kernels.coloring.parallel import parallel_coloring
from repro.kernels.coloring.sequential import greedy_coloring
from repro.kernels.coloring.verify import verify_coloring
from repro.runtime.base import (Partitioner, ProgrammingModel, RuntimeSpec,
                                Schedule, TlsMode)

SPECS = [
    RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.DYNAMIC, chunk=7),
    RuntimeSpec(ProgrammingModel.OPENMP, schedule=Schedule.STATIC, chunk=7),
    RuntimeSpec(ProgrammingModel.CILK, tls_mode=TlsMode.HOLDER, chunk=7),
    RuntimeSpec(ProgrammingModel.TBB, partitioner=Partitioner.SIMPLE, chunk=7),
]


@pytest.fixture(scope="module")
def mesh():
    return tube_mesh(900, 45, 10, 1.0, 3, seed=6)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
@pytest.mark.parametrize("n_threads", [1, 3, 8])
def test_always_produces_valid_coloring(mesh, spec, n_threads, tiny_machine):
    run = parallel_coloring(mesh, n_threads, spec, tiny_machine,
                            cache_scale=0.05, seed=2)
    assert verify_coloring(mesh, run.colors)
    assert run.n_colors == run.colors.max()
    assert run.conflicts_per_round[-1] == 0


class TestSemantics:
    def test_single_thread_matches_sequential(self, mesh, tiny_machine):
        n_seq, c_seq = greedy_coloring(mesh)
        for spec in SPECS:
            run = parallel_coloring(mesh, 1, spec, tiny_machine)
            assert run.n_colors == n_seq, spec.label
            assert np.array_equal(run.colors, c_seq), spec.label
            assert run.rounds == 1, spec.label
            assert run.conflicts_per_round == [0], spec.label

    def test_single_thread_runs_do_not_share_colors(self, mesh,
                                                    tiny_machine):
        """The one-thread colouring is memoised per graph; each run must
        still own its colour array."""
        first = parallel_coloring(mesh, 1, SPECS[0], tiny_machine)
        first.colors[:] = 0
        second = parallel_coloring(mesh, 1, SPECS[1], tiny_machine)
        assert np.array_equal(second.colors, greedy_coloring(mesh)[1])
        assert second.colors.flags.writeable

    def test_quality_within_paper_bound(self, mesh, tiny_machine):
        """§V-B: parallel colour counts within ~5% of sequential."""
        n_seq, _ = greedy_coloring(mesh)
        run = parallel_coloring(mesh, 8, SPECS[0], tiny_machine,
                                cache_scale=0.05, seed=1)
        assert run.n_colors <= int(np.ceil(1.25 * n_seq))

    def test_conflicts_grow_with_threads(self, tiny_machine):
        g = tube_mesh(1500, 50, 12, 1.0, 4, seed=9)
        r1 = parallel_coloring(g, 1, SPECS[0], tiny_machine, cache_scale=0.05)
        r8 = parallel_coloring(g, 8, SPECS[0], tiny_machine, cache_scale=0.05,
                               seed=3)
        assert sum(r1.conflicts_per_round) == 0
        assert sum(r8.conflicts_per_round) >= 0
        assert r8.rounds >= r1.rounds

    def test_total_cycles_positive_and_accumulated(self, mesh, tiny_machine):
        run = parallel_coloring(mesh, 4, SPECS[0], tiny_machine, seed=1)
        assert run.total_cycles == pytest.approx(
            sum(s.span for s in run.loop_stats))
        assert len(run.loop_stats) == 2 * run.rounds

    def test_deterministic(self, mesh, tiny_machine):
        a = parallel_coloring(mesh, 8, SPECS[0], tiny_machine, seed=4)
        b = parallel_coloring(mesh, 8, SPECS[0], tiny_machine, seed=4)
        assert a.total_cycles == b.total_cycles
        assert np.array_equal(a.colors, b.colors)

    def test_default_spec_is_openmp(self, mesh, tiny_machine):
        run = parallel_coloring(mesh, 2, None, tiny_machine)
        assert verify_coloring(mesh, run.colors)

    def test_empty_graph(self, tiny_machine):
        run = parallel_coloring(CSRGraph.from_edges(0, []), 2, SPECS[0],
                                tiny_machine)
        assert run.n_colors == 0
        assert run.total_cycles == 0.0

    def test_speedup_with_threads(self, mesh, tiny_machine):
        t1 = parallel_coloring(mesh, 1, SPECS[0], tiny_machine,
                               cache_scale=0.05).total_cycles
        t8 = parallel_coloring(mesh, 8, SPECS[0], tiny_machine,
                               cache_scale=0.05, seed=1).total_cycles
        assert t1 / t8 > 3.0


@given(st.integers(10, 60), st.integers(0, 250), st.integers(0, 10**6),
       st.sampled_from([1, 2, 5, 8]))
@settings(max_examples=25, deadline=None)
def test_property_valid_on_random_graphs(n, m, seed, threads):
    rng = np.random.default_rng(seed)
    g = CSRGraph.from_edges(n, rng.integers(0, n, size=(m, 2)))
    from repro.machine.config import KNF
    machine = KNF.with_(name="t", n_cores=4, smt_per_core=2)
    run = parallel_coloring(g, threads, SPECS[seed % len(SPECS)], machine,
                            cache_scale=0.05, seed=seed)
    assert verify_coloring(g, run.colors)

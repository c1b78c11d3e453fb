"""Sequential greedy colouring (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import chain, complete, erdos_renyi, grid2d, star
from repro.kernels.coloring.sequential import (first_fit_mex,
                                               greedy_coloring,
                                               greedy_coloring_stamp)
from repro.kernels.coloring.verify import verify_coloring


class TestGreedy:
    def test_chain_two_colors(self):
        n, colors = greedy_coloring(chain(10))
        assert n == 2
        assert verify_coloring(chain(10), colors)

    def test_complete_needs_n(self):
        g = complete(8)
        n, colors = greedy_coloring(g)
        assert n == 8
        assert verify_coloring(g, colors)

    def test_star_two_colors(self):
        n, _ = greedy_coloring(star(20))
        assert n == 2

    def test_bipartite_grid(self):
        g = grid2d(7, 7)
        n, colors = greedy_coloring(g)
        assert n == 2

    def test_at_most_delta_plus_one(self):
        """First Fit never exceeds Δ+1 colours (§III-A)."""
        g = erdos_renyi(150, 900, seed=3)
        n, colors = greedy_coloring(g)
        assert n <= g.max_degree + 1
        assert verify_coloring(g, colors)

    def test_empty_and_isolated(self):
        g = CSRGraph.from_edges(4, [])
        n, colors = greedy_coloring(g)
        assert n == 1
        assert np.all(colors == 1)
        n0, c0 = greedy_coloring(CSRGraph.from_edges(0, []))
        assert n0 == 0 and len(c0) == 0

    def test_order_affects_result(self):
        """For some orderings First Fit is optimal (§III-A property 2):
        a crown graph coloured in natural vs. alternating order."""
        # crown: bipartite K_{3,3} minus perfect matching
        edges = [(i, 3 + j) for i in range(3) for j in range(3) if i != j]
        g = CSRGraph.from_edges(6, edges)
        n_alt, _ = greedy_coloring(g, order=np.array([0, 3, 1, 4, 2, 5]))
        n_nat, _ = greedy_coloring(g, order=np.arange(6))
        assert n_nat == 2  # natural order happens to be optimal here
        assert n_alt >= n_nat

    def test_continuation_with_existing_colors(self):
        g = grid2d(5, 5)
        _, colors = greedy_coloring(g)
        # recolour a few vertices from an existing colouring
        colors[[3, 7, 11]] = 0
        n, colors = greedy_coloring(g, order=np.array([3, 7, 11]),
                                    colors=colors)
        assert verify_coloring(g, colors)

    def test_colors_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            greedy_coloring(chain(5), colors=np.zeros(4, dtype=np.int64))

    def test_many_colors_fallback_path(self):
        """Complete graph past 64 colours (no colour-count limit)."""
        g = complete(80)
        n, colors = greedy_coloring(g)
        assert n == 80
        assert verify_coloring(g, colors)


class TestStampVariant:
    @pytest.mark.parametrize("maker,args", [
        (chain, (15,)), (complete, (9,)), (grid2d, (5, 4)),
        (erdos_renyi, (60, 240)), (star, (12,)),
    ])
    def test_matches_bitset_implementation(self, maker, args):
        g = maker(*args)
        n1, c1 = greedy_coloring(g)
        n2, c2 = greedy_coloring_stamp(g)
        assert n1 == n2
        assert np.array_equal(c1, c2)


@given(st.lists(st.lists(st.integers(0, 4) | st.integers(60, 70),
                         max_size=12), max_size=12),
       st.booleans())
@example([[], [1]], False)
@settings(max_examples=60, deadline=None)
def test_first_fit_mex_matches_scalar(neighborhoods, fill_low):
    """The vectorised mex equals a scalar loop, including empty
    neighbourhoods and the all-of-1..64-taken overflow path."""
    if fill_low:
        neighborhoods = [hood + list(range(1, 65)) for hood in neighborhoods]
    offsets = np.zeros(len(neighborhoods) + 1, dtype=np.int64)
    np.cumsum([len(h) for h in neighborhoods], out=offsets[1:])
    flat = np.asarray([c for h in neighborhoods for c in h], dtype=np.int64)
    expected = []
    for hood in neighborhoods:
        c = 1
        while c in hood:
            c += 1
        expected.append(c)
    assert first_fit_mex(flat, offsets).tolist() == expected


@given(st.integers(2, 40), st.integers(0, 150), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_greedy_always_valid(n, m, seed):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    g = CSRGraph.from_edges(n, edges)
    n_colors, colors = greedy_coloring(g)
    assert verify_coloring(g, colors)
    assert n_colors <= g.max_degree + 1
    assert colors.min() >= 1

"""Sequential greedy (First-Fit) distance-1 colouring — the paper's Alg. 1.

Vertices are visited in ID order; each receives the smallest colour not
used by an already-coloured neighbour.  This is the baseline whose colour
count Table I reports, and the quality yardstick for the parallel
algorithm (§V-B: parallel colour counts stay within 5 %).

Three First-Fit forms share this module:

* :func:`greedy_coloring`, the working loop: colours and row pointers are
  Python lists, each vertex reads its neighbours as its own small slice
  of the adjacency array, and the smallest missing colour is found
  through a ``set`` (no colour-count limit),
* :func:`first_fit_mex`, the vectorised form for a batch of mutually
  independent vertices (one lockstep instant of the parallel replay, one
  Jones-Plassmann round): a ``uint64`` bitset per vertex, with an exact
  fallback once colours 1-64 are all taken,
* :func:`greedy_coloring_stamp`, the textbook ``forbiddenColors`` array
  stamped with the current vertex, exactly Algorithm 1; tests compare the
  others against it.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["greedy_coloring", "greedy_coloring_stamp", "first_fit_mex"]

#: colour -> its bit (colour c is bit c-1); 0 (uncoloured) and colours
#: past 64 (index 65, after clipping) contribute nothing.
_COLOR_BIT = np.zeros(66, dtype=np.uint64)
_COLOR_BIT[1:65] = np.uint64(1) << np.arange(64, dtype=np.uint64)


def greedy_coloring(graph: CSRGraph, order: np.ndarray | None = None,
                    colors: np.ndarray | None = None):
    """First-Fit greedy colouring.

    Parameters
    ----------
    graph:
        The graph to colour.
    order:
        Optional visit order (array of vertex IDs); defaults to ``0..n-1``,
        matching the paper's "naturally ordered" runs.
    colors:
        Optional pre-existing colour array to continue from (used by the
        parallel algorithm to re-fit vertices with full visibility);
        modified in place.

    Returns
    -------
    (n_colors, colors):
        ``colors`` is an ``int64`` array with 1-based colours; ``n_colors``
        is ``max(colors)`` (0 for an empty graph).
    """
    n = graph.n_vertices
    if colors is None:
        colors = np.zeros(n, dtype=np.int64)
    elif len(colors) != n:
        raise ValueError(f"colors has length {len(colors)}, expected {n}")
    indptr, indices = graph.indptr.tolist(), graph.indices
    col = colors.tolist()
    order = range(n) if order is None else np.asarray(order).tolist()
    for v in order:
        # One small slice per vertex: converting the whole adjacency
        # array to a list would cost an int object per directed edge.
        used = {col[w] for w in indices[indptr[v]:indptr[v + 1]].tolist()}
        c = 1
        while c in used:
            c += 1
        col[v] = c
    colors[:] = col
    return max(col, default=0), colors


def first_fit_mex(neighbor_colors: np.ndarray,
                  offsets: np.ndarray) -> np.ndarray:
    """Smallest positive colour absent from each neighbourhood (vectorised).

    ``neighbor_colors[offsets[i]:offsets[i + 1]]`` are the colours of the
    i-th vertex's neighbours (0 = uncoloured); ``offsets`` starts at 0
    and ends at ``len(neighbor_colors)``.  Returns an ``int64`` array of
    ``len(offsets) - 1`` colours.  Colours past 64 never change the
    answer unless colours 1-64 are all present; those vertices take an
    exact per-vertex path.
    """
    k = len(offsets) - 1
    masks = np.zeros(k, dtype=np.uint64)
    starts = offsets[:-1]
    nonempty = offsets[1:] > starts
    if len(neighbor_colors):
        bits = _COLOR_BIT[np.minimum(neighbor_colors, 65)]
        masks[nonempty] = np.bitwise_or.reduceat(bits, starts[nonempty])
    low = ~masks & (masks + np.uint64(1))  # lowest clear bit; 0 if none
    full = low == 0
    low[full] = 1
    mex = np.log2(low.astype(np.float64)).astype(np.int64) + 1
    for i in np.flatnonzero(full):
        used = set(neighbor_colors[offsets[i]:offsets[i + 1]].tolist())
        c = 65
        while c in used:
            c += 1
        mex[i] = c
    return mex


def greedy_coloring_stamp(graph: CSRGraph, order=None):
    """Literal Algorithm 1 (stamped ``forbiddenColors`` array).

    Slower than :func:`greedy_coloring` but a line-for-line transcription of
    the paper's pseudocode; tests assert both produce identical colourings.
    """
    n = graph.n_vertices
    indptr, indices = graph.indptr, graph.indices
    colors = np.zeros(n, dtype=np.int64)
    forbidden = np.full(graph.max_degree + 2, -1, dtype=np.int64)
    if order is None:
        order = range(n)
    maxcolor = 0
    for v in order:
        for w in indices[indptr[v]:indptr[v + 1]]:
            c = colors[w]
            if c:
                forbidden[c - 1] = v
        c = 1
        while forbidden[c - 1] == v:
            c += 1
        colors[v] = c
        if c > maxcolor:
            maxcolor = c
    return maxcolor, colors

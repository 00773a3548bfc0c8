"""Triangle counting from tiles (extension utility).

Counts triangles of the undirected (collapsed) graph.  Unlike the
streaming algorithms, triangle counting needs neighbourhood intersection,
which is a sparse-matrix computation rather than an edge stream: the tile
payload is lowered into a scipy CSR matrix once, and the count is
``sum((A @ A) ∘ A) / 6`` over the binary symmetric adjacency with the
diagonal removed.  Exposed as a utility because downstream users of a
graph store ask for it constantly (clustering coefficients, graph stats).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.format.tiles import TiledGraph


def adjacency_matrix(tg: TiledGraph) -> sp.csr_matrix:
    """The binary symmetric adjacency of the stored graph.

    Duplicate tuples collapse to a single 1; self-loops are dropped; both
    orientations are materialised whatever the storage layout.
    """
    el = tg.to_edge_list()
    r = el.src.astype(np.int64)
    c = el.dst.astype(np.int64)
    keep = r != c
    r, c = r[keep], c[keep]
    n = tg.n_vertices
    a = sp.coo_matrix(
        (np.ones(2 * r.shape[0], dtype=np.int64),
         (np.concatenate([r, c]), np.concatenate([c, r]))),
        shape=(n, n),
    ).tocsr()
    a.data[:] = 1  # collapse duplicates
    a.sum_duplicates()
    a.data[:] = 1
    return a


def triangle_count(tg: TiledGraph) -> int:
    """Total number of triangles in the collapsed undirected graph.

    Uses the degree-ordered orientation: every edge points from its
    lower-(degree, id) endpoint to the higher one, turning the graph into
    a DAG ``L`` whose out-degrees are O(sqrt(m)); each triangle appears as
    exactly one wedge of ``L`` closed by an ``L`` edge, so
    ``sum((L @ L) ∘ L)`` counts each triangle once.  Without the
    orientation, ``A @ A`` on a hub-heavy graph materialises billions of
    two-paths through the hubs and exhausts memory.
    """
    a = adjacency_matrix(tg)
    if a.nnz == 0:
        return 0
    deg = np.asarray(a.sum(axis=1)).ravel()
    coo = a.tocoo()
    u, v = coo.row, coo.col
    forward = (deg[u] < deg[v]) | ((deg[u] == deg[v]) & (u < v))
    lo = sp.coo_matrix(
        (np.ones(int(forward.sum()), dtype=np.int64), (u[forward], v[forward])),
        shape=a.shape,
    ).tocsr()
    return int((lo @ lo).multiply(lo).sum())


def clustering_coefficient(tg: TiledGraph) -> float:
    """Global clustering coefficient: 3 * triangles / open+closed wedges."""
    a = adjacency_matrix(tg)
    if a.nnz == 0:
        return 0.0
    deg = np.asarray(a.sum(axis=1)).ravel()
    wedges = float((deg * (deg - 1)).sum()) / 2.0
    if wedges == 0:
        return 0.0
    return 3.0 * triangle_count(tg) / wedges

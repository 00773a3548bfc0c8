"""Independent reference results, computed with scipy from the raw
generated edge list — never through the tile format or the engine.

Imported only after the measuring process has recorded its peak RSS, so
scipy's footprint does not count against the engine.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


def simple_undirected(src: np.ndarray, dst: np.ndarray, n: int) -> sp.csr_matrix:
    """Binary symmetric adjacency: self-loops dropped, duplicates merged."""
    keep = src != dst
    s = src[keep].astype(np.int64)
    d = dst[keep].astype(np.int64)
    a = sp.coo_matrix(
        (np.ones(2 * s.size, dtype=np.float64),
         (np.concatenate([s, d]), np.concatenate([d, s]))),
        shape=(n, n),
    ).tocsr()
    a.data[:] = 1.0  # tocsr() summed the duplicates
    return a


def pagerank(adj: sp.csr_matrix, iterations: int, damping: float = 0.85) -> np.ndarray:
    """Power iteration from the uniform vector; dangling mass spread
    uniformly — the formulation repro.algorithms.pagerank documents."""
    n = adj.shape[0]
    deg = np.asarray(adj.sum(axis=1)).ravel()
    dangling = deg == 0
    inv_deg = 1.0 / np.where(dangling, 1.0, deg)
    rank = np.full(n, 1.0 / n)
    at = adj.T.tocsr()
    for _ in range(iterations):
        acc = at @ (rank * inv_deg)
        rank = (1.0 - damping) / n + damping * (acc + rank[dangling].sum() / n)
    return rank


def bfs_depths(adj: sp.csr_matrix, root: int) -> np.ndarray:
    """Hop counts from ``root``; ``inf`` where unreachable."""
    return csgraph.shortest_path(adj, unweighted=True, indices=root)


def sssp_distances(adj: sp.csr_matrix, root: int, weight_fn) -> np.ndarray:
    """Dijkstra from ``root`` with ``weight_fn(src, dst)`` edge weights."""
    coo = adj.tocoo()
    w = weight_fn(coo.row.astype(np.uint32), coo.col.astype(np.uint32))
    weighted = sp.csr_matrix((w, (coo.row, coo.col)), shape=adj.shape)
    return csgraph.dijkstra(weighted, indices=root)

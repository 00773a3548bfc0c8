"""Sparse matrix-vector product over tiles (extension beyond the paper).

Computes ``y = A @ x`` where ``A`` is the graph's adjacency matrix (entry
1 for every edge).  One pass over all tiles — the minimal "streaming"
workload, useful for measuring raw tile throughput and as a building block
for spectral methods.  On symmetric storage the mirrored contribution is
added too, so the result equals the product with the full symmetric matrix.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import TileAlgorithm
from repro.algorithms.pagerank import scatter_add
from repro.errors import AlgorithmError


class SpMV(TileAlgorithm):
    """One adjacency-matrix-vector multiply: ``y[dst] += x[src]``."""

    name = "spmv"
    one_shard = True
    reads_ids = False

    def __init__(self, x: "np.ndarray | None" = None, iterations: int = 1) -> None:
        super().__init__()
        self._x_init = x
        self.iterations = int(iterations)
        self.x: "np.ndarray | None" = None
        self.y: "np.ndarray | None" = None
        self.iterations_run = 0

    def _setup(self) -> None:
        g = self._graph()
        if self._x_init is None:
            self.x = np.ones(g.n_vertices, dtype=np.float64)
        else:
            x = np.asarray(self._x_init, dtype=np.float64)
            if x.shape != (g.n_vertices,):
                raise AlgorithmError(
                    f"x must have shape ({g.n_vertices},), got {x.shape}"
                )
            self.x = x.copy()
        self.y = np.zeros(g.n_vertices, dtype=np.float64)
        self.iterations_run = 0

    # ------------------------------------------------------------------ #

    def begin_iteration(self, iteration: int) -> None:
        super().begin_iteration(iteration)
        self.y.fill(0.0)

    # ------------------------------------------------------------------ #
    # Fused batch kernel
    # ------------------------------------------------------------------ #

    def kernel_partial(self, tiles):
        """The shard in tile form, as PageRank's: the commit
        (:func:`~repro.algorithms.pagerank.scatter_add`) does the work."""
        return tiles

    def apply_partial(self, tiles) -> int:
        scatter_add(self.y, self.x, tiles, self.y if self.symmetric else None,
                    self._held)
        return tiles.n_edges

    def end_iteration(self, iteration: int) -> bool:
        self.iterations_run = iteration + 1
        if self.iterations_run < self.iterations:
            # Chained multiply: feed y back as the next x (power iteration).
            self.x, self.y = self.y, self.x
            return True
        return False

    # ------------------------------------------------------------------ #

    def metadata_bytes(self) -> int:
        return int(self.x.nbytes + self.y.nbytes)

    def result(self) -> np.ndarray:
        """The product vector ``y``."""
        return self.y

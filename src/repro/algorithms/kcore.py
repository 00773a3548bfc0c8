"""k-core extraction over tiles (extension beyond the paper).

The k-core of a graph is the maximal subgraph where every vertex has at
least ``k`` neighbours within the subgraph.  The classic peeling algorithm
maps beautifully onto G-Store's machinery: each iteration removes the
vertices whose residual degree dropped below ``k`` and only the tiles
touching *removed* vertices need to be read to decrement their neighbours —
the same selective-I/O metadata BFS uses, exercised in the opposite
direction (shrinking instead of growing a set).

k-core is an undirected notion; on directed storage both edge directions
are counted, like WCC.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import TileAlgorithm, gather_ids
from repro.errors import AlgorithmError


class KCore(TileAlgorithm):
    """Iterative peeling to the k-core."""

    name = "kcore"
    all_active = False
    #: One commit per batch: 0.86-0.90x the cut batch's wall time on a
    #: resident graph (17/20 alternated pairs faster), 0.73-0.76x on a
    #: streamed one (20/20; docs/PERFORMANCE.md "k-core commits once per
    #: batch").
    one_shard = True

    def __init__(self, k: int, max_iterations: int = 100_000) -> None:
        super().__init__()
        if k < 1:
            raise AlgorithmError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self.max_iterations = int(max_iterations)
        self.active: "np.ndarray | None" = None
        self.residual_degree: "np.ndarray | None" = None
        self._removed_now: "np.ndarray | None" = None
        self.iterations_run = 0

    @property
    def direction_passes(self) -> int:
        """Degrees count both endpoints whatever the stored orientation."""
        return 2

    def _setup(self) -> None:
        g = self._graph()
        if g.info.directed:
            deg = g.out_degrees.astype(np.int64) + g.in_degrees.astype(np.int64)
        else:
            deg = g.out_degrees.astype(np.int64)
        self.residual_degree = deg.copy()
        self.active = np.ones(g.n_vertices, dtype=bool)
        self._removed_now = np.zeros(g.n_vertices, dtype=bool)
        self.iterations_run = 0

    # ------------------------------------------------------------------ #

    def begin_iteration(self, iteration: int) -> None:
        super().begin_iteration(iteration)
        # In place: the removed vertices are active ones, so removing
        # them from ``active`` is an exclusive or.
        removed = self._removed_now
        np.less(self.residual_degree, self.k, out=removed)
        removed &= self.active
        self.active ^= removed

    # ------------------------------------------------------------------ #
    # Fused batch kernel
    # ------------------------------------------------------------------ #

    def kernel_partial(self, gsrc, gdst):
        """One fused mask pass over the shard (read-only).

        The just-peeled and the surviving vertices are frozen for the
        iteration (:meth:`begin_iteration`) and decrements
        are integer sums, so the result is independent of tile order,
        batching, and sharding.
        """
        gsrc, gdst = gather_ids(gsrc, gdst)
        removed = self._removed_now
        active = self.active
        # An edge whose one endpoint was just peeled lowers the residual
        # degree of the surviving endpoint.  Duplicate decrements from
        # multi-edges are consistent (degrees counted them too).
        hits = []
        hit = removed[gsrc] & active[gdst]
        if hit.any():
            hits.append(gdst[hit])
        hit = removed[gdst] & active[gsrc]
        if hit.any():
            hits.append(gsrc[hit])
        targets = np.concatenate(hits) if hits else None
        return targets, int(gsrc.shape[0])

    def apply_partial(self, partial) -> int:
        targets, edges = partial
        if targets is not None:
            deg = self.residual_degree
            deg -= np.bincount(targets, minlength=deg.shape[0])
        return edges

    def end_iteration(self, iteration: int) -> bool:
        self.iterations_run = iteration + 1
        if not self._removed_now.any():
            return False
        if self.iterations_run >= self.max_iterations:
            return False
        return True

    # ------------------------------------------------------------------ #

    def rows_active(self) -> np.ndarray:
        """Only tiles touching just-peeled vertices need reading."""
        return self._rows_of_vertices(self._removed_now)

    def cols_active(self) -> np.ndarray:
        """Peeling decrements both endpoints whatever the stored
        orientation, so on directed storage a tile is also needed when a
        just-peeled vertex sits in its *column* range."""
        return self._rows_of_vertices(self._removed_now)

    def rows_active_next(self) -> np.ndarray:
        """Vertices that may fall below k next round sit where degrees
        just changed — conservatively, rows of current survivors whose
        degree is already marginal."""
        marginal = self.active & (self.residual_degree < self.k)
        return self._rows_of_vertices(marginal)

    def cols_active_next(self) -> np.ndarray:
        marginal = self.active & (self.residual_degree < self.k)
        return self._rows_of_vertices(marginal)

    def core_vertices(self) -> np.ndarray:
        """Vertex IDs in the k-core."""
        return np.nonzero(self.active)[0]

    def core_size(self) -> int:
        return int(np.count_nonzero(self.active))

    def metadata_bytes(self) -> int:
        return int(
            self.active.nbytes
            + self.residual_degree.nbytes
            + self._removed_now.nbytes
        )

    def result(self) -> np.ndarray:
        """Boolean membership mask of the k-core."""
        return self.active

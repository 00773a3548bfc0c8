"""Concurrent multi-source BFS (after iBFS, Liu et al. [22] — cited §II-B).

Running ``k`` traversals one at a time reads the graph up to ``k`` times;
running them *concurrently* shares every tile fetch across all traversals
whose frontier touches it.  For a semi-external engine the win is directly
in bytes: one sweep of the tile stream serves the whole batch — exactly
the benefit iBFS demonstrates on GPUs, transplanted to G-Store's I/O
layer.

All traversals advance level-synchronously together; a tile is needed
when *any* traversal's frontier intersects its ranges, and each
traversal's expansion within the tile is an independent vectorised pass
over the already-gathered endpoints (the gather is the expensive part and
is shared).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import TileAlgorithm, gather_ids
from repro.errors import AlgorithmError
from repro.types import INF_DEPTH


class MultiSourceBFS(TileAlgorithm):
    """``k`` level-synchronous BFS traversals sharing one tile stream."""

    name = "bfs"
    all_active = False

    def __init__(self, roots: "list[int] | np.ndarray") -> None:
        super().__init__()
        self.roots = np.asarray(roots, dtype=np.int64)
        if self.roots.ndim != 1 or self.roots.size == 0:
            raise AlgorithmError("need a non-empty 1-D root list")
        self.depth: "np.ndarray | None" = None  # (k, V) uint32
        self.level = 0
        #: Row activity of the current and of the next frontiers (any
        #: traversal), the latter marked as commits land.
        self._rows_now: "np.ndarray | None" = None
        self._rows_next: "np.ndarray | None" = None

    @property
    def k(self) -> int:
        return int(self.roots.shape[0])

    @property
    def pooled(self) -> bool:
        """Two or more traversals win on the thread pool — 0.63-0.65× the
        serial wall time on 2 CPUs, 10/10 pairs — and one does not (0.98×;
        docs/PERFORMANCE.md "The kernel declares the pool")."""
        return self.k >= 2

    def _setup(self) -> None:
        g = self._graph()
        if int(self.roots.min()) < 0 or int(self.roots.max()) >= g.n_vertices:
            raise AlgorithmError("root out of range")
        self.depth = np.full((self.k, g.n_vertices), INF_DEPTH, dtype=np.uint32)
        self.depth[np.arange(self.k), self.roots] = 0
        self.level = 0
        self._rows_now = self._rows_of_vertices((self.depth == 0).any(axis=0))
        self._rows_next = np.zeros(self._n_rows(), dtype=bool)

    def begin_iteration(self, iteration: int) -> None:
        super().begin_iteration(iteration)
        self._rows_next = np.zeros(self._n_rows(), dtype=bool)

    # ------------------------------------------------------------------ #
    # Fused batch kernel
    # ------------------------------------------------------------------ #

    def kernel_partial(self, gsrc, gdst):
        """All ``k`` traversals' discoveries over the concatenated shard
        in one (k, E) gather (read-only).

        Returns flat indices into the ``(k, V)`` depth matrix.  As for
        single-source BFS the discovery sets are snapshot-independent, so
        every execution path converges on the same matrix.
        """
        gsrc, gdst = gather_ids(gsrc, gdst)
        depth = self.depth
        n = depth.shape[1]
        level = np.uint32(self.level)
        src_d = depth[:, gsrc]
        dst_d = depth[:, gdst]
        t, e = np.nonzero((src_d == level) & (dst_d == INF_DEPTH))
        flat = t * n + gdst[e]
        if self.symmetric:
            t, e = np.nonzero((dst_d == level) & (src_d == INF_DEPTH))
            flat = np.concatenate([flat, t * n + gsrc[e]])
        return flat, int(gsrc.shape[0])

    def apply_partial(self, partial) -> int:
        flat, edges = partial
        if flat.size:
            self.depth.reshape(-1)[flat] = np.uint32(self.level + 1)
            vertices = flat % self.depth.shape[1]
            self._rows_next[vertices >> self._graph().tile_bits] = True
        return edges

    def end_iteration(self, iteration: int) -> bool:
        self.level += 1
        self._rows_now = self._rows_next
        return bool(self._rows_now.any())

    # ------------------------------------------------------------------ #

    def rows_active(self) -> np.ndarray:
        """The previous iteration's :meth:`rows_active_next`."""
        return self._rows_now

    def rows_active_next(self) -> np.ndarray:
        """Rows holding a vertex some traversal reached at ``level + 1``,
        marked per commit; a fresh array every iteration."""
        return self._rows_next

    @property
    def direction_passes(self) -> int:
        """Each stored tuple is examined once (or twice when symmetric)
        *per traversal* — the compute cost scales with k even though the
        I/O does not."""
        return (2 if self.symmetric else 1) * self.k

    def depths_of(self, t: int) -> np.ndarray:
        """Per-vertex depths of traversal ``t``."""
        return self.depth[t]

    def metadata_bytes(self) -> int:
        return int(self.depth.nbytes)

    def result(self) -> np.ndarray:
        """The ``(k, n_vertices)`` depth matrix."""
        return self.depth

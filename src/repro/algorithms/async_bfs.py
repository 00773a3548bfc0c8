"""Asynchronous BFS (paper §II-B, citing Pearce et al. [26]).

Level-synchronous BFS needs one pass per level; the asynchronous variant
relaxes depths like a shortest-path computation — ``depth[dst] =
min(depth[dst], depth[src] + 1)`` — so a single pass over the tiles can
advance the frontier through *many* levels when the disk order happens to
follow the traversal.  The paper notes this "reduces the total number of
iterations needed", which for a semi-external engine means fewer full
sweeps of the graph.

The final depth array is identical to synchronous BFS (it is the same
fixpoint); only the iteration count differs.

The fused kernel is *live* (:attr:`~repro.algorithms.base.TileAlgorithm.
live_kernel`): shards commit in order, each seeing every earlier commit,
and the relaxation runs to a fixpoint within the resident shard.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import native
from repro.algorithms.base import TileAlgorithm, gather_ids
from repro.errors import AlgorithmError
from repro.types import INF_DEPTH


class AsyncBFS(TileAlgorithm):
    """BFS by asynchronous depth relaxation (fewer, heavier iterations)."""

    name = "bfs"  # same cost-model family as synchronous BFS
    all_active = False
    reads_ids = False

    def __init__(self, root: int = 0, max_iterations: int = 10_000) -> None:
        super().__init__()
        self.root = int(root)
        self.max_iterations = int(max_iterations)
        self.depth: "np.ndarray | None" = None
        self._changed: "np.ndarray | None" = None
        self._changed_next: "np.ndarray | None" = None
        #: Row activity of the changed vertices of the last iteration and
        #: of this one, the latter marked where commits land.
        self._rows_now: "np.ndarray | None" = None
        self._rows_next: "np.ndarray | None" = None
        self.iterations_run = 0

    def _setup(self) -> None:
        g = self._graph()
        if not (0 <= self.root < g.n_vertices):
            raise AlgorithmError(f"root {self.root} out of range")
        # int64 depths so min-relaxation has a clean +1 without overflow.
        self.depth = np.full(g.n_vertices, np.int64(INF_DEPTH), dtype=np.int64)
        self.depth[self.root] = 0
        self._changed = np.zeros(g.n_vertices, dtype=bool)
        self._changed[self.root] = True
        self._changed_next = np.zeros(g.n_vertices, dtype=bool)
        self._rows_now = self._rows_of_vertices(self._changed)
        self._rows_next = np.zeros(self._n_rows(), dtype=bool)
        self.iterations_run = 0

    # ------------------------------------------------------------------ #

    def begin_iteration(self, iteration: int) -> None:
        super().begin_iteration(iteration)
        self._changed_next.fill(False)
        self._rows_next = np.zeros(self._n_rows(), dtype=bool)

    # ------------------------------------------------------------------ #
    # Fused batch kernel (live: shards commit in order)
    # ------------------------------------------------------------------ #

    live_kernel = True

    def kernel_partial(self, tiles):
        """The shard in tile form: a live relaxation has no read-only
        half, since each pass must see the commit before it
        (:meth:`apply_partial` runs them all)."""
        return tiles

    def apply_partial(self, tiles) -> int:
        """Relax the resident shard against the current depths and commit
        the improvements, pass after pass, until nothing moves.  The edges
        count once however many rounds the fixpoint takes.  Compiled
        (:func:`~repro.algorithms.native.rounds`: one call, each pass
        after the first over the edges the commit before it touched) when
        that tier loaded; the NumPy body below is its fallback and oracle
        (the shard widened once)."""
        tile_bits = self._graph().tile_bits
        if native.lib is not None:
            native.rounds(
                self.depth, tiles, self.symmetric, self._changed_next, -1,
                rows=self._rows_next, tile_bits=tile_bits, held=self._held,
            )
            return tiles.n_edges
        gsrc, gdst = gather_ids(*tiles.widen())
        depth = self.depth
        while True:
            ds = depth[gsrc]
            dd = depth[gdst]
            better = ds + 1 < dd
            idx = gdst[better]
            vals = ds[better] + 1
            if self.symmetric:
                better = dd + 1 < ds
                idx = np.concatenate([idx, gsrc[better]])
                vals = np.concatenate([vals, dd[better] + 1])
            if not idx.size:
                return tiles.n_edges
            np.minimum.at(depth, idx, vals)
            self._changed_next[idx] = True
            self._rows_next[idx >> tile_bits] = True

    def end_iteration(self, iteration: int) -> bool:
        self._changed, self._changed_next = self._changed_next, self._changed
        self._rows_now = self._rows_next
        self.iterations_run = iteration + 1
        # A row is marked exactly where a vertex was flagged changed.
        return bool(self._rows_now.any()) and (
            self.iterations_run < self.max_iterations
        )

    # ------------------------------------------------------------------ #

    def rows_active(self) -> np.ndarray:
        """Rows holding vertices changed last iteration: the previous
        iteration's :meth:`rows_active_next`."""
        return self._rows_now

    def rows_active_next(self) -> np.ndarray:
        """Rows holding vertices changed so far this iteration, marked per
        commit (never rescanned); a fresh array every iteration, so a
        caller may keep it."""
        return self._rows_next

    def visited_count(self) -> int:
        return int(np.count_nonzero(self.depth != np.int64(INF_DEPTH)))

    def metadata_bytes(self) -> int:
        return int(
            self.depth.nbytes + self._changed.nbytes + self._changed_next.nbytes
        )

    def result(self) -> np.ndarray:
        """Per-vertex depth as uint32, identical to synchronous BFS."""
        out = np.minimum(self.depth, np.int64(INF_DEPTH))
        return out.astype(np.uint32)

"""Breadth-first search over tiles (paper Algorithm 1).

Level-synchronous BFS keeping a per-vertex depth array.  On symmetric
(upper-triangle) storage every tuple is examined in *both* directions —
the extra lines 8–10 of the paper's Algorithm 1.  The frontier drives both
selective fetching (only tiles whose row or column range holds frontier
vertices are read, important in the sparse last iterations) and proactive
caching ("the cached data may never be utilized in later iterations" for
already-visited regions — the activity predicate encodes exactly that).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import native
from repro.algorithms.base import TileAlgorithm, gather_ids
from repro.errors import AlgorithmError
from repro.types import INF_DEPTH


class BFS(TileAlgorithm):
    """Level-synchronous BFS from a root vertex.

    ``direction_optimizing=True`` enables Beamer-style direction switching
    (§II-B: "BFS can be optimized for the explosion level"), adapted to
    vectorised tile execution:

    * **Tile selection** always uses the AND-predicate — a tile can only
      produce new vertices when a *frontier* range meets an *unvisited*
      range, strictly tighter than the default frontier-row OR.  During
      the explosion iteration most tiles fail the unvisited side and are
      skipped entirely; tile skipping is maximal in both directions.
    * **Kernel direction** switches per iteration: sparse-frontier
      iterations *push* (filter each edge by its frontier side first, so
      the second depth gather touches only frontier edges), while
      dense-frontier iterations — frontier larger than the remaining
      unvisited set — *pull* (filter by the shrinking unvisited side
      first).  Both orders evaluate the same per-edge AND predicate, so
      results stay bit-identical; only the gather volume changes.

    The chosen direction per iteration is recorded in
    :attr:`direction_history`.
    """

    name = "bfs"
    all_active = False

    def __init__(self, root: int = 0, direction_optimizing: bool = False) -> None:
        super().__init__()
        self.root = int(root)
        self.direction_optimizing = bool(direction_optimizing)
        self.depth: "np.ndarray | None" = None
        self.level = 0
        self._frontier_count = 0
        #: Vertices discovered so far (root included) — drives the
        #: push/pull switch without an O(|V|) scan per iteration.
        self._visited_total = 0
        #: Kernel direction chosen for each iteration ("push"/"pull"),
        #: empty unless ``direction_optimizing``.
        self.direction_history: "list[str]" = []
        self._pull = False
        #: Row activity of the current and of the next frontier, the
        #: latter marked as commits land (:meth:`apply_partial`).
        self._rows_now: "np.ndarray | None" = None
        self._rows_next: "np.ndarray | None" = None

    def _setup(self) -> None:
        g = self._graph()
        if not (0 <= self.root < g.n_vertices):
            raise AlgorithmError(
                f"root {self.root} out of range for |V|={g.n_vertices}"
            )
        self.depth = np.full(g.n_vertices, INF_DEPTH, dtype=np.uint32)
        self.depth[self.root] = 0
        self.level = 0
        self._frontier_count = 1
        self._visited_total = 1
        self.direction_history = []
        self._pull = False
        self._rows_now = self._rows_of_vertices(self.depth == 0)
        self._rows_next = np.zeros(self._n_rows(), dtype=bool)

    # ------------------------------------------------------------------ #

    def begin_iteration(self, iteration: int) -> None:
        super().begin_iteration(iteration)
        self._rows_next = np.zeros(self._n_rows(), dtype=bool)
        if self.direction_optimizing:
            # Beamer-style switch on algorithm state only (never timing):
            # pull once the frontier outnumbers the remaining unvisited
            # vertices — the explosion level and everything after it.
            unvisited = self._graph().n_vertices - self._visited_total
            self._pull = self._frontier_count > unvisited
            self.direction_history.append("pull" if self._pull else "push")

    def end_iteration(self, iteration: int) -> bool:
        # The new frontier is exactly the vertices assigned ``level + 1``:
        # one pass over the depth array (microseconds), where a unique
        # over every discovered target sorted or hashed them all.
        new_frontier = int(
            np.count_nonzero(self.depth == np.uint32(self.level + 1))
        )
        self.level += 1
        self._rows_now = self._rows_next
        self._frontier_count = new_frontier
        self._visited_total += new_frontier
        return new_frontier > 0

    # ------------------------------------------------------------------ #
    # Fused batch kernel
    # ------------------------------------------------------------------ #

    def kernel_partial(self, gsrc, gdst):
        """One discovery pass over the concatenated shard (read-only): the
        targets of edges from the frontier (``depth == level``) to an
        unvisited vertex, forward ones in edge order, then on symmetric
        storage the mirrored ones (Algorithm 1 lines 8-10), and the edge
        count.

        The discovery sets are snapshot-independent: whatever interleaving
        of tiles and batches runs, a vertex ends at ``level + 1`` iff some
        tile reports it, so every shard cut and thread count converges on
        bit-identical depth arrays.

        Compiled (:mod:`~repro.algorithms.native`) when that tier loaded,
        one loop whatever the mode.  The NumPy body below is its fallback
        and oracle, where the iteration's direction picks the evaluation
        order of the same per-edge AND predicate: push filters by the
        frontier side first, pull by the unvisited side, and with
        direction optimisation off both sides are evaluated densely.  All of them give
        identical targets in identical order — only the size of the second
        gather differs.
        """
        depth = self.depth
        symmetric = self.symmetric
        edges = int(gsrc.shape[0])
        if native.lib is not None:
            return native.discover_bfs(
                depth, gsrc, gdst, symmetric, self.level
            ), edges
        gsrc, gdst = gather_ids(gsrc, gdst)
        level = np.uint32(self.level)
        bwd_targets = None
        if not self.direction_optimizing:
            src_d = depth[gsrc]
            dst_d = depth[gdst]
            fwd = (src_d == level) & (dst_d == INF_DEPTH)
            fwd_targets = gdst[fwd]
            if symmetric:
                # Algorithm 1 lines 8-10: the stored upper triangle also
                # carries the mirrored edge, so expand the frontier
                # backwards too.
                bwd = (dst_d == level) & (src_d == INF_DEPTH)
                bwd_targets = gsrc[bwd]
        elif self._pull:
            # Dense frontier: the unvisited set is the small side — gather
            # it first so the frontier check touches only open targets.
            idx = np.nonzero(depth[gdst] == INF_DEPTH)[0]
            cand = gdst[idx]
            fwd_targets = cand[depth[gsrc[idx]] == level]
            if symmetric:
                idx = np.nonzero(depth[gsrc] == INF_DEPTH)[0]
                cand = gsrc[idx]
                bwd_targets = cand[depth[gdst[idx]] == level]
        else:
            # Sparse frontier: filter by the frontier side first.
            idx = np.nonzero(depth[gsrc] == level)[0]
            cand = gdst[idx]
            fwd_targets = cand[depth[cand] == INF_DEPTH]
            if symmetric:
                idx = np.nonzero(depth[gdst] == level)[0]
                cand = gsrc[idx]
                bwd_targets = cand[depth[cand] == INF_DEPTH]
        if bwd_targets is not None:
            fwd_targets = np.concatenate([fwd_targets, bwd_targets])
        return fwd_targets, edges

    def apply_partial(self, partial) -> int:
        targets, edges = partial
        if targets.size:
            self.depth[targets] = np.uint32(self.level + 1)
            self._rows_next[targets >> self._graph().tile_bits] = True
        return edges

    # ------------------------------------------------------------------ #

    def rows_active(self) -> np.ndarray:
        """Rows whose vertex range holds current-frontier vertices: the
        previous iteration's :meth:`rows_active_next`."""
        return self._rows_now

    def rows_active_next(self) -> np.ndarray:
        """Rows holding next-level frontiers discovered so far, marked per
        commit (never rescanned); a fresh array every iteration, so a
        caller may keep it."""
        return self._rows_next

    def tile_mask(self, tile_rows, tile_cols):
        if not self.direction_optimizing:
            return None
        frontier_rows = self._rows_of_vertices(self.depth == np.uint32(self.level))
        unvisited_rows = self._rows_of_vertices(self.depth == INF_DEPTH)
        # Tile [i, j] can discover a vertex only when a frontier range
        # meets an unvisited range (both directions for symmetric tiles).
        need = frontier_rows[tile_rows] & unvisited_rows[tile_cols]
        if self.symmetric:
            need = need | (
                frontier_rows[tile_cols] & unvisited_rows[tile_rows]
            )
        return need

    # ------------------------------------------------------------------ #

    def visited_count(self) -> int:
        return int(np.count_nonzero(self.depth != INF_DEPTH))

    def metadata_bytes(self) -> int:
        return int(self.depth.nbytes)

    def result(self) -> np.ndarray:
        """Per-vertex depth (``INF_DEPTH`` for unreachable vertices)."""
        return self.depth

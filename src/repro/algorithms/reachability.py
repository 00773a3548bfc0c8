"""Subset-restricted multi-source reachability over tiles.

The building block of FW-BW SCC (§IV-A's motivating example: "the
utilization of symmetry is not possible for many algorithms (e.g., SCC
[10]) which need both in-edges and out-edges").  G-Store's answer is that
one tile already carries both directions: a *forward* sweep follows the
stored ``src -> dst`` orientation, a *backward* sweep follows ``dst ->
src`` — no second copy of the graph needed.

The traversal is restricted to an ``allowed`` vertex mask so the FW-BW
recursion can operate on shrinking partitions of the graph.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import native
from repro.algorithms.base import TileAlgorithm, gather_ids
from repro.errors import AlgorithmError


class Reachability(TileAlgorithm):
    """Frontier-based reachability from a seed set, within a subset.

    Parameters
    ----------
    seeds:
        Initial vertex IDs (must lie inside ``allowed``).
    forward:
        Follow the stored orientation when True; the reverse when False.
    allowed:
        Boolean mask restricting the traversal (None = whole graph).
    """

    name = "bfs"  # same per-edge cost family as BFS
    all_active = False

    def __init__(
        self,
        seeds: "np.ndarray | list[int]",
        forward: bool = True,
        allowed: "np.ndarray | None" = None,
    ) -> None:
        super().__init__()
        self._seed_init = np.asarray(seeds, dtype=np.int64)
        self.forward = bool(forward)
        self._allowed_init = allowed
        self.visited: "np.ndarray | None" = None
        self._frontier: "np.ndarray | None" = None
        self._frontier_next: "np.ndarray | None" = None
        #: Row activity of the current and of the next frontier, the
        #: latter marked as commits land (:meth:`apply_partial`).
        self._rows_now: "np.ndarray | None" = None
        self._rows_next: "np.ndarray | None" = None

    def _setup(self) -> None:
        g = self._graph()
        n = g.n_vertices
        if self._allowed_init is None:
            self.allowed = np.ones(n, dtype=bool)
        else:
            self.allowed = np.asarray(self._allowed_init, dtype=bool)
            if self.allowed.shape != (n,):
                raise AlgorithmError("allowed mask has wrong shape")
        if self._seed_init.size and (
            self._seed_init.min() < 0 or self._seed_init.max() >= n
        ):
            raise AlgorithmError("seed vertex out of range")
        if self._seed_init.size and not self.allowed[self._seed_init].all():
            raise AlgorithmError("seeds must lie inside the allowed subset")
        self.visited = np.zeros(n, dtype=bool)
        self.visited[self._seed_init] = True
        self._frontier = np.zeros(n, dtype=bool)
        self._frontier[self._seed_init] = True
        self._frontier_next = np.zeros(n, dtype=bool)
        self._rows_now = self._rows_of_vertices(self._frontier)
        self._rows_next = np.zeros(self._n_rows(), dtype=bool)

    # ------------------------------------------------------------------ #

    def begin_iteration(self, iteration: int) -> None:
        super().begin_iteration(iteration)
        self._frontier_next.fill(False)
        self._rows_next = np.zeros(self._n_rows(), dtype=bool)

    # ------------------------------------------------------------------ #
    # Fused batch kernel
    # ------------------------------------------------------------------ #

    def kernel_partial(self, gsrc, gdst):
        """Frontier-side filter first, then the open-target check, over
        the concatenated shard (read-only): the hits in the swept
        direction in edge order, then on symmetric storage the mirrored
        ones, and the edge count.

        The frontier is frozen for the iteration and marking a vertex
        visited is idempotent, so the union of the hit sets — hence the
        result — is the same whichever ``visited`` snapshot a shard sees:
        every shard cut, serial and threaded execution agree bit for bit.
        Compiled (:mod:`~repro.algorithms.native`) when that tier loaded;
        the NumPy body below is its fallback and oracle.
        """
        frontier = self._frontier
        allowed = self.allowed
        visited = self.visited
        symmetric = self.symmetric
        edges = int(gsrc.shape[0])
        if not self.forward:
            # A backward sweep follows dst -> src: from here on ``gsrc``
            # is the side expanded from and ``gdst`` the side reached.
            gsrc, gdst = gdst, gsrc
        if native.lib is not None:
            return native.discover_reach(
                frontier, allowed, visited, gsrc, gdst, symmetric
            ), edges
        gsrc, gdst = gather_ids(gsrc, gdst)

        def expand(from_ids, to_ids):
            cand = to_ids[frontier[from_ids]]
            return cand[allowed[cand] & ~visited[cand]]

        hit = expand(gsrc, gdst)
        if symmetric:
            hit = np.concatenate([hit, expand(gdst, gsrc)])
        return hit, edges

    def apply_partial(self, partial) -> int:
        hit, edges = partial
        if hit.size:
            self.visited[hit] = True
            self._frontier_next[hit] = True
            self._rows_next[hit >> self._graph().tile_bits] = True
        return edges

    def end_iteration(self, iteration: int) -> bool:
        self._frontier, self._frontier_next = self._frontier_next, self._frontier
        self._rows_now = self._rows_next
        return bool(self._frontier.any())

    # ------------------------------------------------------------------ #

    def rows_active(self) -> np.ndarray:
        if self.forward or self.symmetric:
            return self._rows_now
        # Backward sweep on directed storage: frontier vertices appear on
        # the destination (column) side only — cols_active() carries them.
        return np.zeros(self._n_rows(), dtype=bool)

    def cols_active(self) -> "np.ndarray | None":
        if self.forward or self.symmetric:
            return None
        return self._rows_now

    def rows_active_next(self) -> np.ndarray:
        if self.forward or self.symmetric:
            return self._rows_next
        return np.zeros(self._n_rows(), dtype=bool)

    def cols_active_next(self) -> "np.ndarray | None":
        if self.forward or self.symmetric:
            return None
        return self._rows_next

    def reached(self) -> np.ndarray:
        """Boolean mask of vertices reachable from the seeds."""
        return self.visited

    def metadata_bytes(self) -> int:
        return int(
            self.visited.nbytes
            + self._frontier.nbytes
            + self._frontier_next.nbytes
            + self.allowed.nbytes
        )

    def result(self) -> np.ndarray:
        return self.visited

"""Connected components via parallel label propagation (paper Algorithm 2).

Every vertex starts with its own ID as label; each iteration propagates
the minimum label across edges until a fixpoint — the Shiloach-Vishkin
style method the paper cites ([31], extended in [4]), which "identifies
all CCs in very few iterations … taking advantage of sequential
bandwidth".  Between iterations labels are path-compressed
(``comp = comp[comp]``), the hook-and-compress step that gives the
few-iterations property.

On directed graphs this computes *weakly* connected components: direction
is ignored, which is why G-Store needs only one edge orientation on disk —
the paper's Algorithm 2 observation that the broadcast along out-edges is
redundant.

Label propagation has a natural frontier: an edge can only lower a label
when one of its endpoints' labels changed since the previous iteration
(labels are monotonically non-increasing, so an edge between two
unchanged endpoints was already fully applied — re-processing it is a
min no-op).  The per-iteration changed-vertex mask therefore drives
selective I/O exactly like BFS's frontier, and skipping those tiles is
*bit-identical* to the dense run: most bytes of the last, nearly
converged iterations are never read.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import native
from repro.algorithms.base import TileAlgorithm, gather_ids


class ConnectedComponents(TileAlgorithm):
    """Weakly connected components by min-label propagation."""

    name = "cc"

    @property
    def direction_passes(self) -> int:
        """WCC propagates the min label both ways on every stored tuple,
        whatever the storage orientation."""
        return 2

    def __init__(self, max_iterations: int = 1000) -> None:
        super().__init__()
        self.max_iterations = int(max_iterations)
        self.comp: "np.ndarray | None" = None
        self._prev: "np.ndarray | None" = None
        self.iterations_run = 0

    def _setup(self) -> None:
        g = self._graph()
        self.comp = np.arange(g.n_vertices, dtype=np.int64)
        # The iteration-start snapshot, refilled in place every iteration.
        self._prev = np.empty_like(self.comp)
        # Vertices whose labels changed during the previous iteration,
        # compress included: every one before the first.
        self._changed = np.ones(g.n_vertices, dtype=bool)
        self._start_frontier(self._changed)
        self.iterations_run = 0

    # ------------------------------------------------------------------ #

    def begin_iteration(self, iteration: int) -> None:
        super().begin_iteration(iteration)
        np.copyto(self._prev, self.comp)

    # ------------------------------------------------------------------ #
    # Fused batch kernel
    # ------------------------------------------------------------------ #

    def kernel_partial(self, gsrc, gdst):
        """Gather propagation candidates from the iteration-start snapshot.

        Labels are gathered from ``_prev`` (frozen in ``begin_iteration``),
        so the min-scatter commutes: any tile order, batch shape, shard
        interleaving or worker thread produces the same labels —
        elementwise ``min`` over the candidates.  Convergence still takes
        very few iterations because the pointer-jumping compress between
        iterations does the long-range hops.  WCC treats every edge as
        undirected: each endpoint offers its label to the other whatever
        the stored orientation.  (Keeping only the offers below the
        other's snapshot label is exact but measured slower: four mask
        selections cost more than the commits they save.)
        """
        gsrc, gdst = gather_ids(gsrc, gdst)
        prev = self._prev
        return gsrc, gdst, prev[gsrc], prev[gdst], int(gsrc.shape[0])

    def apply_partial(self, partial) -> int:
        """Commit both directions' offers, marking the row of every label
        that fell."""
        gsrc, gdst, src_labels, dst_labels, edges = partial
        rows, tile_bits = self._rows_next, self._graph().tile_bits
        for idx, labels in ((gdst, src_labels), (gsrc, dst_labels)):
            if native.lib is not None:
                native.min_commit(self.comp, idx, labels, rows, tile_bits,
                                  self._held)
            else:
                rows[idx[labels < self.comp[idx]] >> tile_bits] = True
                np.minimum.at(self.comp, idx, labels)
        return edges

    def end_iteration(self, iteration: int) -> bool:
        # Pointer-jumping compress: follow labels to their representatives.
        comp = self.comp
        while True:
            nxt = comp[comp]
            if np.array_equal(nxt, comp):
                break
            comp = nxt
        self.comp = comp
        self.iterations_run = iteration + 1
        # The compress lowers labels no commit marked: fold once, here.
        np.not_equal(comp, self._prev, out=self._changed)
        self._rows_now = self._rows_of_vertices(self._changed)
        return bool(self._rows_now.any()) and (
            self.iterations_run < self.max_iterations
        )

    # ------------------------------------------------------------------ #
    # Activity predicates: the changed-label frontier
    # ------------------------------------------------------------------ #

    def cols_active(self) -> np.ndarray:
        """Propagation is bidirectional whatever the stored orientation,
        so a tile is also needed when its *column* range holds a label
        that moved last iteration (skipping the rest is exact: see the
        module docstring)."""
        return self._rows_now

    def cols_active_next(self) -> np.ndarray:
        """Labels lowered so far (the compress may add more at the end)."""
        return self._rows_next

    # ------------------------------------------------------------------ #

    def n_components(self) -> int:
        return int(np.unique(self.comp).shape[0])

    def metadata_bytes(self) -> int:
        return int(self.comp.nbytes + self._changed.nbytes)

    def result(self) -> np.ndarray:
        """Per-vertex component label (the minimum vertex ID of the CC)."""
        return self.comp

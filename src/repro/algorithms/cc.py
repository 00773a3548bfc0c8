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
    #: Not all-active: after the first few hook-and-compress rounds only
    #: vertices whose labels still move need their edges re-read.
    all_active = False

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
        # Vertices whose labels changed during the previous iteration
        # (including the pointer-jumping compress) — the propagation
        # frontier.  Everything is "changed" before the first iteration.
        self._changed = np.ones(g.n_vertices, dtype=bool)
        #: Rows whose labels moved since the iteration began, folded once
        #: per commit on first read (``None``: not since the last change).
        self._moved_rows: "np.ndarray | None" = None
        self.iterations_run = 0

    # ------------------------------------------------------------------ #

    def begin_iteration(self, iteration: int) -> None:
        super().begin_iteration(iteration)
        np.copyto(self._prev, self.comp)
        self._moved_rows = None

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
        iterations does the long-range hops.
        """
        gsrc, gdst = gather_ids(gsrc, gdst)
        prev = self._prev
        # WCC treats every edge as undirected: each endpoint offers its
        # label to the other regardless of the stored orientation.  The
        # two directions stay separate arrays: concatenating them would
        # copy every widened ID and label once more.
        return gsrc, gdst, prev[gsrc], prev[gdst], int(gsrc.shape[0])

    def apply_partial(self, partial) -> int:
        gsrc, gdst, src_labels, dst_labels, edges = partial
        commit = native.min_commit if native.lib is not None else np.minimum.at
        commit(self.comp, gdst, src_labels)
        commit(self.comp, gsrc, dst_labels)
        self._moved_rows = None
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
        self._moved_rows = None
        self.iterations_run = iteration + 1
        np.not_equal(comp, self._prev, out=self._changed)
        changed = bool(self._changed.any())
        return changed and self.iterations_run < self.max_iterations

    # ------------------------------------------------------------------ #
    # Activity predicates: the changed-label frontier
    # ------------------------------------------------------------------ #

    def rows_active(self) -> np.ndarray:
        """Rows holding vertices whose labels moved last iteration.

        Skipping the rest is exact, not heuristic: labels only decrease,
        so an edge whose endpoints both kept their labels already had its
        min applied in the iteration that last changed one of them.
        """
        return self._rows_of_vertices(self._changed)

    def cols_active(self) -> np.ndarray:
        """Propagation is bidirectional whatever the stored orientation,
        so a tile is also needed when its *column* range moved."""
        return self._rows_of_vertices(self._changed)

    def rows_active_next(self) -> np.ndarray:
        """Partial knowledge for proactive caching: labels already lowered
        this iteration (the compress may add more at iteration end),
        folded once per commit whichever of this and
        :meth:`cols_active_next` asks first."""
        if self._moved_rows is None:
            self._moved_rows = self._rows_of_vertices(self.comp != self._prev)
        return self._moved_rows

    def cols_active_next(self) -> np.ndarray:
        return self.rows_active_next()

    # ------------------------------------------------------------------ #

    def n_components(self) -> int:
        return int(np.unique(self.comp).shape[0])

    def metadata_bytes(self) -> int:
        return int(self.comp.nbytes + self._changed.nbytes)

    def result(self) -> np.ndarray:
        """Per-vertex component label (the minimum vertex ID of the CC)."""
        return self.comp

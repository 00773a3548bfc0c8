"""Single-source shortest paths over tiles (extension beyond the paper).

When the graph was built from a weighted edge list, the stored per-edge
weights (kept resident alongside the algorithmic metadata) drive the
relaxations; otherwise weights are derived deterministically from the
edge endpoints with a multiplicative hash — either way every engine and
the networkx cross-check see identical weights.  Relaxation is
Bellman-Ford style per iteration with a changed-vertex frontier driving
selective I/O, exercising the same metadata machinery as BFS but with
floating-point metadata.

The relaxation is *asynchronous*: an improvement made early in an
iteration feeds every later relaxation of that iteration.  The fused
kernel keeps that at shard granularity (a live kernel, see
:attr:`~repro.algorithms.base.TileAlgorithm.live_kernel`) and relaxes
each resident shard a second time once its improvements are committed —
compute on bytes already in memory, which is what buys back the
iterations (hence bytes) the coarser-than-tile commit would otherwise
cost.  Distances are a unique fixpoint (each is the left-to-right float
sum along its shortest path), so every execution order converges to the
same bits; only the iteration count and the work per iteration differ.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import native
from repro.algorithms.base import TileAlgorithm, gather_ids
from repro.errors import AlgorithmError


def edge_weights(gsrc: np.ndarray, gdst: np.ndarray) -> np.ndarray:
    """Deterministic per-edge weights in ``{1, ..., 16}``: the hash
    ``1 + ((a * 2654435761) ^ (b * 40503)) mod 16`` of the smaller
    endpoint ``a`` and the larger ``b``, so an undirected edge weighs the
    same whichever orientation was stored.

    Computed exactly as ``1 + ((a ^ 7b) & 15)``: the low 4 bits of a
    product or an XOR depend only on the operands' low 4 bits, and
    2654435761 ≡ 1, 40503 ≡ 7 (mod 16).  So ``uint32`` input (where
    ``7b`` wraps, keeping its low bits) and ``intp`` input agree.
    """
    a = np.minimum(gsrc, gdst)
    b = np.maximum(gsrc, gdst)
    b *= 7
    a ^= b
    a &= 15
    return a.astype(np.float64) + 1.0


class SSSP(TileAlgorithm):
    """Iterative edge relaxation from a root vertex."""

    name = "sssp"
    all_active = False

    def __init__(self, root: int = 0, max_iterations: int = 10_000) -> None:
        super().__init__()
        self.root = int(root)
        self.max_iterations = int(max_iterations)
        self.dist: "np.ndarray | None" = None
        self._changed: "np.ndarray | None" = None
        self._changed_next: "np.ndarray | None" = None
        self.iterations_run = 0

    def _setup(self) -> None:
        g = self._graph()
        if not (0 <= self.root < g.n_vertices):
            raise AlgorithmError(f"root {self.root} out of range")
        self.dist = np.full(g.n_vertices, np.inf, dtype=np.float64)
        self.dist[self.root] = 0.0
        self._changed = np.zeros(g.n_vertices, dtype=bool)
        self._changed[self.root] = True
        self._changed_next = np.zeros(g.n_vertices, dtype=bool)
        self.iterations_run = 0

    # ------------------------------------------------------------------ #

    def begin_iteration(self, iteration: int) -> None:
        super().begin_iteration(iteration)
        self._changed_next.fill(False)

    # ------------------------------------------------------------------ #
    # Fused batch kernel (live: shards commit in order)
    # ------------------------------------------------------------------ #

    live_kernel = True

    def kernel_partial(self, gsrc, gdst, w=None):
        """One relaxation of the shard against the current distances
        (read-only): the strictly improving ``(vertex, distance)``
        candidates, both directions on symmetric storage.

        ``w`` is the shard's stored weights (:meth:`_shard_weights`), or
        ``None`` on an unweighted graph: then the endpoint hash
        (:func:`edge_weights`) is derived here and nowhere else.  The
        weights ride in the partial with the endpoints, so the second pass
        of :meth:`apply_partial` reuses all three.  Compiled
        (:mod:`~repro.algorithms.native`) when that tier loaded; the NumPy
        body below is its fallback and oracle.
        """
        if native.lib is not None:
            return native.candidates(self.dist, gsrc, gdst, self.symmetric, w)
        if w is None:
            w = edge_weights(gsrc, gdst)
        gsrc, gdst = gather_ids(gsrc, gdst)
        dist = self.dist
        ds = dist[gsrc]
        dd = dist[gdst]
        cand = ds + w
        better = cand < dd
        idx = gdst[better]
        vals = cand[better]
        if self.symmetric:
            cand = dd + w
            better = cand < ds
            idx = np.concatenate([idx, gsrc[better]])
            vals = np.concatenate([vals, cand[better]])
        return idx, vals, gsrc, gdst, w

    def shard_partial(self, batch, a, b):
        """Edges ``[a, b)`` of ``batch`` with their stored weights, read
        from the disk-edge-ordered weight array (none when the graph
        stores none: the kernel hashes them)."""
        stored = self._graph().edge_weights
        return self.kernel_partial(
            batch.gsrc[a:b], batch.gdst[a:b],
            None if stored is None else batch.side(stored, a, b),
        )

    def _commit(self, idx: np.ndarray, vals: np.ndarray) -> None:
        np.minimum.at(self.dist, idx, vals)
        self._changed_next[idx] = True

    def apply_partial(self, partial) -> int:
        """Commit the shard's improvements, then relax the same resident
        shard once more against the updated distances.

        The second pass is real per-edge work and is counted into the
        returned edge total; a shard whose first pass improved nothing is
        not re-relaxed (the pass would repeat the first bit for bit).
        """
        idx, vals, gsrc, gdst, w = partial
        edges = int(gsrc.shape[0])
        if idx.size == 0:
            return edges
        if native.lib is not None:
            native.rounds(
                self.dist, gsrc, gdst, self.symmetric, idx, vals,
                self._changed_next, 1, w,
            )
            return 2 * edges
        self._commit(idx, vals)
        idx, vals = self.kernel_partial(gsrc, gdst, w)[:2]
        if idx.size:
            self._commit(idx, vals)
        return 2 * edges

    def end_iteration(self, iteration: int) -> bool:
        self._changed, self._changed_next = self._changed_next, self._changed
        self.iterations_run = iteration + 1
        return bool(self._changed.any()) and self.iterations_run < self.max_iterations

    # ------------------------------------------------------------------ #

    def rows_active(self) -> np.ndarray:
        return self._rows_of_vertices(self._changed)

    def rows_active_next(self) -> np.ndarray:
        return self._rows_of_vertices(self._changed_next)

    def metadata_bytes(self) -> int:
        return int(self.dist.nbytes + self._changed.nbytes + self._changed_next.nbytes)

    def result(self) -> np.ndarray:
        """Per-vertex distance from the root (inf when unreachable)."""
        return self.dist

"""Single-source shortest paths over tiles (extension beyond the paper).

When the graph was built from a weighted edge list, the stored per-edge
weights (kept resident alongside the algorithmic metadata) drive the
relaxations; otherwise weights are derived deterministically from the
edge endpoints with a multiplicative hash — either way every engine and
the networkx cross-check see identical weights.  Relaxation is
Bellman-Ford style per iteration, the rows of the vertices it lowered
driving selective I/O (:class:`LiveRelaxation`, shared with AsyncBFS).

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


class LiveRelaxation(TileAlgorithm):
    """``state[t] = min(state[t], state[s] + w)`` along every edge (and
    its mirror on symmetric storage) from a root: SSSP and AsyncBFS.  A
    subclass says only what differs — the class attributes below and
    :meth:`result` — and names :attr:`state` its own way."""

    live_kernel = True
    reads_ids = False

    #: The state's dtype and unreached value.
    dtype, unreached = np.float64, np.inf
    #: Stored weights or the endpoint hash (:func:`edge_weights`), or 1.
    weighted = True
    #: Passes per shard (-1: to the shard's fixpoint), the edges counted
    #: per pass or once.
    passes, edges_per_pass = 2, True

    def __init__(self, root: int = 0, max_iterations: int = 10_000) -> None:
        super().__init__()
        self.root = int(root)
        self.max_iterations = int(max_iterations)
        self.state: "np.ndarray | None" = None
        self.iterations_run = 0

    def _setup(self) -> None:
        g = self._graph()
        if not (0 <= self.root < g.n_vertices):
            raise AlgorithmError(f"root {self.root} out of range")
        self.state = np.full(g.n_vertices, self.unreached, dtype=self.dtype)
        self.state[self.root] = 0
        self._start_frontier(self.state == 0)
        self.iterations_run = 0

    # ------------------------------------------------------------------ #
    # Fused batch kernel (live: shards commit in order)
    # ------------------------------------------------------------------ #

    def kernel_partial(self, tiles, w=None):
        """The shard in tile form and its stored weights (``None``: hashed,
        or 1): a live relaxation has no read-only half, since each pass
        must see the commit before it (:meth:`apply_partial` runs them)."""
        return tiles, w

    def shard_partial(self, batch, a, b):
        """Edges ``[a, b)`` of ``batch`` in tile form with their weights
        from the disk-edge-ordered array the graph may store."""
        stored = self._graph().edge_weights if self.weighted else None
        return self.kernel_partial(
            batch.tile_edges(a, b),
            None if stored is None else batch.side(stored, a, b),
        )

    def _candidates(self, gsrc, gdst, w):
        """One relaxation pass of the NumPy body over ``intp`` endpoints:
        the strictly improving ``(vertex, value)`` candidates against the
        state as it stands, forward ones in edge order, then the mirrored
        ones on symmetric storage."""
        state = self.state
        ds = state[gsrc]
        dd = state[gdst]
        cand = ds + w
        better = cand < dd
        idx = gdst[better]
        vals = cand[better]
        if self.symmetric:
            cand = dd + w
            better = cand < ds
            idx = np.concatenate([idx, gsrc[better]])
            vals = np.concatenate([vals, cand[better]])
        return idx, vals

    def apply_partial(self, partial) -> int:
        """Relax the resident shard against the current state and commit
        the improvements, marking their rows, for :attr:`passes` passes,
        stopping after a pass that improved nothing (another would repeat
        it bit for bit).  Compiled (:func:`~repro.algorithms.native.rounds`:
        one call, the hash computed in the loop, each pass after the first
        over the edges the commit before it touched) when that tier
        loaded; the NumPy body below is its fallback and oracle (the shard
        widened and hashed once)."""
        tiles, w = partial
        tile_bits = self._graph().tile_bits
        if native.lib is not None:
            ran = native.rounds(
                self.state, tiles, self.symmetric, self.passes, w,
                self._rows_next, tile_bits, self._held,
            )
        else:
            gsrc, gdst = tiles.widen()
            if not self.weighted:
                w = 1
            elif w is None:
                w = edge_weights(gsrc, gdst)
            gsrc, gdst = gather_ids(gsrc, gdst)
            ran, left = 0, self.passes
            while left:
                idx, vals = self._candidates(gsrc, gdst, w)
                ran, left = ran + 1, left - 1
                if not idx.size:
                    break
                np.minimum.at(self.state, idx, vals)
                self._rows_next[idx >> tile_bits] = True
        return tiles.n_edges * ran if self.edges_per_pass else tiles.n_edges

    def end_iteration(self, iteration: int) -> bool:
        self.iterations_run = iteration + 1
        return self._advance_frontier() and (
            self.iterations_run < self.max_iterations
        )

    def metadata_bytes(self) -> int:
        return int(self.state.nbytes)


def state_alias(doc: str) -> property:
    """A subclass's name of :attr:`LiveRelaxation.state`, writable too (a
    checkpoint restores the array under it)."""
    return property(lambda self: self.state,
                    lambda self, value: setattr(self, "state", value), doc=doc)


class SSSP(LiveRelaxation):
    """Iterative edge relaxation from a root vertex: two passes over each
    resident shard, both counted."""

    name = "sssp"
    dist = state_alias("Per-vertex distance from the root (inf when unreachable).")

    def result(self) -> np.ndarray:
        """Per-vertex distance from the root (inf when unreachable)."""
        return self.state

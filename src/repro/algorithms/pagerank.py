"""PageRank over tiles (paper §II-B).

Power iteration with damping: every iteration streams the whole graph, so
all rows stay active and — crucially for slide-cache-rewind — every cached
tile is guaranteed useful next iteration.  Contributions are added straight
into the iteration's accumulator, edge after edge in plan order, from the
batch's SNB payload (:func:`scatter_add`), as G-Store's kernel updates
vertex metadata in place: the metadata a batch touches spans only the
vertex ranges of its tiles, which is the access-localisation property
measured in Figure 2(b).

Dangling vertices redistribute their rank uniformly each iteration, which
matches networkx's formulation and keeps the cross-check tight.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import native
from repro.algorithms.base import TileAlgorithm
from repro.errors import AlgorithmError
from repro.format.tiles import TileEdges


def scatter_add(
    fwd: np.ndarray, x: np.ndarray, tiles: TileEdges,
    bwd: "np.ndarray | None" = None, held: "native.Held | None" = None,
) -> None:
    """Commit a shard's ``fwd[dst] += x[src]`` straight into ``fwd`` from
    its tile form (:class:`~repro.format.tiles.TileEdges`), edge by edge in
    order, each followed, when ``bwd`` is given, by ``bwd[src] += x[dst]``:
    symmetric storage passes ``fwd`` twice (the mirrored add), SCC's degree
    sweep its two degree arrays.

    The float addition order is the edge order, so where a batch is cut
    into shards does not change a bit.  Compiled
    (:func:`~repro.algorithms.native.scatter_add`: each tile's bases are
    added to the stored locals as the loop reads them, and no global-ID
    array is written) when that tier loaded; the NumPy body below is its
    fallback and oracle — :meth:`~repro.format.tiles.TileEdges.widen`, then
    ``np.add.at`` over the same sequence, bit-identical.  Raises
    ``IndexError``, with the accumulators untouched, if any widened
    endpoint lies outside ``x``.  ``held``, the caller's run's
    :class:`~repro.algorithms.native.Held`, keeps the compiled tier's
    buffers of its run-lifetime arrays.
    """
    if native.lib is not None:
        native.scatter_add(fwd, x, tiles.pairs, tiles.counts, tiles.src_base,
                           tiles.dst_base, bwd, held)
        return
    gsrc, gdst = tiles.widen()
    if bwd is fwd:  # edge i's mirrored add right after its forward one
        gsrc, gdst = (np.stack(pair, axis=1).ravel()
                      for pair in ((gsrc, gdst), (gdst, gsrc)))
        bwd = None
    # Both gathers before the first add: a bad endpoint raises first.
    forward = x[gsrc]
    backward = None if bwd is None else x[gdst]
    np.add.at(fwd, gdst, forward)
    if bwd is not None:
        np.add.at(bwd, gsrc, backward)


class PageRank(TileAlgorithm):
    """Damped power-iteration PageRank."""

    name = "pagerank"
    all_active = True
    one_shard = True
    reads_ids = False

    def __init__(
        self,
        damping: float = 0.85,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
        personalization: "dict[int, float] | None" = None,
    ) -> None:
        """``personalization`` maps vertex -> teleport weight (any positive
        values; normalised internally), turning the computation into
        personalised PageRank: random jumps land on those vertices instead
        of uniformly — the "who matters *to these seeds*" variant used in
        recommendation pipelines.  ``damping`` must lie in ``[0, 1]``."""
        super().__init__()
        self.damping = float(damping)
        if not 0.0 <= self.damping <= 1.0:
            raise AlgorithmError(f"damping must be in [0, 1], got {damping}")
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)
        self.personalization = personalization
        self.rank: "np.ndarray | None" = None
        self._acc: "np.ndarray | None" = None
        self._contrib: "np.ndarray | None" = None
        self._inv_deg: "np.ndarray | None" = None
        self.delta = np.inf
        self.iterations_run = 0

    def _setup(self) -> None:
        g = self._graph()
        n = g.n_vertices
        if self.personalization is None:
            self._teleport = None
        else:
            t = np.zeros(n, dtype=np.float64)
            for v, w in self.personalization.items():
                if not (0 <= int(v) < n):
                    raise AlgorithmError(f"personalization vertex {v} out of range")
                if not np.isfinite(w):
                    raise AlgorithmError(
                        f"personalization weight of vertex {v} is not finite: {w}"
                    )
                if w < 0:
                    raise AlgorithmError("personalization weights must be >= 0")
                t[int(v)] = float(w)
            total = float(t.sum())
            if total <= 0:
                raise AlgorithmError("personalization weights sum to zero")
            self._teleport = t / total
        self.rank = np.full(n, 1.0 / n, dtype=np.float64)
        self._acc = np.zeros(n, dtype=np.float64)
        self._contrib = np.empty(n, dtype=np.float64)
        # For symmetric (undirected) storage the divisor is the full degree;
        # for directed graphs it is the out-degree of the stored orientation.
        deg = g.out_degrees.astype(np.float64)
        # Indices, not a mask: gathering them is the same array in the same
        # order, and an order of magnitude cheaper every iteration.
        self._dangling = np.flatnonzero(deg == 0)
        safe = np.where(deg == 0, 1.0, deg)
        self._inv_deg = 1.0 / safe
        self.delta = np.inf
        self.iterations_run = 0

    # ------------------------------------------------------------------ #

    def begin_iteration(self, iteration: int) -> None:
        super().begin_iteration(iteration)
        self._acc.fill(0.0)
        np.multiply(self.rank, self._inv_deg, out=self._contrib)

    # ------------------------------------------------------------------ #
    # Fused batch kernel
    # ------------------------------------------------------------------ #

    def kernel_partial(self, tiles):
        """The shard in tile form: the scatter has no read-only half, so
        all of its work is the commit's (:func:`scatter_add`)."""
        return tiles

    def apply_partial(self, tiles) -> int:
        scatter_add(self._acc, self._contrib, tiles,
                    self._acc if self.symmetric else None, self._held)
        return tiles.n_edges

    def end_iteration(self, iteration: int) -> bool:
        """The new ranks, ``(1 - d)/n + d·(acc + dangling/n)`` (teleport
        ``t``: ``(1 - d)·t + d·(acc + dangling·t)``), computed in place
        into the accumulator, and ``delta``, their L1 distance from the
        old ranks, into the old ranks' buffer; then the two swap.  Each
        element sees the operations of the out-of-place formula in the
        same order (addition and multiplication commute exactly), so the
        bits are the same, and no |V|-sized array is allocated: one
        compiled pass (:func:`~repro.algorithms.native.pagerank_end`) when
        that tier loaded, else the NumPy passes below, its oracle."""
        n = self.rank.shape[0]
        dangling_mass = float(self.rank[self._dangling].sum())
        new, old = self._acc, self.rank
        if native.lib is not None:
            native.pagerank_end(new, old, self._teleport, dangling_mass,
                                self.damping, self._held)
        else:
            if self._teleport is None:
                new += dangling_mass / n
                new *= self.damping
                new += (1.0 - self.damping) / n
            else:
                # Personalised: teleports and dangling mass land on the
                # seed distribution instead of uniformly (networkx's
                # convention).  The contributions are spent, so their
                # buffer is scratch.
                scratch = self._contrib
                np.multiply(self._teleport, dangling_mass, out=scratch)
                new += scratch
                new *= self.damping
                np.multiply(self._teleport, 1.0 - self.damping, out=scratch)
                new += scratch
            np.subtract(new, old, out=old)
            np.abs(old, out=old)
        self.delta = float(old.sum())
        self.rank, self._acc = new, old
        self.iterations_run = iteration + 1
        if self.delta < self.tolerance:
            return False
        return self.iterations_run < self.max_iterations

    # ------------------------------------------------------------------ #

    def metadata_bytes(self) -> int:
        return int(self.rank.nbytes + self._acc.nbytes + self._inv_deg.nbytes)

    def result(self) -> np.ndarray:
        """Per-vertex PageRank values (summing to 1)."""
        return self.rank

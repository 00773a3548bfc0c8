"""PageRank over tiles (paper §II-B).

Power iteration with damping: every iteration streams the whole graph, so
all rows stay active and — crucially for slide-cache-rewind — every cached
tile is guaranteed useful next iteration.  Contributions are added straight
into the iteration's accumulator, edge after edge in plan order
(:func:`scatter_add`), as G-Store's kernel updates vertex metadata in
place: the metadata a batch touches spans only the vertex ranges of its
tiles, which is the access-localisation property measured in Figure 2(b).

Dangling vertices redistribute their rank uniformly each iteration, which
matches networkx's formulation and keeps the cross-check tight.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import native
from repro.algorithms.base import TileAlgorithm
from repro.errors import AlgorithmError


def scatter_add(
    acc: np.ndarray, x: np.ndarray, gsrc: np.ndarray, gdst: np.ndarray,
    symmetric: bool,
) -> None:
    """Commit a shard's ``y[dst] += x[src]`` straight into ``acc``: edge by
    edge in order, each followed on symmetric storage by the mirrored
    ``y[src] += x[dst]``.

    The float addition order is the edge order, so where a batch is cut
    into shards does not change a bit.  Compiled
    (:func:`~repro.algorithms.native.scatter_add`) when that tier loaded;
    the NumPy body below is its fallback and oracle — ``np.add.at`` over
    the same interleaved sequence, bit-identical.  Raises ``IndexError``,
    with ``acc`` untouched, if any endpoint lies outside ``x``.
    """
    if native.lib is not None:
        native.scatter_add(acc, x, gsrc, gdst, symmetric)
        return
    if symmetric:  # edge i's mirrored add right after its forward one
        gsrc, gdst = (np.stack(pair, axis=1).ravel()
                      for pair in ((gsrc, gdst), (gdst, gsrc)))
    np.add.at(acc, gdst, x[gsrc])


class PageRank(TileAlgorithm):
    """Damped power-iteration PageRank."""

    name = "pagerank"
    all_active = True
    one_shard = True

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
        # For symmetric (undirected) storage the divisor is the full degree;
        # for directed graphs it is the out-degree of the stored orientation.
        deg = g.out_degrees.astype(np.float64)
        self._dangling = deg == 0
        safe = np.where(self._dangling, 1.0, deg)
        self._inv_deg = 1.0 / safe
        self.delta = np.inf
        self.iterations_run = 0

    # ------------------------------------------------------------------ #

    def begin_iteration(self, iteration: int) -> None:
        super().begin_iteration(iteration)
        self._acc.fill(0.0)
        self._contrib = self.rank * self._inv_deg

    # ------------------------------------------------------------------ #
    # Fused batch kernel
    # ------------------------------------------------------------------ #

    def kernel_partial(self, gsrc, gdst):
        """The shard's endpoint slices: the scatter has no read-only half,
        so all of its work is the commit's (:func:`scatter_add`)."""
        return gsrc, gdst

    def apply_partial(self, partial) -> int:
        gsrc, gdst = partial
        scatter_add(self._acc, self._contrib, gsrc, gdst, self.symmetric)
        return int(gsrc.shape[0])

    def end_iteration(self, iteration: int) -> bool:
        n = self.rank.shape[0]
        dangling_mass = float(self.rank[self._dangling].sum())
        if self._teleport is None:
            new_rank = (
                (1.0 - self.damping) / n
                + self.damping * (self._acc + dangling_mass / n)
            )
        else:
            # Personalised: teleports and dangling mass land on the seed
            # distribution instead of uniformly (networkx's convention).
            new_rank = (
                (1.0 - self.damping) * self._teleport
                + self.damping * (self._acc + dangling_mass * self._teleport)
            )
        self.delta = float(np.abs(new_rank - self.rank).sum())
        self.rank = new_rank
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

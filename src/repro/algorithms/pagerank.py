"""PageRank over tiles (paper §II-B).

Power iteration with damping: every iteration streams the whole graph, so
all rows stay active and — crucially for slide-cache-rewind — every cached
tile is guaranteed useful next iteration.  Contributions are accumulated
with one ``np.bincount`` per kernel call over window-relative destination
IDs: the metadata touched spans only the vertex ranges of the tiles the
call covers, which is the access-localisation property measured in
Figure 2(b).

Dangling vertices redistribute their rank uniformly each iteration, which
matches networkx's formulation and keeps the cross-check tight.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import TileAlgorithm


def scatter_sums(
    x: np.ndarray, gsrc: np.ndarray, gdst: np.ndarray, symmetric: bool
) -> "list[tuple[int, np.ndarray]]":
    """A shard's ``y[dst] += x[src]`` as windowed per-vertex sums.

    Returns ``(lo, sums)`` windows with ``sums[v - lo]`` the total
    arriving at vertex ``v``, covering only the ``[min, max]`` vertex range
    the shard's edges touch — cost proportional to the shard's edges and
    vertex span, not to |V|, which is also all a shard worker pickles
    back.  One ``np.bincount`` over the concatenated batch replaces
    thousands of per-tile bincounts (the "one gather, one scatter per
    batch" kernel shape); accumulation order is the edge order, which is
    deterministic for a fixed shard structure.

    On symmetric storage the mirrored ``y[src] += x[dst]`` is included:
    where the destination and source windows overlap both are summed over
    their hull (element for element what adding two dense |V|-vectors
    computes); where they are disjoint they stay two windows, each element
    still receiving its one sum.  :func:`add_windows` commits the result,
    bit-identical to adding a dense partial: every vertex outside the
    windows would only have had ``0.0`` added to it.
    """
    if gsrc.shape[0] == 0:
        return []
    # One widening per endpoint array serves both the gather and the
    # scatter (fancy-indexing with the stored 32-bit IDs is ~3x slower).
    src = gsrc.astype(np.int64)
    dst = gdst.astype(np.int64)
    vals = x[src]
    lo, hi = int(dst.min()), int(dst.max()) + 1
    if not symmetric:
        dst -= lo
        return [(lo, np.bincount(dst, weights=vals))]
    # The stored upper triangle carries the mirrored edge too.
    vals2 = x[dst]
    lo2, hi2 = int(src.min()), int(src.max()) + 1
    if hi <= lo2 or hi2 <= lo:
        dst -= lo
        src -= lo2
        return [
            (lo, np.bincount(dst, weights=vals)),
            (lo2, np.bincount(src, weights=vals2)),
        ]
    base = min(lo, lo2)
    span = max(hi, hi2) - base
    dst -= base
    src -= base
    part = np.bincount(dst, weights=vals, minlength=span)
    part += np.bincount(src, weights=vals2, minlength=span)
    return [(base, part)]


def add_windows(
    acc: np.ndarray, windows: "list[tuple[int, np.ndarray]]"
) -> None:
    """Commit :func:`scatter_sums` windows into the dense accumulator."""
    for lo, part in windows:
        acc[lo : lo + part.shape[0]] += part


class PageRank(TileAlgorithm):
    """Damped power-iteration PageRank."""

    name = "pagerank"
    all_active = True

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
        recommendation pipelines."""
        super().__init__()
        self.damping = float(damping)
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)
        self.personalization = personalization
        self.rank: "np.ndarray | None" = None
        self._acc: "np.ndarray | None" = None
        self._inv_deg: "np.ndarray | None" = None
        self.delta = np.inf
        self.iterations_run = 0

    def _setup(self) -> None:
        from repro.errors import AlgorithmError

        g = self._graph()
        n = g.n_vertices
        if self.personalization is None:
            self._teleport = None
        else:
            t = np.zeros(n, dtype=np.float64)
            for v, w in self.personalization.items():
                if not (0 <= int(v) < n):
                    raise AlgorithmError(f"personalization vertex {v} out of range")
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

    def kernel_state(self):
        return {"contrib": self._contrib}

    def kernel_params(self):
        return {"symmetric": self.symmetric}

    @staticmethod
    def kernel_partial(state, params, gsrc, gdst):
        """Read-only fused pass: one weighted bincount over the whole shard.

        ``contrib`` is frozen for the iteration, so this is safe to run
        concurrently with other shards — threads or worker processes; the
        partial covers only the shard's vertex window(s)."""
        windows = scatter_sums(
            state["contrib"], gsrc, gdst, params["symmetric"]
        )
        return windows, int(gsrc.shape[0])

    def apply_partial(self, partial) -> int:
        windows, edges = partial
        add_windows(self._acc, windows)
        return edges

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

"""PageRank over tiles (paper §II-B).

Power iteration with damping: every iteration streams the whole graph, so
all rows stay active and — crucially for slide-cache-rewind — every cached
tile is guaranteed useful next iteration.  Contributions are accumulated
with one compiled COO mat-vec per vertex window of a kernel call
(:func:`scatter_sums`): the metadata touched spans only the vertex ranges
of the tiles the call covers, which is the access-localisation property
measured in Figure 2(b).

Dangling vertices redistribute their rank uniformly each iteration, which
matches networkx's formulation and keeps the cross-check tight.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse._sparsetools import coo_matvec

from repro.algorithms.base import TileAlgorithm


#: Unit edge weights for ``coo_matvec``: shared by every call, grown on
#: demand, never written (read-only, so no caller can).
_ONES = np.ones(0)
_ONES.flags.writeable = False


def _unit_weights(m: int) -> np.ndarray:
    global _ONES
    ones = _ONES
    if ones.shape[0] < m:
        ones = np.ones(m)
        ones.flags.writeable = False
        _ONES = ones
    return ones


def _as_index(ids: np.ndarray, n: int) -> np.ndarray:
    """Endpoint IDs as a signed index array ``coo_matvec`` takes: stored
    ``uint32`` IDs are reinterpreted in place while every valid ID fits
    in ``int32``, so an ID of 2**31 or more reads as negative and fails
    :func:`_bounds` like any other."""
    if ids.dtype == np.uint32 and n <= 1 << 31:
        return ids.view(np.int32)
    return ids.astype(np.int64, copy=False)


def _bounds(idx: np.ndarray, ids: np.ndarray, n: int) -> "tuple[int, int]":
    """``[min, max + 1)`` of ``idx``, raising NumPy's gather ``IndexError``
    when any ID falls outside ``[0, n)`` — ``coo_matvec`` checks nothing,
    and a corrupt ID must never read or write outside its arrays."""
    lo, hi = int(idx.min()), int(idx.max())
    if lo < 0 or hi >= n:
        low = int(ids.min())
        bad = low if low < 0 else int(ids.max())
        raise IndexError(
            f"index {bad} is out of bounds for axis 0 with size {n}"
        )
    return lo, hi + 1


def scatter_sums(
    x: np.ndarray, gsrc: np.ndarray, gdst: np.ndarray, symmetric: bool
) -> "list[tuple[int, np.ndarray]]":
    """A shard's ``y[dst] += x[src]`` as windowed per-vertex sums.

    Returns ``(lo, sums)`` windows with ``sums[v - lo]`` the total
    arriving at vertex ``v``, covering only the ``[min, max]`` vertex range
    the shard's edges touch — cost proportional to the shard's edges and
    vertex span, not to |V|, which is also all a shard worker pickles
    back.  Each window is one compiled COO mat-vec (scipy's
    ``coo_matvec``, which releases the GIL) over the whole shard:
    ``out[rows[k] - lo] += 1.0 * x[cols[k]]`` in edge order — the
    addition sequence of ``np.bincount(rows - lo, weights=x[cols])``, so
    bit-identical to it, with no gathered temporary and no widened copy
    of the endpoint arrays.  Edge order is deterministic for a fixed
    shard structure.

    On symmetric storage the mirrored ``y[src] += x[dst]`` is included:
    where the destination and source windows overlap both are summed over
    their hull, each direction into its own array and the two then added
    (element for element what adding two dense |V|-vectors computes);
    where they are disjoint they stay two windows, each element still
    receiving its one sum.  :func:`add_windows` commits the result,
    bit-identical to adding a dense partial: every vertex outside the
    windows would only have had ``0.0`` added to it.

    Raises ``IndexError`` if any endpoint lies outside ``x``.
    """
    m = gsrc.shape[0]
    if m == 0:
        return []
    n = x.shape[0]
    src, dst = _as_index(gsrc, n), _as_index(gdst, n)
    lo2, hi2 = _bounds(src, gsrc, n)
    lo, hi = _bounds(dst, gdst, n)
    ones = _unit_weights(m)

    def window(base: int, span: int, rows: np.ndarray, cols: np.ndarray):
        out = np.zeros(span)
        coo_matvec(m, rows - base if base else rows, cols, ones, x, out)
        return out

    if not symmetric:
        return [(lo, window(lo, hi - lo, dst, src))]
    # The stored upper triangle carries the mirrored edge too.
    if hi <= lo2 or hi2 <= lo:
        return [
            (lo, window(lo, hi - lo, dst, src)),
            (lo2, window(lo2, hi2 - lo2, src, dst)),
        ]
    base = min(lo, lo2)
    span = max(hi, hi2) - base
    part = window(base, span, dst, src)
    part += window(base, span, src, dst)
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
        """Read-only fused pass: one COO mat-vec per vertex window over the
        whole shard (:func:`scatter_sums`).

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

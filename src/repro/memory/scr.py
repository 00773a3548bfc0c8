"""Slide-cache-rewind scheduling state (paper §VI, Figure 8).

The :class:`SCRScheduler` owns the cache pool and answers the engine's
per-iteration questions:

* *rewind* — which of the tiles this iteration needs are already cached
  (they are processed first, with no I/O);
* *slide*  — how the remaining tiles chunk into segment-sized fetch
  batches that the pipeline overlaps with compute;
* *cache*  — after a batch is processed, which tiles enter the pool, and
  when the pool fills, which get evicted by proactive analysis.

``CachePolicy.BASE`` disables the pool and rewind entirely, reproducing the
two-segment streaming baseline of Figure 13.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.format.startedge import StartEdgeIndex
from repro.format.tiles import BatchLayout, TiledGraph
from repro.memory.proactive import tiles_needed_for_rows
from repro.memory.segments import CachePool, MemoryBudget, TileBuffer
from repro.obs.trace import NULL_TRACER
from repro.storage.aio import Extents


class CachePolicy(enum.Enum):
    SCR = "scr"  # slide + proactive cache + rewind
    BASE = "base"  # two streaming segments only (Figure 13 baseline)


@dataclass(frozen=True)
class SlidePlan:
    """One iteration's slide schedule, fixed before execution starts.

    The whole plan is known as soon as the iteration's fetch set is — tile
    sizes come from the start-edge index, not from runtime state — which is
    what lets the prefetch pipeline fetch and decode batches ``k+1..k+D``
    while batch ``k`` computes without changing any scheduling decision.
    It is the one record of what the fetch set implies, derived in one
    pass (:meth:`SCRScheduler.segment_plan`): per batch, its positions,
    its merged reads, its tiles' byte sizes (what the cache pool is
    offered) and, given the graph, the layout its bytes decode under, so
    a fetch of batch ``k`` only services ``extents[k]`` and wraps the
    bytes with ``layouts[k]``.  Every array is read-only, so a plan may be
    reused by every iteration whose fetch set repeats.
    """

    #: Per batch: its byte-adjacent tiles merged into extents, with its
    #: positions — consecutive slices of the fetch set, in disk order.
    extents: "tuple[Extents, ...]"
    #: Per batch: each tile's byte size, aligned with its positions.
    tile_bytes: "tuple[np.ndarray, ...]"
    #: Per batch: where its tiles and runs lie in its bytes (empty when
    #: the plan was built without the graph).
    layouts: "tuple[BatchLayout, ...]" = ()

    @property
    def batches(self) -> "tuple[np.ndarray, ...]":
        """One ``int64`` position array per batch."""
        return tuple([ext.positions for ext in self.extents])

    @property
    def batch_bytes(self) -> "tuple[int, ...]":
        return tuple([ext.nbytes for ext in self.extents])

    @property
    def n_batches(self) -> int:
        return len(self.extents)

    @property
    def total_bytes(self) -> int:
        return sum(self.batch_bytes)

    def __iter__(self):
        return iter(self.batches)

    def __len__(self) -> int:
        return len(self.extents)


@dataclass
class SCRStats:
    """What only the pool knows.  Rewound and skipped tiles are the
    engine's to count (:class:`~repro.engine.stats.RunStats`)."""

    tiles_cached: int = 0
    tiles_evicted: int = 0
    analyses: int = 0


def _admit_in_order(size: np.ndarray, free: int) -> np.ndarray:
    """The indices of the tiles the rule "admit it if it still fits"
    takes, in order.

    Equivalent to walking ``size`` once with a running ``free`` — a tile
    that does not fit is dropped and later, smaller ones are still tried —
    but advances a whole admitted run per step (one ``searchsorted`` over
    the cumulative sizes) and stops as soon as the space left is below
    every remaining tile.
    """
    n = size.shape[0]
    if n == 0 or free < int(size.min()):
        return np.empty(0, dtype=np.intp)
    mask = np.zeros(n, dtype=bool)
    csum = size.cumsum()
    k = 0  # next tile to decide
    base = 0  # bytes of tiles [0, k), admitted or not
    while k < n:
        # Tiles [k, r) fit together in the space left.
        r = int(csum.searchsorted(base + free, side="right"))
        if r > k:
            mask[k:r] = True
            free -= int(csum[r - 1]) - base
            if r == n:
                break
        # Tile r does not fit: skip to the next one that does.
        fits = (size[r + 1:] <= free).nonzero()[0]
        if fits.size == 0:
            break
        k = r + 1 + int(fits[0])
        base = int(csum[k - 1])
    return mask.nonzero()[0]


@dataclass
class SCRScheduler:
    """Cache-pool bookkeeping for one engine run.

    Per-run, not per-engine: the engine constructs a fresh scheduler
    inside every ``run()`` call with that run's tracer, so concurrent
    private-context runs (docs/SERVING.md) each get an isolated pool and
    isolated :class:`SCRStats` — nothing here is shared across queries.
    """

    budget: MemoryBudget
    policy: CachePolicy = CachePolicy.SCR
    stats: SCRStats = field(default_factory=SCRStats)
    pool: CachePool = None  # type: ignore[assignment]
    #: Observability hook: proactive analysis runs under a ``scr.analyse``
    #: span.
    tracer: object = NULL_TRACER
    #: The activity masks (:meth:`_masks`) of the last analysis sweep
    #: while every admission since was made under the same masks — so
    #: every resident passes them — else ``None``.
    _settled: "tuple | None" = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.pool is None:
            cap = self.budget.pool_bytes if self.policy is CachePolicy.SCR else 0
            self.pool = CachePool(capacity_bytes=cap)

    # ------------------------------------------------------------------ #
    # Rewind
    # ------------------------------------------------------------------ #

    def split_cached(
        self, needed_positions: "np.ndarray | list[int]",
        start_edge: StartEdgeIndex,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Partition this iteration's tiles into (cached, to-fetch).

        Both halves come back as ``int64`` arrays in disk order — the same
        dtype :func:`~repro.engine.selective.select_positions` hands in, so
        the fetch set never round-trips through a Python list.  Cached
        tiles are processed first — the *rewind* step that consumes what
        the previous iteration left in memory before any new I/O.
        """
        arr = np.asarray(needed_positions, dtype=np.int64)
        if self.policy is not CachePolicy.SCR or len(self.pool) == 0:
            return np.empty(0, dtype=np.int64), arr
        self.pool.reserve(start_edge.n_tiles)
        mask = self.pool.resident(arr)
        return arr[mask], arr[~mask]

    def cached_buffers(self, positions) -> "list[TileBuffer]":
        """Payload buffers for a rewind set offered as :class:`TileBuffer`
        (KeyError for a position that was not).  The engine offers bare
        positions and never asks; ``benchmarks/perf/layer_walk.py`` does."""
        return self.pool.get_many(positions)

    # ------------------------------------------------------------------ #
    # Slide
    # ------------------------------------------------------------------ #

    def segment_plan(
        self,
        positions: "np.ndarray | list[int]",
        start_edge: StartEdgeIndex,
        graph: "TiledGraph | None" = None,
    ) -> SlidePlan:
        """The full slide schedule for this iteration's fetch set.

        ``positions`` is the (possibly frontier-thinned) ``int64`` fetch
        set from :meth:`split_cached` — under selective scheduling it is
        rebuilt every iteration, so each iteration's plan covers exactly
        the tiles its frontier needs and nothing else.  Chunks fetch
        positions into segment-sized batches (disk order) and records each
        batch's byte size.  Each batch is one AIO submission filling one
        streaming segment; a tile larger than a whole segment still
        travels alone (tiles are the indivisible I/O unit, §V-B: "we do
        not fetch, process or cache partial data from any tile").  The
        plan is returned *ahead of execution* so the prefetch pipeline can
        run arbitrarily far into it.  Every batch's extents and, given
        ``graph``, layout come from one pass over the whole fetch set
        (:func:`~repro.engine.selective.split_extents`).
        """
        # Imported here: importing repro.engine imports this module.
        from repro.engine.selective import split_extents

        arr = np.asarray(positions, dtype=np.int64)
        cap = self.budget.segment_bytes
        # csum[k] = bytes of tiles [0, k); a batch starting at tile a takes
        # every following tile whose running total stays within the
        # segment — one searchsorted per batch instead of a step per tile.
        n = int(arr.size)
        sizes = start_edge.tile_bytes(arr)
        csum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=csum[1:])
        bounds = [0]
        a = 0
        while a < n:
            b = int(csum.searchsorted(csum[a] + cap, side="right")) - 1
            a = max(b, a + 1)  # an oversized tile still travels alone
            bounds.append(a)
        extents, layouts = split_extents(arr, start_edge, bounds, graph)
        return SlidePlan(
            extents=extents,
            tile_bytes=tuple(
                [sizes[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
            ),
            layouts=layouts,
        )

    # ------------------------------------------------------------------ #
    # Cache
    # ------------------------------------------------------------------ #

    def offer(
        self,
        tiles: "np.ndarray | list[TileBuffer]",
        tile_rows: np.ndarray,
        tile_cols: np.ndarray,
        row_active_next: np.ndarray,
        symmetric: bool,
        col_active_next: "np.ndarray | None" = None,
        sizes: "np.ndarray | None" = None,
    ) -> None:
        """Offer one processed batch to the pool, analysing on pressure.

        ``tiles`` is the batch's ``int64`` position array with its tiles'
        byte ``sizes`` (what the engine hands over, both from its
        :class:`SlidePlan`: nothing per-tile is built) or a sequence of
        :class:`TileBuffer`
        (``benchmarks/perf/layer_walk.py``'s call shape: reduced to
        positions and sizes here, the admitted buffers kept in the pool's
        side table for :meth:`cached_buffers`).
        Positions within one offer are distinct — a slide batch is a slice
        of a disk-order fetch set.

        Tiles that proactive analysis already rules out are not cached at
        all, and residents are skipped.  The rest are admitted in batch
        order under the sequential rule — admit while the tile fits; on
        the first refusal re-analyse the residents once with the
        *current* (possibly partial) next-iteration metadata, evict the
        unneeded ones (§VI-C) and retry; after that a tile that does not
        fit is dropped (it is re-fetched next iteration if needed) while
        later, smaller ones are still tried — computed with one cumulative
        sum and a ``searchsorted`` per admitted run rather than a step per
        tile.  An analysis the pool is settled for (:meth:`_analyse`) is
        counted without a sweep, and an offer to a settled pool whose free
        bytes are below the batch's smallest tile, which can admit
        nothing, only counts the analysis its first refusal would run.
        ``TypeError`` for a position array without ``sizes``.
        """
        if self.policy is not CachePolicy.SCR:
            return
        pool = self.pool
        pool.reserve(tile_rows.shape[0])
        if isinstance(tiles, np.ndarray):
            if sizes is None:
                raise TypeError(
                    "offer of a position array needs its tiles' byte sizes"
                )
            buffers, pos = None, tiles
        else:
            buffers = tiles
            n = len(buffers)
            pos = np.fromiter((b.pos for b in buffers), np.int64, n)
            sizes = np.fromiter((b.nbytes for b in buffers), np.int64, n)
        if not pos.size:
            return
        masks = self._masks(row_active_next, symmetric, col_active_next)
        if masks == self._settled and pool.free_bytes < int(sizes.min()):
            # No tile fits, so the first candidate's refusal runs an
            # analysis, which a settled pool counts and nothing else.
            if self._candidates(pos, tile_rows, tile_cols, masks).size:
                self.stats.analyses += 1
            return
        idx = self._candidates(pos, tile_rows, tile_cols, masks)
        if idx.size:
            cand = pos[idx]
            size = sizes[idx]
            if masks != self._settled:
                self._settled = None  # an admission under other masks
            csum = size.cumsum()
            if csum[-1] <= pool.free_bytes:
                pool.admit(cand, size)
            else:
                # The first r candidates fit, the next is refused: analyse
                # once — the metadata does not change between tiles of the
                # same batch — and go on with the reclaimed space.
                r = int(csum.searchsorted(pool.free_bytes, side="right"))
                pool.admit(cand[:r], size[:r])
                self._analyse(
                    tile_rows, tile_cols, row_active_next, symmetric,
                    col_active_next, masks,
                )
                fits = r + _admit_in_order(size[r:], pool.free_bytes)
                pool.admit(cand[fits], size[fits])
                idx = np.concatenate((idx[:r], idx[fits]))
            if buffers is not None:
                pool.attach(buffers[k] for k in idx.tolist())
        self.stats.tiles_cached += int(idx.size)

    def _candidates(
        self, pos: np.ndarray, tile_rows: np.ndarray, tile_cols: np.ndarray,
        masks: tuple,
    ) -> np.ndarray:
        """Indices into ``pos`` of the tiles an offer may admit: not
        resident, and needed next under the activity ``masks``
        (:meth:`_masks`) — which every tile is when every row is active,
        whatever the column activity or symmetry."""
        new = ~self.pool.resident(pos)
        rows, symmetric, cols = masks
        if b"\x00" in rows:  # some row inactive
            new &= tiles_needed_for_rows(
                tile_rows[pos], tile_cols[pos],
                np.frombuffer(rows, dtype=bool), symmetric,
                col_active=None if cols is None
                else np.frombuffer(cols, dtype=bool),
            )
        return new.nonzero()[0]

    @staticmethod
    def _masks(
        row_active: np.ndarray, symmetric: bool, col_active: "np.ndarray | None"
    ) -> tuple:
        """The activity masks an analysis reads, as a comparable key."""
        return (
            np.asarray(row_active, dtype=bool).tobytes(),
            bool(symmetric),
            None if col_active is None
            else np.asarray(col_active, dtype=bool).tobytes(),
        )

    def _analyse(
        self,
        tile_rows: np.ndarray,
        tile_cols: np.ndarray,
        row_active_next: np.ndarray,
        symmetric: bool,
        col_active_next: "np.ndarray | None" = None,
        masks: "tuple | None" = None,
    ) -> int:
        """Evict resident tiles the metadata says are not needed next
        (``masks``: :meth:`_masks` of the activity, when the caller has
        it).

        After a sweep under some masks every resident passes the keep
        predicate under them, and so does every tile an offer admits under
        them.  So while the masks repeat and nothing was admitted under
        others (``_settled``), an analysis evicts nothing: it is
        counted and does not sweep the pool.
        """
        self.stats.analyses += 1
        if masks is None:
            masks = self._masks(row_active_next, symmetric, col_active_next)
        if masks == self._settled:
            return 0
        res = self.pool.position_array()
        evicted = 0
        if res.size:
            with self.tracer.span(
                "scr.analyse", cat="cache", residents=int(res.size)
            ):
                keep = tiles_needed_for_rows(
                    tile_rows[res], tile_cols[res], row_active_next,
                    symmetric, col_active=col_active_next,
                )
                victims = res[~keep]
                self.pool.evict(victims)
                evicted = int(victims.size)
                self.stats.tiles_evicted += evicted
        self._settled = masks
        return evicted

    def end_iteration(
        self,
        tile_rows: np.ndarray,
        tile_cols: np.ndarray,
        row_active_next: np.ndarray,
        symmetric: bool,
        col_active_next: "np.ndarray | None" = None,
    ) -> None:
        """Final analysis with complete next-iteration knowledge.

        At iteration end the frontier for the next iteration is fully
        known, so stale residents can be dropped eagerly before the rewind.
        """
        if self.policy is CachePolicy.SCR:
            self._analyse(
                tile_rows, tile_cols, row_active_next, symmetric,
                col_active_next,
            )

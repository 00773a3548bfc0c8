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
from repro.memory.proactive import tiles_needed_for_rows
from repro.memory.segments import CachePool, MemoryBudget, TileBuffer
from repro.obs.trace import NULL_TRACER


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
    """

    #: One ``int64`` position array per batch — consecutive slices of the
    #: iteration's fetch set, in disk order.
    batches: "tuple[np.ndarray, ...]"
    batch_bytes: "tuple[int, ...]"

    @property
    def n_batches(self) -> int:
        return len(self.batches)

    @property
    def total_bytes(self) -> int:
        return sum(self.batch_bytes)

    def __iter__(self):
        return iter(self.batches)

    def __len__(self) -> int:
        return len(self.batches)


@dataclass
class SCRStats:
    tiles_cached: int = 0
    tiles_evicted: int = 0
    cache_hits: int = 0
    bytes_from_cache: int = 0
    analyses: int = 0
    #: Non-empty tiles / bytes the selective plan never requested (§V-B):
    #: the difference between the dense disk order and the frontier-driven
    #: fetch set, accumulated over the run by the engine.
    tiles_skipped: int = 0
    bytes_skipped: int = 0


def _admit_in_order(size: np.ndarray, free: int) -> np.ndarray:
    """Which tiles the rule "admit it if it still fits" takes, in order.

    Equivalent to walking ``size`` once with a running ``free`` — a tile
    that does not fit is dropped and later, smaller ones are still tried —
    but advances a whole admitted run per step (one ``searchsorted`` over
    the cumulative sizes) and stops as soon as the space left is below
    every remaining tile.
    """
    n = size.shape[0]
    mask = np.zeros(n, dtype=bool)
    if n == 0 or free < int(size.min()):
        return mask
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
    return mask


@dataclass
class SCRScheduler:
    """Cache-pool bookkeeping for one engine run.

    Per-run, not per-engine: the engine constructs a fresh scheduler
    inside every ``run()`` call with that run's tracer, so concurrent
    private-context runs (docs/SERVING.md) each get an isolated pool and
    isolated ``scr.*`` counters — nothing here is shared across queries.
    """

    budget: MemoryBudget
    policy: CachePolicy = CachePolicy.SCR
    stats: SCRStats = field(default_factory=SCRStats)
    pool: CachePool = None  # type: ignore[assignment]
    #: Observability hook: proactive analysis runs under a ``scr.analyse``
    #: span and the ``scr.*`` counters mirror :class:`SCRStats`.
    tracer: object = NULL_TRACER
    #: Where tile sizes come from when :meth:`offer` is handed bare
    #: positions (every engine path); a sequence of :class:`TileBuffer`
    #: carries its own sizes and needs none.
    start_edge: "StartEdgeIndex | None" = None

    def __post_init__(self) -> None:
        if self.pool is None:
            cap = self.budget.pool_bytes if self.policy is CachePolicy.SCR else 0
            n = self.start_edge.n_tiles if self.start_edge is not None else 0
            self.pool = CachePool(capacity_bytes=cap, n_tiles=n)

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
        hit = arr[mask]
        to_fetch = arr[~mask]
        if hit.size:
            hit_bytes = int(start_edge.tile_bytes(hit).sum())
            self.stats.cache_hits += int(hit.size)
            self.stats.bytes_from_cache += hit_bytes
            if self.tracer.enabled:
                reg = self.tracer.registry
                reg.counter("scr.cache_hits").add(int(hit.size))
                reg.counter("scr.bytes_from_cache").add(hit_bytes)
        return hit, to_fetch

    def note_skipped(self, tiles: int, bytes_: int) -> None:
        """Record tiles/bytes the selective plan excluded this iteration.

        Called by the engine once per iteration with the difference
        between the dense disk order and the frontier-driven fetch set;
        mirrors into the ``selective.tiles_skipped`` / ``scr.bytes_skipped``
        counters when tracing.
        """
        if tiles <= 0:
            return
        self.stats.tiles_skipped += tiles
        self.stats.bytes_skipped += bytes_
        if self.tracer.enabled:
            reg = self.tracer.registry
            reg.counter("selective.tiles_skipped").add(tiles)
            reg.counter("scr.bytes_skipped").add(bytes_)

    def cached_buffers(self, positions) -> "list[TileBuffer]":
        """Payload buffers for a rewind set offered as :class:`TileBuffer`
        (KeyError for a position that was not).  The engine offers bare
        positions and never asks; ``benchmarks/perf/layer_walk.py`` does."""
        return self.pool.get_many(positions)

    # ------------------------------------------------------------------ #
    # Slide
    # ------------------------------------------------------------------ #

    def segment_plan(
        self, positions: "np.ndarray | list[int]", start_edge: StartEdgeIndex
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
        run arbitrarily far into it.
        """
        arr = np.asarray(positions, dtype=np.int64)
        if arr.size == 0:
            return SlidePlan(batches=(), batch_bytes=())
        cap = self.budget.segment_bytes
        # csum[k] = bytes of tiles [0, k); a batch starting at tile a takes
        # every following tile whose running total stays within the
        # segment — one searchsorted per batch instead of a step per tile.
        n = int(arr.size)
        csum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(start_edge.tile_bytes(arr), out=csum[1:])
        bounds = [0]
        a = 0
        while a < n:
            b = int(csum.searchsorted(csum[a] + cap, side="right")) - 1
            a = max(b, a + 1)  # an oversized tile still travels alone
            bounds.append(a)
        sizes = np.diff(csum[bounds]).tolist()
        return SlidePlan(
            batches=tuple(
                [arr[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
            ),
            batch_bytes=tuple(sizes),
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
    ) -> None:
        """Offer one processed batch to the pool, analysing on pressure.

        ``tiles`` is the batch's ``int64`` position array (what the
        engine hands over: sizes come from :attr:`start_edge`, nothing
        per-tile is built) or a sequence of :class:`TileBuffer`
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
        tile.
        """
        if self.policy is not CachePolicy.SCR:
            return
        pool = self.pool
        pool.reserve(tile_rows.shape[0])
        if isinstance(tiles, np.ndarray):
            buffers, pos = None, tiles
        else:
            buffers = tiles
            pos = np.fromiter((b.pos for b in buffers), np.int64, len(buffers))
        keep = tiles_needed_for_rows(
            tile_rows[pos], tile_cols[pos], row_active_next, symmetric,
            col_active=col_active_next,
        )
        idx = (keep & ~pool.resident(pos)).nonzero()[0]
        if idx.size:
            cand = pos[idx]
            if buffers is None:
                size = self.start_edge.tile_bytes(cand)
            else:
                size = np.fromiter(
                    (buffers[k].nbytes for k in idx.tolist()), np.int64,
                    idx.size,
                )
            csum = size.cumsum()
            if csum[-1] > pool.free_bytes:
                # The first r candidates fit, the next is refused: analyse
                # once — the metadata does not change between tiles of the
                # same batch — and go on with the reclaimed space.
                r = int(csum.searchsorted(pool.free_bytes, side="right"))
                pool.admit(cand[:r], size[:r])
                self._analyse(
                    tile_rows, tile_cols, row_active_next, symmetric,
                    col_active_next,
                )
                fits = r + _admit_in_order(
                    size[r:], pool.free_bytes
                ).nonzero()[0]
                pool.admit(cand[fits], size[fits])
                idx = np.concatenate((idx[:r], idx[fits]))
            else:
                pool.admit(cand, size)
            if buffers is not None:
                pool.attach(buffers[k] for k in idx.tolist())
        self.stats.tiles_cached += int(idx.size)
        if self.tracer.enabled:
            self.tracer.registry.counter("scr.tiles_cached").add(int(idx.size))

    def _analyse(
        self,
        tile_rows: np.ndarray,
        tile_cols: np.ndarray,
        row_active_next: np.ndarray,
        symmetric: bool,
        col_active_next: "np.ndarray | None" = None,
    ) -> int:
        """Evict resident tiles the metadata says are not needed next."""
        self.stats.analyses += 1
        self.tracer.registry.counter("scr.analyses").add(1)
        res = self.pool.position_array()
        if res.size == 0:
            return 0
        with self.tracer.span(
            "scr.analyse", cat="cache", residents=int(res.size)
        ):
            keep = tiles_needed_for_rows(
                tile_rows[res], tile_cols[res], row_active_next, symmetric,
                col_active=col_active_next,
            )
            victims = res[~keep]
            self.pool.evict(victims)
            self.stats.tiles_evicted += int(victims.size)
            if self.tracer.enabled:
                self.tracer.registry.counter("scr.tiles_evicted").add(
                    int(victims.size)
                )
        return int(victims.size)

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

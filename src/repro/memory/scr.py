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
two-segment streaming baseline of Figure 13; ``CachePolicy.NONE`` is pure
streaming with no reuse at all.
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
    NONE = "none"  # alias of BASE kept for clarity in ablation sweeps


@dataclass(frozen=True)
class SlidePlan:
    """One iteration's slide schedule, fixed before execution starts.

    The whole plan is known as soon as the iteration's fetch set is — tile
    sizes come from the start-edge index, not from runtime state — which is
    what lets the prefetch pipeline fetch and decode batches ``k+1..k+D``
    while batch ``k`` computes without changing any scheduling decision.
    """

    batches: "tuple[tuple[int, ...], ...]"
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
        mask = np.isin(arr, self.pool.position_array(), assume_unique=True)
        hit = arr[mask]
        to_fetch = arr[~mask]
        if hit.size:
            se = start_edge.start_edge
            hit_bytes = (
                int((se[hit + 1] - se[hit]).sum()) * start_edge.tuple_bytes
            )
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

    def cached_buffer(self, pos: int) -> TileBuffer:
        buf = self.pool.get(pos)
        if buf is None:
            raise KeyError(f"tile {pos} not cached")
        return buf

    def cached_buffers(self, positions: "list[int]") -> "list[TileBuffer]":
        """Resident buffers for an iteration's rewind set, one batch lookup."""
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
        batches: "list[tuple[int, ...]]" = []
        sizes_out: "list[int]" = []
        cur: "list[int]" = []
        cur_bytes = 0
        cap = self.budget.segment_bytes
        arr = np.asarray(positions, dtype=np.int64)
        if arr.size == 0:
            return SlidePlan(batches=(), batch_bytes=())
        se = start_edge.start_edge
        sizes = ((se[arr + 1] - se[arr]) * start_edge.tuple_bytes).tolist()
        for pos, size in zip(arr.tolist(), sizes):
            if cur and cur_bytes + size > cap:
                batches.append(tuple(cur))
                sizes_out.append(cur_bytes)
                cur = []
                cur_bytes = 0
            cur.append(pos)
            cur_bytes += size
        if cur:
            batches.append(tuple(cur))
            sizes_out.append(cur_bytes)
        return SlidePlan(batches=tuple(batches), batch_bytes=tuple(sizes_out))

    def segment_batches(
        self, positions: "list[int]", start_edge: StartEdgeIndex
    ) -> "list[list[int]]":
        """Batches of :meth:`segment_plan`, as plain lists (legacy shape)."""
        return [list(b) for b in self.segment_plan(positions, start_edge)]

    # ------------------------------------------------------------------ #
    # Cache
    # ------------------------------------------------------------------ #

    def offer(
        self,
        buffers: "list[TileBuffer]",
        tile_rows: np.ndarray,
        tile_cols: np.ndarray,
        row_active_next: np.ndarray,
        symmetric: bool,
        col_active_next: "np.ndarray | None" = None,
    ) -> None:
        """Offer processed tiles to the pool, analysing on pressure.

        Tiles that proactive analysis already rules out are not cached at
        all; when the pool is full, resident tiles are re-analysed with the
        *current* (possibly partial) next-iteration metadata and the
        unneeded ones evicted (§VI-C).
        """
        if self.policy is not CachePolicy.SCR:
            return
        keep_now = tiles_needed_for_rows(
            tile_rows, tile_cols, row_active_next, symmetric,
            col_active=col_active_next,
        )
        # One fancy-index over the batch instead of a numpy scalar lookup
        # per tile; pool membership goes through the dict directly.
        keep_l = keep_now[[buf.pos for buf in buffers]].tolist()
        resident = self.pool._tiles
        analysed = False
        cached_before = self.stats.tiles_cached
        for buf, keep in zip(buffers, keep_l):
            if not keep:
                continue
            if buf.pos in resident:
                continue  # re-offered rewind tile, already resident
            if self.pool.add(buf):
                self.stats.tiles_cached += 1
                continue
            # Pool full: run proactive analysis over residents, then
            # retry.  One analysis per offered batch — the metadata does
            # not change between tiles of the same batch, so re-running
            # it per tile would only burn CPU (profiling showed exactly
            # this hotspot).
            if not analysed:
                self._analyse(
                    tile_rows, tile_cols, row_active_next, symmetric,
                    col_active_next,
                )
                analysed = True
                if self.pool.add(buf):
                    self.stats.tiles_cached += 1
            # else: even after analysis there is no room — drop the tile
            # (it will be re-fetched next iteration if needed).
        if self.tracer.enabled:
            self.tracer.registry.counter("scr.tiles_cached").add(
                self.stats.tiles_cached - cached_before
            )

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
        residents = self.pool.positions()
        if not residents:
            return 0
        with self.tracer.span(
            "scr.analyse", cat="cache", residents=len(residents)
        ):
            res = np.asarray(residents, dtype=np.int64)
            keep = tiles_needed_for_rows(
                tile_rows[res], tile_cols[res], row_active_next, symmetric,
                col_active=col_active_next,
            )
            victims = res[~keep].tolist()
            self.pool.evict(victims)
            self.stats.tiles_evicted += len(victims)
            if self.tracer.enabled:
                self.tracer.registry.counter("scr.tiles_evicted").add(
                    len(victims)
                )
        return len(victims)

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

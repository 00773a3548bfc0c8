"""Layer walk: replay one engine op layer by layer with a timer on each.

``walk()`` drives an algorithm to convergence by calling the same public
functions ``GStoreEngine.run`` calls, in the same order, on the engine
thread with no prefetch — select -> SCR split/plan -> request merge ->
AIO service -> decode -> kernel partial / apply (or ``process_tile``) ->
SCR offer / end-of-iteration analysis.  Each shard's partial is applied
before the next is computed, as ``TileAlgorithm.process_batch`` does.
No tracing is added to ``src/``: every span is taken here, from outside.

API drift: if a later refactor renames or removes one of these public
functions, ``walk()`` raises :class:`WalkUnavailable` naming the layer
and the error; the caller reports that layer's metrics as ``null`` —
never as ``0`` — and end-to-end runs, which do not import this module,
are unaffected.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

#: Time buckets, in engine order.  The prefix before the dot is the
#: ``src/repro`` package the time is spent in.
TIMERS = (
    "engine.select_s",
    "memory.plan_s",
    "memory.rewind_s",
    "engine.merge_s",
    "storage.fetch_s",
    "format.decode_s",
    "algorithms.kernel_s",
    "algorithms.apply_s",
    "algorithms.process_tile_s",
    "memory.offer_s",
    "memory.end_iteration_s",
)


class WalkUnavailable(Exception):
    """A public function the walk needs is gone or changed shape."""

    def __init__(self, layer: str, error: str):
        super().__init__(f"{layer}: {error}")
        self.layer = layer
        self.error = error


@dataclass
class WalkResult:
    wall: float
    seconds: "dict[str, float]"
    counts: "dict[str, float]" = field(default_factory=dict)
    result: "np.ndarray | None" = None


class _LayerTimer:
    """Accumulates wall seconds per bucket; remembers the open bucket so a
    failure can be pinned on the layer that raised it."""

    def __init__(self) -> None:
        self.seconds: "dict[str, float]" = defaultdict(float)
        self.open: "str | None" = None
        self._t0 = 0.0

    def __call__(self, name: str) -> "_LayerTimer":
        self.open = name
        return self

    def __enter__(self) -> None:
        self._t0 = time.perf_counter()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds[self.open] += time.perf_counter() - self._t0
        if exc_type is None:
            self.open = None


def _require(obj, *names: str) -> None:
    for name in names:
        getattr(obj, name)


def _resolve(engine, algorithm) -> dict:
    """Look up every public name the walk calls, layer by layer."""
    api: dict = {}

    def need(layer: str, fn) -> None:
        try:
            api.update(fn() or {})
        except (ImportError, AttributeError) as exc:
            raise WalkUnavailable(layer, f"{type(exc).__name__}: {exc}") from exc

    def _engine() -> dict:
        from repro.engine.selective import merge_requests, select_positions

        return {"select_positions": select_positions,
                "merge_requests": merge_requests}

    def _memory() -> dict:
        from repro.memory.scr import SCRScheduler
        from repro.memory.segments import MemoryBudget, TileBuffer

        _require(SCRScheduler, "split_cached", "segment_plan",
                 "cached_buffers", "offer", "end_iteration")
        return {"SCRScheduler": SCRScheduler, "MemoryBudget": MemoryBudget,
                "TileBuffer": TileBuffer}

    def _storage() -> None:
        _require(engine, "query_context")
        _require(engine.store, "read")

    def _format() -> None:
        _require(engine.graph, "decode_batch", "split_run_views",
                 "decode_run", "decode_tiles")

    def _algorithms() -> None:
        _require(algorithm, "batch_shards", "batch_partial", "apply_partial",
                 "process_tile", "rows_active", "rows_active_next",
                 "cols_active", "cols_active_next", "tile_mask")

    need("engine", _engine)
    need("memory", _memory)
    need("storage", _storage)
    need("format", _format)
    need("algorithms", _algorithms)
    return api


def _run_split() -> int:
    # Pieces a batch's run-level views are cut into before sharding; the
    # float accumulation order follows it, so mirror the engine's value.
    from repro.engine import gstore

    return getattr(gstore, "_RUN_SPLIT", 8)


def walk(engine, algorithm) -> WalkResult:
    """Run ``algorithm`` over ``engine``'s graph, one timed layer at a time."""
    api = _resolve(engine, algorithm)
    timer = _LayerTimer()
    try:
        return _walk(engine, algorithm, api, timer)
    except (AttributeError, TypeError) as exc:
        layer = (timer.open or "engine").split(".")[0]
        raise WalkUnavailable(layer, f"{type(exc).__name__}: {exc}") from exc


def _walk(engine, algorithm, api: dict, T: _LayerTimer) -> WalkResult:
    select_positions = api["select_positions"]
    merge_requests = api["merge_requests"]
    TileBuffer = api["TileBuffer"]
    cfg = engine.config
    g = engine.graph
    se = g.start_edge
    tb = se.tuple_bytes
    dense_bytes = g.storage_bytes()
    fused = cfg.fused and algorithm.supports_fused
    run_split = _run_split()
    counts: "dict[str, float]" = defaultdict(float)

    def tile_bytes(positions) -> int:
        if len(positions) == 0:
            return 0
        return int((se.start_edge[positions + 1] - se.start_edge[positions]).sum()) * tb

    def execute(views) -> None:
        if not views:
            return
        if not fused:
            with T("algorithms.process_tile_s"):
                edges = 0
                for tv in views:
                    edges += algorithm.process_tile(tv)
            counts["tiles_dispatched"] += len(views)
        else:
            with T("algorithms.kernel_s"):
                shards = algorithm.batch_shards(views)
            edges = 0
            for shard in shards:
                with T("algorithms.kernel_s"):
                    partial = algorithm.batch_partial(shard)
                with T("algorithms.apply_s"):
                    edges += algorithm.apply_partial(partial)
                    # Dropped before the next shard's is built, as in
                    # process_batch: two live dense partials change what
                    # the allocator does and inflate kernel time.
                    partial = None
        counts["edges"] += edges

    def offer(buffers) -> None:
        with T("memory.offer_s"):
            scr.offer(
                buffers, g.tile_rows, g.tile_cols,
                algorithm.rows_active_next(), g.info.symmetric,
                algorithm.cols_active_next(),
            )

    t_start = time.perf_counter()
    ctx = engine.query_context()
    with T("algorithms.apply_s"):
        algorithm.setup(g)
    with T("memory.plan_s"):
        scr = api["SCRScheduler"](
            budget=api["MemoryBudget"](
                total_bytes=cfg.memory_bytes, segment_bytes=cfg.segment_bytes
            ),
            policy=cfg.cache_policy,
        )
    rewind_key = rewind_views = None
    iteration = 0
    while True:
        with T("algorithms.apply_s"):
            algorithm.begin_iteration(iteration)
        with T("engine.select_s"):
            needed = select_positions(
                g, algorithm.rows_active(), algorithm.cols_active(),
                algorithm.tile_mask(g.tile_rows, g.tile_cols),
            )
            counts["bytes_skipped"] += dense_bytes - tile_bytes(needed)
        with T("memory.plan_s"):
            cached, to_fetch = scr.split_cached(needed, se)
            plan = scr.segment_plan(to_fetch, se)

        if cached.size:
            with T("memory.rewind_s"):
                rewound = scr.cached_buffers(cached)
                if not fused:
                    misses = [b for b in rewound if b.view is None]
                    if misses:
                        decoded = g.decode_tiles(
                            [b.pos for b in misses], [b.data for b in misses]
                        )
                        for b, tv in zip(misses, decoded):
                            b.view = tv
                    views = [b.view for b in rewound]
                else:
                    key = cached.tolist()
                    if key != rewind_key:
                        runs = merge_requests(cached, se)
                        rewind_views, _ = g.decode_batch(
                            [(r.tag, engine.store.read(r.offset, r.size))
                             for r in runs],
                            with_tiles=False,
                        )
                        rewind_views = g.split_run_views(rewind_views, run_split)
                        rewind_key = key
                    views = rewind_views
                counts["tiles_from_cache"] += len(rewound)
                counts["bytes_from_cache"] += tile_bytes(cached)
            execute(views)
            offer(rewound)

        for batch in plan.batches:
            with T("engine.merge_s"):
                requests = merge_requests(list(batch), se)
            with T("storage.fetch_s"):
                events, io_t = ctx.aio.service(requests)
                ctx.aio.commit(io_t)
                counts["requests"] += len(requests)
                counts["bytes_read"] += sum(r.size for r in requests)
                counts["sim_io_s"] += io_t
            with T("format.decode_s"):
                buffers: list = []
                if fused:
                    views, tiles = g.decode_batch(
                        [(ev.tag, ev.data) for ev in events]
                    )
                    views = g.split_run_views(views, run_split)
                    for pos, i, j, raw in tiles:
                        buffers.append(TileBuffer(pos=pos, i=i, j=j, data=raw))
                else:
                    views = []
                    for ev in events:
                        for tv, raw in g.decode_run(ev.tag, ev.data):
                            buffers.append(
                                TileBuffer(pos=tv.pos, i=tv.i, j=tv.j,
                                           data=raw, view=tv)
                            )
                            views.append(tv)
                counts["tiles_fetched"] += len(buffers)
                for ev in events:
                    counts["edges_decoded"] += len(ev.data) // tb
            execute(views)
            offer(buffers)

        with T("algorithms.apply_s"):
            more = algorithm.end_iteration(iteration)
        counts["iterations"] += 1
        if not more:
            break
        with T("memory.end_iteration_s"):
            scr.end_iteration(
                g.tile_rows, g.tile_cols, algorithm.rows_active(),
                g.info.symmetric, algorithm.cols_active(),
            )
        iteration += 1

    counts["tiles_cached"] = scr.stats.tiles_cached
    wall = time.perf_counter() - t_start
    return WalkResult(
        wall=wall,
        seconds={name: T.seconds.get(name, 0.0) for name in TIMERS},
        counts=dict(counts),
        result=np.array(algorithm.result(), copy=True),
    )

"""The G-Store engine (paper §III overview; §V-§VI mechanics).

Per iteration the engine:

1. asks the algorithm which tile rows are active and *selects* the needed
   tiles (§V-B) — the plan is rebuilt from the frontier every iteration,
   so collapsed frontiers fetch almost nothing (``config.selective``;
   off is the dense fetch-everything ablation baseline, and the skipped
   tiles/bytes are accounted either way);
2. *rewinds*: tiles already in the cache pool are processed first, with no
   I/O (§VI-D);
3. *slides*: the remaining tiles stream through segment batches — batch
   ``k+1`` is fetched while batch ``k`` computes, so each pipeline step
   costs ``max(io, compute)`` (§VI-B).  The overlap exists on *both*
   clocks: the simulated timeline accounts it via
   :class:`~repro.runtime.pipeline.PipelineTimeline`, and with
   ``config.prefetch_depth >= 1`` a background prefetcher really fetches
   and decodes batches ``k+1..k+D`` (store read + ``decode_batch``, both
   GIL-releasing) while the engine thread computes batch ``k``.  Compute
   runs through the fused batch layer: a whole segment's tiles execute as
   one vectorised kernel pass, optionally sharded row-parallel over a
   persistent worker pool with a deterministic merge (``config.fused`` /
   ``config.workers``);
4. *caches*: processed tiles enter the pool under the proactive rules;
   when the pool fills, analysis evicts tiles the next iteration will not
   need (§VI-C).

Batches always *commit* (clock charge, compute, cache offer) in plan
order on the engine thread, so results — and the simulated timeline — are
bit-identical at any prefetch depth; depth 0 is the strictly serial
fetch-then-compute ablation baseline.

All kernels run for real over real tile bytes; I/O time comes from the
simulated SSD array and compute time from the cost model (see DESIGN.md).

Every piece of state a run mutates lives in a
:class:`~repro.engine.context.RunContext`; ``run()`` without one uses
the engine's own context (the classic batch path), while
:meth:`GStoreEngine.query_context` builds a private context so many
runs can execute concurrently over one engine — the serving layer's
foundation (docs/SERVING.md).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import TileAlgorithm
from repro.engine.checkpoint import CheckpointManager
from repro.engine.config import EngineConfig
from repro.engine.context import (
    RunContext,
    make_private_context,
    wire_device_counters,
)
from repro.engine.selective import (
    dense_positions,
    merge_requests,
    select_positions,
)
from repro.engine.stats import IterationStats, RunStats
from repro.errors import AlgorithmError, ChecksumError, FormatError, StorageError
from repro.faults.injector import FaultInjector
from repro.format.tiles import TiledGraph
from repro.memory.scr import SCRScheduler, SlidePlan
from repro.memory.segments import MemoryBudget, TileBuffer
from repro.obs import NULL_TRACER, Tracer
from repro.storage.aio import AIOContext
from repro.storage.file import TileStore
from repro.util.timer import SimClock, WallTimer
from repro.runtime.pipeline import PipelineTimeline, WallOverlap
from repro.runtime.shard import (
    ShardGather,
    ShardRuntime,
    ShardRuntimeError,
    build_device_array,
)
from repro.runtime.threads import (
    Prefetcher,
    WorkerPool,
    execute_batch,
    resolve_shards,
    resolve_workers,
)

#: Run-level views are split into this many equal-edge pieces per batch —
#: enough shards for the thread pool (and one piece per shard keeps the
#: single-view concat fast path) while staying worker-independent.
_RUN_SPLIT = 8


@dataclass
class _Batch:
    """One fetched segment: what the cache pool is offered plus the views
    compute consumes.

    On the fused path ``views`` is run-level (one view per merged extent)
    and ``tiles`` is the plan's ``int64`` position array, untouched — the
    pool accounts by position, so nothing per-tile is built.  On the
    per-tile path both are per-tile: ``tiles`` holds the
    :class:`TileBuffer` of every view, which a later rewind reuses.
    """

    tiles: "np.ndarray | list[TileBuffer]"
    views: list
    edges: int


@dataclass
class _ShardBatch:
    """One batch gathered from a shard worker: partials, not views.

    The worker already ran the read-only kernel phase; the engine thread
    applies the partials in chunk order (the same
    ``shard_views``-defined order every other path uses), then offers the
    batch's positions to the cache pool — membership is coordinator
    state, and no payload bytes ever cross the worker pipe.
    """

    tiles: np.ndarray
    partials: list


@dataclass
class _Prepared:
    """One serviced + decoded batch, ready to commit in plan order."""

    batch: _Batch
    io_time: float  # simulated service time, not yet charged to the clock
    bytes_read: int
    wall: float  # real seconds the preparation took (fetch + decode)


class GStoreEngine:
    """Semi-external graph engine over the tile format."""

    name = "gstore"

    def __init__(self, graph: TiledGraph, config: "EngineConfig | None" = None):
        self.graph = graph
        self.config = config or EngineConfig()
        self.clock = SimClock()
        # Shared with shard workers (repro.runtime.shard), which build
        # bit-identical device-array replicas from the same config.
        self.array = build_device_array(self.config, graph)
        #: Observability (``repro.obs``): a real tracer when
        #: ``config.trace`` is set, the shared no-op otherwise.  Spans and
        #: counters accumulate for the engine's lifetime; export them with
        #: :mod:`repro.obs.export` or ``python -m repro trace``.
        self.tracer = Tracer(clock=self.clock) if self.config.trace else NULL_TRACER
        self.store = TileStore.from_tiled_graph(graph)
        #: Fault-injection plane (docs/RELIABILITY.md).  ``None`` on the
        #: clean path — the substrate then behaves bit-identically to an
        #: engine without the fault plane.
        self.injector: "FaultInjector | None" = None
        if self.config.faults is not None:
            self.injector = FaultInjector(
                self.config.faults,
                self.tracer.registry if self.tracer.enabled else None,
            )
            self.injector.configure_array(self.array)
        #: Verify fetched tile extents against their CRC32C at decode time;
        #: defaults to on exactly when *storage* faults are being injected
        #: (transport-only plans never corrupt payloads — they exercise
        #: the shard supervisor, which needs verification off to shard).
        self._verify = (
            self.config.verify_checksums
            if self.config.verify_checksums is not None
            else (
                self.config.faults is not None
                and not self.config.faults.transport_only()
            )
        )
        self.aio = AIOContext(
            store=self.store, array=self.array, clock=self.clock,
            mode=self.config.io_mode, realize_io=self.config.realize_io,
            tracer=self.tracer, injector=self.injector,
            retry=self.config.retry,
        )
        if self.tracer.enabled:
            wire_device_counters(self.array, self.tracer.registry)
        #: Resolved row-parallel worker count ("auto" clamps to the cores
        #: actually present; 1 routes through the serial path).
        self.workers = resolve_workers(self.config.workers)
        # One persistent pool per engine for the fused layer's partial
        # phase; threads spawn lazily on first use and are joined by
        # close().
        self._pool: "WorkerPool | None" = None
        #: Resolved shard count (``config.shards``, or the ``REPRO_SHARDS``
        #: environment default).  >1 activates shard-parallel execution
        #: for runs that can shard (see ``_run_can_shard``).
        self.shards = resolve_shards(self.config.shards)
        # Shard runtime (persistent worker processes + scatter arena);
        # created lazily on the first shardable iteration, torn down by
        # close().  _shard_failed latches a graceful fallback to the
        # single-process path — permanently, for this engine.
        self._shard_rt: "ShardRuntime | None" = None
        self._shard_failed = False
        #: Supervisor accounting (docs/RELIABILITY.md "Distributed fault
        #: model"): worker deaths/hangs detected, respawns consumed from
        #: ``config.shard_respawn_budget``, and batches replayed.  Owned
        #: by the engine so the numbers survive a runtime teardown; the
        #: shard runtime increments it in place.
        self.supervisor: "dict[str, int]" = dict.fromkeys(
            ("respawns", "worker_deaths", "hangs", "replayed_batches"), 0
        )
        #: Wall-clock overlap accounting for the most recent *engine-context*
        #: run (private-context runs carry their own on the RunContext).
        self.wall_overlap = WallOverlap()
        # Dense demand baseline, fixed per graph: every non-empty position
        # plus its byte total.  Selective iterations measure what they
        # skipped against it; selective-off iterations fetch exactly it.
        self._dense_positions = dense_positions(graph)
        self._dense_bytes = int(
            graph.start_edge.tile_bytes(self._dense_positions).sum()
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def pool(self) -> WorkerPool:
        """The engine's persistent worker pool (created on first access)."""
        if self._pool is None:
            self._pool = WorkerPool(workers=self.workers)
        return self._pool

    def _run_can_shard(self, algorithm: TileAlgorithm) -> bool:
        """Whether this run may execute shard-parallel.

        Sharding needs a fused *snapshot* kernel (workers run the static
        ``kernel_partial`` from a state snapshot shipped at iteration
        start — a live kernel must see earlier commits instead) and a
        clean substrate: *storage* fault injection assigns request
        ordinals in global plan order under one AIO lock, and checksum
        verification happens at coordinator decode — neither exists on
        worker-private replicas, so those runs stay single-process rather
        than silently changing their semantics.  Transport-only fault
        plans (``kill``/``drop``/``delay``/``scatterfail``) are the
        exception: they target the shard transport itself and *require*
        sharding to mean anything.
        """
        return (
            self.shards > 1
            and not self._shard_failed
            and self.config.fused
            and algorithm.supports_fused
            and not algorithm.live_kernel
            and (
                self.injector is None
                or self.config.faults.transport_only()
            )
            and not self._verify
        )

    def _shard_runtime(
        self, ctx: "RunContext | None" = None
    ) -> "ShardRuntime | None":
        """The shard workers, spawned on first shardable iteration.

        Falls back to the single-process engine — permanently, for this
        engine — when shared memory or process spawning is unavailable
        (no ``/dev/shm``, sandboxed spawn, ...): the run completes either
        way with bit-identical results.
        """
        if self._shard_rt is None:
            rt = ShardRuntime(
                self.graph,
                self.config,
                self.shards,
                tracer=self.tracer,
                faults=self.config.faults,
                respawn_budget=self.config.shard_respawn_budget,
                heartbeat_timeout=self.config.shard_heartbeat_timeout,
                supervisor=self.supervisor,
            )
            try:
                rt.start()
            except Exception as exc:
                rt.shutdown()
                self._shard_fallback(ctx, "spawn_failed", exc)
                return None
            self._shard_rt = rt
        return self._shard_rt

    def _shard_fallback(
        self, ctx: "RunContext | None", reason: str, exc: BaseException
    ) -> None:
        """Degrade to the single-process path (counted + traced)."""
        self._shard_failed = True
        tracer = ctx.tracer if ctx is not None else self.tracer
        if ctx is not None:
            ctx.shard_active = False
        if tracer.enabled:
            tracer.registry.counter("shard.fallbacks").add(1)
            tracer.instant(
                "shard_fallback", cat="shard", reason=reason, error=str(exc)
            )

    def _teardown_shard_runtime(self) -> None:
        rt, self._shard_rt = self._shard_rt, None
        if rt is not None:
            rt.shutdown()

    @property
    def shard_failed(self) -> bool:
        """True once shard execution has permanently degraded to the
        single-process path (a latched engine-health signal the serve
        layer's :class:`~repro.serve.health.HealthMonitor` reads)."""
        return self._shard_failed

    def warm_backend(self) -> None:
        """Start the engine's workers now.  Benchmarks call this before
        timing so the one-time shard-worker spawn (interpreter + NumPy
        import per process) is paid off the measured path — in a
        persistent engine it amortises to zero.
        """
        if self.workers > 1:
            self.pool.executor  # noqa: B018 - touch spawns the threads
        if self.shards > 1 and not self._shard_failed:
            self._shard_runtime()

    def close(self) -> None:
        """Join and release the engine's workers — threads and shard
        processes — and unlink the scatter arena (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()
        self._teardown_shard_runtime()

    def __enter__(self) -> "GStoreEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #

    def query_context(
        self,
        *,
        trace: bool = False,
        deadline: "float | None" = None,
        cancel_event=None,
    ) -> RunContext:
        """A private, re-entrant run context over this engine's graph.

        The serving layer's entry point (docs/SERVING.md): any number of
        threads may each build a context and call
        ``engine.run(algo, context=ctx)`` concurrently on *one* engine.
        The context shares the immutable substrate (graph, tile-store
        mmap, configuration) but owns its clock, simulated device array,
        AIO context, and — when ``trace`` — a private tracer/registry, so
        per-query :class:`RunStats` and counters are fully isolated.
        Private runs execute single-process (kernels inline on the
        calling thread; no shard scatter or worker pool) and check
        ``deadline`` (relative seconds) cooperatively at iteration
        boundaries, raising :class:`~repro.errors.DeadlineError`.
        """
        return make_private_context(
            self, trace=trace, deadline=deadline, cancel_event=cancel_event
        )

    def _engine_context(self) -> RunContext:
        """The classic batch-mode context aliasing the engine singletons."""
        return RunContext(
            clock=self.clock, tracer=self.tracer, aio=self.aio,
            wall_overlap=WallOverlap(),
        )

    def run(
        self,
        algorithm: TileAlgorithm,
        checkpoint: "str | None" = None,
        context: "RunContext | None" = None,
    ) -> RunStats:
        """Execute the algorithm to convergence; returns full statistics.

        ``checkpoint`` names a directory for iteration-granular
        checkpoint/resume (docs/RELIABILITY.md): the algorithm's state is
        saved atomically at the end of every iteration, and when the
        directory already holds a checkpoint the run resumes after its
        iteration instead of starting over — producing result arrays
        bit-identical to an uninterrupted run (I/O statistics differ: a
        resumed run starts with a cold cache).

        ``context`` selects the run's mutable state.  ``None`` (the batch
        default) uses the engine's own clock/tracer/AIO singletons — one
        run at a time, exactly the historical behaviour.  A private
        context from :meth:`query_context` makes the call re-entrant:
        concurrent runs with distinct contexts are safe on one engine.
        """
        cfg = self.config
        g = self.graph
        ctx = context if context is not None else self._engine_context()
        ctx.rewind_key = None
        ctx.rewind_merged = None
        ctx.degraded = False
        # Private contexts trade intra-query parallelism for cross-query
        # concurrency: no shard scatter (the shard runtime is bound to
        # the engine's clock and gather queue, which are not re-entrant).
        ctx.shard_active = (
            not ctx.private and self._run_can_shard(algorithm)
        )
        if not ctx.private:
            self.wall_overlap = ctx.wall_overlap
        if self._verify:
            g.ensure_checksums()
        ckpt = CheckpointManager(checkpoint) if checkpoint else None
        with WallTimer() as wall, ctx.tracer.span(
            "run", cat="engine", algorithm=algorithm.name, graph=g.info.name
        ):
            algorithm.setup(g)
            start_iteration = 0
            resume_cached: "list[int] | None" = None
            if ckpt is not None:
                loaded = ckpt.load()
                if loaded is not None:
                    saved_iter, arrays, scalars, engine_state = loaded
                    ckpt.restore(algorithm, g.info.name, arrays, scalars)
                    start_iteration = saved_iter + 1
                    resume_cached = engine_state.get("cached_positions")
            budget = MemoryBudget(
                total_bytes=cfg.memory_bytes, segment_bytes=cfg.segment_bytes
            )
            scr = SCRScheduler(
                budget=budget, policy=cfg.cache_policy, tracer=ctx.tracer,
                start_edge=g.start_edge,
            )
            if resume_cached:
                # Rebuild the cache pool the interrupted run had at this
                # boundary: payloads are zero-copy slices of the backing
                # store, so membership (not bytes) is all the checkpoint
                # records.  Same pool => same rewind/slide batch structure
                # => bit-identical float accumulation order on resume.
                self._seed_pool(scr, resume_cached)
            stats = RunStats(
                engine=self.name,
                algorithm=algorithm.name,
                graph=g.info.name,
            )
            timeline = PipelineTimeline(
                clock=ctx.clock, overlap=cfg.overlap, tracer=ctx.tracer
            )

            iteration = start_iteration
            while iteration < cfg.max_iterations:
                # Cooperative cancellation point: between iterations no
                # prefetcher or shard gather is live, so a deadline can
                # stop the run without leaking threads or queue state.
                ctx.check_cancelled()
                it_stats = self._run_iteration(
                    algorithm, scr, timeline, iteration, ctx
                )
                stats.add_iteration(it_stats)
                if not algorithm.end_iteration(iteration):
                    break
                scr.end_iteration(
                    g.tile_rows,
                    g.tile_cols,
                    algorithm.rows_active() if cfg.selective
                    else np.ones(g.p, dtype=bool),
                    g.info.symmetric,
                    algorithm.cols_active() if cfg.selective else None,
                )
                if ckpt is not None:
                    # Saved after the end-of-iteration cache analysis, so
                    # the recorded pool is exactly the next iteration's
                    # starting state.
                    ckpt.save(
                        algorithm, g.info.name, iteration,
                        engine_state={
                            "cached_positions": scr.pool.positions()
                        },
                    )
                iteration += 1
            else:
                raise AlgorithmError(
                    f"{algorithm.name} did not converge within "
                    f"{cfg.max_iterations} iterations"
                )

        stats.wall_seconds = wall.elapsed
        ctx.wall_overlap.elapsed = wall.elapsed
        stats.metadata_bytes = algorithm.metadata_bytes()
        stats.extra["scr"] = scr.stats
        stats.extra["pipeline"] = timeline.totals
        stats.extra["pipeline_wall"] = ctx.wall_overlap.as_dict()
        stats.extra["execution"] = {
            "fused": cfg.fused and algorithm.supports_fused,
            "selective": cfg.selective,
            "workers": cfg.workers,
            # Private contexts always walk the serial kernel path — the
            # honest resolution, whatever the engine-level worker count.
            "workers_resolved": 1 if ctx.private else self.workers,
            "shards": cfg.shards,
            # What this run actually executed with: the configured shard
            # count when the sharded path ran to completion, else 1
            # (non-shardable run, or graceful fallback mid-run).
            "shards_resolved": self.shards if ctx.shard_active else 1,
            "prefetch_depth": cfg.prefetch_depth,
            "realize_io": cfg.realize_io,
            "degraded": ctx.degraded,
            "private_context": ctx.private,
        }
        if self.shards > 1:
            stats.extra["supervisor"] = dict(self.supervisor)
        if self.injector is not None:
            stats.extra["faults"] = {
                "plan": self.injector.plan.describe(),
                "injected": len(self.injector.log),
                "counters": self.injector.counters(),
            }
        if ctx.tracer.enabled:
            stats.extra["counters"] = ctx.tracer.registry.as_dict()
        return stats

    # ------------------------------------------------------------------ #

    def _run_iteration(
        self,
        algorithm: TileAlgorithm,
        scr: SCRScheduler,
        timeline: PipelineTimeline,
        iteration: int,
        ctx: RunContext,
    ) -> IterationStats:
        cfg = self.config
        g = self.graph
        tracer = ctx.tracer
        it = IterationStats(iteration=iteration)
        elapsed_before = timeline.totals.elapsed
        with tracer.span("iteration", cat="engine", iteration=iteration):
            algorithm.begin_iteration(iteration)

            with tracer.span("select", cat="engine", iteration=iteration):
                if cfg.selective:
                    needed = select_positions(
                        g,
                        algorithm.rows_active(),
                        algorithm.cols_active(),
                        algorithm.tile_mask(g.tile_rows, g.tile_cols),
                    )
                else:
                    # Dense ablation baseline: every non-empty tile, every
                    # iteration — what the engine did before activity-aware
                    # skipping.
                    needed = self._dense_positions
                # Skip accounting against the fixed dense demand: what a
                # fetch-everything iteration would have moved but this
                # one's frontier ruled out.
                needed_bytes = int(g.start_edge.tile_bytes(needed).sum())
                it.tiles_skipped = int(self._dense_positions.size - needed.size)
                it.bytes_skipped = self._dense_bytes - needed_bytes
                scr.note_skipped(it.tiles_skipped, it.bytes_skipped)
                cached, to_fetch = scr.split_cached(needed, g.start_edge)
                # The slide schedule is fixed before anything executes, so
                # the prefetcher can run arbitrarily far ahead of compute.
                plan: SlidePlan = scr.segment_plan(to_fetch, g.start_edge)
            fused = cfg.fused and algorithm.supports_fused

            # Shard-parallel slide: scatter the iteration's frozen kernel
            # state plus each worker's lane of the plan *before* rewind,
            # so workers fetch + compute while the coordinator rewinds.
            # (Safe: workers compute from the iteration-start snapshot;
            # every shardable kernel is snapshot-tolerant — see
            # repro.runtime.shard.)
            gather: "ShardGather | None" = None
            if ctx.shard_active and plan.n_batches > 0:
                rt = self._shard_runtime(ctx)
                if rt is not None:
                    try:
                        gather = rt.begin_iteration(
                            algorithm, plan, iteration=iteration
                        )
                    except ShardRuntimeError as exc:
                        self._teardown_shard_runtime()
                        self._shard_fallback(ctx, "scatter_failed", exc)

            # Shard workers prefetch their own lanes; the coordinator-side
            # prefetcher only runs on single-process iterations.
            prefetcher: "Prefetcher | None" = None
            if (
                gather is None
                and cfg.prefetch_depth > 0
                and plan.n_batches > 0
                and not ctx.degraded
            ):
                jobs = [
                    (lambda b=batch: self._prepare(b, fused, ctx))
                    for batch in plan.batches
                ]
                prefetcher = Prefetcher(
                    jobs, depth=cfg.prefetch_depth, tracer=tracer
                )

            try:
                # --- Rewind: consume the pool before any I/O (§VI-D). ---
                if cached.size:
                    # Decoded here on the engine thread; the prefetcher
                    # (or the shard workers) already fetch the first
                    # slide batches on their own threads meanwhile.
                    views = self._rewind_views(algorithm, scr, cached, ctx)
                    tc0 = _time.perf_counter()
                    with tracer.span(
                        "compute", cat="compute", phase="rewind",
                        tiles=len(cached),
                    ):
                        edges = self._execute_views(algorithm, views, ctx)
                    ctx.wall_overlap.compute_busy += _time.perf_counter() - tc0
                    t = cfg.cost_model.compute_time(
                        algorithm.name, edges * algorithm.direction_passes,
                        len(cached),
                    )
                    timeline.compute_only(t)
                    it.compute_time += t
                    it.tiles_from_cache += len(cached)
                    it.edges_processed += edges
                    it.bytes_from_cache += int(
                        g.start_edge.tile_bytes(cached).sum()
                    )
                    # Rewound tiles are resident already, so there is
                    # nothing to offer.  The ones the next iteration no
                    # longer needs are dropped where every stale resident
                    # is: by the analysis a later offer runs when the pool
                    # is under pressure, and by end_iteration's analysis
                    # with the complete next frontier.

                # --- Slide: overlapped fetch/compute over segment batches.
                # Batch k computes on the engine thread while the
                # prefetcher prepares k+1..k+depth; each batch then commits
                # (clock, stats, cache offer) in plan order.
                prev: "_Prepared | None" = None
                for k in range(plan.n_batches):
                    comp_t = 0.0
                    tc0 = _time.perf_counter()
                    if prev is not None:
                        with tracer.span(
                            "compute", cat="compute", phase="slide",
                            batch=k - 1,
                        ):
                            comp_t = self._process_batch(
                                algorithm, scr, prev.batch, it, ctx
                            )
                    tc1 = _time.perf_counter()
                    ctx.wall_overlap.compute_busy += tc1 - tc0
                    if gather is not None:
                        with tracer.span("stall", cat="pipeline", batch=k):
                            try:
                                sp = gather.get()
                                prep = _Prepared(
                                    batch=_ShardBatch(
                                        tiles=plan.batches[k],
                                        partials=sp.partials,
                                    ),
                                    io_time=sp.io_time,
                                    bytes_read=sp.bytes_read,
                                    wall=sp.wall,
                                )
                            except ShardRuntimeError as exc:
                                # Graceful degradation: a shard worker
                                # died mid-iteration.  Already-gathered
                                # batches are applied and committed;
                                # nothing from batch k onward touched the
                                # clock or the algorithm, so finishing
                                # those batches on the coordinator's own
                                # fetch path keeps results and simulated
                                # stats bit-identical.
                                gather = None
                                self._teardown_shard_runtime()
                                self._shard_fallback(ctx, "worker_died", exc)
                                prep = self._prepare(
                                    plan.batches[k], fused, ctx
                                )
                        stall = _time.perf_counter() - tc1
                    elif prefetcher is not None:
                        with tracer.span("stall", cat="pipeline", batch=k):
                            try:
                                prep: _Prepared = prefetcher.get()
                            except (StorageError, FormatError) as exc:
                                # Graceful degradation: the prefetch
                                # pipeline died on a persistent storage or
                                # corruption fault.  Drain it (no thread
                                # leak), then re-attempt this batch — and
                                # run the rest of the run — serially on
                                # the engine thread; if the fault truly
                                # persists (e.g. a dead RAID member) the
                                # serial attempt propagates it typed.
                                prefetcher.close()
                                prefetcher = None
                                ctx.degraded = True
                                if self.injector is not None:
                                    self.injector.registry.counter(
                                        "fault.prefetch_fallbacks"
                                    ).add(1)
                                tracer.instant(
                                    "prefetch_fallback", cat="pipeline",
                                    batch=k, error=str(exc),
                                )
                                prep = self._prepare(
                                    plan.batches[k], fused, ctx
                                )
                        stall = _time.perf_counter() - tc1
                    else:
                        prep = self._prepare(plan.batches[k], fused, ctx)
                        stall = prep.wall  # serial path: compute waits it out
                    ctx.wall_overlap.record_fetch(
                        prep.wall, stall,
                        prefetched=prefetcher is not None or gather is not None,
                    )
                    ctx.aio.commit(prep.io_time)
                    timeline.step(prep.io_time, comp_t)
                    it.io_time += prep.io_time
                    it.compute_time += comp_t
                    it.bytes_read += prep.bytes_read
                    it.tiles_fetched += len(prep.batch.tiles)
                    prev = prep

                # Pipeline drain: the last fetched batch computes with no
                # I/O.
                if prev is not None:
                    tc0 = _time.perf_counter()
                    with tracer.span(
                        "compute", cat="compute", phase="drain",
                        batch=plan.n_batches - 1,
                    ):
                        comp_t = self._process_batch(
                            algorithm, scr, prev.batch, it, ctx
                        )
                    ctx.wall_overlap.compute_busy += _time.perf_counter() - tc0
                    timeline.compute_only(comp_t)
                    it.compute_time += comp_t
            finally:
                # An algorithm exception must not leak the prefetch thread
                # or leave undelivered shard results in the queue (a dirty
                # queue would corrupt the next iteration's gather; if the
                # drain fails the runtime marks itself broken and the next
                # scatter falls back gracefully).
                if prefetcher is not None:
                    prefetcher.close()
                if gather is not None:
                    gather.close()

        it.elapsed = timeline.totals.elapsed - elapsed_before
        if tracer.enabled:
            # Flush the iteration's aggregates into the counters registry;
            # summed over iterations these match RunStats field for field
            # (asserted by tests/test_obs.py).
            reg = tracer.registry
            reg.counter("engine.iterations").add(1)
            reg.counter("engine.batches").add(plan.n_batches)
            reg.counter("engine.io_time_sim").add(it.io_time)
            reg.counter("engine.compute_time_sim").add(it.compute_time)
            reg.counter("engine.bytes_read").add(it.bytes_read)
            reg.counter("engine.bytes_from_cache").add(it.bytes_from_cache)
            reg.counter("engine.tiles_fetched").add(it.tiles_fetched)
            reg.counter("engine.tiles_from_cache").add(it.tiles_from_cache)
            reg.counter("engine.edges_processed").add(it.edges_processed)
            reg.counter("engine.bytes_skipped").add(it.bytes_skipped)
            reg.counter("engine.tiles_skipped").add(it.tiles_skipped)
            # Per-iteration bytes lane on the simulated clock: one span
            # per iteration on the ``sim:bytes`` track carrying the moved
            # vs skipped byte split.  Emitted in plan order on the engine
            # thread, so — like every simulated lane — the export is
            # bit-identical at any prefetch depth or worker count.
            tracer.sim_span(
                "bytes",
                start=elapsed_before,
                duration=it.elapsed,
                track="sim:bytes",
                cat="bytes",
                iteration=iteration,
                bytes_read=it.bytes_read,
                bytes_from_cache=it.bytes_from_cache,
                bytes_skipped=it.bytes_skipped,
                tiles_skipped=it.tiles_skipped,
            )
        return it

    # ------------------------------------------------------------------ #

    def _prepare(
        self, batch_positions: np.ndarray, fused: bool, ctx: RunContext
    ) -> _Prepared:
        """Fetch + decode one slide batch (runs on the prefetch thread when
        prefetching, inline on the engine thread at depth 0).

        Everything here is free of engine-thread state: the AIO service
        half is thread-safe and clock-free, the store reads are zero-copy,
        and the NumPy decode releases the GIL — which is exactly what makes
        the overlap with compute real.
        """
        g = self.graph
        t0 = _time.perf_counter()
        tracer = ctx.tracer
        with tracer.span("prepare", cat="pipeline", tiles=len(batch_positions)):
            requests = merge_requests(batch_positions, g.start_edge)
            events, io_t = ctx.aio.service(requests)
            views: list = []
            edges = 0
            tb = g.start_edge.tuple_bytes
            verify = self._verify
            with tracer.span("decode", cat="decode", tiles=len(batch_positions)):
                if fused:
                    # Batch-level decode: one widened global-ID buffer for
                    # the whole batch, one run-level view per extent — the
                    # fused kernels concatenate everything anyway, the pool
                    # accounts by position, and the checksum kernel takes
                    # the batch's extents as they are, so nothing cuts
                    # them into tiles.
                    tiles = batch_positions
                    runs = [(ev.tag, ev.data) for ev in events]
                    if verify:
                        self._verified(g.verify_batch_bytes, runs)
                    views, _ = g.decode_batch(runs, with_tiles=False)
                    views = g.split_run_views(views, _RUN_SPLIT)
                else:
                    tiles = []
                    for ev in events:
                        # One vectorised decode per merged extent: a single
                        # frombuffer + global-ID widening covers the whole
                        # run.
                        for tv, raw in g.decode_run(ev.tag, ev.data):
                            if verify:
                                self._verified(
                                    g.verify_tile_bytes, tv.pos, raw
                                )
                            tiles.append(
                                TileBuffer(
                                    pos=tv.pos, i=tv.i, j=tv.j, data=raw,
                                    view=tv,
                                )
                            )
                            views.append(tv)
                for ev in events:
                    edges += len(ev.data) // tb
        return _Prepared(
            batch=_Batch(tiles=tiles, views=views, edges=edges),
            io_time=io_t,
            bytes_read=sum(r.size for r in requests),
            wall=_time.perf_counter() - t0,
        )

    def _seed_pool(self, scr: SCRScheduler, positions: "list[int]") -> None:
        """Repopulate the cache pool from a checkpoint's membership list.

        Residency is all there is to restore — no simulated I/O (the
        interrupted run already paid for these bytes, and re-charging them
        would skew the resumed timeline for data that is by definition
        cache-resident) and no payload either: fused rewinds decode
        straight off the backing store, and the per-tile rewind fills in a
        buffer for a position that has none.  The recorded pool fitted
        this budget; under a smaller one the leading tiles that fit stay.
        """
        pos = np.unique(np.asarray(positions, dtype=np.int64))
        sizes = self.graph.start_edge.tile_bytes(pos)
        fits = np.cumsum(sizes) <= scr.pool.free_bytes
        scr.pool.admit(pos[fits], sizes[fits])

    def _verified(self, check, *args) -> None:
        """Run one of the graph's checksum checks over fetched bytes (on
        whichever thread decoded them); counts the failure before the
        typed error propagates.  The rewind path skips this — the cache
        pool only ever holds bytes that were verified on the way in."""
        try:
            check(*args)
        except ChecksumError:
            if self.injector is not None:
                self.injector.registry.counter(
                    "fault.checksum_failures"
                ).add(1)
            raise

    def _rows_active_next(self, algorithm: TileAlgorithm) -> np.ndarray:
        """Next-iteration row activity as proactive caching should see it.

        With selective scheduling off the cache must not consult frontier
        metadata either — every row reads as active, so nothing is ruled
        out of the pool and the run reproduces the pre-selective dense
        engine exactly.
        """
        if self.config.selective:
            return algorithm.rows_active_next()
        return np.ones(self.graph.p, dtype=bool)

    def _cols_active_next(self, algorithm: TileAlgorithm) -> "np.ndarray | None":
        if self.config.selective:
            return algorithm.cols_active_next()
        return None

    def _rewind_views(
        self,
        algorithm: TileAlgorithm,
        scr: SCRScheduler,
        cached: np.ndarray,
        ctx: RunContext,
    ):
        """Views for the rewind batch.

        Per-tile views are decoded lazily, once per pooled buffer.  On the
        fused path the whole rewind set is instead merged into a few
        run-level views over one concatenated global-ID array — memoized on
        the cached-position array (per run, on the context), so all-active
        algorithms (which rewind an identical set every iteration) pay the
        merge exactly once.  The merged pieces concatenate back to the
        per-tile edge order, and their count is worker-independent, so the
        determinism contract of the fused layer is unchanged.
        """
        g = self.graph
        fused = self.config.fused and algorithm.supports_fused
        if not fused:
            # Per-tile execution: every resident tile has the buffer its
            # slide batch offered — except after a checkpoint resume, which
            # seeds the pool from positions only; those read their payload
            # straight off the backing store (already paid for).
            pool = scr.pool
            rewound = []
            for pos in cached.tolist():
                buf = pool.get(pos)
                if buf is None:
                    buf = TileBuffer(
                        pos=pos,
                        i=int(g.tile_rows[pos]),
                        j=int(g.tile_cols[pos]),
                        data=self.store.read(*g.start_edge.byte_extent(pos)),
                    )
                    pool.attach((buf,))
                rewound.append(buf)
            # Decode pooled tiles lazily, once per buffer lifetime.
            misses = [buf for buf in rewound if buf.view is None]
            if misses:
                with ctx.tracer.span(
                    "rewind.decode", cat="decode", tiles=len(misses)
                ):
                    decoded = g.decode_tiles(
                        [buf.pos for buf in misses],
                        [buf.data for buf in misses],
                    )
                    for buf, tv in zip(misses, decoded):
                        buf.view = tv
            return [buf.view for buf in rewound]
        if ctx.rewind_key is not None and np.array_equal(
            cached, ctx.rewind_key
        ):
            return ctx.rewind_merged
        # Fused path: resident tiles are zero-copy slices of the immutable
        # tile store, so the rewind set can be re-merged into byte-adjacent
        # extents and batch-decoded straight off the backing buffer — no
        # per-tile views, no simulated I/O (the pool already paid for
        # these bytes).
        with ctx.tracer.span(
            "rewind.decode", cat="decode", tiles=len(cached)
        ):
            runs = merge_requests(cached, g.start_edge)
            views, _ = g.decode_batch(
                [(r.tag, self.store.read(r.offset, r.size)) for r in runs],
                with_tiles=False,
            )
            views = g.split_run_views(views, _RUN_SPLIT)
        ctx.rewind_key = cached
        ctx.rewind_merged = views
        return views

    def _execute_views(
        self, algorithm: TileAlgorithm, views, ctx: RunContext
    ) -> int:
        """Route one batch through ``execute_batch``.

        The single funnel for kernel execution.  Private contexts always
        run serial — their concurrency is across queries, not within one.
        """
        kw = 1 if ctx.private else self.workers
        return execute_batch(
            algorithm, views, fused=self.config.fused, workers=kw,
            pool=self.pool if kw > 1 else None,
        )

    def _process_batch(
        self,
        algorithm: TileAlgorithm,
        scr: SCRScheduler,
        batch: "_Batch | _ShardBatch",
        it: IterationStats,
        ctx: RunContext,
    ) -> float:
        g = self.graph
        if isinstance(batch, _ShardBatch):
            # The read-only kernel phase already ran on a shard worker;
            # apply its partials here in chunk order — the same
            # shard_views-defined sequence every single-process path
            # commits in, which is what keeps float accumulation (and so
            # results) bit-identical at any shard count.
            edges = 0
            for partial in batch.partials:
                edges += algorithm.apply_partial(partial)
        else:
            edges = self._execute_views(algorithm, batch.views, ctx)
        it.edges_processed += edges
        scr.offer(
            batch.tiles,
            g.tile_rows,
            g.tile_cols,
            self._rows_active_next(algorithm),
            g.info.symmetric,
            self._cols_active_next(algorithm),
        )
        return self.config.cost_model.compute_time(
            algorithm.name,
            edges * algorithm.direction_passes,
            len(batch.tiles),
        )

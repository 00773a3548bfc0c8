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
   :class:`~repro.runtime.pipeline.PipelineTimeline`, and one loop —
   compute ``k-1``, get ``k``, commit ``k`` — draws prepared batches from
   one ordered source: at prefetch depth ``D >= 1`` a background
   prefetcher really fetches and decodes batches ``k+1..k+D`` while the
   engine thread computes batch ``k``; depth 0 prepares each batch
   inside ``get()``.
   :meth:`GStoreEngine._prefetch_depth` resolves the depth in one place:
   an explicit ``config.prefetch_depth`` as given; unset, 2 when reads
   block (``config.realize_io``) and 0 over page-cached reads, where a
   fetch is a buffer slice and the thread would overlap nothing.  A
   source that fails mid-run is closed and the run continues from the
   same batch at depth 0 (:meth:`GStoreEngine._get`, the one degrade
   step).  Compute runs through the fused batch layer: a whole segment's
   tiles execute as one vectorised kernel pass per shard; a kernel that
   declares :attr:`~repro.algorithms.base.TileAlgorithm.pooled` has its
   shards computed row-parallel over a persistent thread pool, one thread
   per CPU up to the shard count, with a deterministic merge;
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
:meth:`GStoreEngine.query_context` builds a private context so any
number of threads can run queries over one engine — the serving layer's
foundation (docs/SERVING.md).  Private runs share no data, but they do
share the interpreter, so each is exactly one thread (depth-0 source,
serial kernels) and they take the engine lane one at a time, in arrival
order (:mod:`repro.runtime.lane`).
"""

from __future__ import annotations

import time as _time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.algorithms.base import TileAlgorithm
from repro.engine.checkpoint import CheckpointManager
from repro.engine.config import EngineConfig
from repro.engine.context import (
    RunContext,
    SplitMemo,
    make_private_context,
    wire_device_counters,
)
from repro.engine.selective import (
    batch_extents,
    dense_positions,
    select_positions,
)
from repro.engine.stats import (
    NULL_LAYERS,
    IterationStats,
    LayerClock,
    RunStats,
)
from repro.errors import AlgorithmError, ChecksumError, FormatError, StorageError
from repro.faults.injector import FaultInjector
from repro.format.tiles import BatchLayout, DecodedBatch, TiledGraph
from repro.memory.scr import SCRScheduler, SlidePlan
from repro.memory.segments import MemoryBudget
from repro.obs import NULL_TRACER, Tracer
from repro.storage.aio import AIOContext, Extents
from repro.storage.file import TileStore
from repro.storage.raid import Raid0Array
# ``_RUN_SPLIT``: the name benchmarks/perf/layer_walk.py mirrors the
# engine's batch split through.
from repro.types import SHARDS_PER_BATCH as _RUN_SPLIT
from repro.util.timer import SimClock, WallTimer
from repro.runtime.lane import FifoLane
from repro.runtime.pipeline import PipelineTimeline
from repro.runtime.prefetch import BLOCKING_IO_DEPTH, Prefetcher, Prepared
from repro.runtime import threads
from repro.runtime.threads import WORKER_THREAD_PREFIX, execute_batch


class GStoreEngine:
    """Semi-external graph engine over the tile format."""

    name = "gstore"

    def __init__(self, graph: TiledGraph, config: "EngineConfig | None" = None):
        self.graph = graph
        self.config = config or EngineConfig()
        self.clock = SimClock()
        # Private query contexts build bit-identical replicas from the
        # same config.
        self.array = Raid0Array.from_config(self.config)
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
        #: defaults to on exactly when faults are being injected.
        self._verify = (
            self.config.verify_checksums
            if self.config.verify_checksums is not None
            else self.config.faults is not None
        )
        self.aio = AIOContext(
            store=self.store, array=self.array, clock=self.clock,
            mode=self.config.io_mode, realize_io=self.config.realize_io,
            tracer=self.tracer, injector=self.injector,
        )
        if self.tracer.enabled:
            wire_device_counters(self.array, self.tracer.registry)
        #: Threads of the kernel pool a ``pooled`` kernel runs on (1: none).
        self.kernel_threads = threads.kernel_threads()
        # Created by the first batch that needs it; joined by close().
        self._pool: "ThreadPoolExecutor | None" = None
        #: What the slide loop's degrade step has latched on this engine,
        #: as health reason -> the error that caused it:
        #: ``"prefetch_degraded"`` (a prefetch pipeline died and its run
        #: finished on serial engine-thread I/O).  Recorded with or
        #: without a fault injector; the serve layer's
        #: :class:`~repro.serve.health.HealthMonitor` reports the keys.
        self.degradations: "dict[str, str]" = {}
        #: The engine lane: private-context runs take it one at a time, in
        #: arrival order (:meth:`run`).  Width one is the measured optimum
        #: on CPython — the run loop is interpreter-bound, so two runs
        #: side by side cost 2-3x the CPU of the same two in turn
        #: (docs/SERVING.md "Concurrency model").
        self.lane = FifoLane()
        # Dense demand baseline, fixed per graph: every non-empty position
        # plus its byte total.  Selective iterations measure what they
        # skipped against it; selective-off iterations fetch exactly it.
        self._dense_positions = dense_positions(graph)
        self._dense_positions.flags.writeable = False
        self._dense_bytes = int(
            graph.start_edge.tile_bytes(self._dense_positions).sum()
        )
        # Every row active: what the cache sees with selective off.
        # Read-only, so every iteration and batch can share it.
        self._all_rows = np.ones(graph.p, dtype=bool)
        self._all_rows.flags.writeable = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def pool(self) -> ThreadPoolExecutor:
        """The engine's persistent kernel thread pool (created on first
        access, by the first batch of a ``pooled`` kernel)."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.kernel_threads,
                thread_name_prefix=WORKER_THREAD_PREFIX,
            )
        return self._pool

    def close(self) -> None:
        """Join and release the engine's pool threads (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

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
        ``engine.run(algo, context=ctx)`` on *one* engine.
        The context shares the immutable substrate (graph, tile-store
        mmap, configuration) but owns its clock, simulated device array,
        AIO context, and — when ``trace`` — a private tracer/registry, so
        per-query :class:`RunStats` and counters are fully isolated.
        A private run is exactly one thread (fetch, decode and kernels
        inline on the calling thread; no kernel pool or prefetch thread),
        waits its turn in the engine lane (:meth:`run`) and checks
        ``deadline`` (relative seconds) cooperatively — in the lane's
        queue and at iteration boundaries — raising
        :class:`~repro.errors.DeadlineError`.
        """
        return make_private_context(
            self, trace=trace, deadline=deadline, cancel_event=cancel_event
        )

    def _engine_context(self) -> RunContext:
        """The classic batch-mode context aliasing the engine singletons."""
        return RunContext(clock=self.clock, tracer=self.tracer, aio=self.aio)

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
        any number of threads may call it on one engine.  Those runs take
        the engine lane (``self.lane``) in strict arrival order; the wait
        honours the context's deadline and cancel event (a run that gives
        up in the queue raises :class:`~repro.errors.DeadlineError`
        having touched nothing) and is reported as
        ``extra["execution"]["lane_wait_s"]``, outside ``wall_seconds``.
        """
        ctx = context if context is not None else self._engine_context()
        if not ctx.private:
            return self._run(algorithm, checkpoint, ctx)
        t0 = _time.perf_counter()
        try:
            self.lane.acquire(ctx.wait_slice)
        finally:  # a run that gave up in the queue waited too
            ctx.lane_wait = _time.perf_counter() - t0
        try:
            return self._run(algorithm, checkpoint, ctx)
        finally:
            self.lane.release()

    def _run(
        self,
        algorithm: TileAlgorithm,
        checkpoint: "str | None",
        ctx: RunContext,
    ) -> RunStats:
        """:meth:`run`, on a resolved context (lane, if any, held)."""
        cfg = self.config
        g = self.graph
        ctx.split_memo = None
        ctx.degraded = False
        if self._verify:
            g.ensure_checksums()
        ckpt = CheckpointManager(checkpoint) if checkpoint else None
        with WallTimer() as wall, ctx.tracer.span(
            "run", cat="engine", algorithm=algorithm.name, graph=g.info.name
        ):
            laps = ctx.layers = (
                LayerClock() if ctx.tracer.enabled else NULL_LAYERS
            )
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
            laps.lap("hooks")
            budget = MemoryBudget(
                total_bytes=cfg.memory_bytes, segment_bytes=cfg.segment_bytes
            )
            scr = SCRScheduler(
                budget=budget, policy=cfg.cache_policy, tracer=ctx.tracer,
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
            laps.lap("select_plan")

            iteration = start_iteration
            while iteration < cfg.max_iterations:
                # Cooperative cancellation point: between iterations no
                # prefetcher is live, so a deadline can stop the run
                # without leaking threads or queue state.
                ctx.check_cancelled()
                it_stats = self._run_iteration(
                    algorithm, scr, timeline, iteration, ctx
                )
                stats.add_iteration(it_stats)
                more = algorithm.end_iteration(iteration)
                laps.lap("hooks")
                if not more:
                    break
                scr.end_iteration(
                    g.tile_rows,
                    g.tile_cols,
                    algorithm.rows_active() if cfg.selective
                    else self._all_rows,
                    g.info.symmetric,
                    algorithm.cols_active() if cfg.selective else None,
                )
                laps.lap("scr_analysis")
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
        layers = laps.close(wall.elapsed, ctx.lane_wait)
        if layers is not None:
            stats.extra["layers"] = layers
        stats.metadata_bytes = algorithm.metadata_bytes()
        stats.extra["scr"] = scr.stats
        stats.extra["pipeline"] = timeline.totals
        stats.extra["pipeline_wall"] = ctx.wall_overlap.as_dict()
        stats.extra["execution"] = {
            "selective": cfg.selective,
            "kernel_threads": self._threads_for(algorithm, ctx),
            "prefetch_depth": cfg.prefetch_depth,
            "prefetch_depth_resolved": self._prefetch_depth(ctx),
            "lane_wait_s": ctx.lane_wait,
            "realize_io": cfg.realize_io,
            "degraded": ctx.degraded,
            "private_context": ctx.private,
        }
        if self.injector is not None:
            stats.extra["faults"] = {
                "plan": self.injector.plan.describe(),
                "injected": len(self.injector.log),
                "counters": self.injector.counters(),
            }
        # The pool tallies only into SCRStats; they join the counters once.
        reg = ctx.tracer.registry
        for name, value in vars(scr.stats).items():
            reg.counter(f"scr.{name}").add(value)
        if ctx.tracer.enabled:
            stats.extra["counters"] = reg.as_dict()
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
        tracer = ctx.tracer
        laps = ctx.layers
        it = IterationStats(iteration=iteration)
        elapsed_before = timeline.totals.elapsed
        with tracer.span("iteration", cat="engine", iteration=iteration):
            algorithm.begin_iteration(iteration)
            laps.lap("hooks")
            with tracer.span("select", cat="engine", iteration=iteration):
                cached, plan = self._plan(algorithm, scr, it, ctx)
            # Opened *before* the rewind: the slide schedule is fixed, so
            # the prefetch thread fetches the first slide batches while
            # the engine thread rewinds.
            source = self._source(
                plan, ctx, self._prefetch_depth(ctx), algorithm.reads_ids
            )
            laps.lap("select_plan")
            try:
                # --- Rewind: consume the pool before any I/O (§VI-D). ---
                if cached.size:
                    # Resident already, so there is nothing to fetch — and
                    # nothing to offer: tiles the next iteration no longer
                    # needs are dropped where every stale resident is, by
                    # the analysis a later offer runs when the pool is
                    # under pressure and by end_iteration's analysis with
                    # the complete next frontier.
                    rewound = Prepared(
                        tiles=cached,
                        batch=self._rewind_batch(ctx),
                        io_time=0.0, bytes_read=0, wall=0.0,
                    )
                    laps.lap("rewind_decode")
                    timeline.compute_only(self._compute(
                        algorithm, rewound, it, ctx,
                        phase="rewind", tiles=len(cached),
                    ))
                    it.tiles_from_cache += len(cached)
                    it.bytes_from_cache += ctx.split_memo.cached_bytes

                # --- Slide: compute k-1, get k, commit k.  Batch k-1
                # computes on the engine thread while the source prepares
                # k and beyond; each batch then commits (clock, stats) in
                # plan order, whatever served it.
                prev: "Prepared | None" = None
                for k in range(plan.n_batches):
                    comp_t = 0.0
                    if prev is not None:
                        comp_t = self._compute(
                            algorithm, prev, it, ctx, scr,
                            phase="slide", batch=k - 1,
                        )
                    t0 = _time.perf_counter()
                    with tracer.span("stall", cat="pipeline", batch=k):
                        source, prep = self._get(source, k, plan, ctx)
                    waited = _time.perf_counter() - t0
                    if source.overlapped:
                        laps.lap("stall")
                    else:
                        laps.lap("stall", prep.fetch, prep.decode)
                    # A batch prepared inside get() stalls the engine
                    # thread for exactly its preparation, by definition.
                    ctx.wall_overlap.record_fetch(
                        prep.wall,
                        waited if source.overlapped else prep.wall,
                        prefetched=source.overlapped,
                    )
                    ctx.aio.commit(prep.io_time)
                    timeline.step(prep.io_time, comp_t)
                    it.io_time += prep.io_time
                    it.bytes_read += prep.bytes_read
                    it.tiles_fetched += len(prep.tiles)
                    prev = prep
                    laps.lap("fetch")  # the batch's completion

                # Pipeline drain: the last fetched batch computes with no
                # I/O.
                if prev is not None:
                    timeline.compute_only(self._compute(
                        algorithm, prev, it, ctx, scr,
                        phase="drain", batch=plan.n_batches - 1,
                    ))
            finally:
                # An algorithm exception must not leak the prefetch thread.
                source.close()

        it.elapsed = timeline.totals.elapsed - elapsed_before
        if tracer.enabled:
            self._flush_iteration(tracer, it, plan.n_batches, elapsed_before)
        return it

    def _plan(
        self,
        algorithm: TileAlgorithm,
        scr: SCRScheduler,
        it: IterationStats,
        ctx: RunContext,
    ) -> "tuple[np.ndarray, SlidePlan]":
        """Select this iteration's tiles: the resident ones to rewind and
        the slide schedule for the rest (skips accounted on ``it``).

        The split is kept on ``ctx`` (:class:`SplitMemo`): the last
        iteration's selection array over an unchanged pool reuses all of
        it, a to-fetch half equal to the last iteration's its plan, a
        cached half its byte total and decoded rewind batch."""
        g = self.graph
        # Dense ablation baseline: every non-empty tile, every iteration —
        # what the engine did before activity-aware skipping.
        needed, needed_bytes = self._dense_positions, self._dense_bytes
        if self.config.selective:
            rows = algorithm.rows_active()
            cols = algorithm.cols_active()
            mask = algorithm.tile_mask(g.tile_rows, g.tile_cols)
            # Every row active under the row predicate alone selects
            # every non-empty tile: the dense demand, derived once.
            dense = mask is None and cols is None and np.asarray(rows).all()
            if not dense:
                needed = select_positions(g, rows, cols, mask)
                needed_bytes = int(g.start_edge.tile_bytes(needed).sum())
        # Skip accounting against the fixed dense demand: what a
        # fetch-everything iteration would have moved but this one's
        # frontier ruled out.
        it.tiles_skipped = int(self._dense_positions.size - needed.size)
        it.bytes_skipped = self._dense_bytes - needed_bytes
        memo = ctx.split_memo
        version = scr.pool.version
        if (memo is not None and needed is memo.needed
                and version == memo.pool_version):
            return memo.cached, memo.plan
        cached, to_fetch = scr.split_cached(needed, g.start_edge)
        if memo is not None and np.array_equal(to_fetch, memo.to_fetch):
            plan = memo.plan
        else:
            # The slide schedule is fixed before anything executes, so a
            # source can run arbitrarily far ahead of compute.
            plan = scr.segment_plan(to_fetch, g.start_edge, g)
        if memo is not None and np.array_equal(cached, memo.cached):
            cached_bytes, rewind = memo.cached_bytes, memo.rewind
        else:
            cached_bytes = int(g.start_edge.tile_bytes(cached).sum())
            rewind = None
        ctx.split_memo = SplitMemo(
            needed, version, cached, to_fetch, plan, cached_bytes, rewind
        )
        return cached, plan

    def _flush_iteration(
        self, tracer, it: IterationStats, n_batches: int, elapsed_before: float
    ) -> None:
        """Flush the iteration's aggregates into the counters registry;
        summed over iterations these match RunStats field for field
        (asserted by tests/test_obs.py)."""
        reg = tracer.registry
        reg.counter("engine.iterations").add(1)
        reg.counter("engine.batches").add(n_batches)
        reg.counter("engine.io_time_sim").add(it.io_time)
        reg.counter("engine.compute_time_sim").add(it.compute_time)
        reg.counter("engine.bytes_read").add(it.bytes_read)
        reg.counter("engine.bytes_from_cache").add(it.bytes_from_cache)
        reg.counter("engine.tiles_fetched").add(it.tiles_fetched)
        reg.counter("engine.tiles_from_cache").add(it.tiles_from_cache)
        reg.counter("engine.edges_processed").add(it.edges_processed)
        reg.counter("engine.bytes_skipped").add(it.bytes_skipped)
        reg.counter("engine.tiles_skipped").add(it.tiles_skipped)
        # Per-iteration bytes lane on the simulated clock: one span per
        # iteration on the ``sim:bytes`` track carrying the moved vs
        # skipped byte split.  Emitted in plan order on the engine thread,
        # so — like every simulated lane — the export is bit-identical at
        # any prefetch depth or worker count.
        tracer.sim_span(
            "bytes",
            start=elapsed_before,
            duration=it.elapsed,
            track="sim:bytes",
            cat="bytes",
            iteration=it.iteration,
            bytes_read=it.bytes_read,
            bytes_from_cache=it.bytes_from_cache,
            bytes_skipped=it.bytes_skipped,
            tiles_skipped=it.tiles_skipped,
        )

    # ------------------------------------------------------------------ #
    # The batch source and its one degrade step
    # ------------------------------------------------------------------ #

    def _prefetch_depth(self, ctx: RunContext) -> int:
        """Prefetch depth of this run's batch source — the one place that
        decides whether a prefetch thread runs.

        0 — no thread, each batch prepared inside ``get()`` — for a
        private context (a query is exactly one thread) and for a run the
        degrade step moved off its prefetcher.  Otherwise an explicit
        ``config.prefetch_depth`` is honoured; unset, it is
        ``BLOCKING_IO_DEPTH`` when reads block (``realize_io``: the
        producer sleeps with the GIL released) and 0 over page-cached
        reads, where a fetch is a buffer slice and the decode holds the
        GIL, so the thread overlaps nothing and costs a hand-off per
        batch."""
        if ctx.private or ctx.degraded:
            return 0
        depth = self.config.prefetch_depth
        if depth is None:
            return BLOCKING_IO_DEPTH if self.config.realize_io else 0
        return depth

    def _source(
        self,
        plan: SlidePlan,
        ctx: RunContext,
        depth: int,
        reads_ids: bool = False,
        start: int = 0,
    ) -> Prefetcher:
        """An ordered source of ``plan``'s batches from batch ``start`` on,
        prepared ``depth`` ahead on the prefetch thread, or inside
        ``get()`` at depth 0.  For a kernel that ``reads_ids`` the
        prefetch thread widens each batch too, so that work overlaps
        compute; at depth 0 the kernel's first read of the IDs widens, on
        the engine thread either way."""
        widen = reads_ids and depth > 0
        jobs = [
            (lambda k=k: self._prepare(plan, k, ctx, widen))
            for k in range(start, plan.n_batches)
        ]
        return Prefetcher(jobs, depth=depth, tracer=ctx.tracer)

    def _get(self, source, k: int, plan: SlidePlan, ctx: RunContext):
        """Batch ``k`` and the source the run continues on.

        The one degrade step.  The prefetch thread can die under the run
        on a persistent storage or corruption fault.  Batches before ``k``
        are committed and nothing from ``k`` on has touched the clock, the
        algorithm or the cache pool, so closing the source (no thread, no
        undelivered result left) and preparing ``k`` onward inside
        ``get()`` on the engine thread keeps results and simulated
        statistics bit-identical.  The run says why on its ``execution``
        stats (``degraded``; later iterations open at depth 0), the engine
        in ``degradations`` (injector or not) and the trace in a
        ``prefetch_fallback`` instant.  That depth-0 source is the floor:
        it has nowhere to degrade to, so a fault that truly persists (a
        dead RAID member, say) propagates from it typed.
        """
        try:
            return source, source.get()
        except (StorageError, FormatError) as exc:
            if not source.overlapped:
                raise
            source.close()
            ctx.degraded = True
            self.degradations["prefetch_degraded"] = str(exc)
            if self.injector is not None:
                self.injector.registry.counter(
                    "fault.prefetch_fallbacks"
                ).add(1)
            ctx.tracer.instant(
                "prefetch_fallback", cat="pipeline", batch=k, error=str(exc)
            )
            source = self._source(plan, ctx, depth=0, start=k)
            return source, source.get()

    def _prepare(
        self, plan: SlidePlan, k: int, ctx: RunContext, widen: bool
    ) -> Prepared:
        """Fetch + decode slide batch ``k`` (runs on the prefetch thread
        when prefetching, inside ``get()`` on the engine thread at depth
        0): one service call of the plan's extents, the checksum check
        when verifying, and one wrap of the bytes with the plan's layout
        — with ``widen`` the batch's global IDs too.

        Everything here is free of engine-thread state: the AIO service
        half is thread-safe and clock-free, the store reads are zero-copy
        and the plan is read-only, so either thread may run it.  The
        overlap with compute is real when the service half blocks with
        the GIL released (the ``realize_io`` sleep) — which is when an
        unset depth runs the prefetch thread at all
        (:meth:`_prefetch_depth`).
        """
        clock = _time.perf_counter
        t0 = clock()
        tracer = ctx.tracer
        ext = plan.extents[k]
        tiles = len(ext.positions)
        with tracer.span("prepare", cat="pipeline", tiles=tiles):
            data, io_t = ctx.aio.service(ext)
            t1 = clock()
            with tracer.span("decode", cat="decode", tiles=tiles):
                batch = self._decode(ext, plan.layouts[k], data, self._verify)
                if widen:
                    batch.widen()
            t2 = clock()
        return Prepared(
            tiles=ext.positions,
            batch=batch,
            io_time=io_t,
            bytes_read=ext.nbytes,
            wall=clock() - t0,
            sizes=plan.tile_bytes[k],
            fetch=t1 - t0,
            decode=t2 - t1,
        )

    def _decode(
        self,
        ext: Extents,
        layout: BatchLayout,
        data: np.ndarray,
        verify: bool = False,
    ) -> DecodedBatch:
        """A batch's extents, layout and bytes -> its
        :class:`DecodedBatch`: the step the slide and the rewind share, on
        whichever thread holds the bytes.

        With ``verify`` the batch is first checked against the stored
        CRC32C in one kernel call; a failure is counted before the typed
        error propagates.  (The rewind skips it: the pool only holds
        positions whose bytes were verified on the way in.)
        """
        if verify:
            try:
                self.graph.verify_batch_bytes(ext.positions, data)
            except ChecksumError:
                if self.injector is not None:
                    self.injector.registry.counter(
                        "fault.checksum_failures"
                    ).add(1)
                raise
        return self.graph.decode_extents(data, layout)

    def _seed_pool(self, scr: SCRScheduler, positions: "list[int]") -> None:
        """Repopulate the cache pool from a checkpoint's membership list.

        Residency is all there is to restore — no simulated I/O (the
        interrupted run already paid for these bytes, and re-charging them
        would skew the resumed timeline for data that is by definition
        cache-resident) and no payload either: rewinds decode straight off
        the backing store.  The recorded pool fitted this budget; under a
        smaller one the leading tiles that fit stay.
        """
        pos = np.unique(np.asarray(positions, dtype=np.int64))
        sizes = self.graph.start_edge.tile_bytes(pos)
        fits = np.cumsum(sizes) <= scr.pool.free_bytes
        scr.pool.reserve(self.graph.n_tiles)
        scr.pool.admit(pos[fits], sizes[fits])

    def _rows_active_next(self, algorithm: TileAlgorithm) -> np.ndarray:
        """Next-iteration row activity as proactive caching should see it.

        With selective scheduling off the cache must not consult frontier
        metadata either — every row reads as active, so nothing is ruled
        out of the pool and the run reproduces the pre-selective dense
        engine exactly.
        """
        if self.config.selective:
            return algorithm.rows_active_next()
        return self._all_rows

    def _cols_active_next(self, algorithm: TileAlgorithm) -> "np.ndarray | None":
        if self.config.selective:
            return algorithm.cols_active_next()
        return None

    def _rewind_batch(self, ctx: RunContext) -> DecodedBatch:
        """The decoded batch of this iteration's cached half.

        Resident tiles are zero-copy slices of the immutable tile store, so
        the rewind set is re-merged into byte-adjacent extents and decoded
        straight off the backing buffer — no simulated I/O (the pool
        already paid for these bytes).  Kept on the context's
        :class:`SplitMemo`, so all-active algorithms (which rewind an
        identical set every iteration) pay the decode exactly once.  Its
        edges are the per-tile edge order, and its shard cuts are
        worker-independent, so the determinism contract of the fused
        layer is unchanged.
        """
        memo = ctx.split_memo
        if memo.rewind is None:
            cached = memo.cached
            with ctx.tracer.span(
                "rewind.decode", cat="decode", tiles=len(cached)
            ):
                ext, layout = batch_extents(cached, self.graph)
                memo.rewind = self._decode(
                    ext, layout, self.store.gather(ext.offsets, ext.sizes)
                )
        return memo.rewind

    def _execute(
        self, algorithm: TileAlgorithm, batch: DecodedBatch, ctx: RunContext
    ) -> int:
        """Route one batch through ``execute_batch``: the single funnel
        for kernel execution."""
        parallel = self._threads_for(algorithm, ctx) > 1
        return execute_batch(
            algorithm, batch, pool=self.pool if parallel else None,
            layers=ctx.layers,
        )

    def _threads_for(self, algorithm: TileAlgorithm, ctx: RunContext) -> int:
        """Threads ``algorithm``'s kernels run on in ``ctx``: the pool's
        for a ``pooled`` kernel, else 1.  Private contexts run serial —
        their concurrency is across queries, not within one."""
        if algorithm.pooled and not ctx.private:
            return self.kernel_threads
        return 1

    def _compute(
        self,
        algorithm: TileAlgorithm,
        prep: Prepared,
        it: IterationStats,
        ctx: RunContext,
        scr: "SCRScheduler | None" = None,
        **where,
    ) -> float:
        """Compute one prepared batch on the engine thread and account it
        — the step rewind, slide and drain share.

        Runs the kernels over ``prep.batch``, then offers the batch to the
        cache pool — ``scr``; the rewind passes none.
        Wall compute time, edges and simulated compute time go onto the
        stats; the latter is returned for the caller's timeline step.
        ``where`` labels the ``compute`` span.
        """
        g = self.graph
        t0 = _time.perf_counter()
        with ctx.tracer.span("compute", cat="compute", **where):
            edges = self._execute(algorithm, prep.batch, ctx)
            if scr is not None:
                scr.offer(
                    prep.tiles,
                    g.tile_rows,
                    g.tile_cols,
                    self._rows_active_next(algorithm),
                    g.info.symmetric,
                    self._cols_active_next(algorithm),
                    prep.sizes,
                )
        ctx.wall_overlap.compute_busy += _time.perf_counter() - t0
        comp_t = self.config.cost_model.compute_time(
            algorithm.name,
            edges * algorithm.direction_passes,
            len(prep.tiles),
        )
        it.edges_processed += edges
        it.compute_time += comp_t
        # One lap for all that follows the commits: the offer, with the
        # batch's accounting.
        ctx.layers.lap("apply" if scr is None else "scr_offer")
        return comp_t

"""Shard-parallel execution: a coordinator over persistent engine workers.

G-store's trillion-edge deployment partitions the 2-D tile grid so
independent workers stream disjoint regions concurrently (§III, §VI).
This module is that shape at reproduction scale: ``EngineConfig.shards=K``
spawns K persistent **shard workers**, each a full engine replica for the
fetch half of the pipeline — its own :class:`~repro.storage.file.TileStore`
mapping, its own simulated device array (an independent *device lane*
whose modeled service time is a pure function of the byte extents, hence
identical to the coordinator's), and the whole zero-copy
fetch → decode → fused-kernel chain.  The coordinator keeps everything
that defines determinism: plan construction, the SCR cache pool, the
rewind phase, the simulated clock, and partial application.

Per iteration the coordinator *scatters* the algorithm's frozen kernel
state through a dedicated :class:`~repro.runtime.shm.ShmArena`
(descriptors only — payload bytes never cross a queue) together with each
worker's lane of the global slide plan, then *gathers* per-batch fused
partials and applies them **in plan order**.

Why batch-striping rather than column shards: the committed order of
float partials *is* the result for PageRank-class kernels, and that order
is defined by the global plan's (batch, chunk) structure.  Striping the
*global* plan's batches round-robin over workers (batch ``k`` → worker
``k mod K``) keeps that structure K-invariant, so any shard count — and
the single-process engine — produces bit-identical result arrays and
identical simulated statistics.  A per-shard column partition would
rebuild per-shard plans whose chunk boundaries depend on K, silently
reassociating float accumulation.  The same argument makes worker-side
snapshot execution safe: workers compute from the iteration-start state
snapshot while the coordinator interleaves applies, which every
fused kernel tolerates by construction (frozen read sets for
PageRank/SpMV/CC/k-core; idempotent constant writes + deduplicated
frontier for BFS).
"""

from __future__ import annotations

import importlib
import multiprocessing
import multiprocessing.connection
import os
import time
import traceback
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs.trace import NULL_TRACER
from repro.runtime.prefetch import Prepared
from repro.runtime.shm import ShmArena, attach_view
from repro.storage.aio import AIOContext
from repro.storage.file import TileStore
from repro.storage.raid import Raid0Array
from repro.util.timer import SimClock

#: Process-name prefix for shard workers, so tests can assert clean
#: shutdown via ``multiprocessing.active_children()``.
SHARD_WORKER_PREFIX = "repro-shard"


def default_shards() -> int:
    """Shard count used when the config does not pick one.

    ``REPRO_SHARDS`` overrides the single-coordinator default of 1,
    which is how CI runs the whole tier-1 suite sharded without touching
    any test.
    """
    env = os.environ.get("REPRO_SHARDS")
    if env:
        s = int(env)
        if s < 1:
            raise ValueError(f"REPRO_SHARDS must be >= 1, got {env!r}")
        return s
    return 1


def resolve_shards(shards: "int | None") -> int:
    """Resolve a shard-count setting (``None`` means environment default)."""
    if shards is None:
        return default_shards()
    s = int(shards)
    if s < 1:
        raise ValueError(f"shards must be >= 1 (or None), got {shards!r}")
    return s


class ShardRuntimeError(RuntimeError):
    """The shard workers could not spawn, the scatter failed, a batch
    failed in a worker, or one died with the respawn budget spent; the
    runtime is broken."""


@dataclass(frozen=True)
class ShardWorkerConfig:
    """The slice of :class:`~repro.engine.config.EngineConfig` a shard
    worker needs to rebuild the coordinator's fetch chain exactly: the
    simulated device array — modeled service time is a pure function of
    the array geometry and the requested extents, so a worker computes
    its batches' ``io_time`` on a private lane and the coordinator commits
    it to the one true clock in plan order — the AIO mode and device
    pacing."""

    n_ssds: int
    device_profile: object
    stripe_bytes: int
    io_mode: object
    realize_io: bool


def _resolve_algorithm(module: str, qualname: str, cache: dict):
    """The algorithm class a scatter names, imported worker-side: classes
    travel as ``(module, qualname)`` so one that cannot be resolved fails
    typed inside the worker's batch handler instead of vanishing in the
    coordinator queue's feeder thread at pickle time."""
    key = (module, qualname)
    cls = cache.get(key)
    if cls is None:
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        cls = obj
        cache[key] = cls
    return cls


def _shard_worker_main(
    shard_id, incarnation, graph, wcfg, task_q, result_conn, transport=()
) -> None:
    """Worker-process loop: fetch, decode, and run kernels for one lane.

    Runs in a ``spawn``-ed child that received the (picklable) tiled
    graph once at startup and rebuilt the coordinator's fetch chain from
    it.  Results are ``(batch_index, ok, payload, meta)`` tuples where
    ``payload`` is ``(partials, io_time, bytes_read)`` and ``meta`` is
    ``(shard_id, pid, t0, t1)`` on ``perf_counter`` — a system-wide
    monotonic clock on Linux, so the coordinator can place worker spans
    on the tracer's shared timeline.  The first message is a
    ``("hello", shard_id, None, None)`` bootstrap marker.

    Results travel over ``result_conn``, a **dedicated pipe** per worker
    incarnation rather than one queue shared by all workers.  The
    distinction is what makes SIGKILL recoverable: a shared
    ``multiprocessing.Queue`` serialises writers through one cross-process
    lock held by each worker's feeder thread, and a worker killed inside
    that critical section orphans the lock — wedging every *surviving*
    writer and every *respawned* incarnation forever.  A private
    ``Pipe`` has exactly one writer and no feeder thread
    (:meth:`~multiprocessing.connection.Connection.send` completes in
    the posting thread), so the blast radius of a kill is the dead
    worker's own channel, which the supervisor discards on respawn; the
    coordinator closes its copy of the send end, so worker death surfaces
    as EOF instead of an unbounded read.

    ``incarnation`` counts how many times this shard slot has been
    spawned (1 for the original process); ``transport`` is the scripted
    transport-fault schedule for this slot as ``(kind, batch, count,
    delay)`` tuples (see docs/RELIABILITY.md).  A fault fires only while
    ``incarnation <= count``, so a respawned worker replays the lost
    batches clean — which is exactly what makes a scripted kill
    deterministic: the batch either came from the original process or is
    recomputed bit-identically from the same frozen state snapshot.
    """
    # Late import: ``repro.engine``'s package init imports the engine,
    # which imports this module.
    from repro.engine.selective import merge_extents

    store = TileStore.from_tiled_graph(graph)
    aio = AIOContext(
        store=store,
        array=Raid0Array.from_config(wcfg),
        clock=SimClock(),
        mode=wcfg.io_mode,
        realize_io=wcfg.realize_io,
    )
    pid = os.getpid()
    chaos = {
        int(batch): (kind, int(count), float(delay))
        for (kind, batch, count, delay) in transport
    }
    result_conn.send(("hello", shard_id, None, None))
    seg_cache: "dict[str, object]" = {}
    algo_cache: dict = {}
    while True:
        item = task_q.get()
        if item is None:
            break
        _, module, qualname, params, state_descs, lane = item
        cls = state = None
        for batch_index, positions in lane:
            fault = chaos.get(batch_index)
            if fault is not None and incarnation > fault[1]:
                fault = None  # condition cleared for this incarnation
            if fault is not None and fault[0] == "kill":
                # send() is synchronous, so every earlier batch is fully
                # on the wire — an abrupt exit loses only this batch.
                os._exit(17)
            t0 = time.perf_counter()
            try:
                if cls is None:
                    cls = _resolve_algorithm(module, qualname, algo_cache)
                    state = {
                        k: attach_view(d, seg_cache)
                        for k, d in state_descs.items()
                    }
                ext = merge_extents(positions, graph.start_edge)
                data, io_t = aio.service(ext)
                batch = graph.decode_extents(ext.positions, ext.first, data)
                cuts = cls.shard_cuts(batch).tolist()
                partials = [
                    cls.kernel_partial(
                        state, params, batch.gsrc[a:b], batch.gdst[a:b]
                    )
                    for a, b in zip(cuts[:-1], cuts[1:])
                ]
                if fault is not None and fault[0] == "drop":
                    continue  # computed, never posted: the hang scenario
                if fault is not None and fault[0] == "delay":
                    time.sleep(fault[2])
                result_conn.send((
                    batch_index,
                    True,
                    (partials, io_t, ext.nbytes),
                    (shard_id, pid, t0, time.perf_counter()),
                ))
            except (BrokenPipeError, OSError):  # pragma: no cover
                return  # coordinator discarded this channel; just exit
            except BaseException as exc:
                detail = (
                    f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
                )
                try:
                    result_conn.send((
                        batch_index,
                        False,
                        detail,
                        (shard_id, pid, t0, time.perf_counter()),
                    ))
                except (BrokenPipeError, OSError):  # pragma: no cover
                    return
    for seg in seg_cache.values():
        try:
            seg.close()
        except BufferError:  # pragma: no cover - exiting anyway
            pass
    result_conn.close()


class ShardGather:
    """In-order delivery of one iteration's gathered batches, supervised.

    Workers finish out of order (lanes interleave, batch sizes skew); the
    coordinator must commit in global plan order, so arrivals are
    buffered by batch index and released sequentially.

    The gather loop doubles as the **shard supervisor**: while blocked on
    the per-worker result pipes it watches worker liveness and progress.  A dead
    worker (SIGKILL, OOM, scripted ``kill``) or a hung one (no result
    within the heartbeat timeout while its lane has outstanding batches —
    the scripted ``drop`` scenario) is respawned with a fresh task queue
    and re-sent *only its unreceived batches*, charged against the
    runtime's bounded respawn budget.  This is deterministic because
    workers compute pure functions of the frozen iteration-start state
    snapshot and their byte extents: a replayed batch is bit-identical to
    the lost one, and plan-order commit makes arrival order irrelevant.
    Raises :class:`ShardRuntimeError` — after marking the runtime broken
    — only when respawn cannot help (a deterministic batch failure) or
    the budget is exhausted; the engine then tears the runtime down and
    finishes the iteration on its own fetch path.
    """

    #: Batches are prepared off the engine thread (see
    #: :class:`~repro.runtime.prefetch.Prefetcher`, the other batch source).
    overlapped = True

    def __init__(
        self,
        runtime: "ShardRuntime",
        n_batches: int,
        lanes: "list[list[tuple[int, np.ndarray]]] | None" = None,
        scatter: "tuple | None" = None,
        error: "ShardRuntimeError | None" = None,
    ):
        self._rt = runtime
        self._n = n_batches
        self._next = 0
        self._buffered: "dict[int, tuple]" = {}
        self._lanes = lanes if lanes is not None else []
        self._tiles = {b: pos for lane in self._lanes for b, pos in lane}
        self._scatter = scatter  # (module, qualname, params, descs)
        self._error = error  # a failed scatter, delivered by get()
        self._received: "set[int]" = set()
        self._last_progress = time.monotonic()

    def _accept(self, idx, ok, payload, meta) -> None:
        """Buffer one raw result message (shared by get and supervise)."""
        if idx == "hello":
            return  # bootstrap marker from a (re)spawned worker
        if idx in self._received:
            return  # duplicate from a pre-respawn incarnation
        if not ok:
            self._rt._broken = True
            raise ShardRuntimeError(
                f"shard batch {idx} failed in worker "
                f"{meta[0]} (pid {meta[1]}):\n{payload}"
            )
        self._received.add(idx)
        self._buffered[idx] = (payload, meta)
        self._last_progress = time.monotonic()

    def _missing_for(self, shard_id: int) -> "list[tuple[int, tuple]]":
        if shard_id >= len(self._lanes):
            return []
        return [
            (b, positions)
            for b, positions in self._lanes[shard_id]
            if b not in self._received
        ]

    def _drain_posted(self) -> None:
        """Harvest everything already sitting in the result pipes so the
        replay set contains only batches that truly never arrived."""
        for conn in self._rt._result_conns:
            while True:
                try:
                    if not conn.poll(0):
                        break
                    idx, ok, payload, meta = conn.recv()
                except (EOFError, OSError):
                    break  # dead worker's channel; supervision respawns it
                self._accept(idx, ok, payload, meta)

    def _supervise(self) -> None:
        """Detect dead/hung workers; respawn and replay their lost lanes."""
        rt = self._rt
        dead = [i for i, p in enumerate(rt._procs) if not p.is_alive()]
        hung: "list[int]" = []
        if (
            not dead
            and time.monotonic() - self._last_progress > rt.HEARTBEAT_TIMEOUT
        ):
            hung = [i for i in range(rt.shards) if self._missing_for(i)]
        if not dead and not hung:
            return
        self._drain_posted()
        for i in dead + hung:
            missing = self._missing_for(i)
            rt.respawn_worker(i, hung=i in hung)
            if missing and self._scatter is not None:
                rt._task_qs[i].put(("iter", *self._scatter, missing))
                rt._count_supervisor("replayed_batches", len(missing))
        self._last_progress = time.monotonic()

    def get(self) -> Prepared:
        """The next batch in plan order (blocks until its worker posts)."""
        if self._error is not None:
            raise self._error
        rt = self._rt
        while self._next not in self._buffered:
            # The conn list is rebuilt every pass: a respawn swaps the
            # dead worker's channel out from under us mid-wait.
            ready = multiprocessing.connection.wait(
                list(rt._result_conns), timeout=rt._POLL
            )
            if not ready:
                self._supervise()
                continue
            accepted = False
            for conn in ready:
                try:
                    idx, ok, payload, meta = conn.recv()
                except (EOFError, OSError):
                    continue  # EOF = worker died; supervision handles it
                self._accept(idx, ok, payload, meta)
                accepted = True
            if not accepted:
                # Only EOFs were ready: don't spin on a dead channel.
                self._supervise()
        k = self._next
        (partials, io_time, bytes_read), (shard_id, pid, t0, t1) = (
            self._buffered.pop(k)
        )
        self._next += 1
        tracer = rt._tracer
        if tracer.enabled:
            reg = tracer.registry
            reg.counter("shard.batches").add(1)
            reg.counter("shard.bytes_read").add(bytes_read)
            reg.counter("shard.worker_seconds").add(t1 - t0)
            tracer.remote_span(
                "shard.batch",
                track=f"repro-shard-{shard_id}",
                t0=t0,
                t1=t1,
                cat="shard",
                batch=k,
                pid=pid,
            )
        # wall: the worker's own fetch + decode + kernel seconds.
        return Prepared(
            tiles=self._tiles[k],
            partials=partials,
            io_time=io_time,
            bytes_read=bytes_read,
            wall=t1 - t0,
        )

    def close(self, timeout: float = 30.0) -> None:
        """Drain undelivered results so the queue is clean for the next
        iteration (no-op when fully consumed).  The drain is **bounded**:
        a worker that never posts (hung, or a scripted ``drop``) cannot
        stall the coordinator past ``timeout`` — the runtime is marked
        broken instead, and the engine's teardown path terminates the
        straggler through :func:`stop_worker_processes` (which escalates
        to SIGKILL for workers that ignore terminate).
        """
        outstanding = self._n - len(self._received)
        self._buffered.clear()
        self._next = self._n
        if outstanding <= 0 or self._rt._broken or self._rt._closed:
            return
        deadline = time.monotonic() + timeout
        while outstanding > 0:
            ready = multiprocessing.connection.wait(
                list(self._rt._result_conns), timeout=self._rt._POLL
            )
            drained = 0
            for conn in ready:
                try:
                    idx, *_ = conn.recv()
                except (EOFError, OSError):
                    # A worker died mid-drain; its results are gone for
                    # good — teardown reaps it, nothing left to wait for.
                    self._rt._broken = True
                    return
                if idx == "hello" or idx in self._received:
                    continue
                self._received.add(idx)
                outstanding -= 1
                drained += 1
            if drained == 0:
                try:
                    self._rt._check_alive()
                except ShardRuntimeError:
                    return
                if time.monotonic() > deadline:
                    self._rt._broken = True
                    return


def stop_worker_processes(
    procs: "Sequence[multiprocessing.process.BaseProcess]",
    task_queues: "Sequence",
    timeout: float = 5.0,
) -> None:
    """Teardown for the shard runtime's worker processes (idempotent).

    Send one ``None`` shutdown sentinel per worker (round-robin over the
    task queues), join with a timeout, terminate stragglers — escalating
    to SIGKILL for workers that ignore SIGTERM (a stopped or D-state
    process never sees terminate, and teardown must stay bounded) — then
    close every queue with ``cancel_join_thread`` so an unsent task can
    never block interpreter exit.  Shared-memory segments are *not*
    released here — arenas own their segments and the
    ``LIVE_SHM_SEGMENTS`` leak oracle stays exact because every segment
    release still goes through :meth:`ShmArena.close`.
    """
    if procs and task_queues:
        try:
            for i in range(len(procs)):
                task_queues[i % len(task_queues)].put(None)
        except Exception:  # pragma: no cover - queue already broken
            pass
        for p in procs:
            p.join(timeout=timeout)
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=timeout)
            if p.is_alive():
                p.kill()
                p.join(timeout=timeout)
    for q_ in task_queues:
        try:
            q_.close()
            q_.cancel_join_thread()
        except Exception:  # pragma: no cover
            pass


class ShardRuntime:
    """K persistent shard workers plus the coordinator-side protocol.

    Lifecycle: ``spawn``-ed workers (fork is unsafe next to the engine's
    threads) bootstrap with a hello message, live for the engine's
    lifetime, and are torn down through
    :func:`stop_worker_processes`; the scatter
    arena is owned here (it must stay stable for a whole iteration) and
    tracked by the ``LIVE_SHM_SEGMENTS`` oracle.
    """

    _POLL = 0.2
    #: Worker respawns the supervisor may spend over the runtime's life
    #: before declaring it broken (the engine then finishes on its own
    #: fetch path; docs/RELIABILITY.md "Distributed fault model").
    RESPAWN_BUDGET = 2
    #: Seconds without any gathered result — while batches are
    #: outstanding — before a live-but-silent worker is declared hung,
    #: killed, and respawned.
    HEARTBEAT_TIMEOUT = 60.0

    def __init__(
        self,
        graph,
        config,
        shards: int,
        tracer=NULL_TRACER,
        faults=None,
        supervisor: "dict | None" = None,
    ):
        self.shards = int(shards)
        self._graph = graph
        self._wcfg = ShardWorkerConfig(
            n_ssds=config.n_ssds,
            device_profile=config.device_profile,
            stripe_bytes=config.stripe_bytes,
            io_mode=config.io_mode,
            realize_io=config.realize_io,
        )
        self._tracer = tracer
        self._faults = faults
        self.supervisor = (
            supervisor
            if supervisor is not None
            else dict.fromkeys(
                ("respawns", "worker_deaths", "hangs", "replayed_batches"), 0
            )
        )
        self._arena = ShmArena(
            registry=tracer.registry if tracer.enabled else None
        )
        self._ctx = multiprocessing.get_context("spawn")
        self._task_qs: list = []
        self._result_conns: list = []  # one receive end per worker slot
        self._procs: list = []
        self._incarnations: "list[int]" = []
        self._started = False
        self._broken = False
        self._closed = False

    @property
    def processes(self) -> list:
        """Live worker process handles (tests kill these for chaos runs)."""
        return list(self._procs)

    @property
    def broken(self) -> bool:
        return self._broken

    @property
    def respawns(self) -> int:
        """Respawns consumed from the budget over this runtime's life."""
        return self.supervisor.get("respawns", 0)

    def _count_supervisor(self, key: str, n: int = 1) -> None:
        self.supervisor[key] = self.supervisor.get(key, 0) + n
        if self._tracer.enabled:
            self._tracer.registry.counter(f"supervisor.{key}").add(n)

    def _transport_for(self, shard_id: int) -> "tuple[tuple, ...]":
        """Picklable transport-fault schedule for one worker slot."""
        if self._faults is None:
            return ()
        return tuple(
            (e.kind.value, e.request, e.count, e.delay)
            for e in self._faults.worker_events(shard_id)
        )

    def _spawn_worker(self, shard_id: int, incarnation: int):
        """One spawned worker plus its private task queue + result pipe.

        The coordinator closes its copy of the pipe's send end as soon
        as the child holds one, so the receive end reads EOF — never a
        torn half-message or an unbounded block — the instant the worker
        dies with the channel open.
        """
        task_q = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        p = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                shard_id,
                incarnation,
                self._graph,
                self._wcfg,
                task_q,
                send_conn,
                self._transport_for(shard_id),
            ),
            name=f"{SHARD_WORKER_PREFIX}-{shard_id}",
            daemon=True,
        )
        p.start()
        send_conn.close()
        return p, task_q, recv_conn

    def respawn_worker(self, shard_id: int, hung: bool = False) -> None:
        """Replace a dead or hung worker, charging the respawn budget.

        The replacement gets a *fresh* task queue (the old one may hold a
        half-consumed scatter message and is unrecoverable once its
        feeder thread lost its consumer) and an incremented incarnation
        number, which is what clears scripted transport faults whose
        ``count`` the old incarnations already satisfied.  Raises
        :class:`ShardRuntimeError` once the budget is exhausted — the
        engine's existing fallback path takes over from there.
        """
        if self.respawns >= self.RESPAWN_BUDGET:
            self._broken = True
            raise ShardRuntimeError(
                f"respawn budget exhausted ({self.RESPAWN_BUDGET}) at "
                f"worker {shard_id}"
            )
        old = self._procs[shard_id]
        self._count_supervisor("hangs" if hung else "worker_deaths")
        if old.is_alive():
            # A hung worker may ignore SIGTERM (blocked in a C call or
            # stopped); SIGKILL is the only bounded option.
            old.kill()
            old.join(timeout=5.0)
        old_q = self._task_qs[shard_id]
        try:
            old_q.close()
            old_q.cancel_join_thread()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
        try:
            self._result_conns[shard_id].close()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
        self._count_supervisor("respawns")
        self._incarnations[shard_id] += 1
        p, task_q, conn = self._spawn_worker(
            shard_id, self._incarnations[shard_id]
        )
        self._procs[shard_id] = p
        self._task_qs[shard_id] = task_q
        self._result_conns[shard_id] = conn
        if self._tracer.enabled:
            self._tracer.instant(
                "supervisor_respawn",
                shard=shard_id,
                incarnation=self._incarnations[shard_id],
                hung=hung,
            )

    def start(self, timeout: float = 120.0) -> None:
        """Spawn the workers and wait for every hello (idempotent).

        The arena is probed *first* so an environment without shared
        memory fails fast — before paying K interpreter+NumPy+graph
        startups.  The generous timeout covers exactly those startups:
        each worker unpickles the graph and rebuilds its store mapping.
        """
        if self._closed:
            raise ShardRuntimeError("shard runtime is shut down")
        if self._started:
            return
        self._started = True  # from here shutdown() has workers to reap
        try:
            self._arena.ensure(self._arena.ALIGN)  # probe shared memory now
            for i in range(self.shards):
                p, task_q, conn = self._spawn_worker(i, incarnation=1)
                self._task_qs.append(task_q)
                self._procs.append(p)
                self._result_conns.append(conn)
                self._incarnations.append(1)
        except Exception as exc:  # no /dev/shm, sandboxed spawn, ...
            self._broken = True
            raise ShardRuntimeError(
                f"shard workers could not spawn: {exc}"
            ) from exc
        deadline = time.monotonic() + timeout
        waiting = set(range(self.shards))
        while waiting:
            ready = multiprocessing.connection.wait(
                [self._result_conns[i] for i in waiting],
                timeout=self._POLL,
            )
            if not ready:
                if time.monotonic() > deadline:  # pragma: no cover
                    self._broken = True
                    raise ShardRuntimeError(
                        f"shard workers failed to start within {timeout}s"
                    )
                self._check_alive()
                continue
            for conn in ready:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    self._check_alive()  # raises naming the dead worker
                    continue  # pragma: no cover - closed but not dead yet
                if msg[0] == "hello":
                    waiting.discard(msg[1])

    def _check_alive(self) -> None:
        dead = [p for p in self._procs if not p.is_alive()]
        if dead:
            self._broken = True
            names = ", ".join(
                f"{p.name} (pid {p.pid}, exit {p.exitcode})" for p in dead
            )
            raise ShardRuntimeError(f"shard worker died: {names}")

    def begin_iteration(self, algorithm, plan, iteration: int = 0) -> ShardGather:
        """Scatter one iteration: frozen kernel state + per-worker lanes.

        The arena reserve/put here is safe against the previous
        iteration's workers because gathering *all* batches is a barrier:
        no worker touches its stale state views after posting its last
        result, and the engine never begins an iteration before the
        previous gather completed (or the runtime was torn down).  A
        scripted ``scatterfail@ITER`` transport fault fires here, before
        anything is scattered.

        Never raises :class:`ShardRuntimeError`: when the workers cannot
        spawn or the scatter fails, the runtime is marked broken and the
        returned gather delivers the error from its first ``get()`` — a
        batch source fails in one place, where the engine's degrade step
        takes over from batch 0 on its own fetch path.
        """
        try:
            if self._broken:
                raise ShardRuntimeError("shard runtime is broken")
            if (
                self._faults is not None
                and self._faults.scatter_event_for(iteration) is not None
            ):
                raise ShardRuntimeError(
                    f"injected scatter failure at iteration {iteration}"
                )
            self.start()
        except ShardRuntimeError as exc:
            self._broken = True
            return ShardGather(self, plan.n_batches, error=exc)
        cls = type(algorithm)
        state = algorithm.kernel_state()
        params = algorithm.kernel_params()
        self._arena.reserve(ShmArena.layout_bytes(state.values()))
        descs = {k: self._arena.put(v) for k, v in state.items()}
        # Batch k -> worker k mod K: striping the *global* plan is the
        # K-invariant partition (module docstring), and interleaving
        # disk-order segments balances skewed batch sizes the way dynamic
        # row scheduling balances rows.
        indexed = list(enumerate(plan.batches))
        lanes = [indexed[w :: self.shards] for w in range(self.shards)]
        scatter = (cls.__module__, cls.__qualname__, params, descs)
        for task_q, lane in zip(self._task_qs, lanes):
            task_q.put(("iter", *scatter, lane))
        return ShardGather(self, plan.n_batches, lanes=lanes, scatter=scatter)

    def shutdown(self) -> None:
        """Stop and join every worker, release the arena (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._started:
            stop_worker_processes(self._procs, self._task_qs)
        for conn in self._result_conns:
            try:
                conn.close()
            except (OSError, ValueError):  # pragma: no cover
                pass
        self._procs = []
        self._task_qs = []
        self._result_conns = []
        self._arena.close()

    def __enter__(self) -> "ShardRuntime":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    def __del__(self):  # pragma: no cover - GC backstop
        try:
            self.shutdown()
        except Exception:
            pass

"""Dynamic row-parallel scheduling and the prefetch pipeline (paper §VI-B).

G-Store assigns different tile rows to different OpenMP threads with
dynamic scheduling because row sizes are wildly skewed.  The NumPy kernels
here already execute each tile's edges data-parallel inside vectorised
operations; this module adds the thread machinery around them:

* :func:`dynamic_row_map` — row-level concurrency across tiles with
  dynamic (work-queue) assignment; NumPy releases the GIL in its inner
  loops, so skewed rows balance the same way OpenMP ``schedule(dynamic)``
  does.
* :class:`WorkerPool` — a persistent, lazily-created executor for the
  fused layer (one pool per engine, not one per batch).
* :class:`Prefetcher` — a bounded background pipeline: a dedicated worker
  thread prepares batches ``k+1..k+D`` (I/O + decode) while the consumer
  processes batch ``k``, delivering results strictly in submission order.
* :class:`ShmArena` — the shared-memory data plane of the shard runtime
  (:mod:`repro.runtime.shard`): the coordinator scatters each
  iteration's frozen kernel state through it as ``(shm name, offset,
  dtype, shape)`` descriptors, and shard workers map them back as
  zero-copy read-only NumPy views.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from repro.obs.trace import NULL_TRACER

T = TypeVar("T")
R = TypeVar("R")

#: Thread-name prefixes, so tests can assert clean shutdown via
#: ``threading.enumerate()``.
PREFETCH_THREAD_NAME = "repro-prefetch"
WORKER_THREAD_PREFIX = "repro-worker"
#: Process-name prefix for shard workers (:mod:`repro.runtime.shard`), so
#: tests can assert clean shutdown via ``multiprocessing.active_children()``.
SHARD_WORKER_PREFIX = "repro-shard"


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.sched_getaffinity`` respects cgroup/affinity limits (CI
    containers routinely advertise 64 ``cpu_count`` cores while pinning
    the job to 2), falling back to ``os.cpu_count`` where affinity is not
    a concept (macOS, Windows).
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def default_workers() -> int:
    """Worker count mirroring the evaluation machine's 'use all cores'."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        return max(1, int(env))
    return available_cpus()


def resolve_workers(workers: "int | str") -> int:
    """Resolve a worker-count setting to a concrete worker count.

    ``"auto"`` clamps the default to the cores this process is *allowed*
    to run on (:func:`available_cpus`) — on a single-core box or a pinned
    CI container that resolves to 1, which routes execution through the
    serial path instead of paying pool overhead for no parallelism (the
    ``fused+parallel`` regression BENCH_kernels.json showed with one
    CPU).  Integers pass through unchanged (must be >= 1).
    """
    if workers == "auto":
        return max(1, min(default_workers(), available_cpus()))
    w = int(workers)
    if w < 1:
        raise ValueError(f"workers must be >= 1 or 'auto', got {workers!r}")
    return w


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


def execution_fingerprint(
    workers: "int | str" = "auto",
    shards: "int | None" = None,
) -> "dict[str, object]":
    """Resolved execution environment for benchmark machine blocks.

    Every ``BENCH_*.json`` records this so a result can be interpreted
    without guessing what ``"auto"`` meant on the runner that produced it.
    """
    return {
        "cpus_logical": os.cpu_count(),
        "cpus_available": available_cpus(),
        "workers_resolved": resolve_workers(workers),
        "shards_resolved": resolve_shards(shards),
    }


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


class WorkerPool:
    """Persistent, lazily-created thread pool.

    One :class:`WorkerPool` is owned by each engine and used by the
    fused execution layer — worker threads live for the engine's
    lifetime instead of being respawned per segment batch, and are
    joined by the engine's ``close()``.  The underlying executor is only
    created on first use, so serial runs never spawn a thread.
    """

    def __init__(self, workers: "int | None" = None):
        self._workers = workers if workers is not None else default_workers()
        if self._workers < 1:
            raise ValueError(f"need at least one worker, got {self._workers}")
        self._executor: "ThreadPoolExecutor | None" = None
        self._lock = threading.Lock()
        self._closed = False

    @property
    def size(self) -> int:
        return self._workers

    @property
    def started(self) -> bool:
        """Whether the underlying executor has been created."""
        return self._executor is not None

    @property
    def executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is shut down")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._workers,
                    thread_name_prefix=WORKER_THREAD_PREFIX,
                )
            return self._executor

    def map(self, fn: Callable[[T], R], items: "Iterable[T]") -> "list[R]":
        return list(self.executor.map(fn, items))

    def submit(self, fn: Callable[..., R], *args, **kwargs) -> "Future":
        return self.executor.submit(fn, *args, **kwargs)

    def shutdown(self) -> None:
        """Join and release the pool threads (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    def __del__(self):  # pragma: no cover - GC backstop
        try:
            self.shutdown()
        except Exception:
            pass


# ---------------------------------------------------------------------- #
# Shared-memory arena (the shard scatter's data plane)
# ---------------------------------------------------------------------- #

#: Names of shared-memory segments created by :class:`ShmArena` and not
#: yet unlinked — the leak-hygiene oracle tests assert against after
#: ``close()`` and after injected worker crashes.
LIVE_SHM_SEGMENTS: "set[str]" = set()


@dataclass(frozen=True)
class ShmDescriptor:
    """Address of one NumPy array inside a shared-memory segment.

    This is the shard scatter's *data-placement contract*: payloads
    cross the process boundary as ``(shm name, offset, dtype, shape)``
    quadruples, and the worker maps them back as zero-copy array views —
    the bytes themselves are never pickled.
    """

    shm: str
    offset: int
    dtype: str
    shape: "tuple[int, ...]"

    @property
    def nbytes(self) -> int:
        n = np.dtype(self.dtype).itemsize
        for d in self.shape:
            n *= d
        return n


class ShmArena:
    """Bump allocator over one POSIX shared-memory segment.

    The shard coordinator copies each iteration's frozen vertex-state
    arrays into the arena exactly once; shard workers map them back as
    read-only NumPy views with zero copies and zero pickling.  The arena
    is reused scatter after scatter — :meth:`reserve` resets the bump
    pointer and grows the segment when a scatter needs more room (only
    ever between iterations, when no worker holds descriptors into it).

    Lifecycle: one arena per shard runtime, unlinked by ``close()``.  Segment
    names are tracked in :data:`LIVE_SHM_SEGMENTS` so tests can assert
    nothing leaks, even after a worker crash.
    """

    #: Allocation alignment — cache-line sized so independently-written
    #: arrays never share a line across the process boundary.
    ALIGN = 64

    def __init__(self, capacity: int = 1 << 20, registry=None):
        from repro.obs.counters import NULL_METRIC

        self._registry = registry
        self._null = NULL_METRIC
        self._shm = None
        self._offset = 0
        self._initial = max(int(capacity), self.ALIGN)
        self._closed = False

    # -- properties ----------------------------------------------------- #

    @property
    def name(self) -> "str | None":
        return self._shm.name if self._shm is not None else None

    @property
    def capacity(self) -> int:
        return self._shm.size if self._shm is not None else 0

    @property
    def used(self) -> int:
        return self._offset

    # -- metrics -------------------------------------------------------- #

    def _counter(self, name: str):
        # `is not None`, not truthiness: an empty MetricsRegistry has
        # __len__() == 0 and would silently drop the first metrics.
        if self._registry is not None:
            return self._registry.counter(name)
        return self._null

    def _gauge(self, name: str):
        if self._registry is not None:
            return self._registry.gauge(name)
        return self._null

    # -- allocation ----------------------------------------------------- #

    @staticmethod
    def layout_bytes(arrays: "Iterable[np.ndarray]") -> int:
        """Arena bytes a sequence of :meth:`put` calls will consume."""
        a = ShmArena.ALIGN
        return sum((arr.nbytes + a - 1) // a * a for arr in arrays)

    def ensure(self, nbytes: int) -> None:
        """Guarantee capacity ``nbytes`` for the next :meth:`reserve`.

        May replace the backing segment (new name), so callers must only
        grow the arena *between* batches — never while worker processes
        hold descriptors into it.  Growth doubles, so a run performs
        O(log max-batch) segment replacements total.
        """
        if self._closed:
            raise RuntimeError("shared-memory arena is closed")
        nbytes = max(int(nbytes), self._initial)
        if self._shm is not None and nbytes <= self._shm.size:
            return
        cap = max(nbytes, 2 * self.capacity)
        self._release_segment()
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(create=True, size=cap)
        LIVE_SHM_SEGMENTS.add(seg.name)
        self._shm = seg
        self._offset = 0
        self._counter("shm.segments").add(1)
        self._gauge("shm.capacity_bytes").set(seg.size)

    def reserve(self, nbytes: int) -> None:
        """Start a new batch: reset the bump pointer, growing if needed."""
        self.ensure(nbytes)
        self._offset = 0

    def put(self, arr: np.ndarray) -> ShmDescriptor:
        """Copy one array into the arena; returns its descriptor.

        The only copy the coordinator ever makes of a payload — the
        worker side maps the descriptor as a view.  Raises if the current
        batch overflows its :meth:`reserve` (a caller bug: the reserve
        must cover :meth:`layout_bytes` of everything it will put).
        """
        arr = np.ascontiguousarray(arr)
        if self._shm is None:
            raise RuntimeError("ShmArena.put before reserve()")
        start = (self._offset + self.ALIGN - 1) // self.ALIGN * self.ALIGN
        end = start + arr.nbytes
        if end > self._shm.size:
            raise RuntimeError(
                f"arena overflow: need {end} bytes, reserved {self._shm.size}"
            )
        view = np.ndarray(
            arr.shape, dtype=arr.dtype, buffer=self._shm.buf, offset=start
        )
        view[...] = arr
        self._offset = end
        self._counter("shm.bytes_written").add(arr.nbytes)
        return ShmDescriptor(
            shm=self._shm.name,
            offset=start,
            dtype=arr.dtype.str,
            shape=tuple(arr.shape),
        )

    # -- lifecycle ------------------------------------------------------ #

    def _release_segment(self) -> None:
        if self._shm is None:
            return
        name = self._shm.name
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        LIVE_SHM_SEGMENTS.discard(name)
        self._shm = None
        self._offset = 0

    def close(self) -> None:
        """Unlink the backing segment (idempotent)."""
        self._release_segment()
        self._closed = True

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC backstop
        try:
            self._release_segment()
        except Exception:
            pass


def attach_view(desc: ShmDescriptor, cache: "dict[str, object]") -> np.ndarray:
    """Map a descriptor as a read-only array view (worker side, zero-copy).

    ``cache`` memoises segment attachments by name: a worker attaches to
    the engine's arena once per segment generation, not once per shard.
    Stale attachments (the engine grew the arena under a new name) stay
    mapped — on POSIX an unlinked segment lives until the last close — and
    are dropped opportunistically once no views reference them.
    """
    from multiprocessing import shared_memory

    seg = cache.get(desc.shm)
    if seg is None:
        if len(cache) >= 8:
            # Opportunistic eviction of stale generations; a segment whose
            # buffer still has exported views refuses to close — keep it.
            for name in list(cache):
                if name == desc.shm:
                    continue
                try:
                    cache[name].close()
                except BufferError:
                    continue
                del cache[name]
                break
        # Note on the resource tracker: spawn children inherit the parent's
        # tracker process, and registration is an idempotent set-add — so
        # the attach-time re-register is harmless and the engine's unlink
        # performs the single deregistration.  No worker-side unregister
        # (that would race the engine's and spam KeyError tracebacks).
        seg = shared_memory.SharedMemory(name=desc.shm)
        cache[desc.shm] = seg
    view = np.ndarray(
        desc.shape,
        dtype=np.dtype(desc.dtype),
        buffer=seg.buf,
        offset=desc.offset,
    )
    view.flags.writeable = False
    return view


class Prefetcher:
    """An ordered source of prepared batches (the *slide*'s real overlap).

    Given an ordered list of ``jobs`` (callables that fetch + decode one
    segment batch), a dedicated worker thread runs them sequentially,
    keeping at most ``depth`` finished-but-unconsumed results queued.
    :meth:`get` returns results strictly in submission order — the single
    producer thread guarantees it — so the consumer commits batches in
    plan order and results are bit-identical to the serial path at any
    depth.  ``depth=0`` *is* the serial path: no thread, each job runs
    inside its :meth:`get` on the consumer's thread.  A job exception is
    re-raised by the corresponding :meth:`get`; :meth:`close` always
    leaves no thread behind (assertable via ``threading.enumerate()``).

    ``get()`` in plan order, ``close()``, and ``overlapped`` are the
    whole batch-source contract the engine's slide loop consumes;
    :class:`~repro.runtime.shard.ShardGather` is the other source.
    """

    #: How often the producer re-checks the stop flag while the queue is
    #: full (seconds) — bounds shutdown latency without busy-waiting.
    _STOP_POLL = 0.05

    def __init__(
        self,
        jobs: "Sequence[Callable[[], T]]",
        depth: int = 1,
        name: str = PREFETCH_THREAD_NAME,
        tracer: object = NULL_TRACER,
    ):
        if depth < 0:
            raise ValueError(f"prefetch depth must be >= 0, got {depth}")
        self._jobs = list(jobs)
        self._tracer = tracer
        #: Whether jobs run off the consumer's thread (``depth >= 1``).
        self.overlapped = depth > 0
        self._consumed = 0
        self._thread: "threading.Thread | None" = None
        if self.overlapped and self._jobs:
            self._slots = threading.Semaphore(depth)
            self._results: (
                "queue.Queue[tuple[object, BaseException | None]]"
            ) = queue.Queue()
            self._stop = threading.Event()
            self._thread = threading.Thread(
                target=self._produce, name=name, daemon=True
            )
            self._thread.start()

    def _produce(self) -> None:
        tracer = self._tracer
        for i, job in enumerate(self._jobs):
            while not self._slots.acquire(timeout=self._STOP_POLL):
                if self._stop.is_set():
                    return
            if self._stop.is_set():
                return
            try:
                # The span runs on the prefetch thread, so the trace's
                # prefetch track shows exactly when each batch's
                # fetch+decode ran relative to engine-thread compute.
                with tracer.span("prefetch.job", cat="pipeline", batch=i):
                    out = job()
                tracer.registry.counter("prefetch.jobs").add(1)
            except BaseException as exc:  # delivered to the consumer
                self._results.put((None, exc))
                return
            self._results.put((out, None))

    def __len__(self) -> int:
        return len(self._jobs)

    def get(self) -> "T":
        """Next prepared batch, in submission order (blocks until ready)."""
        if self._consumed >= len(self._jobs):
            raise IndexError("all prefetch jobs already consumed")
        job = self._jobs[self._consumed]
        self._consumed += 1
        if self._thread is None:
            return job()
        out, exc = self._results.get()
        self._slots.release()
        if exc is not None:
            self.close()
            raise exc
        return out

    def close(self) -> None:
        """Stop the worker and join it (idempotent, exception-safe)."""
        if self._thread is None:
            return
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
        # Drop any prepared-but-unconsumed results so their buffers free.
        while True:
            try:
                self._results.get_nowait()
            except queue.Empty:
                break

    def __enter__(self) -> "Prefetcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def dynamic_row_map(
    fn: Callable[[T], R],
    items: "Sequence[T] | Iterable[T]",
    workers: "int | None" = None,
    pool: "WorkerPool | None" = None,
) -> "list[R]":
    """Apply ``fn`` to every item with dynamic work distribution.

    Results preserve input order.  With one worker (or one item) this runs
    serially, which keeps deterministic tests cheap.  Pass ``pool`` to run
    on a persistent :class:`WorkerPool` instead of paying executor
    creation per call.
    """
    items = list(items)
    if workers is None:
        workers = pool.size if pool is not None else default_workers()
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    if pool is not None:
        return pool.map(fn, items)
    with ThreadPoolExecutor(max_workers=workers) as tmp:
        return list(tmp.map(fn, items))


#: Default shard ceiling for :func:`chunk_by_edges`.
DEFAULT_MAX_SHARDS = 8


def chunk_by_edges(
    views: "Sequence[T]", max_shards: int = DEFAULT_MAX_SHARDS
) -> "list[list[T]]":
    """Split a batch into at most ``max_shards`` contiguous, edge-balanced
    chunks.

    The split depends only on the batch contents — never on the worker
    count — so algorithms whose floating-point accumulation order follows
    the shard structure produce bit-identical results at any parallelism.
    Chunks concatenate back to the original sequence.
    """
    views = list(views)
    if not views:
        return []
    if len(views) <= 1 or max_shards <= 1:
        return [views]
    counts = [tv.lsrc.shape[0] for tv in views]
    total = sum(counts)
    target = max(1, -(-total // max_shards))  # ceil
    shards: "list[list[T]]" = []
    cur: "list[T]" = []
    cur_edges = 0
    for tv, c in zip(views, counts):
        cur.append(tv)
        cur_edges += c
        if cur_edges >= target and len(shards) < max_shards - 1:
            shards.append(cur)
            cur, cur_edges = [], 0
    if cur:
        shards.append(cur)
    return shards


def execute_batch(
    algorithm,
    views,
    fused: bool = True,
    workers: int = 1,
    pool: "WorkerPool | None" = None,
) -> int:
    """Run one batch of tile views through an algorithm.

    ``fused=False`` is the per-tile reference loop; ``fused=True`` routes
    through :meth:`TileAlgorithm.process_batch`.  With ``workers > 1`` and
    a fused snapshot kernel, the read-only partial phase is sharded by
    the algorithm's :meth:`batch_shards` and distributed over a dynamic
    thread pool (``pool`` when given, else a transient one), and the
    partials are committed serially in shard order.  Because the shard
    structure is worker-independent and the serial :meth:`process_batch`
    walks the *same* shards, results are bit-identical at any worker
    count — a deterministic merge with OpenMP ``schedule(dynamic)``
    balance (§VI-B).  Live kernels (``algorithm.live_kernel``) need each
    shard's commit before the next shard's partial, so they take the
    serial sweep at any worker count.
    """
    if not views:
        return 0
    if not fused:
        edges = 0
        for tv in views:
            edges += algorithm.process_tile(tv)
        return edges
    if (
        workers > 1
        and algorithm.supports_fused
        and not algorithm.live_kernel
        and len(views) > 1
    ):
        shards = algorithm.batch_shards(views)
        if len(shards) > 1:
            partials = dynamic_row_map(
                algorithm.batch_partial, shards, workers=workers, pool=pool
            )
            return sum(algorithm.apply_partial(p) for p in partials)
    return algorithm.process_batch(views)

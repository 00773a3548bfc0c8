"""Asynchronous I/O context over the simulated array (paper §V-B).

Mirrors the libaio shape G-Store uses: many reads are batched into a single
``io_submit``-equivalent call, then completions are reaped.  The context
charges service time to the shared :class:`~repro.util.timer.SimClock` and
returns the *real* bytes from the backing :class:`TileStore` file.

Submission and completion are separate calls, so a prefetch thread can
*service* a batch (store reads + simulated service time) while the engine
thread computes, and the engine later *commits* the simulated time in plan
order:

* :meth:`AIOContext.service` is the thread-safe submission half — it never
  touches the clock, and any number of serviced batches may be awaiting
  their commit.
* :meth:`AIOContext.commit` is the completion half: it advances the clock
  and accounts ``io_time``.

Every caller — the depth-0 slide loop, the prefetch thread, private
query contexts — uses exactly this pair.

A batch is an :class:`Extents` record: its merged reads as ``int64``
offset and size arrays.  :meth:`AIOContext.service` returns the batch's
bytes as one contiguous array (:meth:`~repro.storage.file.TileStore.gather`:
a zero-copy slice for one extent), so nothing is built per extent on the
clean path.  A list of :class:`IORequest` objects is still accepted and answered
with one :class:`IOEvent` per request — the form
``benchmarks/perf/layer_walk.py`` calls.

``IOMode.SYNC`` models the direct/synchronous POSIX alternative the paper
compares against (per-request latency, no overlap).  ``realize_io=True``
additionally *sleeps* each batch's simulated service time on the servicing
thread, so the wall clock behaves like the modeled device — the mode
``tools/wall_smoke.py`` gate 1 uses to show that the prefetch overlap of
fetch and compute is real.

Reliability plane (docs/RELIABILITY.md): the context assigns every
request a monotonically increasing *ordinal* (in batch-plan order; retries
reuse the ordinal) against which an attached
:class:`~repro.faults.injector.FaultInjector` schedules faults, and
recovers retryable errors — injected or real — with the bounded
exponential backoff of :class:`~repro.faults.plan.RetryPolicy`.  Backoff
and latency-spike time are charged to the batch's service time, so chaos
runs live on the same deterministic simulated timeline as clean runs.
Batches stay all-or-nothing at every attempt: a failed attempt produces
no events and moves no counter.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import StorageError
from repro.faults.plan import RetryPolicy
from repro.obs.trace import NULL_TRACER
from repro.storage.file import TileStore
from repro.storage.raid import Raid0Array
from repro.util.timer import SimClock


class IOMode(enum.Enum):
    """How requests of one batch are issued to the device."""

    AIO = "aio"  # one batched submission, overlapped up to queue depth
    SYNC = "sync"  # one blocking pread per request


@dataclass(frozen=True)
class IORequest:
    """A logical read: byte extent within the data file, with a user tag."""

    offset: int
    size: int
    tag: object = None


@dataclass
class IOEvent:
    """A completed request: the tag it carried and its payload buffer.

    ``data`` is a zero-copy ``memoryview`` over the store's backing buffer
    (or mmap); consumers slice it per tile without copying.
    """

    tag: object
    data: "bytes | memoryview"


@dataclass(frozen=True)
class Extents:
    """One batch's merged reads, as arrays.

    Extent ``k`` is bytes ``[offsets[k], offsets[k] + sizes[k])`` of the
    store.  A batch of tiles (:func:`~repro.engine.selective.merge_extents`)
    also says which tiles each extent covers: ``positions[first[k] :
    first[k + 1]]``, so ``first`` has one entry more than there are
    extents.  ``tags``, when set, label the extents in error context (the
    :class:`IORequest` form); otherwise an extent's label is its tiles.
    """

    offsets: np.ndarray
    sizes: np.ndarray
    positions: "np.ndarray | None" = None
    first: "np.ndarray | None" = None
    tags: "list | None" = None

    def __len__(self) -> int:
        return int(self.offsets.shape[0])

    @cached_property
    def nbytes(self) -> int:
        return int(self.sizes.sum())

    def tag(self, k: int) -> object:
        """Extent ``k``'s label: its tag, else the tiles it covers."""
        if self.tags is not None:
            return self.tags[k]
        if self.positions is None:
            return None
        return self.positions[self.first[k] : self.first[k + 1]].tolist()

    @classmethod
    def of(cls, requests: "list[IORequest]") -> "Extents":
        """The record of a list of requests, tags kept."""
        return cls(
            offsets=np.array([r.offset for r in requests], dtype=np.int64),
            sizes=np.array([r.size for r in requests], dtype=np.int64),
            tags=[r.tag for r in requests],
        )


@dataclass
class AIOStats:
    submissions: int = 0
    requests: int = 0
    bytes_read: int = 0
    io_time: float = 0.0


@dataclass
class AIOContext:
    """Batched read interface binding a store, an array, and a clock."""

    store: TileStore
    array: Raid0Array
    clock: SimClock
    mode: IOMode = IOMode.AIO
    #: Sleep each batch's simulated service time on the servicing thread,
    #: making wall-clock I/O behave like the modeled device.
    realize_io: bool = False
    #: Observability hook (``repro.obs``): :meth:`service` runs under a
    #: ``fetch`` span on whichever thread services the batch, and the
    #: ``aio.*`` counters mirror :class:`AIOStats`.
    tracer: object = NULL_TRACER
    stats: AIOStats = field(default_factory=AIOStats)
    #: Optional :class:`~repro.faults.injector.FaultInjector`; when set,
    #: every serviced request is run through its fault plan.
    injector: "object | None" = None
    #: Recovery policy for retryable :class:`StorageError`\ s (injected or
    #: real); backoff is charged to the batch's simulated service time.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    _next_ordinal: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    # Submission half
    # ------------------------------------------------------------------ #

    def service(
        self, batch: "Extents | list[IORequest]"
    ) -> "tuple[np.ndarray | list[IOEvent], float]":
        """Service a batch: store reads plus modeled service time.

        Returns the batch's bytes — its extents laid end to end in one
        contiguous ``uint8`` array — and its simulated service time.  A
        list of :class:`IORequest` objects gets one :class:`IOEvent` per
        request instead (the layer walk's form).
        Thread-safe and clock-free, so any thread (a prefetch worker, an
        executor) may call it; the simulated time must later be committed
        on the engine thread via :meth:`commit`.
        All-or-nothing: if any extent is invalid or a fault exhausts the
        retry budget, no bytes are returned and no counter moves.
        """
        if not isinstance(batch, Extents):
            if not batch:
                return [], 0.0
            ext = Extents.of(batch)
            data, t = self.service(ext)
            bounds = np.cumsum(ext.sizes).tolist()
            view = memoryview(data)
            return [
                IOEvent(tag=r.tag, data=view[hi - r.size : hi])
                for r, hi in zip(batch, bounds)
            ], t
        if not len(batch):
            return np.empty(0, dtype=np.uint8), 0.0
        size = batch.nbytes
        with self.tracer.span(
            "fetch", cat="io", requests=len(batch), bytes=size
        ):
            with self._lock:
                data, t = self._service_locked(batch, size)
            if self.tracer.enabled:
                reg = self.tracer.registry
                reg.counter("aio.submissions").add(1)
                reg.counter("aio.requests").add(len(batch))
                reg.counter("aio.bytes_read").add(size)
            if self.realize_io and t > 0.0:
                time.sleep(t)
        return data, t

    def _service_locked(
        self, ext: Extents, size: int
    ) -> "tuple[np.ndarray, float]":
        """Read + time one batch under the lock, retrying retryable
        failures with bounded backoff.

        Request ordinals are assigned here, once per batch, in plan order;
        retries reuse them, so a transient fault keyed to an ordinal
        clears after its ``count`` attempts and the injected sequence is
        identical at every prefetch depth.
        """
        base = self._next_ordinal
        self._next_ordinal += len(ext)
        inj = self.injector
        reg = inj.registry if inj is not None else None
        attempt = 1
        backoff = 0.0
        while True:
            try:
                # Reads (and injection) first: a failure raises before any
                # device counter or AIOStats field mutates.
                data, spike = self._read_attempt(ext, base, attempt)
                if self.mode is IOMode.AIO:
                    t = self.array.read_batch_time(ext)
                else:
                    t = self.array.read_sync_time(ext)
                break
            except StorageError as exc:
                if not exc.retryable:
                    raise
                if reg is not None:
                    reg.counter("retry.attempts").add(1)
                if attempt >= self.retry.max_attempts:
                    if reg is not None:
                        reg.counter("retry.exhausted").add(1)
                    ctx = dict(exc.context)
                    ctx["attempts"] = attempt
                    ctx["batch_requests"] = len(ext)
                    raise StorageError(
                        f"batch failed after {attempt} attempts: {exc.args[0]}",
                        context=ctx,
                        retryable=False,
                    ) from exc
                pause = self.retry.backoff_for(attempt)
                backoff += pause
                if reg is not None:
                    reg.counter("retry.backoff_time_sim").add(pause)
                attempt += 1
        if attempt > 1 and reg is not None:
            reg.counter("retry.recovered").add(1)
        t += spike + backoff
        self.stats.submissions += 1
        self.stats.requests += len(ext)
        self.stats.bytes_read += size
        return data, t

    def _read_attempt(
        self, ext: Extents, base: int, attempt: int
    ) -> "tuple[np.ndarray, float]":
        """One read pass over the batch: store reads, fault injection, and
        centralised short-read detection.  Returns ``(data, extra_sim)``.

        Clean, it is one gather.  Under a fault injector each extent is
        read and handed to the injector's per-ordinal hook in plan order —
        the hook may delay, truncate, flip a bit or raise — and the
        results are joined."""
        inj = self.injector
        if inj is None:
            return self.store.gather(ext.offsets, ext.sizes), 0.0
        parts: "list[np.ndarray]" = []
        extra = 0.0
        for k, (off, size) in enumerate(
            zip(ext.offsets.tolist(), ext.sizes.tolist())
        ):
            data = self.store.read(off, size)
            data, delay = inj.apply(base + k, attempt, off, size, data)
            extra += delay
            if len(data) != size:
                raise StorageError(
                    f"short read at offset {off}: got {len(data)} of "
                    f"{size} bytes",
                    context={
                        "ordinal": base + k,
                        "offset": off,
                        "size": size,
                        "got": len(data),
                        "tag": ext.tag(k),
                        "attempt": attempt,
                    },
                    retryable=True,
                )
            parts.append(np.frombuffer(data, dtype=np.uint8))
        if len(parts) == 1:
            return parts[0], extra
        return np.concatenate(parts), extra

    # ------------------------------------------------------------------ #
    # Completion half
    # ------------------------------------------------------------------ #

    def commit(self, service_time: float) -> None:
        """Charge an already-serviced batch's time to the shared clock.

        Must be called on the engine thread, in plan order — that is what
        keeps the simulated timeline identical at any prefetch depth.
        """
        self.clock.advance(service_time)
        with self._lock:
            self.stats.io_time += service_time
        if self.tracer.enabled:
            self.tracer.registry.counter("aio.io_time_sim").add(service_time)

"""The batch source: a bounded prefetch pipeline (paper §VI-B).

The engine's slide loop draws prepared batches from one ordered source.
This module holds the record it returns (:class:`Prepared`) and the
source itself (:class:`Prefetcher`): a dedicated worker thread prepares
batches ``k+1..k+D`` (I/O + decode) while the consumer processes batch
``k``, delivering results strictly in submission order.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.format.tiles import DecodedBatch
from repro.obs.trace import NULL_TRACER

T = TypeVar("T")

#: Thread name, so tests can assert clean shutdown via
#: ``threading.enumerate()``.
PREFETCH_THREAD_NAME = "repro-prefetch"

#: The depth an unset ``EngineConfig.prefetch_depth`` resolves to when
#: reads really block (``realize_io``): the producer then sleeps with the
#: GIL released, so two batches ahead is what there is to overlap
#: (docs/PERFORMANCE.md "Prefetch pipeline overlap", measured before the
#: compiled tier; ``tools/wall_smoke.py`` gates that overlap still wins).
#: Over page-cached reads the same unset depth resolves to 0 — no thread.
BLOCKING_IO_DEPTH = 2


@dataclass
class Prepared:
    """One slide (or rewind) batch, decoded and ready to commit in plan
    order; its kernels still run on the engine thread.  ``tiles`` is what
    the cache pool is offered: the plan's ``int64`` position array,
    untouched, with the tiles' byte sizes and the smallest of them from
    the plan (``None`` for the rewind, which is offered nothing).
    ``fetch`` and ``decode`` split ``wall`` for the layer table
    (``RunStats.extra["layers"]``).
    """

    tiles: np.ndarray
    batch: DecodedBatch
    io_time: float  # simulated service time, not yet charged to the clock
    bytes_read: int
    wall: float  # real seconds the preparation took, wherever it ran
    sizes: "np.ndarray | None" = None
    smallest: "int | None" = None
    fetch: float = 0.0  # real seconds of the service call
    decode: float = 0.0  # real seconds of the verify, decode and widen


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
    whole batch-source contract the engine's slide loop consumes.

    The producer is hand-rolled rather than an executor on purpose: it
    stops at the first failed job, where an executor would run the jobs
    queued behind it and shift every later fault ordinal.
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
        # A fractional depth would make a Semaphore that steps past zero
        # without ever reaching it: unbounded read-ahead.
        if not isinstance(depth, Integral) or isinstance(depth, bool):
            raise TypeError(f"prefetch depth must be an int, got {depth!r}")
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

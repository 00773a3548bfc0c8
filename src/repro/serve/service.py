"""The concurrent query service (docs/SERVING.md).

One :class:`QueryService` wraps one read-only
:class:`~repro.engine.gstore.GStoreEngine` and executes typed queries
(:mod:`repro.serve.queries`) on a bounded thread pool.  The concurrency
model in two sentences: *everything mutable is per-query* (clock, AIO
context, tracer/registry, stats — via
:meth:`~repro.engine.gstore.GStoreEngine.query_context`), while the
engine contributes only the immutable substrate (graph, tile-store mmap,
configuration), so queries share no data.  They do share the
interpreter: an engine run is hundreds of microsecond-sized NumPy calls
under the GIL, and two side by side take longer than the same two in
turn — so the *engine* runs private contexts one at a time, in arrival
order (its lane, :mod:`repro.runtime.lane`), and this service's threads
overlap only what is not an engine run: admission, cache probes, point
lookups, reply digests, and waiting their turn.  The service reads the
wait (``serve.lane_wait_s``, ``serve.lane_waiting``,
``QueryResult.queue_seconds``) and adds no queueing of its own.

Three service mechanisms sit in front of the engine:

* **Admission control** — at most ``queue_depth`` queries may be
  admitted (queued + running).  :meth:`QueryService.submit` either
  admits synchronously or raises the typed
  :class:`~repro.errors.AdmissionError` — callers learn about overload
  immediately instead of queueing unboundedly.
* **Deadlines** — a per-query (or service-default) deadline rides the
  private run context; the engine checks it cooperatively at iteration
  boundaries and the query fails with
  :class:`~repro.errors.DeadlineError`, leaving the service healthy.
* **Result cache** — completed payloads are cached LRU under
  ``(graph fingerprint, query cache key)``; hits bypass the engine
  entirely (and still count against admission, keeping the bound a true
  concurrency limit).

The service owns a *shared* ``serve.*`` registry (admission, outcome,
and cache counters — see docs/OBSERVABILITY.md) plus a tracer carrying
one ``serve.query`` span per query.  Per-query engine counters live on
each query's private registry, attached to its result when
``trace_queries`` is on.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from repro.errors import AdmissionError, DeadlineError, QueryError, StorageError
from repro.obs import MetricsRegistry, Tracer
from repro.serve.cache import ResultCache
from repro.serve.health import HealthMonitor, HealthState
from repro.serve.queries import (
    Query,
    QueryResult,
    graph_fingerprint,
    payload_digest,
)
from repro.util.timer import SimClock


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`QueryService`."""

    #: Worker threads: how many admitted queries are off the executor's
    #: queue at once — one of them in an engine run, the others probing
    #: the cache, doing point lookups, digesting replies, or waiting for
    #: the engine lane.
    workers: int = 4
    #: Admission bound: maximum queries admitted at once (queued +
    #: running).  Submissions beyond it fail fast with AdmissionError.
    queue_depth: int = 16
    #: LRU result-cache entries; 0 disables result caching.
    cache_entries: int = 128
    #: Deadline (seconds) applied when a submission names none;
    #: ``None`` = no default deadline.
    default_deadline: "float | None" = None
    #: Give each query a tracing private context and attach its counter
    #: snapshot to the result (costs a registry per query).
    trace_queries: bool = False
    #: Extra attempts granted per query for *retryable*
    #: :class:`~repro.errors.StorageError`\ s (transient device trouble):
    #: the query re-runs on a fresh private context, bounded.  0 disables
    #: serve-level retry.
    retry_attempts: int = 1
    #: Consecutive engine-side query failures before the health monitor
    #: flips the service to ``degraded`` (docs/RELIABILITY.md).
    health_error_threshold: int = 3
    #: Consecutive successes that clear an error-streak degradation.
    health_recovery_threshold: int = 3


class QueryService:
    """Thread-pool query service over one shared read-only engine."""

    def __init__(
        self,
        engine,
        config: "ServiceConfig | None" = None,
        cache: "ResultCache | None" = None,
    ):
        self.engine = engine
        self.config = config or ServiceConfig()
        #: sha256 identity of the served graph; half of every cache key.
        self.fingerprint = graph_fingerprint(engine.graph)
        self.cache = (
            cache
            if cache is not None
            else ResultCache(self.config.cache_entries)
        )
        #: Service-level metrics: the shared ``serve.*`` family.  Shared
        #: deliberately — these describe the service, not any one query;
        #: per-query counters stay on per-query private registries.
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=SimClock(), registry=self.registry)
        self._slots = threading.Semaphore(self.config.queue_depth)
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        #: Health state machine (docs/RELIABILITY.md "Serve health"):
        #: reads the engine's degradation latches plus this service's
        #: error/success stream; drives load shedding and ``/healthz``.
        self.health = HealthMonitor(
            engine,
            self.registry,
            error_threshold=self.config.health_error_threshold,
            recovery_threshold=self.config.health_recovery_threshold,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="serve-query",
        )
        self._closed = False

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit(
        self,
        query: Query,
        *,
        deadline: "float | None" = None,
        cancel_event: "threading.Event | None" = None,
    ) -> "Future[QueryResult]":
        """Admit ``query`` and return its future.

        Admission is synchronous: if the service already holds
        ``queue_depth`` admitted queries this raises
        :class:`AdmissionError` without enqueueing anything.  The future
        resolves to a :class:`QueryResult`, or raises the query's typed
        error (:class:`DeadlineError`, :class:`QueryError`, or a
        storage/algorithm error from the engine).
        """
        if self._closed:
            raise QueryError("service is closed")
        state = self.health.state()
        if state is HealthState.DRAINING:
            self.registry.counter("serve.rejected").add(1)
            self.registry.counter("serve.shed").add(1)
            raise AdmissionError(
                "service draining",
                context={"code": "shed_draining", "retry_after": 5.0},
            )
        if state is HealthState.DEGRADED:
            # Load shedding: a degraded engine runs on a slower substrate
            # (serial I/O) — admit only half the configured depth so
            # queue time does not explode.
            with self._inflight_lock:
                inflight = self._inflight
            if inflight >= max(1, self.config.queue_depth // 2):
                self.registry.counter("serve.rejected").add(1)
                self.registry.counter("serve.shed").add(1)
                raise AdmissionError(
                    "load shed: service degraded",
                    context={
                        "code": "shed_degraded",
                        "retry_after": 2.0,
                        "reasons": self.health.reasons(),
                    },
                )
        if deadline is None:
            deadline = self.config.default_deadline
        if not self._slots.acquire(blocking=False):
            self.registry.counter("serve.rejected").add(1)
            raise AdmissionError(
                "admission queue full",
                context={
                    "queue_depth": self.config.queue_depth,
                    "code": "admission_full",
                    "retry_after": 1.0,
                },
            )
        self.registry.counter("serve.admitted").add(1)
        with self._inflight_lock:
            self._inflight += 1
            self.registry.gauge("serve.inflight").set(self._inflight)
        try:
            future = self._executor.submit(
                self._execute, query, deadline, cancel_event
            )
        except BaseException:
            self._release()
            raise
        future.add_done_callback(lambda _f: self._release())
        return future

    def execute(
        self,
        query: Query,
        *,
        deadline: "float | None" = None,
        cancel_event: "threading.Event | None" = None,
    ) -> QueryResult:
        """Blocking convenience wrapper: submit and wait."""
        return self.submit(
            query, deadline=deadline, cancel_event=cancel_event
        ).result()

    def _release(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            self.registry.gauge("serve.inflight").set(self._inflight)
        self._slots.release()

    # ------------------------------------------------------------------ #
    # Execution (worker threads)
    # ------------------------------------------------------------------ #

    def _execute(
        self,
        query: Query,
        deadline: "float | None",
        cancel_event: "threading.Event | None",
    ) -> QueryResult:
        key = (self.fingerprint, query.cache_key())
        desc = query.describe()
        with self.tracer.span(
            "serve.query", cat="serve",
            type=desc["type"], params=desc["params"],
        ):
            t0 = time.perf_counter()
            cached = self.cache.get(key)
            if cached is not None:
                self.registry.counter("serve.cache_hits").add(1)
                self.registry.counter("serve.completed").add(1)
                return QueryResult(
                    query=query,
                    payload=cached.payload,
                    sha256=cached.sha256,
                    fingerprint=self.fingerprint,
                    wall_seconds=time.perf_counter() - t0,
                    cache_hit=True,
                    counters=cached.counters,
                )
            self.registry.counter("serve.cache_misses").add(1)
            attempts_left = max(0, int(self.config.retry_attempts))
            queued = 0.0
            while True:
                ctx = None
                try:
                    ctx = self.engine.query_context(
                        trace=self.config.trace_queries,
                        deadline=deadline,
                        cancel_event=cancel_event,
                    )
                    payload = query.run(self.engine, ctx)
                    break
                except DeadlineError:
                    # A missed deadline is the caller's budget, not the
                    # engine's health — no health penalty, no retry.
                    self.registry.counter("serve.deadline_exceeded").add(1)
                    raise
                except StorageError as exc:
                    if exc.retryable and attempts_left > 0:
                        # Transient device trouble: re-run on a fresh
                        # private context, bounded by retry_attempts.
                        attempts_left -= 1
                        self.registry.counter("serve.retries").add(1)
                        continue
                    if exc.retryable:
                        self.registry.counter("serve.retry_exhausted").add(1)
                    self.registry.counter("serve.errors").add(1)
                    self.health.note_error()
                    raise
                except QueryError:
                    # A malformed or out-of-range query says nothing
                    # about the engine — count it, no health penalty.
                    self.registry.counter("serve.errors").add(1)
                    raise
                except Exception:
                    self.registry.counter("serve.errors").add(1)
                    self.health.note_error()
                    raise
                finally:
                    if ctx is not None:
                        # Every attempt's wait counts, the ones that gave
                        # up in the queue above all.
                        queued += ctx.lane_wait
                        self.registry.counter("serve.lane_wait_s").add(
                            ctx.lane_wait
                        )
            self.health.note_success()
            result = QueryResult(
                query=query,
                payload=payload,
                sha256=payload_digest(payload),
                fingerprint=self.fingerprint,
                wall_seconds=time.perf_counter() - t0,
                queue_seconds=queued,
                cache_hit=False,
                counters=(
                    ctx.tracer.registry.as_dict()
                    if self.config.trace_queries
                    else None
                ),
            )
            self.cache.put(key, result)
            self.registry.counter("serve.completed").add(1)
            return result

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    def refresh_fingerprint(self) -> str:
        """Recompute the graph fingerprint (after an in-place rebuild).

        Cache entries keyed under the old fingerprint become
        unreachable — structural invalidation, no explicit flush needed.
        """
        self.fingerprint = graph_fingerprint(self.engine.graph)
        return self.fingerprint

    def stats(self) -> dict:
        """Snapshot of the shared ``serve.*`` registry plus cache size,
        how many queries are waiting for the engine lane right now, and
        the current health state/reasons."""
        out = self.registry.as_dict()
        out["serve.cache_entries"] = len(self.cache)
        out["serve.lane_waiting"] = self.engine.lane.waiting
        out["serve.health"] = self.health.state().value
        out["serve.health.reasons"] = self.health.reasons()
        return out

    def drain(self) -> None:
        """Stop admitting new queries (typed 429 + ``Retry-After``) while
        in-flight ones finish; ``/healthz`` flips to ``draining``/503.
        The graceful first half of :meth:`close`."""
        self.health.drain()

    def close(self) -> None:
        """Drain, stop accepting work, and join the workers (idempotent).

        In-flight queries finish; the shared engine is left untouched —
        closing the service never closes the engine it serves.
        """
        if self._closed:
            return
        self.drain()
        self._closed = True
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

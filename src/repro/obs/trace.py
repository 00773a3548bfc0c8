"""Span-based tracing on two clocks (the observability tentpole).

The engine's evaluation story — like the paper's Figures 11–15 — is an
*attribution* exercise: where do the seconds and the bytes go?  End-of-run
aggregates (:class:`~repro.engine.stats.RunStats`) cannot show that the
prefetcher fetched batch ``k+1`` while batch ``k`` computed; a trace can.

Two kinds of span, two clocks (see docs/OBSERVABILITY.md):

* **wall spans** — ``with tracer.span("decode", batch=k): ...`` records
  real ``perf_counter`` begin/end on whatever thread runs the body.  Each
  thread is its own track, so the prefetch worker's ``fetch``/``decode``
  spans land on a separate track from the engine thread's ``compute``
  spans and the overlap is *visible* in Perfetto.
* **simulated spans** — :meth:`Tracer.sim_span` records an interval on
  the simulated timeline (device + cost model).  They are emitted by
  :class:`~repro.runtime.pipeline.PipelineTimeline` in plan order on the
  engine thread, so a simulated-clock export is bit-identical across
  runs and prefetch depths (the determinism contract of PR 2, now
  diffable).

Disabled tracing costs one attribute check: :data:`NULL_TRACER` returns a
shared no-op context manager from :meth:`span` and swallows everything
else, so ``EngineConfig(trace=False)`` (the default) stays within the
≤2 % overhead budget enforced by the smoke test.

All record keeping is thread-safe: finished spans append under a lock and
per-thread nesting depth lives in ``threading.local`` storage.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.obs.counters import MetricsRegistry, NullRegistry
from repro.util.timer import SimClock


@dataclass(frozen=True)
class SpanRecord:
    """One finished span (or simulated interval).

    ``ts``/``dur`` are wall-clock seconds relative to the tracer's epoch
    (``None`` for purely simulated spans); ``sim_ts``/``sim_dur`` are
    simulated seconds (``sim_dur`` is ``None`` for wall spans, which only
    *sample* the simulated clock at entry).  ``track`` is the display
    lane: the recording thread's name for wall spans, a ``sim:*`` lane
    for simulated ones.  ``depth`` is the nesting level within the track.
    """

    name: str
    cat: str
    track: str
    ts: "float | None"
    dur: "float | None"
    sim_ts: "float | None"
    sim_dur: "float | None"
    depth: int = 0
    args: dict = field(default_factory=dict)


class _NullSpan:
    """Shared do-nothing context manager (disabled tracing)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """Context manager recording one wall span on the current thread."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_t0", "_sim0", "_depth")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_Span":
        tr = self._tracer
        self._depth = tr._push()
        self._t0 = time.perf_counter()
        self._sim0 = tr.clock.now if tr.clock is not None else None
        return self

    def __exit__(self, *exc: object) -> None:
        t1 = time.perf_counter()
        tr = self._tracer
        tr._pop()
        tr._append(
            SpanRecord(
                name=self._name,
                cat=self._cat,
                track=threading.current_thread().name,
                ts=self._t0 - tr.epoch,
                dur=t1 - self._t0,
                sim_ts=self._sim0,
                sim_dur=None,
                depth=self._depth,
                args=self._args,
            )
        )


class Tracer:
    """Collects spans, instants, and counters for one engine (or tool) run.

    Attach a :class:`~repro.util.timer.SimClock` so wall spans can sample
    the simulated time at entry; the counters/gauges registry hangs off
    :attr:`registry` and is shared with every instrumented subsystem.
    """

    enabled: bool = True

    def __init__(
        self,
        clock: "SimClock | None" = None,
        registry: "MetricsRegistry | None" = None,
    ):
        self.clock = clock
        self.registry = registry if registry is not None else MetricsRegistry()
        self.epoch = time.perf_counter()
        self._records: "list[SpanRecord]" = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ----------------------------------------------------- #

    def span(self, name: str, cat: str = "engine", **args) -> "_Span | _NullSpan":
        """Context manager timing its body as one wall span.

        ``args`` become the span's Chrome-trace ``args`` payload (keep
        them JSON-serialisable: batch indices, byte counts, labels).
        """
        return _Span(self, name, cat, args)

    def sim_span(
        self,
        name: str,
        start: float,
        duration: float,
        track: str = "sim",
        cat: str = "sim",
        **args,
    ) -> None:
        """Record an interval on the *simulated* timeline.

        ``start``/``duration`` are simulated seconds (e.g. the pipeline
        timeline's elapsed time before and during a step).  Emit these in
        plan order on the engine thread and the simulated trace is
        deterministic — identical bytes at any prefetch depth.
        """
        self._append(
            SpanRecord(
                name=name, cat=cat, track=track,
                ts=None, dur=None,
                sim_ts=float(start), sim_dur=float(duration),
                depth=0, args=args,
            )
        )

    def instant(self, name: str, cat: str = "mark", **args) -> None:
        """A zero-duration wall marker on the current thread's track."""
        self._append(
            SpanRecord(
                name=name, cat=cat,
                track=threading.current_thread().name,
                ts=time.perf_counter() - self.epoch, dur=0.0,
                sim_ts=self.clock.now if self.clock is not None else None,
                sim_dur=None,
                depth=self._depth(),
                args=args,
            )
        )

    def counter(self, name: str):
        """Shorthand for ``tracer.registry.counter(name)``."""
        return self.registry.counter(name)

    # -- access -------------------------------------------------------- #

    def records(self) -> "list[SpanRecord]":
        """Snapshot of every finished record (safe from any thread)."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        return len(self._records)

    # -- internals ----------------------------------------------------- #

    def _append(self, rec: SpanRecord) -> None:
        with self._lock:
            self._records.append(rec)

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    def _push(self) -> int:
        d = getattr(self._local, "depth", 0)
        self._local.depth = d + 1
        return d

    def _pop(self) -> None:
        self._local.depth = max(0, getattr(self._local, "depth", 1) - 1)


class NullTracer(Tracer):
    """Tracing disabled: every operation is a no-op.

    Instrumented modules default to the shared :data:`NULL_TRACER`
    instance, so call sites never branch — they always call the same
    methods and the disabled path costs a dict build plus a no-op call,
    per *batch*, which is far inside the ≤2 % overhead budget.
    """

    enabled = False

    def __init__(self):
        super().__init__(clock=None, registry=NullRegistry())

    def span(self, name: str, cat: str = "engine", **args) -> _NullSpan:
        return _NULL_SPAN

    def sim_span(self, name, start, duration, track="sim", cat="sim", **args):
        pass

    def instant(self, name: str, cat: str = "mark", **args) -> None:
        pass

    def _append(self, rec: SpanRecord) -> None:
        pass

    def __repr__(self) -> str:
        # Stable repr: this singleton is a dataclass-field default in
        # several modules, and the generated API reference must be
        # byte-identical across runs (no memory addresses).
        return "NULL_TRACER"


#: Process-wide disabled tracer; instrumented code uses it as the default
#: so ``tracer=None`` never needs checking at call sites.
NULL_TRACER = NullTracer()

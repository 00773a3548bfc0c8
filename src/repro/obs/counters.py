"""Counters and gauges: the numeric half of the observability layer.

A :class:`MetricsRegistry` is a flat, thread-safe namespace of named
:class:`Counter`\\ s (monotonic adders) and :class:`Gauge`\\ s (last-value
holders).  The engine, AIO context, device model and LLC simulator
publish through one registry (owned by the run's
:class:`~repro.obs.trace.Tracer`); the engine adds the SCR scheduler's
pool tallies (:class:`~repro.memory.scr.SCRStats`) once, at the end of a
run.  Each fact is counted once: the ``engine.*`` counters sum the
:class:`~repro.engine.stats.RunStats` fields (``tests/test_obs.py``
asserts they agree field by field), and the ``aio.*`` and ``device.*``
counters are the only record of storage traffic — neither the AIO
context nor a device keeps a tally of its own.

When tracing is disabled the engine holds a :class:`NullRegistry`, whose
counters swallow every update; the hot paths pay one attribute check and
a no-op call, nothing else (see the overhead smoke test).
"""

from __future__ import annotations

import threading


class Counter:
    """A named monotonic counter (int or float increments)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> "int | float":
        return self._value

    def add(self, n: "int | float" = 1) -> None:
        """Add ``n`` (thread-safe; ``+=`` alone is not atomic in Python)."""
        with self._lock:
            self._value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self._value})"


class Gauge:
    """A named last-value-wins measurement (pool occupancy, queue depth)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> "int | float":
        return self._value

    def set(self, v: "int | float") -> None:
        with self._lock:
            self._value = v

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, value={self._value})"


class _NullMetric:
    """Shared no-op stand-in for both metric kinds (disabled tracing)."""

    __slots__ = ()
    name = "<null>"
    value = 0

    def add(self, n: "int | float" = 1) -> None:
        pass

    def set(self, v: "int | float") -> None:
        pass


NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Thread-safe get-or-create namespace of counters and gauges.

    Names are dotted, ``subsystem.metric`` (see docs/OBSERVABILITY.md for
    the full reference).  Creating and updating are both safe from any
    thread; :meth:`as_dict` snapshots every current value.

    Isolation contract for concurrent engine entry points
    (docs/SERVING.md): thread safety makes *sharing* a registry
    lossless, but shared counters still merge every caller's activity
    into one stream.  Code that needs attributable per-query numbers —
    the serving layer — therefore gives each query its own registry (via
    a private :class:`~repro.engine.context.RunContext` tracer) and
    reserves shared registries for genuinely global streams (the
    service-level ``serve.*`` family).  Tests assert both halves of the
    contract: no lost updates under contention, and no cross-query
    bleed between private registries.
    """

    def __init__(self) -> None:
        self._metrics: "dict[str, Counter | Gauge]" = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        m = self._metrics.get(name)
        if m is None:
            with self._lock:
                m = self._metrics.setdefault(name, Counter(name))
        if not isinstance(m, Counter):
            raise TypeError(f"metric {name!r} is a {type(m).__name__}, not a Counter")
        return m

    def gauge(self, name: str) -> Gauge:
        m = self._metrics.get(name)
        if m is None:
            with self._lock:
                m = self._metrics.setdefault(name, Gauge(name))
        if not isinstance(m, Gauge):
            raise TypeError(f"metric {name!r} is a {type(m).__name__}, not a Gauge")
        return m

    def value(self, name: str) -> "int | float":
        """Current value of a metric (0 if it was never touched)."""
        m = self._metrics.get(name)
        return m.value if m is not None else 0

    def as_dict(self) -> "dict[str, int | float]":
        """Snapshot of every metric, sorted by name (deterministic)."""
        with self._lock:
            return {name: m.value for name, m in sorted(self._metrics.items())}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics


class NullRegistry(MetricsRegistry):
    """Registry that swallows everything — the disabled-tracing fast path."""

    def counter(self, name: str):  # type: ignore[override]
        return NULL_METRIC

    def gauge(self, name: str):  # type: ignore[override]
        return NULL_METRIC

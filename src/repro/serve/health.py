"""Serve-layer health state machine (docs/RELIABILITY.md, docs/SERVING.md).

One :class:`HealthMonitor` sits between the engine's degradation flags
and the service's admission decisions.  It condenses everything the
reliability plane latches — shard fallback, exhausted storage retries,
prefetch degradation — plus the service's own error
stream into one of three states:

* ``healthy``  — full admission.
* ``degraded`` — the engine has degraded (or queries are failing in a
  streak): the service sheds load early (admission clamps to half the
  configured queue depth) so the slower substrate is not buried, and
  ``/healthz`` reports the reasons.
* ``draining`` — the service is shutting down (or was told to drain):
  every submission is shed with a typed 429 + ``Retry-After`` and
  ``/healthz`` flips to 503, which is what load balancers key on.

Error-streak degradation is *recoverable*: ``recovery_threshold``
consecutive successes clear it.  Engine-flag degradation mirrors the
engine's own latches — permanent for that engine, by design.

State is observable three ways, all consistent: the
``serve.health.state`` gauge (0/1/2), the ``serve.health.transitions``
counter, and the ``/healthz`` / ``/stats`` HTTP surfaces.
"""

from __future__ import annotations

import enum
import threading


class HealthState(enum.Enum):
    """The serve layer's coarse health states."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DRAINING = "draining"


#: Gauge encoding of :class:`HealthState` (``serve.health.state``).
HEALTH_CODES = {
    HealthState.HEALTHY: 0,
    HealthState.DEGRADED: 1,
    HealthState.DRAINING: 2,
}


class HealthMonitor:
    """Condenses engine degradation flags + query outcomes into a state.

    Thread-safe: worker threads call :meth:`note_success` /
    :meth:`note_error` concurrently with admission-path :meth:`state`
    calls.  The engine flags are read fresh on every :meth:`state` call
    (they only ever latch from False to True, so no lock is needed on
    that side).
    """

    def __init__(
        self,
        engine,
        registry,
        error_threshold: int = 3,
        recovery_threshold: int = 3,
    ):
        self._engine = engine
        self._registry = registry
        self._error_threshold = max(1, int(error_threshold))
        self._recovery_threshold = max(1, int(recovery_threshold))
        self._lock = threading.Lock()
        self._draining = False
        self._consecutive_errors = 0
        self._consecutive_successes = 0
        self._error_latch = False
        self._last_state = HealthState.HEALTHY
        registry.gauge("serve.health.state").set(
            HEALTH_CODES[HealthState.HEALTHY]
        )

    # ------------------------------------------------------------------ #
    # Inputs
    # ------------------------------------------------------------------ #

    def note_success(self) -> None:
        """A query completed: feed the recovery streak."""
        with self._lock:
            self._consecutive_errors = 0
            if self._error_latch:
                self._consecutive_successes += 1
                if self._consecutive_successes >= self._recovery_threshold:
                    self._error_latch = False
                    self._consecutive_successes = 0

    def note_error(self) -> None:
        """A query failed on the engine (not a caller mistake)."""
        with self._lock:
            self._consecutive_successes = 0
            self._consecutive_errors += 1
            if self._consecutive_errors >= self._error_threshold:
                self._error_latch = True

    def drain(self) -> None:
        """Enter ``draining``: shed everything, flip ``/healthz`` to 503."""
        with self._lock:
            self._draining = True
        self.state()  # publish the transition now, not on next probe

    # ------------------------------------------------------------------ #
    # Outputs
    # ------------------------------------------------------------------ #

    def _engine_reasons(self) -> "list[str]":
        eng = self._engine
        # What the engine's degrade step latched (``shard_fallback``,
        # ``prefetch_degraded``) — real failures count, not only injected
        # ones, so this does not go through the fault injector.
        reasons = list(getattr(eng, "degradations", ()))
        injector = getattr(eng, "injector", None)
        if injector is not None and injector.counters().get(
            "retry.exhausted", 0
        ):
            reasons.append("retry_exhausted")
        return reasons

    def reasons(self) -> "list[str]":
        """Why the current state is not ``healthy`` (empty when it is)."""
        with self._lock:
            draining = self._draining
            latched = self._error_latch
        out = []
        if draining:
            out.append("draining")
        if latched:
            out.append("error_streak")
        out.extend(self._engine_reasons())
        return out

    def state(self) -> HealthState:
        """The current state; publishes gauge/transition counters."""
        with self._lock:
            if self._draining:
                state = HealthState.DRAINING
            elif self._error_latch or self._engine_reasons():
                state = HealthState.DEGRADED
            else:
                state = HealthState.HEALTHY
            changed = state is not self._last_state
            self._last_state = state
        if changed:
            self._registry.counter("serve.health.transitions").add(1)
            self._registry.gauge("serve.health.state").set(
                HEALTH_CODES[state]
            )
        return state

"""Runtime fault injection wired into the storage substrate.

One :class:`FaultInjector` serves one engine run.  The AIO context asks
it, per request ordinal and attempt, whether (and how) the read
misbehaves; the engine asks it once, at construction, to configure
per-device conditions (slow / dead RAID members).  Every injected event
is appended to a deterministic log and counted through the ``fault.*``
metric family of a :class:`~repro.obs.counters.MetricsRegistry` — the
injector owns a private registry when the run is not traced, so chaos
counters exist either way.

All request-path methods are called under the AIO context lock, in
batch-plan order, so the log and the counters are bit-identical at any
prefetch depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StorageError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.obs.counters import MetricsRegistry


@dataclass(frozen=True)
class InjectedFault:
    """One log entry: what fired, where, on which attempt."""

    ordinal: int
    kind: str
    attempt: int
    offset: int
    size: int

    def as_tuple(self) -> tuple:
        return (self.ordinal, self.kind, self.attempt, self.offset, self.size)


class FaultInjector:
    """Per-run injection state over a :class:`FaultPlan`."""

    def __init__(
        self, plan: FaultPlan, registry: "MetricsRegistry | None" = None
    ):
        self.plan = plan
        #: Counter sink; a private registry unless the run shares its
        #: traced one.  ``fault.*`` and ``retry.*`` families live here.
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Deterministic record of every injected event (plan order).
        self.log: "list[InjectedFault]" = []

    # ------------------------------------------------------------------ #
    # Device configuration (applied once, at engine construction)
    # ------------------------------------------------------------------ #

    def configure_array(self, array) -> None:
        """Apply slow/dead member events to a RAID-0 device array."""
        devices = array.devices
        for ev in self.plan.device_events():
            if not (0 <= ev.device < len(devices)):
                raise StorageError(
                    f"fault plan names device {ev.device} but the array has "
                    f"{len(devices)}",
                    context={"device": ev.device, "n_devices": len(devices)},
                )
            dev = devices[ev.device]
            if ev.kind is FaultKind.DEVICE_SLOW:
                dev.slow_factor = ev.factor
                self.registry.counter("fault.device_slow").add(1)
            else:
                dev.alive = False
                self.registry.counter("fault.device_dead").add(1)

    # ------------------------------------------------------------------ #
    # Request path (called under the AIO lock, in plan order)
    # ------------------------------------------------------------------ #

    def apply(
        self,
        ordinal: int,
        attempt: int,
        offset: int,
        size: int,
        data: "memoryview | bytes",
    ) -> "tuple[memoryview | bytes, float]":
        """Run one request's read result through the plan.

        Returns ``(data, extra_sim_seconds)``; raises a retryable
        :class:`StorageError` for read-error faults.  ``attempt`` is
        1-based and shared across retries of the same ordinal, so a
        transient fault clears once ``attempt`` exceeds its ``count``.
        """
        ev = self.plan.event_for(ordinal)
        if ev is None:
            return data, 0.0
        kind = ev.kind
        if kind is FaultKind.TRANSIENT:
            if attempt <= ev.count:
                self._record(ordinal, ev, attempt, offset, size)
                raise StorageError(
                    f"injected transient read error (request {ordinal})",
                    context={
                        "ordinal": ordinal,
                        "offset": offset,
                        "size": size,
                        "attempt": attempt,
                    },
                    retryable=True,
                )
            return data, 0.0
        if kind is FaultKind.PERSISTENT:
            self._record(ordinal, ev, attempt, offset, size)
            raise StorageError(
                f"injected persistent read error (request {ordinal})",
                context={
                    "ordinal": ordinal,
                    "offset": offset,
                    "size": size,
                    "attempt": attempt,
                },
                retryable=True,
            )
        if kind is FaultKind.SHORT_READ:
            if attempt <= ev.count:
                self._record(ordinal, ev, attempt, offset, size)
                drop = min(ev.drop, len(data))
                return data[: len(data) - drop], 0.0
            return data, 0.0
        if kind is FaultKind.BIT_FLIP:
            if attempt == 1 and size > 0:
                self._record(ordinal, ev, attempt, offset, size)
                corrupt = bytearray(data)
                bit = ev.bit % (8 * len(corrupt))
                corrupt[bit >> 3] ^= 1 << (bit & 7)
                return memoryview(bytes(corrupt)), 0.0
            return data, 0.0
        # LATENCY_SPIKE: the batch stalls for `delay` simulated seconds.
        if attempt == 1:
            self._record(ordinal, ev, attempt, offset, size)
            self.registry.counter("fault.spike_time_sim").add(ev.delay)
            return data, ev.delay
        return data, 0.0

    def _record(
        self, ordinal: int, ev: FaultEvent, attempt: int, offset: int, size: int
    ) -> None:
        self.log.append(
            InjectedFault(
                ordinal=ordinal,
                kind=ev.kind.value,
                attempt=attempt,
                offset=offset,
                size=size,
            )
        )
        self.registry.counter("fault.injected").add(1)
        self.registry.counter(f"fault.{ev.kind.value}").add(1)

    # ------------------------------------------------------------------ #

    def counters(self) -> "dict[str, int | float]":
        """Snapshot of the ``fault.*`` / ``retry.*`` metric families."""
        return {
            k: v
            for k, v in self.registry.as_dict().items()
            if k.startswith(("fault.", "retry."))
        }

    def log_tuples(self) -> "list[tuple]":
        """The injected-fault sequence as plain tuples (test comparisons)."""
        return [f.as_tuple() for f in self.log]

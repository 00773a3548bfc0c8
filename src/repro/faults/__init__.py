"""Deterministic fault injection and recovery (the reliability plane).

The paper's substrate is eight commodity SSDs in RAID-0 — a configuration
whose realistic failure modes (transient read errors, tail-latency
spikes, silent corruption, a slow or dead member disk) this package makes
injectable, deterministically, behind ``EngineConfig.faults``:

* :class:`~repro.faults.plan.FaultPlan` — a seeded or explicit schedule
  of injectable faults, keyed by AIO request ordinal / device index, so a
  chaos run is exactly reproducible from its seed or spec string.
* :class:`~repro.faults.injector.FaultInjector` — the runtime half wired
  into :class:`~repro.storage.aio.AIOContext` and the simulated device
  array; every injected event is charged to the simulated clock and
  counted through the ``fault.*`` / ``retry.*`` metric families.
* :func:`~repro.faults.crc.crc32c_extents` — the checksum kernel behind
  the tile format's per-tile integrity words (bit-flips become typed
  :class:`~repro.errors.ChecksumError`\\ s instead of garbage results):
  all extents of a payload at once, at NumPy speed.
  :func:`~repro.faults.crc.crc32c` is the scalar, chainable form.

See docs/RELIABILITY.md for the fault taxonomy, the plan spec format, and
the retry/backoff policy.
"""

from repro.faults.crc import crc32c, crc32c_extents
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultRates,
    RetryPolicy,
)

__all__ = [
    "crc32c",
    "crc32c_extents",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultRates",
    "RetryPolicy",
]

"""Simulated SSD device (timing model + counters).

The model captures the two quantities that drive every I/O result in the
paper: a fixed per-request overhead (command latency) and a byte-rate
(bandwidth).  Requests submitted in one batch overlap up to ``queue_depth``
deep, so batching many requests into one AIO submission (paper §V-B) pays
the latency in waves of ``queue_depth`` rather than per request, while the
byte payload always streams at device bandwidth.

Defaults approximate the paper's SAMSUNG 850 EVO (≈500 MB/s sequential
read, ≈90 µs access latency, NCQ depth 32).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import StorageError
from repro.util.bitops import ceil_div


def _sized(sizes: "np.ndarray | list[int]") -> "tuple[int, int]":
    """``(total bytes, requests)`` of a batch of read sizes, checked
    non-negative in one vector test.  The total stays an exact integer, so
    a time computed from it is the same whatever container held the sizes."""
    arr = np.asarray(sizes, dtype=np.int64)
    if arr.size and arr.min() < 0:
        raise StorageError(f"negative request size {int(arr[arr < 0][0])}")
    return int(arr.sum()), int(arr.size)


@dataclass(frozen=True)
class DeviceProfile:
    """Performance parameters of one simulated SSD."""

    read_bandwidth: float = 500e6  # bytes / second
    write_bandwidth: float = 450e6  # bytes / second
    latency: float = 90e-6  # seconds of fixed overhead per request
    queue_depth: int = 32  # requests that overlap their latency

    def __post_init__(self) -> None:
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise StorageError("bandwidth must be positive")
        if self.latency < 0:
            raise StorageError("latency must be non-negative")
        if self.queue_depth < 1:
            raise StorageError("queue_depth must be >= 1")


#: A spinning disk: decent sequential bandwidth, millisecond seeks (the
#: cold tier of the tiered-storage extension, §IX).
HDD_PROFILE = DeviceProfile(
    read_bandwidth=160e6,
    write_bandwidth=140e6,
    latency=8e-3,
    queue_depth=4,
)


@dataclass
class DeviceStats:
    """Cumulative counters of one device."""

    bytes_read: int = 0
    bytes_written: int = 0
    read_requests: int = 0
    write_requests: int = 0
    busy_time: float = 0.0


@dataclass
class SimulatedSSD:
    """One SSD with a batch-service timing model.

    :meth:`read_batch_time` returns the service time of a batch of read
    requests issued together (one AIO submission): latency is paid once per
    wave of ``queue_depth`` requests, bytes stream at ``read_bandwidth``.
    """

    profile: DeviceProfile = field(default_factory=DeviceProfile)
    stats: DeviceStats = field(default_factory=DeviceStats)
    #: Optional :class:`~repro.obs.counters.MetricsRegistry`; when set,
    #: the ``device.*`` counters aggregate this device's traffic into the
    #: run's observability registry (all devices of an array share one).
    counters: "object | None" = field(default=None, repr=False, compare=False)
    #: Index of this device within its array (set by the array; used for
    #: attributable error context and fault-plan targeting).
    index: int = 0
    #: Degradation multiplier set by fault injection: latency and byte
    #: service time scale by this factor (1.0 = healthy).  A slow RAID
    #: member stretches every batch it participates in — throughput
    #: degrades, the run does not fail.
    slow_factor: float = 1.0
    #: False models a dead member: any request touching it raises a
    #: retryable :class:`StorageError` (RAID-0 has no redundancy).
    alive: bool = True

    def check_alive(self, nbytes: int) -> None:
        """Raise (with device context) if this member cannot serve I/O."""
        if not self.alive:
            raise StorageError(
                f"device {self.index} is dead",
                context={"device": self.index, "bytes": nbytes},
                retryable=True,
            )

    def _count(self, reads: bool, total: int, n: int, t: float) -> None:
        reg = self.counters
        if reg is None:
            return
        kind = "read" if reads else "written"
        reg.counter(f"device.bytes_{kind}").add(total)
        reg.counter(f"device.{'read' if reads else 'write'}_requests").add(n)
        reg.counter("device.busy_time_sim").add(t)

    def read_batch_time(self, sizes: "np.ndarray | list[int]") -> float:
        """Service time for a batch of reads of the given byte sizes (an
        ``int64`` array, or any sequence of ints)."""
        total, n = _sized(sizes)
        return self.read_time(total, n, ceil_div(n, self.profile.queue_depth))

    def read_sync_time(self, sizes: "np.ndarray | list[int]") -> float:
        """Service time when each request is issued synchronously (POSIX
        pread): the full latency is paid per request, no overlap.

        This is the paper's baseline that AIO batching improves upon
        (§V-B: "batching data reads in fewer system calls using Linux AIO
        instead of direct and synchronous POSIX I/O").
        """
        total, n = _sized(sizes)
        return self.read_time(total, n, n)

    def read_time(self, total: int, n: int, waves: int) -> float:
        """Charge ``n`` reads of ``total`` bytes that pay the latency
        ``waves`` times — a batch's wave count, or ``n`` read one at a
        time — and return their service time."""
        if not n:
            return 0.0
        t = waves * self.profile.latency + total / self.profile.read_bandwidth
        if self.slow_factor != 1.0:  # injected degradation, never the default
            t *= self.slow_factor
        self.stats.bytes_read += total
        self.stats.read_requests += n
        self.stats.busy_time += t
        self._count(True, total, n, t)
        return t

    def write_batch_time(self, sizes: "list[int]") -> float:
        """Service time for a batch of writes (used by the X-Stream baseline
        for its update streams)."""
        if not sizes:
            return 0.0
        total = sum(sizes)
        n = len(sizes)
        waves = ceil_div(n, self.profile.queue_depth)
        t = waves * self.profile.latency + total / self.profile.write_bandwidth
        if self.slow_factor != 1.0:
            t *= self.slow_factor
        self.stats.bytes_written += total
        self.stats.write_requests += n
        self.stats.busy_time += t
        self._count(False, total, n, t)
        return t

    def reset_stats(self) -> None:
        self.stats = DeviceStats()

"""Software RAID-0 over simulated SSDs (paper §VII-D, Figure 15).

The evaluation machine stripes eight SSDs at 64 KB.  A logical read is split
into per-device segments; a batch of reads completes when the slowest device
finishes its share.  Large sequential reads (whole physical groups) touch
every device and scale nearly linearly; tiny reads fit inside one stripe and
see a single device — exactly the behaviour behind Figure 15.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import StorageError
from repro.storage.device import DeviceProfile, SimulatedSSD
from repro.types import DEFAULT_STRIPE_BYTES
from repro.util.bitops import ceil_div


def stripe_split(
    offset: int, size: int, stripe: int, n_devices: int
) -> "list[list[int]]":
    """Split a logical extent into per-device contiguous segment sizes.

    Returns ``per_dev[d] = [seg, seg, ...]``: the byte counts of the
    contiguous runs device ``d`` services for this extent.  Consecutive
    stripes on the same device are merged into one segment (they are
    adjacent on the platter-equivalent), so a huge sequential read costs
    each device roughly one request of ``size / n_devices`` bytes.
    """
    if offset < 0 or size < 0:
        raise StorageError(f"bad extent ({offset}, {size})")
    if size == 0:
        return [[] for _ in range(n_devices)]
    if n_devices == 1:
        # The one device's stripes all merge into one request: the walk
        # below would sum the extent back to ``size`` stripe by stripe.
        return [[size]]
    # Device d's consecutive stripes within one extent are spaced
    # n_devices apart logically but contiguous physically; treat each
    # device's share of one extent as one request.
    shares = [0] * n_devices
    pos = offset
    end = offset + size
    while pos < end:
        stripe_idx = pos // stripe
        chunk_end = min((stripe_idx + 1) * stripe, end)
        shares[stripe_idx % n_devices] += chunk_end - pos
        pos = chunk_end
    return [[b] if b else [] for b in shares]


@dataclass
class Raid0Array:
    """A RAID-0 array of identical simulated SSDs."""

    n_devices: int = 1
    profile: DeviceProfile = field(default_factory=DeviceProfile)
    stripe_bytes: int = DEFAULT_STRIPE_BYTES
    devices: "list[SimulatedSSD]" = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise StorageError(f"need at least one device, got {self.n_devices}")
        if self.stripe_bytes <= 0:
            raise StorageError("stripe size must be positive")
        if not self.devices:
            self.devices = [
                SimulatedSSD(self.profile, index=d) for d in range(self.n_devices)
            ]
        else:
            for d, dev in enumerate(self.devices):
                dev.index = d

    @classmethod
    def from_config(cls, cfg) -> "Raid0Array":
        """The SSD array a config describes.

        ``cfg`` is anything carrying ``n_ssds``, ``device_profile`` and
        ``stripe_bytes`` — an :class:`~repro.engine.config.EngineConfig`.
        The engine and every private query context build their own array
        through here, so all of them model bit-identical service times.
        """
        return cls(
            n_devices=cfg.n_ssds,
            profile=cfg.device_profile,
            stripe_bytes=cfg.stripe_bytes,
        )

    def _check_members(self, per_dev_bytes: "list[int]") -> None:
        """All-or-nothing member check: a dead device that a batch touches
        (``per_dev_bytes[d] > 0``) fails the whole batch *before* any
        device counter moves."""
        for d, nbytes in enumerate(per_dev_bytes):
            if nbytes and not self.devices[d].alive:
                self.devices[d].check_alive(nbytes)

    def _shares(self, extents) -> np.ndarray:
        """``shares[k, d]``: the bytes device ``d`` serves of extent ``k``
        (:func:`stripe_split` per extent; one device serves it whole).
        ``extents`` is a record with ``offsets``/``sizes`` arrays or a
        sequence of ``(offset, size)`` pairs."""
        if hasattr(extents, "offsets"):
            offsets, sizes = extents.offsets, extents.sizes
        else:
            pairs = np.asarray(extents, dtype=np.int64).reshape(-1, 2)
            offsets, sizes = pairs[:, 0], pairs[:, 1]
        if len(sizes) and (offsets | sizes).min() < 0:  # either sign bit
            k = int(np.argmax((offsets < 0) | (sizes < 0)))
            raise StorageError(f"bad extent ({int(offsets[k])}, {int(sizes[k])})")
        n = self.n_devices
        if n == 1:
            return sizes[:, None]
        shares = np.zeros((len(sizes), n), dtype=np.int64)
        for k, (off, size) in enumerate(zip(offsets.tolist(), sizes.tolist())):
            split = stripe_split(off, size, self.stripe_bytes, n)
            shares[k] = [segs[0] if segs else 0 for segs in split]
        return shares

    def read_batch_time(self, extents) -> float:
        """Service time of a batch of reads submitted together — an
        :class:`~repro.storage.aio.Extents` record or ``(offset, size)``
        pairs; the batch completes when the slowest device drains."""
        shares = self._shares(extents)
        totals = shares.sum(axis=0).tolist()
        self._check_members(totals)
        qd = self.profile.queue_depth
        times = []
        for dev, col, total in zip(self.devices, shares.T, totals):
            n = int(np.count_nonzero(col))  # zero shares are no request
            times.append(dev.read_time(total, n, ceil_div(n, qd)))
        return max(times)

    def read_sync_time(self, extents) -> float:
        """Service time when the extents are read one at a time
        synchronously; no overlap between requests *or* across them."""
        total = 0.0
        for row in self._shares(extents).tolist():
            self._check_members(row)
            per_req = [
                dev.read_time(b, 1, 1) for dev, b in zip(self.devices, row) if b
            ]
            total += max(per_req) if per_req else 0.0
        return total

    def write_batch_time(self, sizes: "list[int]") -> float:
        """Batched sequential writes striped round-robin (update streams)."""
        per_dev: "list[list[int]]" = [[] for _ in range(self.n_devices)]
        pos = 0
        for size in sizes:
            split = stripe_split(pos, size, self.stripe_bytes, self.n_devices)
            for d in range(self.n_devices):
                per_dev[d].extend(split[d])
            pos += size
        self._check_members([sum(segs) for segs in per_dev])
        times = [
            self.devices[d].write_batch_time(per_dev[d])
            for d in range(self.n_devices)
        ]
        return max(times) if times else 0.0

    @property
    def bytes_read(self) -> int:
        return sum(d.stats.bytes_read for d in self.devices)

    @property
    def bytes_written(self) -> int:
        return sum(d.stats.bytes_written for d in self.devices)

    @property
    def read_requests(self) -> int:
        return sum(d.stats.read_requests for d in self.devices)

    def reset_stats(self) -> None:
        for d in self.devices:
            d.reset_stats()

    def aggregate_bandwidth(self) -> float:
        """Peak sequential read bandwidth of the array."""
        return self.n_devices * self.profile.read_bandwidth

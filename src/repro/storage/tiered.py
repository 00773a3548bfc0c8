"""Tiered storage: SSD array + HDD array (the paper's future work).

§IX: "we plan to extend G-Store to support even larger graphs on a tiered
storage, where SSDs can be utilized with a set of hard drives."  This
module implements that extension: byte extents below ``hot_bytes`` live on
the SSD tier, the rest on the HDD tier, and a placement policy decides
*which* data deserves the hot tier.

For G-Store's disk layout the natural placement unit is the physical
group: hot groups (by edge count — the data every iteration spends most
bytes on) are packed first in the file so the hot-byte prefix covers them.
:func:`plan_hot_groups` computes that placement from a tiled graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import StorageError
from repro.storage.device import DeviceProfile
from repro.storage.raid import Raid0Array

#: A spinning disk: decent sequential bandwidth, millisecond seeks.
HDD_PROFILE = DeviceProfile(
    read_bandwidth=160e6,
    write_bandwidth=140e6,
    latency=8e-3,
    queue_depth=4,
)


@dataclass
class TieredArray:
    """Two RAID-0 arrays with a byte-offset split point.

    Extents whose start offset is below ``hot_bytes`` are serviced by the
    SSD tier; the rest go to the HDD tier.  A batch completes when the
    slower tier drains (the tiers operate in parallel, as independent
    controllers do).
    """

    hot_bytes: int
    ssd: Raid0Array = field(default_factory=lambda: Raid0Array(n_devices=2))
    hdd: Raid0Array = field(
        default_factory=lambda: Raid0Array(n_devices=2, profile=HDD_PROFILE)
    )

    def __post_init__(self) -> None:
        if self.hot_bytes < 0:
            raise StorageError("hot_bytes must be non-negative")

    def split(
        self, extents: "list[tuple[int, int]]"
    ) -> "tuple[list[tuple[int, int]], list[tuple[int, int]]]":
        """Partition extents into (hot, cold) by their start offset.

        Extents straddling the boundary are split at it, so each byte is
        charged to the tier that actually stores it.
        """
        hot: "list[tuple[int, int]]" = []
        cold: "list[tuple[int, int]]" = []
        for off, size in extents:
            if off + size <= self.hot_bytes:
                hot.append((off, size))
            elif off >= self.hot_bytes:
                cold.append((off, size))
            else:
                head = self.hot_bytes - off
                hot.append((off, head))
                cold.append((self.hot_bytes, size - head))
        return hot, cold

    def read_batch_time(self, extents: "list[tuple[int, int]]") -> float:
        hot, cold = self.split(extents)
        t_hot = self.ssd.read_batch_time(hot) if hot else 0.0
        t_cold = self.hdd.read_batch_time(cold) if cold else 0.0
        return max(t_hot, t_cold)

    def read_sync_time(self, extents: "list[tuple[int, int]]") -> float:
        hot, cold = self.split(extents)
        t_hot = self.ssd.read_sync_time(hot) if hot else 0.0
        t_cold = self.hdd.read_sync_time(cold) if cold else 0.0
        return t_hot + t_cold

    def write_batch_time(self, sizes: "list[int]") -> float:
        # Writes (update streams etc.) land on the hot tier.
        return self.ssd.write_batch_time(sizes)

    @property
    def bytes_read(self) -> int:
        return self.ssd.bytes_read + self.hdd.bytes_read

    @property
    def bytes_written(self) -> int:
        return self.ssd.bytes_written + self.hdd.bytes_written

    @property
    def read_requests(self) -> int:
        return self.ssd.read_requests + self.hdd.read_requests

    def reset_stats(self) -> None:
        self.ssd.reset_stats()
        self.hdd.reset_stats()


def plan_hot_groups(tg, hot_fraction: float) -> "dict[str, object]":
    """Choose which physical groups deserve the SSD tier.

    Greedy by per-group edge count (densest groups first) until the hot
    byte budget is filled.  Returns the chosen groups (numbered in disk
    order, as ``grouping.group_bounds()`` numbers them), their byte
    volume, the fraction of all edges they cover, and the fraction of all
    groups chosen — with skewed graphs a *small number of groups* holds the hot
    byte budget (``group_fraction`` far below ``edge_coverage``), which is
    what makes SSD placement at group granularity practical.
    """
    if not (0.0 <= hot_fraction <= 1.0):
        raise StorageError("hot_fraction must be in [0, 1]")
    edges = tg.group_edge_counts()
    budget = int(tg.storage_bytes() * hot_fraction)
    chosen = []
    used = 0
    for k in np.argsort(-edges, kind="stable").tolist():
        size = int(edges[k]) * tg.tuple_bytes
        if used + size > budget and chosen:
            continue
        if size > budget and not chosen:
            break
        chosen.append(k)
        used += size
    return {
        "groups": chosen,
        "hot_bytes": used,
        "edge_coverage": used // tg.tuple_bytes / max(tg.n_edges, 1),
        "group_fraction": len(chosen) / max(edges.shape[0], 1),
    }

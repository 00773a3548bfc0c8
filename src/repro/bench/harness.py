"""Shared benchmark plumbing: memoised graph builds and scaled configs.

Rebuilding a multi-million-edge tile graph for every benchmark would
dominate the suite's runtime; :func:`graphs` returns a process-wide cache
keyed by (dataset, tier, geometry, ablation flags).

Engine memory budgets are expressed as a *fraction of the graph's
traditional storage size* so that the semi-external regime of the paper
(graph larger than the streaming/caching memory) is preserved across
tiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.common import BaselineConfig
from repro.engine.config import EngineConfig
from repro.format.edgelist import EdgeList
from repro.format.tiles import TiledGraph
from repro.graphgen.datasets import get_spec, scale_tier
from repro.memory.scr import CachePolicy
from repro.runtime.cost import CostModel
from repro.storage.aio import IOMode
from repro.storage.device import DeviceProfile

#: Device profile used by the scaled benchmarks: the paper's SSDs with the
#: per-request latency shrunk in proportion to the ~1000x graph downscaling,
#: keeping the latency:transfer-time ratio of a 256 MB segment realistic.
SCALED_DEVICE = DeviceProfile(latency=2e-6)

#: RAID stripe scaled the same way: the paper's 64 KB stripe against
#: 256 MB segments means every segment spans every device; a scaled
#: segment must too, or wide arrays starve (sub-segment reads would touch
#: only a few devices).
SCALED_STRIPE = 8 * 1024


@dataclass
class GraphCache:
    """Memoised dataset loads and tile builds."""

    _edge_lists: dict = field(default_factory=dict)
    _tiled: dict = field(default_factory=dict)

    def edge_list(self, dataset: str, tier: "str | None" = None) -> EdgeList:
        tier = tier or scale_tier()
        key = (dataset, tier)
        if key not in self._edge_lists:
            self._edge_lists[key] = get_spec(dataset).load(tier)
        return self._edge_lists[key]

    def tiled(
        self,
        dataset: str,
        tier: "str | None" = None,
        snb: bool = True,
        symmetric: "bool | None" = None,
        tile_bits: "int | None" = None,
        group_q: "int | None" = None,
        directed_override: "bool | None" = None,
    ) -> TiledGraph:
        """Build (or reuse) the tile representation of a dataset.

        ``directed_override`` forces the orientation: the Figure 9 sweep
        runs the social graphs both as directed and undirected.
        """
        tier = tier or scale_tier()
        spec = get_spec(dataset)
        tb_default, q_default = spec.geometry(tier)
        tile_bits = tile_bits if tile_bits is not None else tb_default
        group_q = group_q if group_q is not None else q_default
        key = (dataset, tier, snb, symmetric, tile_bits, group_q, directed_override)
        if key not in self._tiled:
            el = self.edge_list(dataset, tier)
            if directed_override is not None and directed_override != el.directed:
                el = EdgeList(
                    el.src,
                    el.dst,
                    el.n_vertices,
                    directed=directed_override,
                    name=el.name + ("-d" if directed_override else "-u"),
                )
                if directed_override:
                    el = el.deduped().without_self_loops()
            self._tiled[key] = TiledGraph.from_edge_list(
                el,
                tile_bits=tile_bits,
                group_q=group_q,
                snb=snb,
                symmetric=symmetric,
            )
        return self._tiled[key]

    def clear(self) -> None:
        self._edge_lists.clear()
        self._tiled.clear()


_CACHE = GraphCache()


def graphs() -> GraphCache:
    """The process-wide graph cache."""
    return _CACHE


def _traditional_bytes(tg: TiledGraph) -> int:
    """Size of the traditional tuple representation of this graph."""
    return tg.info.n_input_edges * 8


def _scaled_hardware(
    tg: TiledGraph,
    memory_fraction: float,
    n_ssds: int,
    cost_model: "CostModel | None",
    device_profile: "DeviceProfile | None" = None,
) -> dict:
    """The budget and the hardware both sides of a comparison run on — the
    one place ``memory_fraction`` becomes bytes and the device is chosen."""
    total = max(int(_traditional_bytes(tg) * memory_fraction), 64 * 1024)
    kwargs = dict(
        memory_bytes=total,
        segment_bytes=max(total // 32, 16 * 1024),
        n_ssds=n_ssds,
        device_profile=device_profile if device_profile is not None else SCALED_DEVICE,
        stripe_bytes=SCALED_STRIPE,
    )
    if cost_model is not None:
        kwargs["cost_model"] = cost_model
    return kwargs


def scaled_config(
    tg: TiledGraph,
    memory_fraction: float = 0.25,
    n_ssds: int = 1,
    cache_policy: CachePolicy = CachePolicy.SCR,
    io_mode: IOMode = IOMode.AIO,
    overlap: bool = True,
    cost_model: "CostModel | None" = None,
    device_profile: "DeviceProfile | None" = None,
) -> EngineConfig:
    """An :class:`EngineConfig` in the paper's semi-external regime.

    ``memory_fraction`` scales the streaming/caching budget relative to
    the traditional (8-byte tuple) graph size — the paper's 8 GB versus a
    64 GB Kron-28-16 is fraction 0.125.
    """
    return EngineConfig(
        cache_policy=cache_policy,
        io_mode=io_mode,
        overlap=overlap,
        **_scaled_hardware(tg, memory_fraction, n_ssds, cost_model, device_profile),
    )


def scaled_baseline_config(
    tg: TiledGraph,
    memory_fraction: float = 0.25,
    n_ssds: int = 1,
    cost_model: "CostModel | None" = None,
) -> BaselineConfig:
    """The matching :class:`BaselineConfig` (same memory, same hardware)."""
    return BaselineConfig(**_scaled_hardware(tg, memory_fraction, n_ssds, cost_model))

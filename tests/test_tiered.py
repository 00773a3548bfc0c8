"""Tiered SSD+HDD storage (the paper's future work, §IX): the split, the
hot-group plan and the HDD profile behind ``ext_tiered_storage``."""

import pytest

from repro.bench.experiments import _plan_hot_groups, _split_at
from repro.errors import StorageError
from repro.format.tiles import TiledGraph
from repro.graphgen.powerlaw import powerlaw_directed
from repro.storage.device import HDD_PROFILE, DeviceProfile
from repro.storage.raid import Raid0Array


def _tiered_time(extents, hot_bytes):
    """One batch over both tiers: it completes when the slower one drains."""
    hot, cold = _split_at(extents, hot_bytes)
    ssd = Raid0Array(n_devices=1)
    hdd = Raid0Array(n_devices=1, profile=HDD_PROFILE)
    return max(ssd.read_batch_time(hot), hdd.read_batch_time(cold))


class TestSplit:
    def test_hot_extent(self):
        hot, cold = _split_at([(0, 500)], 1000)
        assert hot == [(0, 500)] and cold == []

    def test_cold_extent(self):
        hot, cold = _split_at([(1000, 500)], 1000)
        assert hot == [] and cold == [(1000, 500)]

    def test_straddling_extent_split_at_boundary(self):
        hot, cold = _split_at([(900, 400)], 1000)
        assert hot == [(900, 100)]
        assert cold == [(1000, 300)]


class TestTiming:
    def test_hdd_much_slower_for_random_reads(self):
        extents = [(i * 100_000, 4096) for i in range(64)]
        all_hot = _tiered_time(extents, 10**9)
        all_cold = _tiered_time(extents, 0)
        assert all_cold > 5 * all_hot

    def test_tiers_overlap_in_batch(self):
        mixed = [(0, 1 << 20), (1 << 20, 1 << 20)]
        # Batch completes with the slower tier, not the sum.
        hdd_only = Raid0Array(n_devices=1, profile=HDD_PROFILE)
        ssd_only = Raid0Array(n_devices=1)
        assert _tiered_time(mixed, 1 << 20) == pytest.approx(
            max(hdd_only.read_batch_time([(1 << 20, 1 << 20)]),
                ssd_only.read_batch_time([(0, 1 << 20)])),
            rel=0.01,
        )


class TestHotPlacement:
    def test_skewed_graph_needs_few_hot_groups(self):
        # The premise of tiering: with Twitter-like skew, the hot byte
        # budget concentrates into very few dense groups, so placement at
        # group granularity is practical.  With half the bytes hot, the
        # densest groups fit and the chosen set is a small fraction of all
        # groups while covering ~half the edges.
        el = powerlaw_directed(1 << 13, 120_000, s_in=1.5, s_out=1.15, seed=5)
        tg = TiledGraph.from_edge_list(el.deduped(), tile_bits=8, group_q=4)
        plan = _plan_hot_groups(tg, hot_fraction=0.5)
        assert plan["hot_bytes"] <= tg.storage_bytes() * 0.5
        assert plan["edge_coverage"] > 0.4  # budget well utilised
        assert plan["edge_coverage"] > 2 * plan["group_fraction"]

    def test_zero_fraction(self):
        el = powerlaw_directed(1 << 10, 5000, seed=5)
        tg = TiledGraph.from_edge_list(el.deduped(), tile_bits=7, group_q=2)
        plan = _plan_hot_groups(tg, hot_fraction=0.0)
        assert plan["groups"] == []
        assert plan["edge_coverage"] == 0.0

    def test_full_fraction_covers_everything(self):
        el = powerlaw_directed(1 << 10, 5000, seed=5)
        tg = TiledGraph.from_edge_list(el.deduped(), tile_bits=7, group_q=2)
        plan = _plan_hot_groups(tg, hot_fraction=1.0)
        assert plan["edge_coverage"] == pytest.approx(1.0)

    def test_bad_fraction(self):
        el = powerlaw_directed(1 << 10, 5000, seed=5)
        tg = TiledGraph.from_edge_list(el.deduped(), tile_bits=7, group_q=2)
        with pytest.raises(StorageError):
            _plan_hot_groups(tg, hot_fraction=1.5)


class TestHDDProfile:
    def test_millisecond_seeks(self):
        assert HDD_PROFILE.latency > 50 * DeviceProfile().latency

    def test_lower_bandwidth(self):
        assert HDD_PROFILE.read_bandwidth < DeviceProfile().read_bandwidth

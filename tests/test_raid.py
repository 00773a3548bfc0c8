"""Unit tests for RAID-0 striping (Figure 15 substrate)."""

import pytest

from repro.engine.context import wire_device_counters
from repro.errors import StorageError
from repro.obs.counters import MetricsRegistry
from repro.storage.device import DeviceProfile
from repro.storage.raid import Raid0Array, stripe_split


class TestStripeSplit:
    def test_single_device_gets_everything(self):
        per_dev = stripe_split(0, 1000, 64, 1)
        assert per_dev == [[1000]]

    def test_even_split_across_devices(self):
        per_dev = stripe_split(0, 256, 64, 4)
        assert [sum(x) for x in per_dev] == [64, 64, 64, 64]

    def test_small_read_touches_one_device(self):
        per_dev = stripe_split(0, 10, 64, 4)
        assert [sum(x) for x in per_dev] == [10, 0, 0, 0]

    def test_offset_selects_device(self):
        per_dev = stripe_split(64, 10, 64, 4)
        assert [sum(x) for x in per_dev] == [0, 10, 0, 0]

    def test_wraparound(self):
        # 5 stripes over 4 devices: device 0 serves two stripes.
        per_dev = stripe_split(0, 5 * 64, 64, 4)
        assert [sum(x) for x in per_dev] == [128, 64, 64, 64]

    def test_total_preserved(self):
        for off, size in [(0, 1), (13, 777), (64, 640), (100, 0)]:
            per_dev = stripe_split(off, size, 64, 8)
            assert sum(sum(x) for x in per_dev) == size

    def test_bad_extent(self):
        with pytest.raises(StorageError):
            stripe_split(-1, 10, 64, 2)


class TestRaidTiming:
    def _array(self, n, bw=100e6, lat=0.0):
        return Raid0Array(
            n_devices=n,
            profile=DeviceProfile(read_bandwidth=bw, latency=lat, queue_depth=32),
            stripe_bytes=64 * 1024,
        )

    def test_large_read_scales_linearly(self):
        t1 = self._array(1).read_batch_time([(0, 64 * 1024 * 1024)])
        t4 = self._array(4).read_batch_time([(0, 64 * 1024 * 1024)])
        assert t1 / t4 == pytest.approx(4.0, rel=0.01)

    def test_tiny_read_does_not_scale(self):
        # A sub-stripe read touches one device regardless of array width.
        t1 = self._array(1).read_batch_time([(0, 1024)])
        t8 = self._array(8).read_batch_time([(0, 1024)])
        assert t1 == pytest.approx(t8)

    def test_batch_completes_with_slowest_device(self):
        arr = self._array(2)
        # Two extents landing on the same device serialise there.
        t = arr.read_batch_time([(0, 64 * 1024), (128 * 1024, 64 * 1024)])
        single = 64 * 1024 / 100e6
        assert t == pytest.approx(2 * single)

    def test_sync_slower_than_batched(self):
        extents = [(i * 4096, 4096) for i in range(32)]
        a = Raid0Array(n_devices=2, profile=DeviceProfile(latency=1e-4))
        b = Raid0Array(n_devices=2, profile=DeviceProfile(latency=1e-4))
        assert a.read_sync_time(extents) > b.read_batch_time(extents)

    def test_aggregate_stats(self):
        arr = self._array(4)
        reg = MetricsRegistry()
        wire_device_counters(arr, reg)
        arr.read_batch_time([(0, 256 * 1024)])
        assert reg.value("device.bytes_read") == 256 * 1024
        assert reg.value("device.read_requests") == 4

    def test_writes_striped(self):
        arr = self._array(4)
        reg = MetricsRegistry()
        wire_device_counters(arr, reg)
        t = arr.write_batch_time([256 * 1024])
        assert t > 0

    def test_aggregate_bandwidth(self):
        assert self._array(8).aggregate_bandwidth() == 8 * 100e6

    def test_bad_config(self):
        with pytest.raises(StorageError):
            Raid0Array(n_devices=0)
        with pytest.raises(StorageError):
            Raid0Array(n_devices=1, stripe_bytes=0)

"""Unit tests for the simulated SSD device model.  A device's traffic is
read from the ``device.*`` counters of the registry it is given."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.obs.counters import MetricsRegistry
from repro.storage.device import DeviceProfile, SimulatedSSD


def _ssd(bw=100e6, lat=1e-3, qd=4):
    return SimulatedSSD(
        DeviceProfile(read_bandwidth=bw, latency=lat, queue_depth=qd),
        counters=MetricsRegistry(),
    )


def _counts(ssd) -> dict:
    return ssd.counters.as_dict()


class TestProfileValidation:
    def test_bad_bandwidth(self):
        with pytest.raises(StorageError):
            DeviceProfile(read_bandwidth=0)

    def test_bad_latency(self):
        with pytest.raises(StorageError):
            DeviceProfile(latency=-1)

    def test_bad_queue_depth(self):
        with pytest.raises(StorageError):
            DeviceProfile(queue_depth=0)


class TestBatchTiming:
    def test_single_request(self):
        ssd = _ssd()
        t = ssd.read_batch_time([100_000_000])
        assert t == pytest.approx(1e-3 + 1.0)

    def test_batch_overlaps_latency(self):
        # Four requests at queue depth 4: one latency wave, not four.
        ssd = _ssd()
        t = ssd.read_batch_time([0, 0, 0, 0])
        assert t == pytest.approx(1e-3)

    def test_latency_waves(self):
        # Five requests at depth 4: two waves.
        ssd = _ssd()
        t = ssd.read_batch_time([0] * 5)
        assert t == pytest.approx(2e-3)

    def test_empty_batch(self):
        assert _ssd().read_batch_time([]) == 0.0

    def test_negative_size_rejected(self):
        ssd = _ssd()
        with pytest.raises(StorageError):
            ssd.read_batch_time([-1])
        assert _counts(ssd) == {}  # a refused batch charges nothing

    def test_size_arrays_time_as_lists(self):
        """``int64`` size arrays: the same integer total, so the same bits,
        and the negative-size check is one vector test with the same
        error."""
        sizes = [4096, 0, 123_457, 7, 65_536]
        for method in ("read_batch_time", "read_sync_time"):
            a, b = _ssd(), _ssd()
            want = getattr(a, method)(sizes)
            assert getattr(b, method)(np.array(sizes, dtype=np.int64)) == want
            assert _counts(a) == _counts(b)
            with pytest.raises(StorageError, match="negative request size -3"):
                getattr(_ssd(), method)(np.array([5, -3, -1], dtype=np.int64))
            assert getattr(_ssd(), method)(np.empty(0, np.int64)) == 0.0


class TestSyncVsAio:
    def test_sync_pays_latency_per_request(self):
        # §V-B: AIO batching beats direct synchronous POSIX I/O.
        ssd_a = _ssd()
        ssd_b = _ssd()
        sizes = [1000] * 8
        aio = ssd_a.read_batch_time(sizes)
        sync = ssd_b.read_sync_time(sizes)
        assert sync > aio
        assert sync == pytest.approx(8e-3 + 8000 / 100e6)

    def test_same_bytes_counted(self):
        ssd_a = _ssd()
        ssd_b = _ssd()
        ssd_a.read_batch_time([10, 20])
        ssd_b.read_sync_time([10, 20])
        assert _counts(ssd_a)["device.bytes_read"] == 30
        assert _counts(ssd_b)["device.bytes_read"] == 30


class TestWrite:
    def test_write_time_uses_write_bandwidth(self):
        ssd = SimulatedSSD(
            DeviceProfile(write_bandwidth=50e6, latency=0, queue_depth=1)
        )
        t = ssd.write_batch_time([50_000_000])
        assert t == pytest.approx(1.0)

    def test_write_stats(self):
        """A write is timed and moves no counter: ``RunStats.bytes_written``
        owns the fact."""
        ssd = _ssd()
        assert ssd.write_batch_time([100, 200]) > 0
        assert _counts(ssd) == {}


class TestStats:
    def test_counters_accumulate(self):
        ssd = _ssd()
        ssd.read_batch_time([10])
        ssd.read_batch_time([20, 30])
        counts = _counts(ssd)
        assert counts["device.bytes_read"] == 60
        assert counts["device.read_requests"] == 3
        assert counts["device.busy_time_sim"] > 0

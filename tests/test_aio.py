"""Unit tests for the AIO context (§V-B): ``service`` is the clock-free
``io_submit`` half, ``commit`` the completion half that charges the
clock — the split behind the prefetch pipeline.  The context's traffic
is read from the ``aio.*`` and ``device.*`` counters of its registry."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import StorageError
from repro.faults.plan import RetryPolicy
from repro.obs import Tracer
from repro.storage.aio import AIOContext, Extents, IOMode, IORequest
from repro.storage.device import DeviceProfile
from repro.storage.file import TileStore
from repro.storage.raid import Raid0Array
from repro.util.timer import SimClock


def _ctx(data=b"0123456789abcdef", mode=IOMode.AIO, array=None):
    """A context whose ``aio.*`` and ``device.*`` counters land in one
    registry (read back with :func:`_counts`)."""
    store = TileStore(data=data)
    if array is None:
        array = Raid0Array(n_devices=1, profile=DeviceProfile(latency=1e-4))
    clock = SimClock()
    tracer = Tracer(clock=clock)
    for dev in array.devices:
        dev.counters = tracer.registry
    ctx = AIOContext(
        store=store, array=array, clock=clock, mode=mode, tracer=tracer
    )
    return ctx, clock


def _counts(ctx) -> dict:
    return ctx.tracer.registry.as_dict()


class TestSubmitPoll:
    def test_data_returned(self):
        ctx, _ = _ctx()
        events, t = ctx.service(
            [IORequest(0, 4, tag="a"), IORequest(8, 4, tag="b")]
        )
        assert t > 0
        assert {e.tag: e.data for e in events} == {"a": b"0123", "b": b"89ab"}

    def test_clock_advances_on_poll(self):
        """Servicing never touches the clock; committing charges it."""
        ctx, clock = _ctx()
        _, t = ctx.service([IORequest(0, 8)])
        assert t > 0 and clock.now == 0.0
        ctx.commit(t)
        assert clock.now == pytest.approx(t)
        assert _counts(ctx)["aio.io_time_sim"] == pytest.approx(t)

    def test_empty_submit(self):
        ctx, clock = _ctx()
        events, t = ctx.service([])
        assert events == [] and t == 0.0
        ctx.commit(t)
        assert clock.now == 0.0 and _counts(ctx) == {"aio.io_time_sim": 0.0}


def _extents(*pairs):
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return Extents(offsets=arr[:, 0], sizes=arr[:, 1])


class TestExtentArrays:
    """The engine's form: an :class:`Extents` record in, the batch's bytes
    out as one contiguous array."""

    def test_bytes_laid_end_to_end(self):
        ctx, _ = _ctx()
        data, t = ctx.service(_extents((0, 4), (8, 4), (14, 2)))
        assert data.dtype == np.uint8 and data.flags.c_contiguous
        assert data.tobytes() == b"012389abef"
        ref, _ = _ctx()
        _, t_list = ref.service(
            [IORequest(0, 4), IORequest(8, 4), IORequest(14, 2)]
        )
        assert t == t_list and _counts(ctx) == _counts(ref)

    def test_one_extent_is_a_slice_of_the_store(self):
        payload = np.arange(64, dtype=np.uint8)
        ctx, _ = _ctx(data=payload)
        data, _ = ctx.service(_extents((16, 8)))
        assert np.shares_memory(data, payload)
        assert data.tolist() == list(range(16, 24))

    def test_outside_the_store_is_typed_and_charges_nothing(self):
        ctx, clock = _ctx()
        with pytest.raises(StorageError) as ei:
            ctx.service(_extents((0, 4), (1000, 4)))
        assert ei.value.context["offset"] == 1000
        assert _counts(ctx) == {} and clock.now == 0.0

    def test_empty_batch(self):
        ctx, _ = _ctx()
        data, t = ctx.service(_extents())
        assert data.size == 0 and t == 0.0 and _counts(ctx) == {}


class TestModes:
    def test_sync_slower_than_aio(self):
        reqs = [IORequest(i, 1) for i in range(8)]
        aio_ctx, _ = _ctx(mode=IOMode.AIO)
        sync_ctx, _ = _ctx(mode=IOMode.SYNC)
        _, t_aio = aio_ctx.service(reqs)
        _, t_sync = sync_ctx.service(list(reqs))
        assert t_sync > t_aio


class TestAllOrNothing:
    def test_failed_submit_leaves_no_pending_state(self):
        """A bad extent mid-batch must not half-service the batch."""
        ctx, clock = _ctx()
        good = IORequest(0, 4, tag="good")
        bad = IORequest(1000, 4, tag="bad")  # outside the 16-byte store
        with pytest.raises(StorageError):
            ctx.service([good, bad])
        # No partial state: no counter moved, clock still, next batch fine.
        assert _counts(ctx) == {}
        assert clock.now == 0.0
        events, t = ctx.service([good])
        assert events[0].data == b"0123" and t > 0
        counts = _counts(ctx)
        assert counts["aio.requests"] == counts["device.read_requests"] == 1
        assert counts["aio.bytes_read"] == counts["device.bytes_read"] == 4

    def test_failed_service_charges_nothing(self):
        ctx, _ = _ctx()
        with pytest.raises(StorageError):
            ctx.service([IORequest(-1, 4)])
        assert _counts(ctx) == {}
        events, t = ctx.service([IORequest(0, 2)])
        assert events[0].data == b"01" and _counts(ctx)["aio.submissions"] == 1

    def test_dead_member_moves_no_counter(self):
        """A batch that reaches a dead RAID member fails before any
        device is charged, in both modes — sync included, where a later
        extent's member is checked before an earlier one is timed."""
        for mode in IOMode:
            array = Raid0Array(n_devices=2, stripe_bytes=64)
            array.devices[1].alive = False
            ctx, clock = _ctx(data=bytes(128), mode=mode, array=array)
            ctx.retry = RetryPolicy(max_attempts=1)
            with pytest.raises(StorageError):
                ctx.service([IORequest(0, 64), IORequest(64, 64)])
            assert _counts(ctx) == {} and clock.now == 0.0


class TestAsyncSubmission:
    def test_handle_on_executor(self):
        ctx, clock = _ctx()
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(ctx.service, [IORequest(8, 4, tag="b")])
            events, t = future.result()
        assert events[0].data == b"89ab"
        assert clock.now == 0.0  # serviced off-thread, not yet committed
        ctx.commit(t)
        assert clock.now == pytest.approx(t)

    def test_many_in_flight(self):
        """Any number of serviced batches may await their commit."""
        ctx, clock = _ctx()
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(ctx.service, [IORequest(i, 2, tag=i)])
                for i in range(4)
            ]
            total = 0.0
            for i, f in enumerate(futures):  # commit stays in plan order
                events, t = f.result()
                assert events[0].tag == i
                ctx.commit(t)
                total += t
        assert clock.now == pytest.approx(total)
        assert _counts(ctx)["aio.submissions"] == 4

    def test_service_error_reraised_at_result(self):
        ctx, clock = _ctx()
        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(ctx.service, [IORequest(999, 4)])
            with pytest.raises(StorageError):
                future.result()
        assert clock.now == 0.0  # failed batches charge nothing
        assert _counts(ctx) == {}

    def test_thread_safe_stats(self):
        """Concurrent service calls keep counters exact (lock-protected)."""
        data = bytes(4096)
        ctx, _ = _ctx(data=data)
        reqs = [[IORequest(i * 4, 4)] for i in range(256)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(ctx.service, reqs))
        counts = _counts(ctx)
        assert counts["aio.submissions"] == 256
        assert counts["aio.requests"] == counts["device.read_requests"] == 256
        assert counts["aio.bytes_read"] == counts["device.bytes_read"] == 1024


class TestRealizeIO:
    def test_sleeps_service_time(self):
        import time

        store = TileStore(data=b"x" * 64)
        # Big latency so the sleep is measurable but quick.
        array = Raid0Array(n_devices=1, profile=DeviceProfile(latency=0.02))
        ctx = AIOContext(
            store=store, array=array, clock=SimClock(), realize_io=True
        )
        t0 = time.perf_counter()
        _, t = ctx.service([IORequest(0, 8)])
        wall = time.perf_counter() - t0
        assert wall >= t > 0


class TestStats:
    def test_counters(self):
        ctx, _ = _ctx()
        for batch in ([IORequest(0, 4), IORequest(4, 4)], [IORequest(8, 2)]):
            _, t = ctx.service(batch)
            ctx.commit(t)
        counts = _counts(ctx)
        assert counts["aio.submissions"] == 2
        assert counts["aio.requests"] == 3
        assert counts["aio.bytes_read"] == 10
        assert counts["aio.io_time_sim"] > 0

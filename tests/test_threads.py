"""Unit tests for the dynamic row scheduler, the persistent worker pool,
the bounded prefetcher, and the shard scatter's shared-memory plane."""

import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.threads import (
    DEFAULT_MAX_SHARDS,
    LIVE_SHM_SEGMENTS,
    PREFETCH_THREAD_NAME,
    Prefetcher,
    ShmArena,
    WorkerPool,
    attach_view,
    available_cpus,
    chunk_by_edges,
    default_workers,
    dynamic_row_map,
    execution_fingerprint,
    resolve_workers,
)


class TestDynamicRowMap:
    def test_preserves_order(self):
        out = dynamic_row_map(lambda x: x * 2, range(100), workers=4)
        assert out == [x * 2 for x in range(100)]

    def test_serial_path(self):
        out = dynamic_row_map(lambda x: x + 1, [1, 2, 3], workers=1)
        assert out == [2, 3, 4]

    def test_single_item(self):
        assert dynamic_row_map(str, [7], workers=8) == ["7"]

    def test_empty(self):
        assert dynamic_row_map(str, [], workers=4) == []

    def test_skewed_work(self):
        # Mimics skewed tile rows: some items much heavier than others.
        def work(n):
            return sum(range(n))

        items = [10, 10_000, 10, 10_000, 10]
        assert dynamic_row_map(work, items, workers=3) == [work(n) for n in items]


class TestDefaultWorkers:
    def test_env_override(self):
        old = os.environ.get("REPRO_WORKERS")
        os.environ["REPRO_WORKERS"] = "3"
        try:
            assert default_workers() == 3
        finally:
            if old is None:
                del os.environ["REPRO_WORKERS"]
            else:
                os.environ["REPRO_WORKERS"] = old

    def test_positive(self):
        assert default_workers() >= 1


class TestResolveWorkers:
    def test_int_passthrough(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(1) == 1

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers("many")

    def test_auto_clamps_to_cores(self):
        cores = os.cpu_count() or 1
        old = os.environ.get("REPRO_WORKERS")
        os.environ["REPRO_WORKERS"] = str(cores * 8)  # oversubscribed env
        try:
            assert resolve_workers("auto") == cores
        finally:
            if old is None:
                del os.environ["REPRO_WORKERS"]
            else:
                os.environ["REPRO_WORKERS"] = old

    def test_available_cpus_positive(self):
        cpus = available_cpus()
        assert 1 <= cpus <= (os.cpu_count() or 1)

    def test_fingerprint_fields(self):
        fp = execution_fingerprint(workers=2, shards=3)
        assert fp["workers_resolved"] == 2
        assert fp["shards_resolved"] == 3
        assert fp["cpus_available"] == available_cpus()
        assert fp["cpus_logical"] == (os.cpu_count() or 1)


class TestWorkerPool:
    def test_lazy_creation(self):
        pool = WorkerPool(workers=2)
        assert not pool.started
        assert pool.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        assert pool.started
        pool.shutdown()

    def test_reused_across_calls(self):
        with WorkerPool(workers=2) as pool:
            first = pool.executor
            pool.map(str, range(10))
            assert pool.executor is first  # no per-batch churn

    def test_shutdown_idempotent_and_final(self):
        pool = WorkerPool(workers=2)
        pool.submit(lambda: None).result()
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.executor  # noqa: B018

    def test_dynamic_row_map_uses_pool(self):
        with WorkerPool(workers=4) as pool:
            out = dynamic_row_map(lambda x: x * 3, range(50), pool=pool)
            assert out == [x * 3 for x in range(50)]
            assert pool.started


class TestPrefetcher:
    def test_in_order_delivery(self):
        jobs = [lambda i=i: i * i for i in range(20)]
        for depth in (0, 3):  # 0: each job runs inside its get(), no thread
            with Prefetcher(jobs, depth=depth) as pf:
                assert pf.overlapped == (depth > 0)
                assert pf.overlapped == any(
                    t.name.startswith(PREFETCH_THREAD_NAME)
                    for t in threading.enumerate()
                )
                assert [pf.get() for _ in jobs] == [i * i for i in range(20)]

    def test_bounded_depth(self):
        """The producer never runs more than depth jobs ahead of consumption."""
        started: "list[int]" = []
        gate = threading.Event()

        def job(i):
            started.append(i)
            return i

        pf = Prefetcher([lambda i=i: job(i) for i in range(10)], depth=2)
        try:
            deadline = time.time() + 2.0
            while len(started) < 2 and time.time() < deadline:
                time.sleep(0.005)
            time.sleep(0.05)  # give an over-eager producer time to overrun
            assert len(started) <= 2  # nothing consumed yet -> at most depth
            assert pf.get() == 0
            deadline = time.time() + 2.0
            while len(started) < 3 and time.time() < deadline:
                time.sleep(0.005)
            assert len(started) <= 3
        finally:
            gate.set()
            pf.close()

    def test_job_exception_surfaces_on_get(self):
        def boom():
            raise ValueError("job failed")

        pf = Prefetcher([lambda: 1, boom, lambda: 3], depth=2)
        assert pf.get() == 1
        with pytest.raises(ValueError, match="job failed"):
            pf.get()
        assert not any(
            t.name.startswith(PREFETCH_THREAD_NAME) for t in threading.enumerate()
        )

    def test_close_midway_leaves_no_thread(self):
        pf = Prefetcher([lambda i=i: i for i in range(100)], depth=1)
        assert pf.get() == 0
        pf.close()
        assert not any(
            t.name.startswith(PREFETCH_THREAD_NAME) for t in threading.enumerate()
        )

    def test_close_while_blocked_on_full_queue(self):
        """close() must unstick a producer waiting for a free slot."""
        slow = [lambda i=i: i for i in range(50)]
        pf = Prefetcher(slow, depth=1)
        time.sleep(0.05)  # producer fills its single slot and blocks
        pf.close()
        assert not any(
            t.name.startswith(PREFETCH_THREAD_NAME) for t in threading.enumerate()
        )

    def test_get_past_end_raises(self):
        pf = Prefetcher([lambda: 42], depth=1)
        assert pf.get() == 42
        with pytest.raises(IndexError):
            pf.get()
        pf.close()

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            Prefetcher([], depth=-1)


# ---------------------------------------------------------------------- #
# Shard-structure invariants (property-based)
# ---------------------------------------------------------------------- #


class _FakeView:
    """Minimal stand-in for TileView: a row index and an edge count."""

    __slots__ = ("i", "lsrc")

    def __init__(self, i: int, n_edges: int):
        self.i = i
        self.lsrc = np.empty(n_edges, dtype=np.uint16)


@st.composite
def view_batches(draw):
    spec = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 500)),
            min_size=0,
            max_size=40,
        )
    )
    return [_FakeView(i, n) for i, n in spec]


class TestShardInvariants:
    """The properties parallel execution's determinism rests on: shards
    concatenate back to the original batch order, respect the shard
    ceiling, and are edge-balanced — independent of any worker count."""

    @given(views=view_batches(), max_shards=st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_chunk_by_edges(self, views, max_shards):
        shards = chunk_by_edges(views, max_shards=max_shards)
        # Concatenation preserves the exact object sequence.
        flat = [tv for shard in shards for tv in shard]
        assert flat == views
        assert all(shard for shard in shards)
        assert len(shards) <= max(1, max_shards)
        if len(views) > 1 and max_shards > 1:
            total = sum(tv.lsrc.shape[0] for tv in views)
            target = max(1, -(-total // max_shards))
            # Every shard closed early reached the balance target.
            for shard in shards[:-1]:
                assert sum(tv.lsrc.shape[0] for tv in shard) >= target

    @given(views=view_batches(), max_shards=st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_chunking_is_worker_independent(self, views, max_shards):
        """Identical inputs give identical structure — the split never
        consults the environment, so any worker count sees the same
        shards (and hence the same partial-application order)."""
        a = chunk_by_edges(views, max_shards=max_shards)
        b = chunk_by_edges(list(views), max_shards=max_shards)
        assert [[id(v) for v in s] for s in a] == [
            [id(v) for v in s] for s in b
        ]

    def test_default_ceiling(self):
        views = [_FakeView(0, 10) for _ in range(100)]
        assert len(chunk_by_edges(views)) <= DEFAULT_MAX_SHARDS


# ---------------------------------------------------------------------- #
# Shared-memory arena
# ---------------------------------------------------------------------- #


class TestShmArena:
    def test_put_attach_roundtrip(self):
        rng = np.random.default_rng(3)
        arrays = [
            rng.integers(0, 2**32, 1000).astype(np.uint32),
            rng.standard_normal(501),
            np.array([True, False, True]),
        ]
        with ShmArena() as arena:
            arena.reserve(ShmArena.layout_bytes(arrays))
            descs = [arena.put(a) for a in arrays]
            cache: dict = {}
            for arr, desc in zip(arrays, descs):
                assert desc.offset % ShmArena.ALIGN == 0
                assert desc.nbytes == arr.nbytes
                view = attach_view(desc, cache)
                np.testing.assert_array_equal(view, arr)
                assert not view.flags.writeable
            # Same-process attach maps the same physical bytes.
            assert len(cache) == 1
            del view
            for seg in cache.values():
                seg.close()

    def test_overflow_raises(self):
        with ShmArena() as arena:
            arena.reserve(64)
            big = np.zeros(arena.capacity + 1, dtype=np.uint8)
            with pytest.raises(RuntimeError, match="overflow"):
                arena.put(big)

    def test_reserve_resets_between_batches(self):
        with ShmArena() as arena:
            arena.reserve(4096)
            d1 = arena.put(np.arange(16))
            arena.reserve(4096)  # next batch: bump pointer rewinds
            d2 = arena.put(np.arange(16))
            assert d1.offset == d2.offset

    def test_growth_replaces_segment_and_leaks_nothing(self):
        arena = ShmArena(capacity=1024)
        try:
            arena.reserve(512)
            first = arena.name
            assert first in LIVE_SHM_SEGMENTS
            arena.reserve(arena.capacity * 4)
            second = arena.name
            assert second != first
            assert first not in LIVE_SHM_SEGMENTS  # old gen unlinked
            assert second in LIVE_SHM_SEGMENTS
        finally:
            arena.close()
        assert second not in LIVE_SHM_SEGMENTS

    def test_close_idempotent_and_final(self):
        arena = ShmArena()
        arena.reserve(128)
        name = arena.name
        arena.close()
        arena.close()
        assert name not in LIVE_SHM_SEGMENTS
        with pytest.raises(RuntimeError):
            arena.ensure(128)

    def test_put_before_reserve_raises(self):
        with ShmArena() as arena:
            with pytest.raises(RuntimeError, match="reserve"):
                arena.put(np.arange(4))

"""Property-based tests: storage substrate invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.llc import SetAssocCache
from repro.cache.pagecache import LRUPageCache
from repro.storage.aio import Extents
from repro.storage.device import DeviceProfile, SimulatedSSD
from repro.storage.raid import Raid0Array, stripe_split


def _walk_stripes(offset, size, stripe, n_devices):
    """The stripe-by-stripe split ``stripe_split`` must agree with: every
    stripe's chunk listed on its device, then each device's chunks merged
    into one request."""
    per_dev = [[] for _ in range(n_devices)]
    pos, end = offset, offset + size
    while pos < end:
        stripe_idx = pos // stripe
        chunk_end = min((stripe_idx + 1) * stripe, end)
        per_dev[stripe_idx % n_devices].append(chunk_end - pos)
        pos = chunk_end
    return [[sum(segs)] if segs else [] for segs in per_dev]


class TestStripeSplitProperties:
    @given(
        offset=st.integers(0, 10**7),
        size=st.integers(0, 3 * 10**5),
        stripe=st.sampled_from([16, 4096, 65536, 1 << 20])
        | st.integers(16, 10**5),
        n_dev=st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_stripe_walk(self, offset, size, stripe, n_dev):
        """The one-device fast path and the per-device sums give exactly
        the walk's segments, so simulated times stay bit-identical."""
        assert stripe_split(offset, size, stripe, n_dev) == _walk_stripes(
            offset, size, stripe, n_dev
        )

    @given(
        offset=st.integers(0, 10**7),
        size=st.integers(0, 10**6),
        stripe=st.sampled_from([4096, 65536, 1 << 20]),
        n_dev=st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_bytes_conserved(self, offset, size, stripe, n_dev):
        per_dev = stripe_split(offset, size, stripe, n_dev)
        assert sum(sum(x) for x in per_dev) == size

    @given(
        size=st.integers(1, 10**6),
        stripe=st.sampled_from([4096, 65536]),
        n_dev=st.integers(2, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_balanced_for_aligned_reads(self, size, stripe, n_dev):
        per_dev = stripe_split(0, size, stripe, n_dev)
        totals = [sum(x) for x in per_dev]
        assert max(totals) - min(totals) <= stripe


class TestDeviceProperties:
    @given(
        sizes=st.lists(st.integers(0, 10**6), min_size=1, max_size=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_sync_never_faster_than_batched(self, sizes):
        a = SimulatedSSD(DeviceProfile())
        b = SimulatedSSD(DeviceProfile())
        assert b.read_sync_time(list(sizes)) >= a.read_batch_time(list(sizes))

    @given(sizes=st.lists(st.integers(0, 10**6), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_time_monotone_in_bytes(self, sizes):
        a = SimulatedSSD(DeviceProfile())
        b = SimulatedSSD(DeviceProfile())
        t_small = a.read_batch_time(list(sizes))
        t_big = b.read_batch_time([s + 1000 for s in sizes])
        assert t_big >= t_small


class TestRaidProperties:
    @given(
        extents=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 10**5)),
            min_size=1,
            max_size=20,
        ),
        n_dev=st.integers(1, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_more_devices_never_slower(self, extents, n_dev):
        t_one = Raid0Array(n_devices=1).read_batch_time(list(extents))
        t_n = Raid0Array(n_devices=n_dev).read_batch_time(list(extents))
        assert t_n <= t_one + 1e-12

    @given(
        extents=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 10**5)),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_bytes_accounted(self, extents):
        arr = Raid0Array(n_devices=4)
        arr.read_batch_time(list(extents))
        assert arr.bytes_read == sum(s for _, s in extents)

    @given(
        extents=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 3 * 10**5)),
            max_size=20,
        ),
        stripe=st.sampled_from([16, 4096, 65536]) | st.integers(16, 10**5),
        n_dev=st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_extent_arrays_time_as_the_per_extent_walk(
        self, extents, stripe, n_dev
    ):
        """A batch given as extent arrays is timed bit-identically to the
        per-extent stripe walk: every device sees the same request sizes
        in the same order, so its time, bytes and requests are equal."""
        ref = Raid0Array(n_devices=n_dev, stripe_bytes=stripe)
        per_dev = [[] for _ in range(n_dev)]
        for off, size in extents:
            for d, segs in enumerate(stripe_split(off, size, stripe, n_dev)):
                per_dev[d].extend(segs)
        t_ref = max(
            ref.devices[d].read_batch_time(per_dev[d]) for d in range(n_dev)
        )
        arr = Raid0Array(n_devices=n_dev, stripe_bytes=stripe)
        pairs = np.array(extents, dtype=np.int64).reshape(-1, 2)
        ext = Extents(offsets=pairs[:, 0], sizes=pairs[:, 1])
        assert arr.read_batch_time(ext) == t_ref
        assert [d.stats for d in arr.devices] == [d.stats for d in ref.devices]
        sync_ref = Raid0Array(n_devices=n_dev, stripe_bytes=stripe)
        sync = Raid0Array(n_devices=n_dev, stripe_bytes=stripe)
        assert sync.read_sync_time(ext) == sync_ref.read_sync_time(extents)


class TestCacheProperties:
    @given(
        addrs=st.lists(st.integers(0, 2**20), min_size=1, max_size=300),
    )
    @settings(max_examples=50, deadline=None)
    def test_llc_hits_plus_misses_equals_ops(self, addrs):
        c = SetAssocCache(size_bytes=4096, line_bytes=64, ways=4)
        c.access(np.array(addrs))
        assert c.stats.hits + c.stats.misses == c.stats.operations == len(addrs)

    @given(
        addrs=st.lists(st.integers(0, 2**14), min_size=1, max_size=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_llc_repeat_pass_never_worse(self, addrs):
        # Replaying the identical trace immediately can only improve hits
        # when the working set fits; never produce *more* misses than cold.
        trace = np.array(addrs)
        c = SetAssocCache(size_bytes=1 << 16, line_bytes=64, ways=16)
        cold = c.access(trace)
        warm = c.access(trace)
        assert warm.misses <= cold.misses

    @given(
        pages=st.lists(st.integers(0, 100), min_size=1, max_size=300),
        capacity_pages=st.integers(0, 120),
    )
    @settings(max_examples=50, deadline=None)
    def test_pagecache_resident_bounded(self, pages, capacity_pages):
        c = LRUPageCache(capacity_bytes=capacity_pages * 4096)
        c.access_pages(pages)
        assert c.resident_pages <= capacity_pages

    @given(pages=st.lists(st.integers(0, 50), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_pagecache_unbounded_capacity_all_unique_miss_once(self, pages):
        c = LRUPageCache(capacity_bytes=10**9)
        c.access_pages(pages)
        assert c.stats.misses == len(set(pages))

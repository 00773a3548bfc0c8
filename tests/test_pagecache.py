"""Unit tests for the LRU page cache (the baselines' caching policy)."""

import numpy as np
import pytest

from repro.cache.pagecache import LRUPageCache
from repro.errors import StorageError


class TestAccessPages:
    """``access_pages`` answers with the page IDs that missed, in access
    order — counts, byte totals and the extents to read all follow."""

    def test_cold_miss(self):
        c = LRUPageCache(capacity_bytes=4 * 4096)
        assert c.access_pages([1, 2, 3]) == [1, 2, 3]
        assert (c.stats.hits, c.stats.misses, c.stats.accesses) == (0, 3, 3)

    def test_rehit(self):
        c = LRUPageCache(capacity_bytes=4 * 4096)
        c.access_pages([1, 2])
        assert c.access_pages(np.array([1, 2])) == []
        assert (c.stats.hits, c.stats.misses) == (2, 2)

    def test_lru_eviction(self):
        c = LRUPageCache(capacity_bytes=2 * 4096)
        c.access_pages([1, 2])
        c.access_pages([3])  # evicts 1
        assert c.access_pages([2, 1]) == [1]
        assert c.stats.evictions == 2

    def test_move_to_end_on_hit(self):
        c = LRUPageCache(capacity_bytes=2 * 4096)
        assert c.access_pages([1, 2, 1, 3]) == [1, 2, 3]  # the hit protects 1
        assert c.access_pages([1]) == []
        assert c.access_pages([2]) == [2]  # ...so 2 was evicted

    def test_zero_capacity_always_misses(self):
        c = LRUPageCache(capacity_bytes=0)
        c.access_pages([1])
        assert c.access_pages([1, 1]) == [1, 1]
        assert c.access_extent(4096, 1) == (0, 4096)
        assert (c.stats.hits, c.stats.evictions, c.resident_pages) == (0, 0, 0)

    def test_bad_geometry(self):
        with pytest.raises(StorageError):
            LRUPageCache(capacity_bytes=-1)
        with pytest.raises(StorageError):
            LRUPageCache(capacity_bytes=10, page_bytes=0)


class TestAccessExtent:
    def test_extent_page_granular(self):
        c = LRUPageCache(capacity_bytes=100 * 4096)
        hit_b, miss_b = c.access_extent(0, 1)
        assert (hit_b, miss_b) == (0, 4096)  # whole page transferred

    def test_extent_spanning_pages(self):
        c = LRUPageCache(capacity_bytes=100 * 4096)
        _, miss_b = c.access_extent(4000, 200)  # crosses a page boundary
        assert miss_b == 2 * 4096

    def test_extent_reuse(self):
        c = LRUPageCache(capacity_bytes=100 * 4096)
        c.access_extent(0, 8192)
        hit_b, miss_b = c.access_extent(0, 8192)
        assert miss_b == 0
        assert hit_b == 8192

    def test_empty_extent(self):
        c = LRUPageCache(capacity_bytes=4096)
        assert c.access_extent(0, 0) == (0, 0)


class TestStats:
    def test_hit_rate(self):
        c = LRUPageCache(capacity_bytes=10 * 4096)
        c.access_pages([1, 2])
        c.access_pages([1, 2])
        assert c.stats.hit_rate == pytest.approx(0.5)

    def test_resident_pages(self):
        c = LRUPageCache(capacity_bytes=10 * 4096)
        c.access_pages([5, 6, 7])
        assert c.resident_pages == 3
        c.reset()
        assert c.resident_pages == 0

"""LRU page cache (the caching policy of FlashGraph / the OS page cache).

The paper's Observation 3 argues simple LRU is "far from optimal for graph
processing" because within an iteration data is touched once, so LRU keeps
recently-used-but-never-again pages.  This class gives the baselines a
faithful LRU so that G-Store's proactive policy has the right foil.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import StorageError


@dataclass
class PageCacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class LRUPageCache:
    """Page-granular LRU cache tracking hit/miss byte volumes."""

    def __init__(self, capacity_bytes: int, page_bytes: int = 4096):
        if capacity_bytes < 0 or page_bytes <= 0:
            raise StorageError("bad page cache geometry")
        self.capacity_pages = capacity_bytes // page_bytes
        self.page_bytes = page_bytes
        self.stats = PageCacheStats()
        self._pages: "OrderedDict[int, None]" = OrderedDict()

    def reset(self) -> None:
        self.stats = PageCacheStats()
        self._pages.clear()

    def access_pages(self, page_ids: "np.ndarray | Sequence[int]") -> "list[int]":
        """Touch pages in order; returns the page IDs that missed.

        Missed pages are inserted (read-allocate); LRU evicts beyond
        capacity.  With zero capacity every access misses.
        """
        pages = self._pages
        cap = self.capacity_pages
        missed: "list[int]" = []
        seq = page_ids.tolist() if isinstance(page_ids, np.ndarray) else page_ids
        for pid in seq:
            if pid in pages:
                pages.move_to_end(pid)
            else:
                missed.append(pid)
                if cap > 0:
                    pages[pid] = None
                    if len(pages) > cap:
                        pages.popitem(last=False)
                        self.stats.evictions += 1
        self.stats.accesses += len(seq)
        self.stats.hits += len(seq) - len(missed)
        self.stats.misses += len(missed)
        return missed

    def access_extent(self, offset: int, size: int) -> tuple[int, int]:
        """Touch the pages of a byte extent; returns ``(hit_bytes, miss_bytes)``.

        Byte volumes are page-granular, matching what a page cache actually
        transfers.
        """
        if size <= 0:
            return 0, 0
        first = offset // self.page_bytes
        last = (offset + size - 1) // self.page_bytes
        missed = len(self.access_pages(range(first, last + 1)))
        return (
            (last + 1 - first - missed) * self.page_bytes,
            missed * self.page_bytes,
        )

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

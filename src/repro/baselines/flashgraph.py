"""FlashGraph baseline: semi-external CSR engine (Zheng et al., FAST'15).

FlashGraph keeps vertex state in memory and adjacency lists on SSD in CSR
form, issuing *selective*, page-granular reads for the active vertices only
and caching pages with LRU.  For directed graphs it stores **both** the
out-CSR and the in-CSR (8 bytes per edge in total — the paper's §IV-A
criticism), and label-propagation CC touches both sides.  For undirected
graphs the CSR holds both orientations of every edge (no symmetry saving).

The module is the layout (the CSR pair) and its I/O model — whatever the
page cache misses of the active vertices' adjacency, read as merged page
runs through the simulated array; the programs are
:class:`~repro.baselines.common.ComparatorEngine`'s, run over the out-CSR
expanded to flat edge arrays.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import BaselineConfig, ComparatorEngine, Phase
from repro.cache.pagecache import LRUPageCache
from repro.format.csr import CSRGraph, build_bidirectional
from repro.format.edgelist import EdgeList

PAGE_BYTES = 4096
_ENTRY_BYTES = 4  # one uint32 adjacency entry


def _runs(ids: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(first, last)`` of each run of consecutive values in ascending ``ids``."""
    breaks = np.nonzero(np.diff(ids) > 1)[0]
    return (
        ids[np.concatenate([[0], breaks + 1])],
        ids[np.concatenate([breaks, [ids.size - 1]])],
    )


class FlashGraphEngine(ComparatorEngine):
    """Semi-external CSR engine with LRU page cache and selective I/O."""

    name = "flashgraph"

    def __init__(self, edges: EdgeList, config: "BaselineConfig | None" = None):
        self.out_csr, self.in_csr = build_bidirectional(edges)
        out = self.out_csr
        super().__init__(
            config,
            out.name,
            edges.n_vertices,
            np.repeat(np.arange(out.n_vertices, dtype=np.int64), np.diff(out.beg_pos)),
            out.adj.astype(np.int64),
        )
        self.cache = LRUPageCache(
            capacity_bytes=self.config.memory_bytes, page_bytes=PAGE_BYTES
        )
        # On-disk layout: out-CSR adjacency first, then (if distinct) in-CSR.
        self._sides = [(out, 0)]
        if self.in_csr is not out:
            self._sides.append((self.in_csr, out.n_edges * _ENTRY_BYTES))

    def _adjacency_pages(
        self, vertices: np.ndarray, csr: CSRGraph, base: int
    ) -> np.ndarray:
        """Page IDs covering the adjacency extents of ascending ``vertices``.

        Consecutive vertices merge into runs first (their adjacency is
        contiguous in CSR), then each run expands to its page range.
        """
        if vertices.size == 0:
            return np.empty(0, dtype=np.int64)
        first, last = _runs(vertices)
        lo = base + csr.beg_pos[first].astype(np.int64) * _ENTRY_BYTES
        hi = base + csr.beg_pos[last + 1].astype(np.int64) * _ENTRY_BYTES
        pages = [
            np.arange(a // PAGE_BYTES, (b - 1) // PAGE_BYTES + 1)
            for a, b in zip(lo.tolist(), hi.tolist())
            if b > a
        ]
        return np.unique(np.concatenate(pages)) if pages else np.empty(0, np.int64)

    def _fetch(self, pages: np.ndarray, phase: Phase) -> None:
        """Run pages through the LRU cache; read the misses as merged extents."""
        missed = np.asarray(self.cache.access_pages(pages), dtype=np.int64)
        phase.bytes_from_cache += (pages.size - missed.size) * PAGE_BYTES
        phase.bytes_read += missed.size * PAGE_BYTES
        if missed.size:
            phase.io_time += self.array.read_batch_time([
                (int(lo) * PAGE_BYTES, int(hi - lo + 1) * PAGE_BYTES)
                for lo, hi in zip(*_runs(missed))
            ])

    def _iteration(
        self, active: np.ndarray, updates: int, both_ways: bool
    ) -> "tuple[list[Phase], int]":
        """Read the active vertices' out-adjacency — and, when values travel
        both ways over a directed graph, their in-adjacency too: the
        redundancy Algorithm 2 of the paper removes (twice the bytes G-Store
        moves)."""
        vertices = np.nonzero(active)[0]
        phase = Phase()
        for csr, base in self._sides if both_ways else self._sides[:1]:
            self._fetch(self._adjacency_pages(vertices, csr, base), phase)
            phase.work += int(
                (csr.beg_pos[vertices + 1] - csr.beg_pos[vertices]).sum()
            )
        return [phase], phase.work

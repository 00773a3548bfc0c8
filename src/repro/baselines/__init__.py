"""Comparator engines reimplemented over the same storage substrate.

* :mod:`repro.baselines.xstream` — edge-centric scatter-gather-apply with
  on-disk update streams (Roy et al., SOSP'13); fully external, streams
  every edge every iteration, tuple size configurable (Figure 2a).
* :mod:`repro.baselines.flashgraph` — semi-external CSR engine with
  selective page-granular I/O and an LRU page cache (Zheng et al.,
  FAST'15); stores both in- and out-edges.
* :mod:`repro.baselines.gridgraph` — 2-level 2-D grid streaming with
  OS-page-cache-style LRU (Zhu et al., ATC'15).

A comparator is a storage layout plus an I/O model.  BFS, PageRank and CC
are written once (:class:`repro.baselines.common.ComparatorEngine`) and run
for real (vectorised NumPy) over each model's own edge order, so results
are bit-comparable with G-Store's; each module answers only what an
iteration costs to read, accounted on the same simulated SSD array.
"""

from repro.baselines.flashgraph import FlashGraphEngine
from repro.baselines.gridgraph import GridGraphEngine
from repro.baselines.xstream import XStreamEngine

__all__ = ["XStreamEngine", "FlashGraphEngine", "GridGraphEngine"]

"""Graph storage formats: edge list, CSR, 2-D partitions, and G-Store tiles.

The module mirrors §II/§IV/§V of the paper:

* :mod:`repro.format.edgelist` — the raw tuple format (Figure 1b).
* :mod:`repro.format.csr` — compressed sparse row (Figure 1c).
* :mod:`repro.format.partition2d` — 2-D partitioned edge list (Figure 1e).
* :mod:`repro.format.tiles` — the tile format with symmetry and SNB
  (smallest-number-of-bits) local IDs (§IV-A/B).
* :mod:`repro.format.degree` — compressed degree array (§IV-C).
* :mod:`repro.format.startedge` — the start-edge index file (§IV-B).
* :mod:`repro.format.grouping` — on-disk physical grouping (§V-A).
* :mod:`repro.format.convert` — two-pass conversion pipelines (Table I).
"""

from repro.format.csr import CSRGraph
from repro.format.degree import CompressedDegreeArray
from repro.format.edgelist import EdgeList
from repro.format.grouping import PhysicalGrouping
from repro.format.metadata import GraphInfo, format_sizes
from repro.format.partition2d import Partitioned2D
from repro.format.startedge import StartEdgeIndex
from repro.format.tiles import TiledGraph, TileView

__all__ = [
    "EdgeList",
    "CSRGraph",
    "Partitioned2D",
    "TiledGraph",
    "TileView",
    "CompressedDegreeArray",
    "StartEdgeIndex",
    "PhysicalGrouping",
    "GraphInfo",
    "format_sizes",
]

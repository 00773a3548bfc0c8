"""Conversion pipelines with timing (paper §IV-B *Implementation*, Table I).

Both converters are two-pass, mirroring the paper: pass 1 derives the index
(beg-pos for CSR, start-edge for tiles), pass 2 scatters payload into place.
:func:`conversion_report` times both targets on one edge list, producing a
Table I row.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.format.csr import CSRGraph
from repro.format.edgelist import EdgeList
from repro.format.tiles import TiledGraph
from repro.types import DEFAULT_GROUP_Q, DEFAULT_TILE_BITS
from repro.util.timer import WallTimer

#: Timed runs of each conversion per Table I row; the row reports the
#: median.
CONVERSION_RUNS = 5


@dataclass(frozen=True)
class ConversionReport:
    """Timing of one graph's conversions (one row of Table I)."""

    graph: str
    csr_seconds: float
    gstore_seconds: float


def convert_to_csr(el: EdgeList) -> tuple[CSRGraph, float]:
    """Convert to CSR, returning the graph and elapsed wall seconds.

    For an undirected input the traditional CSR materialises both edge
    orientations (this is what existing engines do and what Table I times).
    """
    with WallTimer() as t:
        source = el.symmetrized() if not el.directed else el
        csr = CSRGraph.from_edge_list(source)
    return csr, t.elapsed


def convert_to_tiles(
    el: EdgeList,
    tile_bits: int = DEFAULT_TILE_BITS,
    group_q: int = DEFAULT_GROUP_Q,
    snb: bool = True,
    symmetric: "bool | None" = None,
) -> tuple[TiledGraph, float]:
    """Convert to the G-Store tile format, returning graph and seconds."""
    with WallTimer() as t:
        tg = TiledGraph.from_edge_list(
            el, tile_bits=tile_bits, group_q=group_q, snb=snb, symmetric=symmetric
        )
    return tg, t.elapsed


def conversion_report(
    el: EdgeList,
    tile_bits: int = DEFAULT_TILE_BITS,
    group_q: int = DEFAULT_GROUP_Q,
) -> ConversionReport:
    """Time both conversions for one graph (a Table I row): the median of
    :data:`CONVERSION_RUNS` alternated runs each, so a close row is not
    decided by one noisy run."""
    csr_s, gs_s = [], []
    for _ in range(CONVERSION_RUNS):
        csr_s.append(convert_to_csr(el)[1])
        gs_s.append(
            convert_to_tiles(el, tile_bits=tile_bits, group_q=group_q)[1]
        )
    return ConversionReport(el.name or "graph", statistics.median(csr_s),
                            statistics.median(gs_s))

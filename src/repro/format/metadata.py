"""Graph metadata and analytic storage-size accounting (paper Table II).

:class:`GraphInfo` is the JSON-serialisable descriptor saved next to the
tile data file.  :func:`format_sizes` computes the edge-list / CSR / G-Store
byte costs for a graph of given shape — including paper-scale graphs we do
not materialise — reproducing every ratio in Table II.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields

from repro.errors import FormatError
from repro.types import edge_tuple_bytes, vertex_bytes_needed
from repro.util.bitops import ceil_div


#: Smallest value a readable info file may hold for each integer field of
#: :class:`GraphInfo` (checked on load: the file is outside input).
_LOWEST = {
    "n_vertices": 1, "n_edges": 0, "n_input_edges": 0, "tile_bits": 1,
    "group_q": 1, "format_version": 1,
}


@dataclass
class GraphInfo:
    """Descriptor of a tiled graph on disk.

    Attributes
    ----------
    name: dataset label.
    n_vertices: number of vertices.
    n_edges: number of *stored* SNB tuples (for an undirected graph this is
        the upper-triangle count, i.e. half the traditional tuple count).
    n_input_edges: tuples of the traditional representation (undirected
        edges counted twice), used for space-saving reports.
    directed: orientation flag.
    symmetric: True when only the upper triangle is stored (§IV-A).
    tile_bits: bits of a local vertex ID (paper: 16).
    group_q: tiles per physical-group side (paper: 256).
    format_version: on-disk layout revision.  Version 1 graphs (no
        per-tile checksums) predate the reliability plane and still load;
        version 2 adds the ``tile_checksums`` array to the aux file.
    """

    name: str
    n_vertices: int
    n_edges: int
    n_input_edges: int
    directed: bool
    symmetric: bool
    tile_bits: int
    group_q: int
    format_version: int = 1

    @property
    def p(self) -> int:
        """Tiles per side of the tile grid."""
        return ceil_div(self.n_vertices, 1 << self.tile_bits)

    @property
    def tile_span(self) -> int:
        """Vertices covered by one tile side."""
        return 1 << self.tile_bits

    def save(self, path: "str | os.PathLike") -> None:
        with open(os.fspath(path), "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2)

    @classmethod
    def load(cls, path: "str | os.PathLike") -> "GraphInfo":
        try:
            with open(os.fspath(path), "r", encoding="utf-8") as fh:
                data = json.load(fh)
            info = cls(**data)
        except (TypeError, ValueError) as exc:  # not JSON, not UTF-8, wrong keys
            raise FormatError(f"{path}: bad GraphInfo payload: {exc}") from exc
        for f in fields(cls):
            value = getattr(info, f.name)
            # Annotations are strings here; bool is not accepted for int.
            if type(value).__name__ != f.type:
                raise FormatError(
                    f"{path}: GraphInfo.{f.name} must be {f.type}, got {value!r}"
                )
            lowest = _LOWEST.get(f.name)
            if lowest is not None and value < lowest:
                raise FormatError(
                    f"{path}: GraphInfo.{f.name}={value} below {lowest}"
                )
        if info.tile_bits > 32:
            raise FormatError(f"{path}: tile_bits {info.tile_bits} > 32")
        return info


@dataclass(frozen=True)
class FormatSizes:
    """Byte costs of the three formats compared in Table II."""

    edge_list_bytes: int
    csr_bytes: int
    gstore_bytes: int

    @property
    def saving_vs_edge_list(self) -> float:
        return self.edge_list_bytes / self.gstore_bytes

    @property
    def saving_vs_csr(self) -> float:
        return self.csr_bytes / self.gstore_bytes


def format_sizes(
    n_vertices: int,
    n_undirected_edges: int | None = None,
    n_directed_edges: int | None = None,
    tile_bits: int = 16,
) -> FormatSizes:
    """Analytic sizes of edge-list vs CSR vs G-Store storage.

    Pass exactly one of ``n_undirected_edges`` (unique undirected edges) or
    ``n_directed_edges`` (directed tuples).  Accounting mirrors the paper:

    * Edge list: every tuple costs two global vertex IDs; an undirected edge
      appears twice.  Vertex IDs cost 4 bytes below 2**32 vertices, else 8.
    * CSR: one global ID per adjacency entry.  An undirected edge appears in
      two adjacency lists; a *directed* edge appears in both the out-CSR and
      the in-CSR, because CSR-based engines (FlashGraph) "store and load
      in-edges and out-edges both for directed graphs" (§IV-A) — this is
      what makes Table II's CSR column equal the edge-list column for the
      real directed graphs.  The |V|-sized beg-pos array is omitted as in
      the paper's table, which reports pure edge-payload ratios.
    * G-Store: one SNB tuple (``2 * local_bytes``) per *stored* edge; an
      undirected edge is stored once (upper triangle), a directed edge once
      (out-edges only).
    """
    if (n_undirected_edges is None) == (n_directed_edges is None):
        raise ValueError(
            "pass exactly one of n_undirected_edges / n_directed_edges"
        )
    vb = vertex_bytes_needed(n_vertices)
    tb = edge_tuple_bytes(tile_bits)
    if n_undirected_edges is not None:
        tuples = 2 * n_undirected_edges
        stored = n_undirected_edges
        csr_entries = tuples
    else:
        tuples = n_directed_edges
        stored = n_directed_edges
        csr_entries = 2 * tuples  # out-CSR + in-CSR
    edge_list = tuples * 2 * vb
    csr = csr_entries * vb
    gstore = stored * tb
    return FormatSizes(edge_list, csr, gstore)


def start_edge_file_bytes(n_vertices: int, tile_bits: int = 16, symmetric: bool = True) -> int:
    """Size of the start-edge index for a graph of this shape.

    Reproduces the paper's "additional 65GB for the start-edge file" claim
    for Kron-33-16 (2**33 vertices, 2**17 tiles per side, upper triangle).
    """
    p = ceil_div(n_vertices, 1 << tile_bits)
    n_tiles = p * (p + 1) // 2 if symmetric else p * p
    return 8 * (n_tiles + 1)

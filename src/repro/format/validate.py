"""Structural validation of on-disk tile graphs.

``check_tiled_graph`` audits every invariant the engine relies on: grid
geometry, start-edge monotonicity, local IDs within tile bounds, payload
size agreement, degree-array consistency, and (for symmetric graphs) the
upper-triangle property.  It is the tool to run after a conversion or a
file transfer — the tile-format equivalent of ``fsck``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.errors import FormatError
from repro.format.tiles import TiledGraph


@dataclass
class ValidationReport:
    """Outcome of a structural audit."""

    ok: bool = True
    errors: "list[str]" = field(default_factory=list)
    tiles_checked: int = 0
    edges_checked: int = 0
    #: True when the checksum pass was requested but the graph carries no
    #: checksum array to verify against (``fsck`` exit code 2).
    checksums_unavailable: bool = False

    def fail(self, message: str) -> None:
        self.ok = False
        self.errors.append(message)

    def __str__(self) -> str:
        status = "OK" if self.ok else "CORRUPT"
        lines = [
            f"tile graph {status}: {self.tiles_checked} tiles, "
            f"{self.edges_checked} edges checked"
        ]
        lines.extend(f"  error: {e}" for e in self.errors)
        return "\n".join(lines)


def _check_payload(tg: TiledGraph, rep: ValidationReport) -> None:
    """The deep pass: every stored tuple, a slab of the payload at a time
    (:meth:`TiledGraph.scan`, resident or not), each check one vector
    comparison over the slab that names the tiles owning an offending edge."""
    info, rows, cols = tg.info, tg.tile_rows, tg.tile_cols
    counts = tg.tile_edge_counts()
    for positions, batch in tg.scan():
        gsrc, gdst = batch.gsrc, batch.gdst
        rep.tiles_checked += positions.shape[0]
        rep.edges_checked += gsrc.shape[0]
        edges = counts[positions]
        owner = np.repeat(positions, edges)
        n = info.n_vertices
        bad = {"tile (%d,%d): endpoint beyond n_vertices": (gsrc >= n) | (gdst >= n)}
        if tg.snb:
            # The stored locals, as the payload holds them.
            pairs = batch.tiles.pairs
            ids = np.maximum(pairs[0::2], pairs[1::2])
            bad["tile (%d,%d): local ID beyond tile span"] = ids >= 1 << info.tile_bits
        if info.symmetric:
            diagonal = np.repeat(rows[positions] == cols[positions], edges)
            bad["diagonal tile (%d,%d): lower-triangle edge"] = diagonal & (gsrc > gdst)
        for message, mask in bad.items():
            for pos in np.unique(owner[mask]).tolist():
                rep.fail(message % (rows[pos], cols[pos]))


def check_tiled_graph(
    tg: TiledGraph, deep: bool = True, checksums: bool = False
) -> ValidationReport:
    """Audit a tiled graph's structural invariants.

    ``deep=True`` also reads every tuple of the payload, resident or on
    disk (endpoint and local-ID bounds and, for symmetric storage, the
    in-diagonal-tile ordering); metadata-only checks are cheap enough for
    every load.  ``checksums=True`` adds the
    CRC32C deep-verify of every tile extent against the stored checksum
    array (``repro fsck --checksums``); a graph saved before checksums
    existed sets :attr:`ValidationReport.checksums_unavailable` instead
    of failing.
    """
    rep = ValidationReport()
    info = tg.info

    # Geometry.
    if tg.grouping.p != info.p:
        rep.fail(f"grouping p={tg.grouping.p} != info p={info.p}")
    if tg.start_edge.n_tiles != tg.grouping.n_tiles:
        rep.fail(
            f"start-edge tiles {tg.start_edge.n_tiles} != grid tiles "
            f"{tg.grouping.n_tiles}"
        )
    if tg.tile_rows.shape[0] != tg.grouping.n_tiles:
        rep.fail("tile_rows length mismatch")
    if tg.start_edge.tuple_bytes != 2 * tg.payload_dtype().itemsize:
        rep.fail(
            f"start-edge tuple size {tg.start_edge.tuple_bytes} != "
            f"{2 * tg.payload_dtype().itemsize} for this tile width"
        )
    if not rep.ok:
        return rep  # nothing below can index a grid that does not line up

    # Edge totals.
    if tg.start_edge.n_edges != info.n_edges:
        rep.fail(
            f"start-edge total {tg.start_edge.n_edges} != info n_edges "
            f"{info.n_edges}"
        )
    if tg.payload is not None or tg.payload_path is not None:
        have = (
            tg.payload.nbytes if tg.payload is not None
            else os.path.getsize(tg.payload_path)  # semi-external: stat only
        )
        if have != tg.storage_bytes():
            rep.fail(f"payload holds {have} bytes, expected {tg.storage_bytes()}")

    # Per-tile and per-edge side arrays.
    for label, arr, expect in (
        ("tile_checksums", tg.tile_checksums, tg.grouping.n_tiles),
        ("edge_weights", tg.edge_weights, tg.start_edge.n_edges),
    ):
        if arr is not None and arr.shape != (expect,):
            rep.fail(f"{label} shape {arr.shape} != ({expect},)")

    # Degrees.
    if tg.out_degrees.shape != (info.n_vertices,):
        rep.fail("out_degrees length != n_vertices")
    if tg.in_degrees.shape != (info.n_vertices,):
        rep.fail("in_degrees length != n_vertices")
    deg_sum = int(tg.out_degrees.astype(np.int64).sum())
    # Symmetric storage keeps one tuple per undirected edge but degrees
    # count both endpoints; every other layout stores one tuple per degree
    # increment (directed out-edges, or undirected-both-directions).
    expect_deg = 2 * info.n_edges if info.symmetric else info.n_edges
    if deg_sum != expect_deg:
        rep.fail(f"sum(degrees)={deg_sum} != expected {expect_deg}")

    # Symmetric graphs must only store the upper triangle.
    if info.symmetric:
        lower = (tg.tile_cols < tg.tile_rows) & (tg.start_edge.edge_counts() > 0)
        if lower.any():
            rep.fail("non-empty lower-triangle tile in symmetric graph")

    metadata_ok = rep.ok
    if deep:
        try:
            _check_payload(tg, rep)
        except FormatError as exc:  # no payload, or shorter than its index
            rep.fail(str(exc))

    if checksums:
        if tg.tile_checksums is None:
            rep.checksums_unavailable = True
        elif metadata_ok:  # extents mean nothing on unsound metadata
            try:
                for bad in tg.verify_checksums():
                    rep.fail(
                        f"tile {bad['tile']} ({bad['i']},{bad['j']}) checksum "
                        f"mismatch: expected {bad['expected']}, got "
                        f"{bad['actual']} (extent {bad['offset']}+{bad['size']})"
                    )
            except FormatError as exc:
                rep.fail(str(exc))
    return rep

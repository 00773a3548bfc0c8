"""The tile grid is arithmetic and the graph has one reader.

Two properties of the format layer (docs/FORMAT.md "Disk order",
docs/ARCHITECTURE.md "The whole-graph reader"):

* nothing that builds, loads, reconstructs or audits a graph does
  per-position Python work — the number of Python-level calls is the same
  on a 32 × 32 grid and a 256 × 256 one;
* ``TiledGraph.scan`` streams the payload a slab at a time whether it is
  resident or left on disk, so every whole-graph reader built on it
  (``to_edge_list``, the triangle utilities, the compression report, the
  deep audit behind ``repro fsck``) answers the same either way.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.algorithms.triangles import clustering_coefficient, triangle_count
from repro.cli import main
from repro.format.compress import compression_report
from repro.format.grouping import PhysicalGrouping
from repro.format.tiles import TiledGraph
from repro.format.validate import check_tiled_graph
from repro.graphgen.rmat import rmat

#: Calls a bigger grid may add: the file readers under ``load`` take a few
#: more reads for a longer checksum array; nothing else moves.
CALL_SLACK = 64


def _calls(fn) -> int:
    """Python-level calls (Python and C functions) ``fn`` makes."""
    count = [0]

    def profiler(frame, event, arg):
        if event in ("call", "c_call"):
            count[0] += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count[0]


def test_call_counts_do_not_grow_with_the_grid(tmp_path):
    el = rmat(14, edge_factor=4, seed=5)
    counts = {}
    for tile_bits in (9, 6):  # p = 32 and p = 256 over the same edges
        tg = TiledGraph.from_edge_list(el, tile_bits=tile_bits, group_q=4)
        saved = tg.save(tmp_path / f"g{tile_bits}")
        assert len(list(tg.scan())) == 1  # equal slab counts: compare as is

        def geometry():
            grouping = PhysicalGrouping(tg.p, 4, symmetric=True)
            grouping.tile_coords
            grouping.position_grid()
            grouping.group_bounds()

        counts[tg.p] = {
            "geometry": _calls(geometry),
            "from_edge_list": _calls(
                lambda: TiledGraph.from_edge_list(el, tile_bits=tile_bits, group_q=4)
            ),
            "load": _calls(lambda: TiledGraph.load(saved)),
            "to_edge_list": _calls(tg.to_edge_list),
            "deep audit": _calls(lambda: check_tiled_graph(tg, deep=True)),
        }
    for step, small in counts[32].items():
        assert counts[256][step] <= small + CALL_SLACK, (step, counts)


def test_scan_slabs_partition_the_live_tiles(tiled_undirected):
    tg = tiled_undirected
    live = np.flatnonzero(tg.tile_edge_counts() > 0)
    one = list(tg.scan())
    assert len(one) == 1 and np.array_equal(one[0][0], live)
    slabs = list(tg.scan(slab_bytes=512))
    assert len(slabs) > 4
    assert np.array_equal(np.concatenate([pos for pos, _ in slabs]), live)
    lo = 0
    for positions, batch in slabs:
        # A slab is one byte-adjacent run: it continues the edge order
        # where the slab before stopped.
        assert batch.run_edge_lo.tolist() == [lo]
        lo += batch.n_edges
        assert lo == int(tg.start_edge.start_edge[positions[-1] + 1])
    assert lo == tg.n_edges


@pytest.fixture()
def on_disk(tmp_path):
    """A clustered graph saved and loaded both ways."""
    el = rmat(10, edge_factor=8, seed=21)
    tg = TiledGraph.from_edge_list(el, tile_bits=6, group_q=4)
    saved = tg.save(tmp_path / "g")
    return saved, TiledGraph.load(saved), TiledGraph.load(saved, resident=False)


class TestSemiExternalReaders:
    def test_every_reader_answers_as_resident(self, on_disk):
        _, resident, external = on_disk
        assert external.payload is None
        a, b = resident.to_edge_list(), external.to_edge_list()
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
        assert triangle_count(external) == triangle_count(resident) > 0
        assert clustering_coefficient(external) == clustering_coefficient(resident)
        assert compression_report(external) == compression_report(resident)

    def test_directed_edge_list_round_trips(self, tmp_path, tiled_directed):
        external = TiledGraph.load(
            tiled_directed.save(tmp_path / "g"), resident=False
        )
        a, b = tiled_directed.to_edge_list(), external.to_edge_list()
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

    def test_deep_audit_counts_like_resident(self, on_disk):
        _, resident, external = on_disk
        want = check_tiled_graph(resident, deep=True)
        got = check_tiled_graph(external, deep=True)
        assert got.ok and want.ok
        assert got.tiles_checked == want.tiles_checked > 0
        assert got.edges_checked == want.edges_checked == resident.n_edges

    def test_deep_audit_and_fsck_name_a_planted_edge(self, on_disk, capsys):
        saved, resident, _ = on_disk
        # A strictly-upper edge of a diagonal tile, its endpoints swapped
        # in the payload *file*: a lower-triangle edge only a reader of
        # the bytes can see.
        diagonal = np.flatnonzero(
            (resident.tile_rows == resident.tile_cols)
            & (resident.tile_edge_counts() > 0)
        )
        pos = int(diagonal[-1])
        lo = int(resident.start_edge.start_edge[pos])
        tv = resident.tile_view(pos)
        k = int(np.flatnonzero(tv.lsrc < tv.ldst)[0])
        item = resident.payload.dtype.itemsize
        with open(resident.payload_path, "r+b") as fh:
            fh.seek(2 * (lo + k) * item)
            pair = fh.read(2 * item)
            fh.seek(2 * (lo + k) * item)
            fh.write(pair[item:] + pair[:item])
        external = TiledGraph.load(saved, resident=False)
        rep = check_tiled_graph(external, deep=True)
        i = int(resident.tile_rows[pos])
        assert rep.errors == [f"diagonal tile ({i},{i}): lower-triangle edge"]
        assert rep.edges_checked == resident.n_edges
        assert main(["fsck", str(saved)]) == 1
        assert f"diagonal tile ({i},{i})" in capsys.readouterr().out

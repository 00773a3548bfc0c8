"""Zero-copy guarantees of the decode chain (fetch → merged extent → view).

``TileStore.read`` → ``decode_run`` / ``decode_batch`` — the chain the
engine runs, through ``TiledGraph.decode_extents`` — must never
materialise intermediate ``bytes``: with an in-memory store the decoded
local-ID arrays share memory with the payload array itself, and with an
on-disk store they are views over one shared mmap of the payload file.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.selective import merge_requests
from repro.format.tiles import TiledGraph, concat_global_edges
from repro.graphgen.rmat import rmat
from repro.storage.file import TileStore
from repro.types import VERTEX_DTYPE


@pytest.fixture(scope="module")
def tg() -> TiledGraph:
    return TiledGraph.from_edge_list(
        rmat(8, edge_factor=8, seed=5), tile_bits=5, group_q=4
    )


def _nonempty_positions(tg, n=6):
    return np.nonzero(tg.tile_edge_counts() > 0)[0][:n].tolist()


class TestInMemoryStore:
    def test_read_returns_view_over_payload(self, tg):
        store = TileStore.from_tiled_graph(tg)
        pos = _nonempty_positions(tg, 1)[0]
        off, size = tg.start_edge.byte_extent(pos)
        raw = store.read(off, size)
        assert isinstance(raw, memoryview)
        arr = np.frombuffer(raw, dtype=tg.payload_dtype())
        assert np.shares_memory(arr, tg.payload)

    def test_no_payload_copy_at_construction(self, tg):
        store = TileStore.from_tiled_graph(tg)
        whole = np.frombuffer(store.read(0, store.size), dtype=tg.payload_dtype())
        assert np.shares_memory(whole, tg.payload)

    def test_decode_run_and_decode_batch_share_payload(self, tg):
        store = TileStore.from_tiled_graph(tg)
        # Two runs, neither starting at byte 0: tiles 1-3 and 5-7 of the
        # non-empty ones (skipping a non-empty tile breaks adjacency).
        nz = _nonempty_positions(tg, 8)
        requests = merge_requests(nz[1:4] + nz[5:8], tg.start_edge)
        assert len(requests) == 2 and requests[0].offset > 0
        runs = [(r.tag, store.read(r.offset, r.size)) for r in requests]
        for tags, extent in runs:
            raws = []
            for tv, raw in tg.decode_run(tags, extent):
                assert isinstance(raw, memoryview)
                assert np.shares_memory(tv.lsrc, tg.payload), tv.pos
                assert np.shares_memory(tv.ldst, tg.payload), tv.pos
                # The per-tile slices are exactly the tiles' own extents.
                assert len(raw) == tg.start_edge.byte_extent(tv.pos)[1]
                raws.append(raw)
            assert b"".join(raws) == bytes(extent)
        run_views, _ = tg.decode_batch(runs, with_tiles=False)
        assert len(run_views) == len(runs)
        for view in run_views + tg.decode_extents(runs):
            assert np.shares_memory(view.lsrc, tg.payload), view.pos
            assert np.shares_memory(view.ldst, tg.payload), view.pos


class TestOnDiskStore:
    def test_reads_share_one_mapping(self, tg, tmp_path):
        d = tg.save(tmp_path / "g")
        disk = TiledGraph.load(d, resident=False)
        with TileStore.from_tiled_graph(disk) as store:
            a = np.frombuffer(store.read(0, 16), dtype=np.uint8)
            b = np.frombuffer(store.read(8, 16), dtype=np.uint8)
            # Overlapping extents resolve to the same mapped pages — views,
            # not per-read copies.
            assert np.shares_memory(a, b)

    def test_decode_from_disk_matches_memory(self, tg, tmp_path):
        d = tg.save(tmp_path / "g")
        disk = TiledGraph.load(d, resident=False)
        with TileStore.from_tiled_graph(disk) as store:
            for pos in _nonempty_positions(tg):
                off, size = disk.start_edge.byte_extent(pos)
                tv = disk.view_from_bytes(pos, store.read(off, size))
                ref = tg.tile_view(pos)
                assert np.array_equal(tv.lsrc, ref.lsrc)
                assert np.array_equal(tv.ldst, ref.ldst)


class TestTileViewCache:
    def test_global_edges_cached(self, tg):
        pos = _nonempty_positions(tg, 1)[0]
        tv = tg.tile_view(pos)
        gsrc1, gdst1 = tv.global_edges()
        gsrc2, gdst2 = tv.global_edges()
        assert gsrc1 is gsrc2 and gdst1 is gdst2


class TestGlobalEdgeLayout:
    """Both decoders hand kernels one layout: two C-contiguous
    ``VERTEX_DTYPE`` arrays per view, never strided views of an
    interleaved buffer."""

    @staticmethod
    def _runs(g):
        store = TileStore.from_tiled_graph(g)
        nz = np.nonzero(g.tile_edge_counts() > 0)[0].tolist()
        requests = merge_requests(nz, g.start_edge)
        return [(r.tag, store.read(r.offset, r.size)) for r in requests]

    @pytest.mark.parametrize("snb", [True, False])
    @pytest.mark.parametrize("batched", [True, False])
    def test_views_carry_contiguous_global_ids(self, snb, batched):
        g = TiledGraph.from_edge_list(
            rmat(8, edge_factor=8, seed=5), tile_bits=5, group_q=4, snb=snb
        )
        runs = self._runs(g)
        if batched:
            views = g.decode_extents(runs)
        else:  # one view per tile, as scan(fused=False) hands them out
            views = [tv for run in runs for tv, _ in g.decode_run(*run)]
        for tv in views:
            for arr in (tv._gsrc, tv._gdst):
                assert arr is not None and arr.dtype == VERTEX_DTYPE
                assert arr.flags.c_contiguous
        ref = g.to_edge_list()
        assert np.array_equal(np.concatenate([tv._gsrc for tv in views]), ref.src)
        assert np.array_equal(np.concatenate([tv._gdst for tv in views]), ref.dst)

    def test_one_view_shard_is_not_copied(self, tg):
        for tv in tg.decode_extents(self._runs(tg)):
            gsrc, gdst = concat_global_edges([tv])
            assert np.shares_memory(gsrc, tv._gsrc)
            assert np.shares_memory(gdst, tv._gdst)

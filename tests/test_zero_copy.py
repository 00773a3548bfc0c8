"""Zero-copy guarantees of the decode chain (fetch → merged extent → view).

``TileStore.read`` / ``TileStore.gather`` → ``decode_run`` /
``decode_batch`` / ``decode_extents`` must never materialise intermediate
``bytes``: with an in-memory store a one-extent batch and the decoded
local-ID arrays share memory with the payload array itself, with an
on-disk store they are views over one shared mmap of the payload file,
and a kernel's shard is a slice of its batch's global-ID arrays.
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest

from repro.algorithms.bfs import BFS
from repro.algorithms.pagerank import PageRank
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.engine.selective import merge_extents, merge_requests
from repro.format.tiles import TiledGraph, TileView
from repro.storage.aio import IOEvent, IORequest
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
        for view in run_views:
            assert np.shares_memory(view.lsrc, tg.payload), view.pos
            assert np.shares_memory(view.ldst, tg.payload), view.pos
        # The engine's path: one extent is a slice of the payload itself.
        ext = merge_extents(nz[1:4], tg.start_edge)
        data = store.gather(ext.offsets, ext.sizes)
        assert np.shares_memory(data, tg.payload)


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

    @staticmethod
    def _batch(g):
        store = TileStore.from_tiled_graph(g)
        ext = merge_extents(np.flatnonzero(g.tile_edge_counts() > 0),
                            g.start_edge)
        data = store.gather(ext.offsets, ext.sizes)
        return g.decode_extents(ext.positions, ext.first, data)

    @pytest.mark.parametrize("snb", [True, False])
    @pytest.mark.parametrize("batched", [True, False])
    def test_views_carry_contiguous_global_ids(self, snb, batched):
        g = TiledGraph.from_edge_list(
            rmat(8, edge_factor=8, seed=5), tile_bits=5, group_q=4, snb=snb
        )
        if batched:
            batch = self._batch(g)
            ids = [(batch.gsrc, batch.gdst)]
        else:  # one view per tile, as decode_run hands them out
            ids = [
                (tv._gsrc, tv._gdst)
                for run in self._runs(g) for tv, _ in g.decode_run(*run)
            ]
        for pair in ids:
            for arr in pair:
                assert arr is not None and arr.dtype == VERTEX_DTYPE
                assert arr.flags.c_contiguous
        ref = g.to_edge_list()
        assert np.array_equal(np.concatenate([s for s, _ in ids]), ref.src)
        assert np.array_equal(np.concatenate([d for _, d in ids]), ref.dst)

    def test_one_view_shard_is_not_copied(self, tg):
        """Every shard a kernel is handed is a slice of its batch's
        arrays, whatever the cut."""
        batch = self._batch(tg)
        algo = PageRank()
        algo.setup(tg)
        cuts = np.array([0, 1, batch.n_edges // 2, batch.n_edges])
        with mock.patch.multiple(
            PageRank,
            kernel_state=lambda self: {},
            kernel_params=lambda self: {},
            kernel_partial=staticmethod(
                lambda state, params, gsrc, gdst: (gsrc, gdst)
            ),
        ):
            for a, b in zip(cuts[:-1], cuts[1:]):
                gsrc, gdst = algo.shard_partial(batch, a, b)
                assert np.shares_memory(gsrc, batch.gsrc)
                assert np.shares_memory(gdst, batch.gdst)


class TestNoPerExtentObjects:
    """The clean path builds nothing per merged extent or per tile: a run
    that slides and rewinds constructs no request, no completion event and
    no tile view — positions become extent arrays, one service call, one
    widen and shard slices."""

    @pytest.mark.parametrize("depth", [0, 2])
    @pytest.mark.parametrize("make", [
        lambda: BFS(root=0), lambda: PageRank(max_iterations=3),
    ], ids=["bfs", "pagerank"])
    def test_engine_run_constructs_no_request_event_or_view(
        self, tiled_undirected, depth, make
    ):
        built = {"IORequest": 0, "IOEvent": 0, "TileView": 0}

        def counted(cls):
            init = cls.__init__

            def wrapped(self, *args, **kwargs):
                built[cls.__name__] += 1
                init(self, *args, **kwargs)

            return mock.patch.object(cls, "__init__", wrapped)

        cfg = EngineConfig(memory_bytes=8 * 1024, segment_bytes=2 * 1024,
                           prefetch_depth=depth)
        with GStoreEngine(tiled_undirected, cfg) as engine:
            engine.run(make())  # lazy set-up (mapping, checksums) first
            with counted(IORequest), counted(IOEvent), counted(TileView):
                stats = engine.run(make())
        assert stats.tiles_fetched > 0 and stats.tiles_from_cache > 0
        assert built == {"IORequest": 0, "IOEvent": 0, "TileView": 0}

    def test_the_counting_sees_the_list_forms(self, tiled_undirected):
        """The control: the layer walk's list forms do build them."""
        g = tiled_undirected
        reqs = merge_requests(np.flatnonzero(g.tile_edge_counts() > 0),
                              g.start_edge)
        assert reqs and all(isinstance(r, IORequest) for r in reqs)


class TestStoreLifetime:
    @staticmethod
    def _open_fds(path) -> int:
        real = os.path.realpath(path)
        fds = os.listdir("/proc/self/fd")
        return sum(
            1 for fd in fds
            if os.path.realpath(os.path.join("/proc/self/fd", fd)) == real
        )

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc to list open descriptors")
    def test_close_after_reads_leaves_no_handle(self, tg, tmp_path):
        """The store maps its file once and wraps the mapping once; after
        reads and gathers, ``close()`` releases the map and the handle."""
        disk = TiledGraph.load(tg.save(tmp_path / "g"), resident=False)
        store = TileStore.from_tiled_graph(disk)
        ext = merge_extents(np.flatnonzero(disk.tile_edge_counts() > 0)[::2],
                            disk.start_edge)
        data = store.gather(ext.offsets, ext.sizes)
        head = bytes(store.read(0, 16))
        assert store._map() is store._map()  # one view, not one per read
        assert self._open_fds(disk.payload_path) == 1  # the map's own
        del data
        store.close()
        assert self._open_fds(disk.payload_path) == 0
        assert store._mm is None and store._fh is None
        assert head == bytes(tg.payload.view(np.uint8)[:16])

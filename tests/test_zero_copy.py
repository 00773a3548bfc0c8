"""Zero-copy guarantees of the decode chain (fetch → merged extent → view).

``TileStore.read`` / ``TileStore.gather`` → ``decode_run`` /
``decode_batch`` / ``decode_extents`` must never materialise intermediate
``bytes``: with an in-memory store a one-extent batch and the decoded
local-ID arrays share memory with the payload array itself, with an
on-disk store they are views over one shared mmap of the payload file,
and a kernel's shard is a slice of its batch's payload (a scatter
kernel's) or of its global-ID arrays, widened once on first read.
"""

from __future__ import annotations

import contextlib
import os
import threading
from unittest import mock

import numpy as np
import pytest

from repro.algorithms import native
from repro.algorithms.bfs import BFS
from repro.algorithms.kcore import KCore
from repro.algorithms.multibfs import MultiSourceBFS
from repro.algorithms.pagerank import PageRank
from repro.algorithms.scc import SubgraphDegrees
from repro.algorithms.spmv import SpMV
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.engine.selective import (
    batch_extents,
    merge_extents,
    merge_requests,
)
from repro.format import tiles
from repro.format.tiles import TiledGraph, TileEdges, TileView
from repro.runtime.prefetch import PREFETCH_THREAD_NAME
from repro.runtime.threads import WORKER_THREAD_PREFIX
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
        ext, layout = batch_extents(
            np.flatnonzero(g.tile_edge_counts() > 0), g
        )
        data = store.gather(ext.offsets, ext.sizes)
        return g.decode_extents(data, layout)

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
        arrays, whatever the cut: a scatter kernel's of the fetched
        payload itself, an ID-reading kernel's of the widened IDs."""
        batch = self._batch(tg)
        algo = PageRank()
        algo.setup(tg)
        cuts = np.array([0, 1, batch.n_edges // 2, batch.n_edges])
        for a, b in zip(cuts[:-1], cuts[1:]):  # its partial is the shard
            tiles = algo.shard_partial(batch, a, b)
            assert tiles.n_edges == b - a
            assert np.shares_memory(tiles.pairs, batch.tiles.pairs)
        bfs = BFS(root=0)
        bfs.setup(tg)
        with mock.patch.object(BFS, "kernel_partial",
                               lambda self, gsrc, gdst: (gsrc, gdst)):
            for a, b in zip(cuts[:-1], cuts[1:]):
                gsrc, gdst = bfs.shard_partial(batch, a, b)
                assert np.shares_memory(gsrc, batch.gsrc)
                assert np.shares_memory(gdst, batch.gdst)


@contextlib.contextmanager
def _calls(owner, name):
    """Within the block, the names of the threads that called
    ``owner.name``, one entry per call."""
    real = getattr(owner, name)
    threads = []

    def counted(*args, **kwargs):
        threads.append(threading.current_thread().name)
        return real(*args, **kwargs)

    with mock.patch.object(owner, name, counted):
        yield threads


_SCATTER = {
    "pagerank": lambda tg: PageRank(max_iterations=3),
    "spmv": lambda tg: SpMV(iterations=2),
    "scc-degrees": lambda tg: SubgraphDegrees(np.arange(tg.n_vertices) % 3 > 0),
}


class TestLazyWiden:
    """A batch is widened at most once, on the first read of its global
    IDs, and its shard cuts are computed on first read: a scatter kernel
    never widens, an ID-reading one widens each batch once."""

    _CFG = dict(memory_bytes=8 * 1024, segment_bytes=2 * 1024)

    @pytest.mark.skipif(native.lib is None,
                        reason="the NumPy scatter body widens each shard")
    @pytest.mark.parametrize("depth", [0, 2])
    @pytest.mark.parametrize("name", sorted(_SCATTER))
    def test_scatter_kernels_never_widen(self, tiled_undirected, name, depth):
        algo = _SCATTER[name](tiled_undirected)
        cfg = EngineConfig(prefetch_depth=depth, **self._CFG)
        with GStoreEngine(tiled_undirected, cfg) as engine, \
                _calls(TileEdges, "widen") as widened, \
                _calls(TiledGraph, "decode_extents") as decoded:
            stats = engine.run(algo)
        assert stats.tiles_fetched > 0 and decoded
        assert widened == []

    @pytest.mark.parametrize("depth", [0, 2])
    def test_bfs_widens_each_batch_once(self, tiled_undirected, depth):
        """One widen per decoded batch (the rewind's memoized batch
        included): on the engine thread at depth 0, where the kernel
        first reads the IDs, and the slide's on the prefetch thread
        ahead of compute at depth 2."""
        cfg = EngineConfig(prefetch_depth=depth, **self._CFG)
        with GStoreEngine(tiled_undirected, cfg) as engine, \
                _calls(TileEdges, "widen") as widened, \
                _calls(TiledGraph, "decode_extents") as decoded:
            stats = engine.run(BFS(root=0))
        assert stats.tiles_fetched > 0 and stats.tiles_from_cache > 0
        assert len(widened) == len(decoded) > 0
        on_prefetch = PREFETCH_THREAD_NAME in widened
        assert on_prefetch == (depth > 0)

    def test_pooled_multibfs_widens_once_per_batch(
        self, tiled_undirected, cpus, low_shard_floor
    ):
        """An 8-root MultiBFS runs its shards on the pool; each batch is
        widened once, on the engine thread, before the pool reads it."""
        cpus(4)
        roots = np.linspace(0, tiled_undirected.n_vertices - 1, 8).astype(int)
        algo = MultiSourceBFS(roots.tolist())
        assert algo.pooled
        cfg = EngineConfig(prefetch_depth=0, **self._CFG)
        with GStoreEngine(tiled_undirected, cfg) as engine, \
                _calls(TileEdges, "widen") as widened, \
                _calls(TiledGraph, "decode_extents") as decoded, \
                _calls(tiles, "shard_cuts") as cut, \
                _calls(MultiSourceBFS, "kernel_partial") as kernels:
            stats = engine.run(algo)
        assert stats.extra["execution"]["kernel_threads"] == 4
        assert any(t.startswith(WORKER_THREAD_PREFIX) for t in kernels)
        assert len(widened) == len(decoded) == len(cut) > 0
        assert not any(t.startswith(WORKER_THREAD_PREFIX) for t in widened)

    def test_reading_edge_count_or_one_shard_cuts_computes_nothing(self, tg):
        batch = TestGlobalEdgeLayout._batch(tg)
        with _calls(TileEdges, "widen") as widened, \
                _calls(tiles, "shard_cuts") as cut:
            assert batch.n_edges == tg.start_edge.n_edges
            for one_shard in (PageRank, KCore):
                assert one_shard.shard_cuts(batch).tolist() == [0, batch.n_edges]
            assert (widened, cut) == ([], [])
            assert batch.cuts is batch.cuts and len(cut) == 1
            assert batch.gsrc is batch.widen()[0] and len(widened) == 1


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

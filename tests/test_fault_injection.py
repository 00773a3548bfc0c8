"""Failure injection: corrupted payloads, short reads, bad extents.

The engine must fail loudly (typed exceptions), never silently compute on
garbage — and the fsck tool must catch what slipped past.
"""

import numpy as np
import pytest

from repro.algorithms.bfs import BFS
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.errors import ChecksumError, FormatError, StorageError
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.format.tiles import TiledGraph
from repro.format.validate import check_tiled_graph
from repro.storage.aio import AIOContext, IORequest
from repro.storage.file import TileStore
from repro.storage.raid import Raid0Array
from repro.util.timer import SimClock


class TestTruncatedReads:
    def test_tile_decode_rejects_short_payload(self, tiled_undirected):
        tg = tiled_undirected
        pos = next(
            p for p in range(tg.n_tiles) if tg.start_edge.edge_count(p) > 0
        )
        off, size = tg.start_edge.byte_extent(pos)
        raw = tg.payload.tobytes()[off : off + size - tg.tuple_bytes]
        with pytest.raises(FormatError):
            tg.view_from_bytes(pos, raw)

    def test_truncated_file_fails_on_load(self, tmp_path, tiled_undirected):
        d = tmp_path / "g"
        tiled_undirected.save(d)
        payload = d / "tiles.dat"
        ext = TiledGraph.load(d, resident=False)
        payload.write_bytes(payload.read_bytes()[:-4])
        # Semi-external loading stats the payload file: it is four bytes
        # short of what the start-edge index names.
        with pytest.raises(FormatError, match="payload holds"):
            TiledGraph.load(d, resident=False)
        # Truncated behind a graph already loaded, the run fails typed.
        algo = BFS(root=0)
        with pytest.raises((StorageError, FormatError)):
            GStoreEngine(
                ext, EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024)
            ).run(algo)

    def test_short_read_detected_in_aio(self, tiled_undirected):
        # Short reads are detected centrally by AIOContext.service — a
        # persistently truncated request exhausts the retry budget and
        # surfaces as a typed, context-rich StorageError; the decode layer
        # never sees the bad bytes.
        tg = tiled_undirected
        store = TileStore.from_tiled_graph(tg)
        plan = FaultPlan(  # truncate on every attempt
            events=(
                FaultEvent(FaultKind.SHORT_READ, request=0, drop=1, count=10**6),
            )
        )
        ctx = AIOContext(
            store=store,
            array=Raid0Array(),
            clock=SimClock(),
            injector=FaultInjector(plan),
        )
        pos = next(
            p for p in range(tg.n_tiles) if tg.start_edge.edge_count(p) > 0
        )
        off, size = tg.start_edge.byte_extent(pos)
        with pytest.raises(StorageError) as ei:
            ctx.service([IORequest(off, size, tag=pos)])
        assert ei.value.context["offset"] == off
        assert ei.value.context["tag"] == pos
        assert ei.value.context["attempts"] == ctx.retry.max_attempts

    def test_short_read_recovers_within_budget(self, tiled_undirected):
        # A transiently short read heals on retry; the batch completes with
        # full-size data and the recovery is counted.
        tg = tiled_undirected
        store = TileStore.from_tiled_graph(tg)
        inj = FaultInjector(FaultPlan.parse("short@0:3"))
        ctx = AIOContext(
            store=store,
            array=Raid0Array(),
            clock=SimClock(),
            injector=inj,
        )
        pos = next(
            p for p in range(tg.n_tiles) if tg.start_edge.edge_count(p) > 0
        )
        off, size = tg.start_edge.byte_extent(pos)
        events, t = ctx.service([IORequest(off, size, tag=pos)])
        assert len(events[0].data) == size
        counters = inj.counters()
        assert counters["retry.attempts"] == 1
        assert counters["retry.recovered"] == 1
        assert counters["fault.short"] == 1
        assert t > 0.0


class TestCorruptPayload:
    def test_bitflip_caught_by_fsck(self, tmp_path, small_undirected):
        tg = TiledGraph.from_edge_list(small_undirected, tile_bits=7, group_q=2)
        # Flip a local ID on a diagonal tile to break the upper-triangle
        # invariant.
        for pos in range(tg.n_tiles):
            i, j = int(tg.tile_rows[pos]), int(tg.tile_cols[pos])
            if i == j and tg.start_edge.edge_count(pos) > 0:
                tv = tg.tile_view(pos)
                gsrc, gdst = tv.global_edges()
                strict = gsrc < gdst
                if not strict.any():
                    continue
                k = int(np.nonzero(strict)[0][0])
                lo = int(tg.start_edge.start_edge[pos])
                a = int(tg.payload[2 * (lo + k)])
                b = int(tg.payload[2 * (lo + k) + 1])
                tg.payload[2 * (lo + k)] = b
                tg.payload[2 * (lo + k) + 1] = a
                break
        rep = check_tiled_graph(tg)
        assert not rep.ok

    def test_per_tile_run_rejects_bit_flip_like_fused(self, tiled_undirected):
        # The reference loop verifies through the same batch check as the
        # fused path: the first corrupt tile's context, counted once.
        contexts = []
        for fused in (True, False):
            eng = GStoreEngine(
                tiled_undirected,
                EngineConfig(
                    memory_bytes=64 * 1024, segment_bytes=8 * 1024,
                    faults=FaultPlan.parse("bitflip@0"), prefetch_depth=0,
                    fused=fused,
                ),
            )
            with pytest.raises(ChecksumError) as ei:
                eng.run(BFS(root=0))
            assert eng.injector.counters()["fault.checksum_failures"] == 1
            contexts.append(ei.value.context)
        assert contexts[0] == contexts[1]
        assert set(contexts[0]) == {
            "tile", "i", "j", "offset", "size", "expected", "actual",
        }

    def test_out_of_range_extent_rejected(self, tiled_undirected):
        store = TileStore.from_tiled_graph(tiled_undirected)
        with pytest.raises(StorageError):
            store.read(store.size - 1, 2)


class TestGracefulEmpty:
    def test_empty_graph_runs(self):
        from repro.format.edgelist import EdgeList

        el = EdgeList.from_pairs([], n_vertices=8, directed=False)
        tg = TiledGraph.from_edge_list(el, tile_bits=2, group_q=1)
        algo = BFS(root=0)
        stats = GStoreEngine(
            tg, EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024)
        ).run(algo)
        assert algo.visited_count() == 1
        assert stats.bytes_read == 0

    def test_single_vertex_graph(self):
        from repro.format.edgelist import EdgeList

        el = EdgeList.from_pairs([], n_vertices=1, directed=False)
        tg = TiledGraph.from_edge_list(el, tile_bits=1, group_q=1)
        algo = BFS(root=0)
        GStoreEngine(
            tg, EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024)
        ).run(algo)
        assert algo.result().tolist() == [0]

"""Luby's maximal independent set: independence + maximality properties."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.mis import MaximalIndependentSet, _priorities
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.format.edgelist import EdgeList
from repro.format.tiles import TiledGraph
from repro.storage.file import TileStore


def _run(tg, seed=1):
    algo = MaximalIndependentSet(seed=seed)
    GStoreEngine(
        tg, EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024)
    ).run(algo)
    return algo


def _check_mis(el: EdgeList, mask: np.ndarray):
    g = nx.Graph()
    g.add_nodes_from(range(el.n_vertices))
    canon = el.canonicalized()
    g.add_edges_from(zip(canon.src.tolist(), canon.dst.tolist()))
    members = set(np.nonzero(mask)[0].tolist())
    # Independence: no edge inside the set.
    for u, v in g.edges():
        assert not (u in members and v in members), (u, v)
    # Maximality: every non-member has a member neighbour.
    for v in g.nodes():
        if v not in members:
            assert any(n in members for n in g.neighbors(v)), v


class TestProperties:
    def test_undirected_random(self, small_undirected, tiled_undirected):
        algo = _run(tiled_undirected)
        _check_mis(small_undirected, algo.result())

    def test_directed_treated_undirected(self, small_directed, tiled_directed):
        algo = _run(tiled_directed)
        _check_mis(small_directed, algo.result())

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_different_seeds_all_valid(self, small_undirected, tiled_undirected, seed):
        algo = _run(tiled_undirected, seed=seed)
        _check_mis(small_undirected, algo.result())

    def test_deterministic_per_seed(self, tiled_undirected):
        a = _run(tiled_undirected, seed=3)
        b = _run(tiled_undirected, seed=3)
        assert np.array_equal(a.result(), b.result())


class TestStructured:
    def test_path_graph(self):
        el = EdgeList.from_pairs(
            [(i, i + 1) for i in range(19)], n_vertices=20, directed=False
        )
        tg = TiledGraph.from_edge_list(el, tile_bits=3, group_q=1)
        algo = _run(tg)
        _check_mis(el, algo.result())
        # A maximal independent set of a 20-path has at least 7 vertices.
        assert algo.in_set().shape[0] >= 7

    def test_isolated_vertices_included(self):
        el = EdgeList.from_pairs([(0, 1)], n_vertices=5, directed=False)
        tg = TiledGraph.from_edge_list(el, tile_bits=2, group_q=1)
        algo = _run(tg)
        members = set(algo.in_set().tolist())
        assert {2, 3, 4} <= members

    def test_complete_graph_single_member(self):
        pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        el = EdgeList.from_pairs(pairs, n_vertices=8, directed=False)
        tg = TiledGraph.from_edge_list(el, tile_bits=2, group_q=1)
        algo = _run(tg)
        assert algo.in_set().shape[0] == 1

    def test_converges_in_few_rounds(self, tiled_undirected):
        algo = _run(tiled_undirected)
        # Luby: O(log n) w.h.p.; generous bound.
        assert algo.rounds <= 30


def _reference_luby(tg: TiledGraph, seed: int):
    """Luby's rounds straight off the stored tuples: compete, then knock
    the winners' neighbours out — (membership mask, rounds)."""
    el = tg.to_edge_list()
    s, d = el.src.astype(np.int64), el.dst.astype(np.int64)
    n = tg.n_vertices
    undecided = np.bincount(np.concatenate([s, d]), minlength=n) > 0
    in_set = ~undecided
    rounds = 0
    while undecided.any():
        prio = _priorities(seed, rounds, n)
        live = undecided[s] & undecided[d]
        ls, ld = s[live], d[live]
        s_loses = (prio[ls] < prio[ld]) | ((prio[ls] == prio[ld]) & (ls < ld))
        beaten = np.zeros(n, dtype=bool)
        beaten[ls[s_loses]] = True
        beaten[ld[~s_loses]] = True
        winners = undecided & ~beaten
        in_set |= winners
        undecided &= ~winners
        undecided[d[winners[s]]] = False
        undecided[s[winners[d]]] = False
        rounds += 1
    return in_set, rounds


class TestOnEngineKnockout:
    """The knockout is an engine sweep: same sets as scanning the stored
    tuples, and nothing read behind the engine's back."""

    @pytest.mark.parametrize("kind", ["undirected", "directed"])
    @pytest.mark.parametrize("selective", [True, False])
    @pytest.mark.parametrize("n_cpus", [1, 4])
    def test_sets_and_rounds_match_reference(
        self, tiled_undirected, tiled_directed, kind, selective, n_cpus, cpus
    ):
        """On an engine that sees one CPU or four: MIS does not declare
        the kernel pool (it falls short of the 1.15x rule), so it runs
        serial and answers the same either way."""
        tg = tiled_undirected if kind == "undirected" else tiled_directed
        cpus(n_cpus)
        # Small cache pool: the knock sweeps rewind, evict and re-fetch;
        # dense sweeps also read the tiles no undecided vertex touches.
        cfg = EngineConfig(
            memory_bytes=24 * 1024, segment_bytes=4 * 1024,
            selective=selective,
        )
        for seed in (1, 7):
            algo = MaximalIndependentSet(seed=seed)
            with GStoreEngine(tg, cfg) as engine:
                stats = engine.run(algo)
                assert engine._pool is None
            assert stats.extra["execution"]["kernel_threads"] == 1
            expect, rounds = _reference_luby(tg, seed)
            assert np.array_equal(algo.result(), expect), seed
            assert algo.rounds == rounds
            assert len(stats.iterations) == 2 * rounds  # compete + knock

    @pytest.mark.parametrize("selective", [True, False])
    def test_self_loops_are_not_neighbours(self, small_directed, selective):
        """A stored self-loop used to beat its own vertex every round,
        leaving it to the no-winner stop; it competes with nobody now, so
        the set is the loop-free graph's."""
        plain = small_directed
        loops = np.arange(0, plain.n_vertices, 7, dtype=np.uint32)
        looped = EdgeList(
            np.concatenate([plain.src, loops]),
            np.concatenate([plain.dst, loops]),
            plain.n_vertices, directed=True,
        )
        cfg = EngineConfig(
            memory_bytes=24 * 1024, segment_bytes=4 * 1024,
            selective=selective,
        )
        reference = TiledGraph.from_edge_list(plain, tile_bits=7, group_q=2)
        tg = TiledGraph.from_edge_list(looped, tile_bits=7, group_q=2)
        assert tg.n_edges == reference.n_edges + loops.shape[0]
        for seed in (1, 7):
            algo = MaximalIndependentSet(seed=seed)
            with GStoreEngine(tg, cfg) as engine:
                engine.run(algo)
            expect, rounds = _reference_luby(reference, seed)
            assert np.array_equal(algo.result(), expect), seed
            assert algo.rounds == rounds
            assert not (algo.state == 0).any()  # every vertex decided

    @pytest.mark.parametrize("kind", ["undirected", "directed"])
    def test_every_byte_touched_is_charged(
        self, tiled_undirected, tiled_directed, kind, monkeypatch
    ):
        tg = tiled_undirected if kind == "undirected" else tiled_directed
        touched = {"stores": 0, "bytes": 0, "walks": 0}
        from_graph = TileStore.from_tiled_graph.__func__
        read, gather = TileStore.read, TileStore.gather

        def counting_store(cls, graph):
            touched["stores"] += 1
            return from_graph(cls, graph)

        def counting_read(self, offset, size):
            touched["bytes"] += size
            return read(self, offset, size)

        def counting_gather(self, offsets, sizes):
            touched["bytes"] += int(sizes.sum())
            return gather(self, offsets, sizes)

        def counting_walk(self, *args, **kwargs):
            touched["walks"] += 1
            return iter(())

        monkeypatch.setattr(
            TileStore, "from_tiled_graph", classmethod(counting_store)
        )
        monkeypatch.setattr(TileStore, "read", counting_read)
        monkeypatch.setattr(TileStore, "gather", counting_gather)
        monkeypatch.setattr(TiledGraph, "scan", counting_walk)
        algo = MaximalIndependentSet(seed=3)
        cfg = EngineConfig(
            memory_bytes=24 * 1024, segment_bytes=4 * 1024, prefetch_depth=0
        )
        with GStoreEngine(tg, cfg) as engine:
            stats = engine.run(algo)
        assert algo.rounds >= 2
        assert touched["walks"] == 0  # no off-engine scan of the payload
        assert touched["stores"] == 1  # the engine's, and no other
        # Slide batches are read once and charged; a rewind re-reads (for
        # free: the pool paid) at most what it reports as served.
        assert stats.bytes_read <= touched["bytes"]
        assert touched["bytes"] <= stats.bytes_read + stats.bytes_from_cache

    def test_non_resident_graph(self, tiled_undirected, tmp_path):
        ext = TiledGraph.load(
            tiled_undirected.save(tmp_path / "g"), resident=False
        )
        assert ext.payload is None
        assert np.array_equal(
            _run(ext, seed=5).result(), _run(tiled_undirected, seed=5).result()
        )

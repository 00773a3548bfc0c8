"""Strongly connected components via FW-BW-Trim, against networkx."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.scc import SCCDriver
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.errors import AlgorithmError
from repro.format.edgelist import EdgeList
from repro.format.tiles import TiledGraph


_CFG = EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024)


def _scc(el, tile_bits=5, trim=True):
    tg = TiledGraph.from_edge_list(el, tile_bits=tile_bits, group_q=2)
    with GStoreEngine(tg, _CFG) as engine:
        return SCCDriver(engine).run(trim=trim)


def _check_against_nx(el, result):
    g = nx.DiGraph()
    g.add_nodes_from(range(el.n_vertices))
    g.add_edges_from(zip(el.src.tolist(), el.dst.tolist()))
    expect = list(nx.strongly_connected_components(g))
    assert result.n_components == len(expect)
    seen = set()
    for comp in expect:
        labels = {int(result.labels[v]) for v in comp}
        assert len(labels) == 1
        label = labels.pop()
        assert label not in seen
        seen.add(label)


class TestKnownGraphs:
    def test_two_cycles_and_bridge(self):
        el = EdgeList.from_pairs(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)],
            n_vertices=5,
            directed=True,
        )
        res = _scc(el)
        _check_against_nx(el, res)
        assert res.n_components == 2

    def test_dag_all_singletons(self):
        el = EdgeList.from_pairs(
            [(0, 1), (1, 2), (0, 2), (2, 3)], n_vertices=4, directed=True
        )
        res = _scc(el)
        assert res.n_components == 4
        assert res.trimmed >= 3  # trimming should peel most of a DAG

    def test_single_giant_cycle(self):
        n = 40
        el = EdgeList.from_pairs(
            [(i, (i + 1) % n) for i in range(n)], n_vertices=n, directed=True
        )
        res = _scc(el)
        assert res.n_components == 1
        assert res.pivot_rounds == 1

    def test_random_graph(self, small_directed):
        res = _scc(small_directed, tile_bits=7)
        _check_against_nx(small_directed, res)

    def test_without_trim_same_result(self):
        el = EdgeList.from_pairs(
            [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)], n_vertices=4, directed=True
        )
        with_trim = _scc(el, trim=True)
        without = _scc(el, trim=False)
        assert with_trim.n_components == without.n_components == 2
        # Trim saves reachability sweeps on graphs with tendrils.
        assert with_trim.pivot_rounds <= without.pivot_rounds


class TestProperties:
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 60),
           m=st.integers(0, 150))
    @settings(max_examples=15, deadline=None)
    def test_random_vs_networkx(self, seed, n, m):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, n, m).astype(np.uint32)
        dst = rng.integers(0, n, m).astype(np.uint32)
        el = EdgeList(src, dst, n, directed=True).deduped().without_self_loops()
        res = _scc(el, tile_bits=4)
        _check_against_nx(el, res)


class TestValidation:
    def test_undirected_rejected(self, tiled_undirected):
        with GStoreEngine(tiled_undirected, _CFG) as engine:
            with pytest.raises(AlgorithmError):
                SCCDriver(engine)

    def test_stats_collected(self, small_directed):
        res = _scc(small_directed, tile_bits=7)
        assert res.reachability_stats
        assert all(s.sim_elapsed >= 0 for s in res.reachability_stats)
        assert res.component_sizes().sum() == small_directed.n_vertices


class TestNonResident:
    def test_reloaded_graph_labels_like_resident_and_scipy(self, tmp_path):
        """A semi-external store is for graphs whose payload is not in
        memory: every trim pass and reachability sweep goes through the
        engine, so the decomposition never asks for a resident payload."""
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        from repro.graphgen.rmat import rmat

        el = rmat(8, edge_factor=4, seed=9, directed=True).without_self_loops()
        tg = TiledGraph.from_edge_list(el, tile_bits=5, group_q=2)
        ext = TiledGraph.load(tg.save(tmp_path / "g"), resident=False)
        assert ext.payload is None
        with GStoreEngine(tg, _CFG) as engine:
            resident = SCCDriver(engine).run()
        with GStoreEngine(ext, _CFG) as engine:
            external = SCCDriver(engine).run()
        assert np.array_equal(resident.labels, external.labels)
        assert external.trimmed == resident.trimmed > 0
        # The trim passes are engine runs, charged like the sweeps.
        assert len(external.trim_stats) >= 2
        assert all(s.bytes_read > 0 for s in external.trim_stats)

        n = el.n_vertices
        adj = coo_matrix(
            (np.ones(len(el.src)), (el.src, el.dst)), shape=(n, n)
        )
        n_comp, expect = connected_components(adj, connection="strong")
        assert external.n_components == n_comp
        # Same partition: labels map one to one.
        pairs = set(zip(external.labels.tolist(), expect.tolist()))
        assert len(pairs) == n_comp

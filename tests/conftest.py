"""Shared fixtures: deterministic small graphs in several representations."""

from __future__ import annotations

import gc
import os
import threading

import numpy as np
import pytest

os.environ.setdefault("REPRO_SCALE", "tiny")

from repro.engine.config import EngineConfig
from repro.format.edgelist import EdgeList
from repro.format.tiles import TiledGraph
from repro.graphgen.kronecker import kronecker
from repro.runtime import threads
from repro.runtime.prefetch import PREFETCH_THREAD_NAME
from repro.runtime.threads import WORKER_THREAD_PREFIX
from tests import shard_floor
from tools import equiv_matrix


@pytest.fixture(scope="module", autouse=True)
def no_leaked_batch_sources():
    """Suite-wide leak oracle for the engine's threads.

    After every test module: no prefetch thread and no kernel pool thread
    left alive — so a source or an engine that some exception path
    forgets to close fails tier-1 wherever it happens, not only in the
    tests that think to look.
    """
    yield
    gc.collect()  # engines dropped without close() release in __del__
    leaked = [
        t.name for t in threading.enumerate()
        if t.name.startswith((PREFETCH_THREAD_NAME, WORKER_THREAD_PREFIX))
    ]
    assert not leaked, f"left alive after this module: {leaked}"


@pytest.fixture()
def low_shard_floor():
    """Lower ``MIN_SHARD_EDGES`` to the floor the equivalence lattice runs
    at, so the small test graphs' batches still cut into several
    shards."""
    with shard_floor.lowered() as floor:
        yield floor


@pytest.fixture()
def cpus(monkeypatch):
    """``cpus(n)``: engines built afterwards see ``n`` CPUs — the one
    input the kernel pool's size is resolved from
    (``repro.runtime.threads.available_cpus``)."""

    def set_cpus(n: int) -> None:
        monkeypatch.setattr(threads, "available_cpus", lambda: n)

    return set_cpus


@pytest.fixture(scope="session")
def lattice():
    """``tools/equiv_matrix.py``'s enumeration, run once per session:
    ``(records by key, result arrays by digest)``."""
    records, answers = {}, {}
    for key, rec, answer in equiv_matrix.enumerate_records():
        records[key] = rec
        answers.setdefault(rec["result"], answer)
    return records, answers


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_undirected() -> EdgeList:
    """A connected-ish undirected random graph, 600 vertices."""
    r = np.random.default_rng(7)
    v = 600
    m = 3000
    src = r.integers(0, v, m).astype(np.uint32)
    dst = r.integers(0, v, m).astype(np.uint32)
    # A ring keeps the graph connected so BFS reaches everything.
    ring_src = np.arange(v, dtype=np.uint32)
    ring_dst = np.roll(ring_src, -1)
    return EdgeList(
        np.concatenate([src, ring_src]),
        np.concatenate([dst, ring_dst]),
        v,
        directed=False,
        name="small-undirected",
    )


@pytest.fixture(scope="session")
def small_directed() -> EdgeList:
    """A directed random graph with self-loops removed, 500 vertices."""
    r = np.random.default_rng(11)
    v = 500
    m = 4000
    src = r.integers(0, v, m).astype(np.uint32)
    dst = r.integers(0, v, m).astype(np.uint32)
    el = EdgeList(src, dst, v, directed=True, name="small-directed")
    return el.deduped().without_self_loops()


@pytest.fixture(scope="session")
def kron_small() -> EdgeList:
    """A Graph500 Kronecker graph (undirected, 4096 vertices)."""
    return kronecker(12, edge_factor=8, seed=21)


@pytest.fixture(scope="session")
def tiled_undirected(small_undirected) -> TiledGraph:
    return TiledGraph.from_edge_list(small_undirected, tile_bits=7, group_q=2)


@pytest.fixture(scope="session")
def tiled_directed(small_directed) -> TiledGraph:
    return TiledGraph.from_edge_list(small_directed, tile_bits=7, group_q=2)


@pytest.fixture()
def engine_config() -> EngineConfig:
    """A small semi-external configuration exercising eviction paths."""
    return EngineConfig(memory_bytes=64 * 1024, segment_bytes=8 * 1024)


@pytest.fixture(scope="session")
def nx_undirected(small_undirected):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(small_undirected.n_vertices))
    canon = small_undirected.canonicalized()
    g.add_edges_from(zip(canon.src.tolist(), canon.dst.tolist()))
    return g


@pytest.fixture(scope="session")
def nx_directed(small_directed):
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(small_directed.n_vertices))
    g.add_edges_from(
        zip(small_directed.src.tolist(), small_directed.dst.tolist())
    )
    return g

"""Shared fixtures: deterministic small graphs in several representations."""

from __future__ import annotations

import gc
import multiprocessing
import os
import threading

import numpy as np
import pytest

os.environ.setdefault("REPRO_SCALE", "tiny")

import repro.runtime.shard
import repro.types
from repro.engine.config import EngineConfig
from repro.format.edgelist import EdgeList
from repro.format.tiles import TiledGraph
from repro.graphgen.kronecker import kronecker
from repro.runtime.prefetch import PREFETCH_THREAD_NAME
from repro.runtime.shard import SHARD_WORKER_PREFIX
from repro.runtime.shm import LIVE_SHM_SEGMENTS
from tests import shard_floor


@pytest.fixture(scope="module", autouse=True)
def no_leaked_batch_sources():
    """Suite-wide leak oracle for the batch sources' close/degrade paths.

    After every test module: no prefetch thread, no shard worker process,
    no shared-memory segment left alive — so a source that some exception
    path forgets to close fails tier-1 wherever it happens, not only in
    the tests that think to look.
    """
    yield
    gc.collect()  # engines dropped without close() release in __del__
    leaked = [
        t.name for t in threading.enumerate()
        if t.name.startswith(PREFETCH_THREAD_NAME)
    ] + [
        p.name for p in multiprocessing.active_children()
        if p.name.startswith(SHARD_WORKER_PREFIX)
    ] + sorted(LIVE_SHM_SEGMENTS)
    assert not leaked, f"left alive after this module: {leaked}"


@pytest.fixture()
def low_shard_floor(monkeypatch) -> int:
    """Lower ``MIN_SHARD_EDGES`` — here and in every shard worker spawned
    meanwhile — so the small test graphs' batches still cut into several
    shards: the equivalence matrices are about multi-shard batches."""
    monkeypatch.setattr(repro.types, "MIN_SHARD_EDGES", shard_floor.LOW_FLOOR)
    monkeypatch.setattr(
        repro.runtime.shard, "_shard_worker_main", shard_floor.worker_main
    )
    return shard_floor.LOW_FLOOR


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

"""The layer table (``RunStats.extra["layers"]``): where a traced run's wall
time went, one row per layer, filled by laps at the engine's seams, on
the engine thread."""

import json

import numpy as np
import pytest

from repro.algorithms.bfs import BFS
from repro.algorithms.multibfs import MultiSourceBFS
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.engine.config import EngineConfig
from repro.engine.gstore import GStoreEngine
from repro.engine.stats import LAYERS, LayerClock
from repro.format.tiles import TiledGraph
from repro.graphgen.rmat import rmat
from repro.serve import QueryService, ServiceConfig
from repro.serve.queries import BFSQuery, NeighborhoodQuery

#: The six benchmark workloads' shapes at their smoke geometries
#: (``benchmarks/perf/spec.py``): R-MAT scale, edge factor, tile bits,
#: memory as a multiple of the payload, and the algorithm ("scan" is the
#: ingest workload's one-iteration PageRank; "serve" runs its queries
#: in private contexts).
SHAPES = {
    "ingest": (12, 8, 8, 0.25, "scan"),
    "pr_stream": (12, 8, 8, 0.25, "pagerank"),
    "pr_resident": (12, 8, 8, 2.0, "pagerank"),
    "bfs_sparse": (12, 8, 6, 0.25, "bfs"),
    "sssp_pertile": (11, 8, 6, 0.25, "sssp"),
    "serve_mix": (10, 16, 7, 0.25, "serve"),
}


def _engine(scale, edge_factor, tile_bits, mem_factor):
    el = rmat(scale, edge_factor=edge_factor, seed=42)
    g = TiledGraph.from_edge_list(el, tile_bits=tile_bits, group_q=8)
    payload = g.storage_bytes()
    segment = max(payload // 16, 4096)
    cfg = EngineConfig(
        memory_bytes=max(int(payload * mem_factor), 2 * segment),
        segment_bytes=segment, prefetch_depth=0, trace=True,
    )
    deg = np.bincount(el.src, minlength=el.n_vertices)
    deg += np.bincount(el.dst, minlength=el.n_vertices)
    return GStoreEngine(g, cfg), int(np.argmax(deg))


def _in_run(layers):
    """The rows that lie inside ``wall_seconds``, unattributed left out."""
    return sum(v for k, v in layers.items()
               if k not in ("lane_wait", "unattributed"))


@pytest.mark.parametrize("shape", list(SHAPES))
def test_rows_sum_to_wall_seconds_at_depth_zero(shape):
    """At prefetch depth 0 the rows but ``lane_wait`` cover the run: they
    sum to ``wall_seconds`` within 2 %, none is negative, and with
    ``unattributed`` they sum to it exactly."""
    *geometry, algo = SHAPES[shape]
    engine, root = _engine(*geometry)
    make = {
        "scan": lambda: PageRank(max_iterations=1, tolerance=0.0),
        "pagerank": lambda: PageRank(max_iterations=10, tolerance=0.0),
        "bfs": lambda: BFS(root=root),
        "sssp": lambda: SSSP(root=root),
        "serve": lambda: BFS(root=root),
    }[algo]
    with engine:
        for _ in range(3):
            ctx = engine.query_context(trace=True) if algo == "serve" else None
            stats = engine.run(make(), context=ctx)
            layers = stats.extra["layers"]
            wall = stats.wall_seconds
            assert list(layers) == list(LAYERS)
            assert min(layers.values()) >= 0.0, layers
            assert abs(_in_run(layers) - wall) <= 0.02 * wall, layers
            assert _in_run(layers) + layers["unattributed"] == pytest.approx(
                wall, rel=1e-9
            )
            assert layers["lane_wait"] == (
                ctx.lane_wait if ctx is not None else 0.0
            )


def test_rows_name_the_work_they_time():
    """A PageRank that caches part of the graph at depth 0 spends time in
    every layer of a rewind and a slide; its scatter kernel's work is all
    commit."""
    engine, _ = _engine(11, 8, 7, 0.75)
    with engine:
        stats = engine.run(PageRank(max_iterations=5))
    layers = stats.extra["layers"]
    assert stats.tiles_from_cache and stats.tiles_fetched
    for row in ("select_plan", "fetch", "verify_decode", "rewind_decode",
                "apply", "scr_offer", "scr_analysis", "hooks"):
        assert layers[row] > 0.0, row
    assert layers["apply"] > layers["kernel"]


def test_prefetched_batches_show_as_stall():
    """With a prefetch thread the preparation is off the engine thread:
    the table keeps only the engine thread's time, so it still partitions
    ``wall_seconds``."""
    engine, _ = _engine(10, 8, 7, 0.25)
    engine.config.prefetch_depth = 2
    with engine:
        stats = engine.run(PageRank(max_iterations=3))
    layers = stats.extra["layers"]
    assert layers["verify_decode"] == 0.0
    assert _in_run(layers) + layers["unattributed"] == pytest.approx(
        stats.wall_seconds, rel=1e-9
    )
    assert layers["unattributed"] >= 0.0


def test_pooled_kernel_laps_on_the_engine_thread(cpus):
    cpus(2)
    engine, _ = _engine(10, 8, 7, 0.25)
    with engine:
        stats = engine.run(MultiSourceBFS(roots=[0, 1, 2, 3]))
    assert stats.extra["execution"]["kernel_threads"] == 2
    layers = stats.extra["layers"]
    assert layers["kernel"] > 0.0 and layers["apply"] > 0.0
    assert layers["unattributed"] >= 0.0


def test_lap_moves_a_prepared_batchs_fetch_and_decode():
    clock = LayerClock()
    clock.lap("stall")
    before = dict(clock.rows)
    clock.lap("stall", 1.0, 2.0)
    assert clock.rows["fetch"] == before["fetch"] + 1.0
    assert clock.rows["verify_decode"] == before["verify_decode"] + 2.0
    assert clock.rows["stall"] < before["stall"] - 2.9
    table = clock.close(wall=10.0, lane_wait=0.5)
    assert table["lane_wait"] == 0.5
    assert _in_run(table) + table["unattributed"] == pytest.approx(10.0)


def test_untraced_runs_keep_no_table():
    engine, _ = _engine(9, 8, 7, 0.25)
    engine.config.trace = False
    with engine:
        ctx = engine.query_context()
        stats = engine.run(PageRank(max_iterations=2), context=ctx)
    assert "layers" not in stats.extra and ctx.layers.rows is None


def test_query_result_carries_its_runs_table():
    engine, root = _engine(9, 8, 7, 0.25)
    cfg = ServiceConfig(workers=1, trace_queries=True)
    with engine, QueryService(engine, cfg) as svc:
        ran = svc.execute(BFSQuery(root=root))
        assert list(ran.layers) == list(LAYERS)
        assert ran.layers["lane_wait"] <= ran.queue_seconds
        assert _in_run(ran.layers) <= ran.wall_seconds
        assert svc.execute(BFSQuery(root=root)).layers is None  # cache hit
        assert svc.execute(NeighborhoodQuery(vertex=root)).layers is None


def test_profile_cli_prints_the_table(capsys):
    from repro.cli import main

    assert main(["profile", "pagerank", "--rmat-scale", "8"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    table = json.loads(out[-1])
    assert list(table["layers"]) == list(LAYERS)
    assert sum(table["layers"].values()) == pytest.approx(
        table["wall_seconds"], rel=1e-9
    )
    assert any(line.startswith("apply") for line in out)

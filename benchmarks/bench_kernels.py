"""Micro-benchmarks of the hot kernels (pytest-benchmark timing targets).

These are the pieces profiling identifies as the inner loops: the one
decode step every engine byte goes through (``TiledGraph.decode_extents``:
SNB locals to global IDs), the per-tile BFS and PageRank kernels, the
two-pass tile conversion and the CSR conversion it is compared with in
Table I.  They give wall-clock throughput numbers for
this Python implementation (the simulated timeline is calibrated
separately).
"""

import numpy as np

from repro.algorithms.bfs import BFS
from repro.algorithms.pagerank import PageRank
from repro.bench.harness import graphs
from repro.format.convert import convert_to_csr
from repro.format.tiles import TiledGraph


def _biggest_tile(tg: TiledGraph):
    counts = tg.tile_edge_counts()
    return tg.tile_view(int(counts.argmax()))


def test_kernel_decode_extents(benchmark):
    tg = graphs().tiled("kron-small-16")
    data = memoryview(tg.payload.view(np.uint8))
    bounds = tg.grouping.group_bounds().tolist()
    runs = []
    for lo, hi in zip(bounds, bounds[1:]):
        off, size = tg.start_edge.run_byte_extent(lo, hi - 1)
        if size:
            runs.append((list(range(lo, hi)), data[off : off + size]))
    views = benchmark(tg.decode_extents, runs)
    assert sum(v.n_edges for v in views) == tg.n_edges
    benchmark.extra_info["edges_per_call"] = tg.n_edges


def test_kernel_bfs_tile(benchmark):
    tg = graphs().tiled("kron-small-16")
    tv = _biggest_tile(tg)
    algo = BFS(root=0)
    algo.setup(tg)

    def run():
        algo.depth[:] = np.iinfo(np.uint32).max
        algo.depth[0] = 0
        algo.level = 0
        return algo.process_tile(tv)

    edges = benchmark(run)
    benchmark.extra_info["edges_per_call"] = edges


def test_kernel_pagerank_tile(benchmark):
    tg = graphs().tiled("kron-small-16")
    tv = _biggest_tile(tg)
    algo = PageRank()
    algo.setup(tg)
    algo.begin_iteration(0)
    edges = benchmark(algo.process_tile, tv)
    benchmark.extra_info["edges_per_call"] = edges


def test_kernel_tile_build(benchmark):
    el = graphs().edge_list("kron-small-16")
    tg = benchmark(TiledGraph.from_edge_list, el, 11, 8)
    assert tg.n_edges > 0


def test_kernel_csr_build(benchmark):
    el = graphs().edge_list("kron-small-16")
    csr, _ = benchmark(convert_to_csr, el)
    assert csr.n_edges == 2 * el.canonicalized().n_edges

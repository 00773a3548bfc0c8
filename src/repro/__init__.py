"""G-Store reproduction: a high-performance graph store for trillion-edge
processing (Kumar & Huang, SC 2016), rebuilt in Python.

Quickstart::

    from repro import kronecker, TiledGraph, GStoreEngine, EngineConfig, BFS

    el = kronecker(scale=16, edge_factor=16, seed=1)
    graph = TiledGraph.from_edge_list(el, tile_bits=10, group_q=8)
    engine = GStoreEngine(graph, EngineConfig())
    bfs = BFS(root=0)
    stats = engine.run(bfs)
    print(stats.summary())
    depths = bfs.result()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.algorithms import (
    BFS,
    ConnectedComponents,
    KCore,
    MultiSourceBFS,
    PageRank,
    Reachability,
    SCCDriver,
    SpMV,
    SSSP,
)
from repro.algorithms.async_bfs import AsyncBFS
from repro.baselines import FlashGraphEngine, GridGraphEngine, XStreamEngine
from repro.engine import EngineConfig, GStoreEngine, RunStats
from repro.format import (
    CompressedDegreeArray,
    CSRGraph,
    EdgeList,
    GraphInfo,
    Partitioned2D,
    PhysicalGrouping,
    StartEdgeIndex,
    TiledGraph,
    TileView,
    format_sizes,
)
from repro.graphgen import (
    dataset_names,
    kronecker,
    load_dataset,
    powerlaw_directed,
    rmat,
    uniform_random,
)
from repro.memory import CachePolicy
from repro.runtime import CostModel
from repro.storage import DeviceProfile, Raid0Array, SimulatedSSD

__version__ = "1.0.0"

__all__ = [
    # formats
    "EdgeList",
    "CSRGraph",
    "Partitioned2D",
    "TiledGraph",
    "TileView",
    "GraphInfo",
    "StartEdgeIndex",
    "PhysicalGrouping",
    "CompressedDegreeArray",
    "format_sizes",
    # engine
    "GStoreEngine",
    "EngineConfig",
    "RunStats",
    "CachePolicy",
    "CostModel",
    # algorithms
    "BFS",
    "AsyncBFS",
    "PageRank",
    "ConnectedComponents",
    "KCore",
    "MultiSourceBFS",
    "Reachability",
    "SCCDriver",
    "SSSP",
    "SpMV",
    # baselines
    "XStreamEngine",
    "FlashGraphEngine",
    "GridGraphEngine",
    # storage
    "DeviceProfile",
    "SimulatedSSD",
    "Raid0Array",
    # generators
    "kronecker",
    "rmat",
    "uniform_random",
    "powerlaw_directed",
    "load_dataset",
    "dataset_names",
    "__version__",
]

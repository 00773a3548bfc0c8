"""Benchmark harness: graph build cache, table rendering, per-figure runners.

Every table and figure of the paper's evaluation has a function in
:mod:`repro.bench.experiments` that regenerates it and a verdict that
checks its paper claims; ``python -m repro bench`` runs them all.
"""

from repro.bench.harness import GraphCache, graphs, scaled_baseline_config, scaled_config
from repro.bench.tables import Table

__all__ = [
    "Table",
    "GraphCache",
    "graphs",
    "scaled_config",
    "scaled_baseline_config",
]

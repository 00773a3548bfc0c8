"""Execution runtime: compute cost model, pipelined timeline, and the
in-process mechanisms that run alongside the engine thread — the kernel
thread pool, the prefetch thread and the engine lane."""

from repro.runtime.cost import CostModel
from repro.runtime.pipeline import PipelineTimeline

__all__ = ["CostModel", "PipelineTimeline"]

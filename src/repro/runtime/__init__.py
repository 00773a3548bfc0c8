"""Execution runtime: compute cost model, pipelined timeline, and the
thread / prefetch / shared-memory / shard-process / engine-lane
mechanisms."""

from repro.runtime.cost import CostModel
from repro.runtime.pipeline import PipelineTimeline

__all__ = ["CostModel", "PipelineTimeline"]

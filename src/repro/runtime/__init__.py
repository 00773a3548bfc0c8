"""Execution runtime: compute cost model, pipelined timeline, and the
thread / prefetch / shared-memory / shard-process / engine-lane
mechanisms."""

from repro.runtime.calibrate import CalibrationResult, calibrate_cost_model
from repro.runtime.cost import CostModel
from repro.runtime.pipeline import PipelineTimeline

__all__ = [
    "CostModel",
    "PipelineTimeline",
    "calibrate_cost_model",
    "CalibrationResult",
]

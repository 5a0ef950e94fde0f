"""Performance modeling: machine description, analytical model, trace sim."""

from .analytical import StatementCost, TimeEstimate, estimate, estimate_cached
from .loopview import LoopInfo, LoopView, build_view, estimate_guard_fraction
from .model import DEFAULT_MACHINE, MachineModel
from .tracesim import LineCache, TraceResult, simulate_trace

__all__ = [
    "StatementCost", "TimeEstimate", "estimate", "estimate_cached",
    "LoopInfo", "LoopView", "build_view", "estimate_guard_fraction",
    "DEFAULT_MACHINE", "MachineModel",
    "LineCache", "TraceResult", "simulate_trace",
]

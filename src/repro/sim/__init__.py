"""Simulation engines: logic, intermittent execution.

The intermittent executor realizes the paper's Section IV-C evaluation
harness (identical macro task per scheme, backup/restore charged at NVM
prices); the logic simulator backs functional validation.
"""

from repro.sim.intermittent import (
    ExecutionResult,
    IntermittentExecutor,
    SchemeProfile,
    TraceTooWeakError,
)
from repro.sim.logic_sim import LogicSimulator, SimulationError
from repro.sim.power_sim import EnergyBreakdown, breakdown

__all__ = [
    "EnergyBreakdown",
    "ExecutionResult",
    "IntermittentExecutor",
    "LogicSimulator",
    "SchemeProfile",
    "SimulationError",
    "TraceTooWeakError",
    "breakdown",
]

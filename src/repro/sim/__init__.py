"""Simulators for machine-level dataflow programs.

* :mod:`repro.sim.sync` -- the unit-delay ("instruction time")
  simulator whose timing the paper's rate arguments assume;
* :mod:`repro.sim.trace` -- trace/utilization reporting.

Runs go through :func:`repro.run` (``backend="sync"``).  The
event-driven machine-level model (processing elements, function
units, array memories, routing networks) lives in :mod:`repro.machine`.
"""

from .sync import SimStats, SinkRecord, SyncSimulator
from .trace import (
    count_stage_depth,
    format_trace,
    occupancy_snapshot,
    utilization_report,
)

__all__ = [
    "SimStats",
    "SinkRecord",
    "SyncSimulator",
    "count_stage_depth",
    "format_trace",
    "occupancy_snapshot",
    "utilization_report",
]

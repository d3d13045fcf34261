"""Scale-out sweep engine: parallel scenario x seed x parameter campaigns.

The ICDCS'19 evaluation is a grid -- every DAP crossed with object sizes,
client counts and fault cadences.  This package expands a declarative
:class:`~repro.sweep.grid.SweepGrid` into run specs, fans them out over a
process pool (:func:`~repro.sweep.engine.campaign`), and aggregates compact
per-run records into a :class:`~repro.sweep.result.SweepResult`.  The CLI::

    PYTHONPATH=src python -m repro.sweep --grid "scenarios=all;seeds=0..3" --jobs 4

runs a campaign, prints the pass/fail matrix and can gate on serial-vs-
parallel signature equality (``--check-serial``).
"""

from repro.sweep.adaptive import AdaptiveCampaign, FrontierResult, bisect_axis
from repro.sweep.engine import campaign, execute_run
from repro.sweep.grid import (GRID_PARAM_FIELDS, RunSpec, SCENARIO_PARAM_FIELDS,
                              SweepGrid, WORKLOAD_PARAM_FIELDS,
                              parse_grid, parse_seeds, resolve_scenarios)
from repro.sweep.result import RunRecord, SweepResult, latency_summary

__all__ = [
    "AdaptiveCampaign",
    "FrontierResult",
    "GRID_PARAM_FIELDS",
    "RunRecord",
    "RunSpec",
    "SCENARIO_PARAM_FIELDS",
    "SweepGrid",
    "SweepResult",
    "WORKLOAD_PARAM_FIELDS",
    "bisect_axis",
    "campaign",
    "execute_run",
    "latency_summary",
    "parse_grid",
    "parse_seeds",
    "resolve_scenarios",
]

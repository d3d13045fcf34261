"""Chaos/adversary subsystem: scripted fault schedules for ARES executions.

The paper's central claim is that atomicity and liveness survive crashes,
asynchrony and concurrent reconfiguration.  This package turns that claim
into an executable adversary: composable fault injectors driven by a
declarative schedule DSL, hooked into the simulator's event queue and the
network's delivery pipeline, so that every DAP, erasure code and
reconfiguration policy can be stress-tested under identical, reproducible
fault sequences.

The three layers:

* :mod:`repro.chaos.faults`   -- the faults.  Point faults
  (:class:`Crash`, :class:`Restart`, :class:`Heal`, and the scripted
  :class:`Reconfigure` action, which fires a live migration from a
  schedule so reconfigurations interleave with faults at exact times), and
  window faults: one link matcher, :class:`Links`, and the effects over it
  (:class:`Cut`, :class:`Lossy`, :class:`Slow`, :class:`Refuse`, plus
  :class:`Duplicate`).  The vocabulary scenarios use is one constructor
  per name on top of them: :func:`Partition`, :func:`Isolate`,
  :func:`Drop`, :func:`Reorder`, :func:`LatencySpike`,
  :func:`SlowServer`, :func:`CpuPressure`, :func:`MemoryPressure` and
  :func:`DiskFull`.
* :mod:`repro.chaos.schedule` -- the schedule DSL (:class:`At`,
  :class:`During`, :class:`Stochastic`, :class:`Schedule`).
* :mod:`repro.chaos.engine`   -- :class:`ChaosEngine`, which resolves
  process names, arms schedules on the simulator and keeps a deterministic
  log of every injected fault.

A schedule reads like the experiment section of a paper::

    Schedule([
        At(50, Crash("s3")),
        During(100, 200, Partition({"s1", "s2"}, {"s3", "s4", "s5"})),
        During(120, 260, SlowServer("s4", factor=5.0)),
        At(300, Restart("s3")),
    ])

and is armed with ``ChaosEngine(deployment.network).inject(schedule)``.
Named, seed-deterministic scenarios that cross-product DAPs with fault
schedules live in :mod:`repro.workloads.scenarios`.
"""

from repro.chaos.engine import ChaosEngine
from repro.chaos.faults import (
    CpuPressure,
    Crash,
    Cut,
    DiskFull,
    Drop,
    Duplicate,
    Fault,
    Heal,
    Isolate,
    LatencySpike,
    Links,
    Lossy,
    MemoryPressure,
    Partition,
    Reconfigure,
    Refuse,
    Reorder,
    Restart,
    Slow,
    SlowServer,
)
from repro.chaos.schedule import At, During, Schedule, Stochastic

__all__ = [
    "ChaosEngine",
    "Fault",
    "Crash",
    "Restart",
    "Partition",
    "Isolate",
    "Heal",
    "Links",
    "Cut",
    "Lossy",
    "Slow",
    "Refuse",
    "Drop",
    "Duplicate",
    "Reconfigure",
    "Reorder",
    "LatencySpike",
    "SlowServer",
    "CpuPressure",
    "MemoryPressure",
    "DiskFull",
    "At",
    "During",
    "Stochastic",
    "Schedule",
]

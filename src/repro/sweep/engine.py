"""The campaign engine: run and verify sweep cells, serially or pooled.

A worker executes one ``(scenario, seed, params)`` cell end-to-end -- run
*and* verify -- and returns a compact :class:`~repro.sweep.result.RunRecord`.
Histories, deployments and simulators never cross the process boundary;
only scalars, small dicts and the SHA-256 signature hash do.

Determinism: a cell is a pure function of its
:class:`~repro.sweep.grid.RunSpec` (``run_scenario_instance`` derives every
RNG stream from the scenario name and seed, and nothing in this module
shares mutable state between cells), so a cell's history signature is
byte-identical whether it runs in the parent process, any pool worker or
another machine.  ``campaign(grid, jobs=1)`` and ``campaign(grid, jobs=N)``
therefore agree hash-for-hash on every cell -- CI gates on exactly that.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import time
import traceback
from dataclasses import replace
from typing import Callable, List, Optional

from repro.sweep.grid import RunSpec, SweepGrid
from repro.sweep.result import RunRecord, SweepResult, latency_summary


def execute_run(spec: RunSpec, streaming: bool = False,
                metrics: bool = False) -> RunRecord:
    """Run and verify one sweep cell; always returns a record, never raises.

    Verification is :meth:`ChaosRunResult.check` -- the same single source
    of truth ``verify()`` raises on -- recorded as the cell's failure text
    plus which checker algorithm decided.

    ``streaming=True`` runs the cell's history in bounded open-window mode:
    verification happens online, the worker never holds the full history,
    and the recorded ``signature_hash`` is byte-identical to the batch one
    (the ``--check-serial`` gate holds across modes, not just across
    processes).

    ``metrics=True`` instruments the cell with a virtual-time metrics
    registry (see :mod:`repro.obs`) and attaches the exported
    :class:`~repro.obs.report.MetricsReport` dict to ``RunRecord.metrics``,
    plus the scenario's SLO verdicts under its ``slo`` key.  SLO failures
    are *reported, not gated*: ``RunRecord.ok`` stays a pure
    correctness/liveness verdict, because a degradation sweep deliberately
    pushes fault rates past the calibrated SLO envelope.  History
    signatures are byte-identical with metrics on or off (the differential
    tier-1 gate).
    """
    # Imported here so the package stays import-light: the scenario
    # registry loads only once a cell actually runs.
    from repro.sweep.grid import SCENARIO_PARAM_FIELDS
    from repro.workloads.scenarios import get_scenario, run_scenario_instance

    start = time.perf_counter()
    try:
        scenario = get_scenario(spec.scenario)
        if spec.params:
            overrides = dict(spec.params)
            # Reconfiguration-rate axes override scenario fields; everything
            # else is a workload field.
            scenario_overrides = {field: overrides.pop(field)
                                  for field in SCENARIO_PARAM_FIELDS
                                  if field in overrides}
            if overrides:
                scenario = replace(scenario,
                                   workload=replace(scenario.workload, **overrides))
            if scenario_overrides:
                scenario = replace(scenario, **scenario_overrides)
                reconfig_axes = sorted(scenario_overrides.keys() &
                                       {"reconfig_cadence", "fresh_servers"})
                if scenario.num_reconfigs == 0 and reconfig_axes and \
                        "num_reconfigs" not in scenario_overrides:
                    # Mirror the explicit keyspace-axis mismatch error: a
                    # cadence/fresh-servers axis on a scenario that never
                    # reconfigures would expand to byte-identical cells
                    # presented as a real sweep.  (Sweeping num_reconfigs
                    # itself, including a 0 baseline, stays legitimate.)
                    raise ValueError(
                        f"grid axis {', '.join(reconfig_axes)} has no effect: "
                        f"scenario {spec.scenario!r} runs 0 reconfigurations;"
                        f" add a num_reconfigs axis")
                if "fault_rate" in scenario_overrides and \
                        scenario.background is None:
                    # Same inert-axis rule for the gray-failure knob: the
                    # stochastic background is what reads fault_rate, so on
                    # a scenario without one every cell would be identical.
                    raise ValueError(
                        f"grid axis fault_rate has no effect: scenario "
                        f"{spec.scenario!r} has no stochastic background; "
                        f"use a *_gray_degradation scenario")
                if "gc" in scenario_overrides and scenario.num_reconfigs == 0 \
                        and "num_reconfigs" not in scenario_overrides \
                        and "reconfig" not in scenario.faults:
                    # Retirement only runs as a reconfiguration phase; on a
                    # scenario that never reconfigures (neither a session
                    # nor schedule-fired migrations) a gc axis expands to
                    # byte-identical cells.
                    raise ValueError(
                        f"grid axis gc has no effect: scenario "
                        f"{spec.scenario!r} never reconfigures; add a "
                        f"num_reconfigs axis or pick a reconfig scenario")
        result = run_scenario_instance(scenario, seed=spec.seed,
                                       streaming=streaming, metrics=metrics)

        failure, checker_method = result.check()
        signature_hash = result.signature_hash()
        metrics_payload = None
        if result.metrics is not None:
            metrics_payload = dict(result.metrics.to_json())
            if scenario.slos:
                metrics_payload["slo"] = [
                    {"description": slo.description,
                     "ok": detail is None,
                     "detail": detail}
                    for slo, detail in result.slo_verdicts()]
        # Latency summaries come from the WorkloadResult (full lists in
        # batch mode, deterministic reservoir samples in streaming mode),
        # so the record never needs the folded history.
        return RunRecord(
            scenario=spec.scenario, seed=spec.seed, params=spec.params,
            ok=failure is None, failure=failure, signature_hash=signature_hash,
            wall_clock_sec=time.perf_counter() - start,
            history_ops=len(result.history),
            events=result.deployment.sim.events_processed,
            messages=result.deployment.network.messages_sent,
            checker_method=checker_method,
            read_latency=latency_summary(result.workload.read_latencies),
            write_latency=latency_summary(result.workload.write_latencies),
            metrics=metrics_payload,
        )
    except Exception:
        # One broken cell (unknown scenario, crashed run, checker error) must
        # not poison the campaign: report it as a failed record.
        return RunRecord(
            scenario=spec.scenario, seed=spec.seed, params=spec.params,
            ok=False, failure=f"cell crashed:\n{traceback.format_exc()}",
            signature_hash="", wall_clock_sec=time.perf_counter() - start,
            history_ops=0, events=0, messages=0, checker_method="")


def campaign(grid: SweepGrid, jobs: int = 1,
             progress: Optional[Callable[[RunRecord], None]] = None,
             streaming: bool = False,
             metrics: bool = False) -> SweepResult:
    """Execute every cell of ``grid`` and aggregate into a :class:`SweepResult`.

    ``jobs=1`` runs serially in-process (no pool, no pickling); ``jobs>1``
    maps the cells over a ``multiprocessing.Pool`` of ``min(jobs, cells)``
    workers with an ordered ``imap``, so records -- and ``progress`` calls
    -- arrive in grid-expansion order either way.  Even one cell goes
    through a real pool when ``jobs>1``, so a ``--check-serial`` gate
    genuinely compares pooled against serial execution.

    ``streaming=True`` makes every cell verify online with a bounded open
    window, and ``metrics=True`` collects a per-cell virtual-time metrics
    report plus the scenario SLO verdicts (see :func:`execute_run`).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    specs = grid.expand()
    start = time.perf_counter()
    run = functools.partial(execute_run, streaming=streaming, metrics=metrics)
    records: List[RunRecord] = []
    with contextlib.ExitStack() as stack:
        if jobs == 1:
            stream = map(run, specs)
        else:
            workers = min(jobs, len(specs))
            pool = stack.enter_context(multiprocessing.Pool(workers))
            # Pool.map's own chunking heuristic, capped so a small grid
            # still spreads across the workers.
            chunksize = max(1, min(32, len(specs) // (4 * workers)))
            stream = pool.imap(run, specs, chunksize=chunksize)
        for record in stream:
            records.append(record)
            if progress is not None:
                progress(record)
    return SweepResult(grid=grid.describe(), jobs=jobs, records=records,
                       wall_clock_sec=time.perf_counter() - start)

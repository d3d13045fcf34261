"""CLI for the sweep engine: ``python -m repro.sweep``.

Examples::

    # the full registry, four seeds, four workers
    python -m repro.sweep --grid "scenarios=all;seeds=0..3" --jobs 4

    # a parameter grid over two object sizes, written to a report file
    python -m repro.sweep --grid "scenarios=treas_*;seeds=0;value_size=256,4096" \
        --jobs 2 --output sweep.json

    # CI determinism gate: the whole grid re-runs serially and every cell's
    # history signature must match the pooled run
    python -m repro.sweep --grid "scenarios=abd_crash_minority;seeds=0..1" \
        --jobs 2 --check-serial

    # adaptive frontier search: bisect the event budget to the smallest
    # value at which the scenario still completes and verifies
    python -m repro.sweep --grid "scenarios=store_mixed_dap_storm;seeds=0..2" \
        --bisect "max_events=500..60000" --output frontier.json

    # degradation campaign with per-cell virtual-time metrics, SLO
    # verdicts and a self-contained HTML report (--report implies --metrics)
    python -m repro.sweep \
        --grid "scenarios=*_gray_degradation;seeds=0..2;fault_rate=0.0,0.05,0.1" \
        --jobs 4 --metrics --report campaign.html

Exit status: 0 when every cell passed (and every ``--check-serial``
signature matched / every ``--bisect`` monotonicity probe agreed); 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.sweep.adaptive import AdaptiveCampaign
from repro.sweep.engine import campaign
from repro.sweep.grid import GRID_PARAM_FIELDS, SweepGrid, parse_grid
from repro.sweep.result import RunRecord, SweepResult


def _print_progress(record: RunRecord) -> None:
    status = "ok" if record.ok else "FAIL"
    print(f"  [{status:>4}] {record.cell_id:<45} {record.wall_clock_sec:6.2f}s "
          f"ops={record.history_ops} checker={record.checker_method or '-'}")


def _compare_signatures(pooled: SweepResult, serial: SweepResult) -> int:
    """Print and count serial-vs-parallel signature mismatches."""
    mismatches = 0
    serial_map = serial.signature_map()
    for cell, pooled_hash in pooled.signature_map().items():
        serial_hash = serial_map.get(cell)
        if serial_hash != pooled_hash:
            mismatches += 1
            print(f"SIGNATURE MISMATCH {cell}: pooled {pooled_hash[:16]}... "
                  f"!= serial {(serial_hash or 'missing')[:16]}...")
    if mismatches == 0:
        print(f"signature gate: all {len(serial_map)} cells byte-identical "
              "between pooled and serial execution")
    return mismatches


def _parse_bisect(text: str, parser: argparse.ArgumentParser):
    """Parse ``AXIS=LO..HI`` into a typed (axis, lo, hi) triple."""
    axis, sep, bracket = text.partition("=")
    axis = axis.strip()
    if not sep or axis not in GRID_PARAM_FIELDS:
        parser.error(f"--bisect wants AXIS=LO..HI with AXIS one of "
                     f"{', '.join(sorted(GRID_PARAM_FIELDS))}; got {text!r}")
    lo_text, sep, hi_text = bracket.partition("..")
    caster = GRID_PARAM_FIELDS[axis]
    try:
        if not sep:
            raise ValueError
        lo, hi = caster(lo_text), caster(hi_text)
    except ValueError:
        parser.error(f"--bisect bracket {bracket!r} is not LO..HI "
                     f"{caster.__name__} values")
    return axis, lo, hi


def _run_bisect(args, grid: SweepGrid, parser: argparse.ArgumentParser) -> int:
    """The ``--bisect`` mode: one frontier campaign per grid scenario."""
    axis, lo, hi = _parse_bisect(args.bisect, parser)
    base_params = []
    for field, values in grid.params:
        if len(values) != 1:
            parser.error(f"--bisect pins other axes to single values; grid "
                         f"axis {field!r} has {len(values)}")
        base_params.append((field, values[0]))
    progress = None if args.quiet else _print_progress

    exit_code = 0
    campaigns = []
    for scenario in grid.scenarios:
        print(f"bisect: {scenario} {axis}={lo}..{hi} "
              f"seeds={','.join(str(s) for s in grid.seeds)}")
        frontier = AdaptiveCampaign(
            scenario=scenario, axis=axis, lo=lo, hi=hi, seeds=grid.seeds,
            base_params=tuple(base_params),
            streaming=args.streaming).run(progress=progress)
        campaigns.append(frontier.to_json())
        mono = "monotone" if frontier.monotonic else \
            f"NOT MONOTONE at {[v for v, _, _ in frontier.violations]}"
        print(f"frontier {scenario}/{axis}: {frontier.direction} -> "
              f"{frontier.frontier} ({len(frontier.records)} probe cells, "
              f"{frontier.wall_clock_sec:.2f}s, {mono})")
        if not frontier.monotonic:
            exit_code = 1

    if args.output is not None:
        path = pathlib.Path(args.output)
        path.write_text(json.dumps({"kind": "frontier-report",
                                    "bisect": args.bisect,
                                    "campaigns": campaigns}, indent=1) + "\n")
        print(f"wrote {path}")
    return exit_code


def main(argv=None) -> int:
    """Entry point of ``python -m repro.sweep``; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Run a scenario x seed x parameter campaign over a process pool.")
    parser.add_argument("--grid", default="scenarios=all;seeds=0",
                        help='grid spec, e.g. "scenarios=all;seeds=0..3;value_size=256,1024"')
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1: serial)")
    parser.add_argument("--output", default=None,
                        help="write the JSON report here")
    parser.add_argument("--check-serial", action="store_true",
                        help="re-run the whole grid serially in batch mode and "
                             "fail unless every history signature matches the "
                             "campaign's")
    parser.add_argument("--streaming", action="store_true",
                        help="verify each cell online with a bounded open "
                             "window (O(open window) worker memory; cell "
                             "hashes stay byte-identical to batch mode)")
    parser.add_argument("--metrics", action="store_true",
                        help="instrument every cell with the virtual-time "
                             "metrics registry: per-cell reports and SLO "
                             "verdicts land in the JSON output (SLO failures "
                             "are reported, not gated)")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write a self-contained HTML campaign report "
                             "(pass/fail matrix, degradation curves, per-cell "
                             "sparklines; implies --metrics)")
    parser.add_argument("--bisect", default=None, metavar="AXIS=LO..HI",
                        help="adaptive mode: bisect this grid axis to the "
                             "pass/fail frontier for each grid scenario "
                             "instead of enumerating cells")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    args = parser.parse_args(argv)

    if args.bisect is not None:
        for flag in ("check_serial", "metrics", "report"):
            if getattr(args, flag):
                parser.error(f"--bisect is probe-driven; "
                             f"--{flag.replace('_', '-')} does not apply")
    if args.report is not None:
        args.metrics = True

    grid = parse_grid(args.grid)
    if args.bisect is not None:
        return _run_bisect(args, grid, parser)

    print(f"sweep: {len(grid.expand())} cells "
          f"({len(grid.scenarios)} scenarios x {len(grid.seeds)} seeds"
          f"{' x params' if grid.params else ''}), jobs={args.jobs}")

    progress = None if args.quiet else _print_progress
    result = campaign(grid, jobs=args.jobs, progress=progress,
                      streaming=args.streaming, metrics=args.metrics)

    print()
    print(result.render_matrix())
    print(f"\n{result.passed}/{len(result.records)} cells passed in "
          f"{result.wall_clock_sec:.2f}s wall "
          f"(cell time sum {sum(r.wall_clock_sec for r in result.records):.2f}s, "
          f"checker methods {result.checker_method_counts()})")
    for record in result.failures():
        print(f"\nFAILED {record.cell_id}:\n{record.failure}")
    if args.metrics:
        # SLO verdicts are informational at the CLI: a degradation sweep
        # deliberately pushes fault rates past the calibrated envelope, so
        # broken SLOs there are the data, not a campaign failure.  The
        # tier-1 SLO regression tests are where verdicts gate.
        slo_failures = [(record.cell_id, entry)
                        for record in result.records
                        for entry in (record.metrics or {}).get("slo", ())
                        if not entry["ok"]]
        cells_with_slos = sum(1 for record in result.records
                              if (record.metrics or {}).get("slo"))
        print(f"SLO verdicts: {len(slo_failures)} failed across "
              f"{cells_with_slos} cells with attached SLOs")
        for cell_id, entry in slo_failures:
            print(f"  SLO BROKEN {cell_id}: {entry['detail']}")

    exit_code = 0 if result.ok else 1

    report = result.to_json()
    if args.check_serial:
        # The serial leg always runs in batch mode: with --streaming the
        # gate therefore checks streaming-pooled against batch-serial, i.e.
        # both the process boundary AND the streaming fold are
        # byte-identical.
        print("\nre-running the whole grid serially for the signature gate...")
        serial = campaign(grid, jobs=1)
        mismatches = _compare_signatures(result, serial)
        report["serial_check"] = {
            "serial_wall_clock_sec": round(serial.wall_clock_sec, 4),
            "mismatches": mismatches,
        }
        if not mismatches and serial.wall_clock_sec > 0 and args.jobs > 1:
            speedup = serial.wall_clock_sec / result.wall_clock_sec
            report["serial_check"]["speedup"] = round(speedup, 2)
            print(f"parallel speedup at jobs={args.jobs}: {speedup:.2f}x")
        if mismatches:
            exit_code = 1

    if args.output is not None:
        path = pathlib.Path(args.output)
        path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {path}")

    if args.report is not None:
        path = pathlib.Path(args.report)
        path.write_text(result.render_html(), encoding="utf-8")
        print(f"wrote {path}")

    return exit_code


if __name__ == "__main__":
    sys.exit(main())

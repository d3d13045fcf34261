#!/usr/bin/env python3
"""Wide seed scan: every registered scenario over a range of seeds.

Runs the whole scenario registry over ``--seeds A..B`` (default ``0..200``:
23 scenarios x 201 seeds = 4 623 cells, about half a minute serially; the
nightly CI job scans ``0..999``) through :func:`repro.sweep.campaign`,
writes the cells that fail ``check()`` as JSON, and compares that list with
the cells of the committed ``tests/data/known_failing_cells.json`` whose
seed lies inside the scanned range -- a known cell outside it was not run,
so it is neither confirmed nor "fixed".

Exit status: 0 when the failing cells are exactly the known ones, 1 when
they differ in either direction -- a new failing cell is a regression, and
a known one that now passes means the fix landed and the known-failures
file (and the strict xfails of ``tests/test_chaos_scenarios.py`` that read
it) must be updated in the same change.  Run from anywhere::

    python tools/seed_scan.py [--seeds A..B] [--jobs N] [--output seed-scan.json]

Reproduce one reported cell with
``run_scenario(scenario, seed=seed).verify()``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sweep import campaign, parse_grid  # noqa: E402

KNOWN_FAILURES = REPO_ROOT / "tests" / "data" / "known_failing_cells.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0..200", metavar="A..B",
                        help="inclusive seed range to scan (default 0..200)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1: serial)")
    parser.add_argument("--output", default="seed-scan.json",
                        help="where to write the failing-cell list")
    args = parser.parse_args(argv)

    grid = f"scenarios=all;seeds={args.seeds}"
    result = campaign(parse_grid(grid), jobs=args.jobs)
    scanned_seeds = {record.seed for record in result.records}
    failing = {(record.scenario, record.seed): record.failure
               for record in result.records if not record.ok}
    known = {(scenario, seed)
             for scenario, seed in json.loads(KNOWN_FAILURES.read_text())["cells"]
             if seed in scanned_seeds}
    new = sorted(failing.keys() - known)
    fixed = sorted(known - failing.keys())

    pathlib.Path(args.output).write_text(json.dumps({
        "grid": grid,
        "cells": len(result.records),
        "failing": [{"scenario": scenario, "seed": seed, "failure": failure}
                    for (scenario, seed), failure in sorted(failing.items())],
        "new": [list(cell) for cell in new],
        "fixed": [list(cell) for cell in fixed],
    }, indent=1) + "\n")

    print(f"{len(result.records)} cells in {result.wall_clock_sec:.1f} s, "
          f"{len(failing)} failing ({len(known)} known) -> {args.output}")
    for scenario, seed in new:
        print(f"NEW FAILURE {scenario} seed={seed}: "
              f"{failing[scenario, seed].splitlines()[0]}")
    for scenario, seed in fixed:
        print(f"NOW PASSES {scenario} seed={seed}: remove it from "
              f"{KNOWN_FAILURES.relative_to(REPO_ROOT)}")
    return 1 if new or fixed else 0


if __name__ == "__main__":
    sys.exit(main())

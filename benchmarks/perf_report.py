"""Machine-readable performance baseline: emit / check ``BENCH_CORE.json``.

Runs the hot-path benchmarks of ``bench_simcore.py`` plus an end-to-end
sweep over every registered chaos scenario and writes the results to
``BENCH_CORE.json`` at the repository root, so each PR records the
performance trajectory the ROADMAP asks for.

Because absolute events/sec depends on the host, the report also times a
fixed pure-Python **calibration probe**; regression checks scale the
committed baseline by the ratio of probe speeds before applying the
threshold, which makes the >30% events/sec regression gate meaningful on
CI runners that are faster or slower than the machine that produced the
baseline.

Usage::

    PYTHONPATH=src python benchmarks/perf_report.py            # regenerate
    PYTHONPATH=src python benchmarks/perf_report.py --quick    # CI-sized run
    PYTHONPATH=src python benchmarks/perf_report.py --quick --check
        # measure, compare against the committed BENCH_CORE.json and exit
        # non-zero on regression (the baseline file is left untouched)
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_CORE.json"

#: Tolerated slowdown of calibrated events/sec before --check fails (the
#: ISSUE 2 gate: fail CI if events/sec regresses by more than 30%).
REGRESSION_TOLERANCE = 0.70


def calibration_probe() -> float:
    """Fixed pure-Python workload; returns iterations/sec of the host.

    Deliberately uses the same kind of work the simulator does (integer
    arithmetic, tuple comparisons, dict traffic) so the ratio between two
    hosts transfers approximately to events/sec.
    """
    def probe() -> int:
        total = 0
        bucket = {}
        pair = (0, 0)
        for i in range(200_000):
            key = i & 1023
            bucket[key] = bucket.get(key, 0) + i
            if (i & 511, key) > pair:
                pair = (i & 511, key)
            total += i
        return total

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        probe()
        best = min(best, time.perf_counter() - start)
    return 200_000 / best


def build_report(quick: bool) -> dict:
    from bench_simcore import (SCALED_OPS, QUICK_SCALED_OPS, checker_comparison,
                               end_to_end, event_throughput, message_throughput)
    from repro.workloads.scenarios import run_scenario, scenario_names

    # Snapshot the canonical registry before the comparisons below register
    # their benchmark-internal scaled storm variant: the per-scenario sweep
    # must cover exactly the committed scenarios, identically in --quick and
    # full mode.
    canonical_scenarios = list(scenario_names())

    ops = QUICK_SCALED_OPS if quick else SCALED_OPS
    events_per_sec = event_throughput(2_000 if quick else 20_000)
    messages_per_sec = message_throughput(2_000 if quick else 20_000)
    checker = checker_comparison(ops)
    storm = end_to_end(ops)

    scenarios = {}
    for name in canonical_scenarios:
        start = time.perf_counter()
        result = run_scenario(name, seed=0)
        # check() runs the full verification (liveness, linearizability --
        # per key for keyed store scenarios -- and tag monotonicity).
        failure, checker_method = result.check()
        wall = time.perf_counter() - start
        assert failure is None, f"scenario {name} failed verification: {failure}"
        scenarios[name] = {
            "wall_clock_sec": round(wall, 4),
            "history_ops": len(result.history),
            "events": result.deployment.sim.events_processed,
            "messages": result.deployment.network.messages_sent,
            "checker_method": checker_method,
        }

    return {
        "schema": 2,
        "generated_by": "benchmarks/perf_report.py",
        "quick": quick,
        "python": platform.python_version(),
        "calibration_ops_per_sec": round(calibration_probe()),
        "sim": {"events_per_sec": round(events_per_sec)},
        "net": {"messages_per_sec": round(messages_per_sec)},
        "checker": {
            "history_ops": checker["history_ops"],
            "ops_per_sec": round(checker["ops_per_sec"]),
            "reference_ops_per_sec": round(checker["reference_ops_per_sec"]),
            "fast_states_explored": checker["fast_states_explored"],
            "reference_states_explored": checker["reference_states_explored"],
            "speedup": round(checker["ops_per_sec"]
                             / checker["reference_ops_per_sec"], 1),
        },
        "end_to_end": {
            "scaled_storm": {
                "scenario": storm["scenario"],
                "history_ops": storm["history_ops"],
                "events": storm["events"],
                "messages": storm["messages"],
                "total_sec": round(storm["total_sec"], 4),
            },
            "scenarios": scenarios,
        },
    }


def check_regression(report: dict, baseline: dict) -> int:
    """Compare calibrated events/sec against the committed baseline.

    Returns 0 when within tolerance, 1 on regression.
    """
    base_rate = baseline["sim"]["events_per_sec"]
    base_probe = baseline.get("calibration_ops_per_sec") or 0
    probe = report["calibration_ops_per_sec"]
    # Without a baseline probe (older schema), compare uncalibrated rather
    # than against a nonsense scale.
    scale = probe / base_probe if base_probe else 1.0
    expected = base_rate * scale
    measured = report["sim"]["events_per_sec"]
    ratio = measured / expected
    print(f"baseline events/sec:  {base_rate:>12,} "
          f"(probe {base_probe:,.0f}/s)" if base_probe else
          f"baseline events/sec:  {base_rate:>12,} (no probe; uncalibrated)")
    print(f"this host's probe:    {probe:>12,.0f}/s (scale x{scale:.2f})")
    print(f"calibrated expected:  {expected:>12,.0f}")
    print(f"measured events/sec:  {measured:>12,} ({ratio:.0%} of expected)")
    if ratio < REGRESSION_TOLERANCE:
        print(f"REGRESSION: below the {REGRESSION_TOLERANCE:.0%} floor "
              f"({1 - REGRESSION_TOLERANCE:.0%} tolerated)")
        return 1
    print("OK: within tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized parameters (same schema, smaller sweeps)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed BENCH_CORE.json and "
                             "exit non-zero on >30%% events/sec regression "
                             "(the committed baseline is never rewritten in "
                             "this mode; combine with --output to also save "
                             "the fresh report elsewhere)")
    parser.add_argument("--output", default=None,
                        help="where to write the report (default: the repo-root "
                             "BENCH_CORE.json, unless --check is given)")
    args = parser.parse_args(argv)

    # The measurements run once; --check and --output both consume them.
    report = build_report(quick=args.quick)

    out = None
    if args.output is not None:
        out = pathlib.Path(args.output)
    elif not args.check:
        out = BASELINE_PATH
    if out is not None:
        out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {out}")
    print(json.dumps(report["sim"], indent=1))
    print(json.dumps(report["checker"], indent=1))
    print(json.dumps(report["end_to_end"]["scaled_storm"], indent=1))

    if args.check:
        if not BASELINE_PATH.exists():
            print(f"no committed baseline at {BASELINE_PATH}; nothing to check")
            return 1
        baseline = json.loads(BASELINE_PATH.read_text())
        return check_regression(report, baseline)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The ARES benchmark: four workloads, end to end and layer by layer.

Everything, human-readable (what a person runs)::

    python benchmarks/e2e/run.py [--seed N] [--quick] [--json OUT.json]

One workload, one JSON line (what ``BENCHMARK.json`` declares)::

    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics: fresh child processes, one
at a time, each set up from nothing (imports, a 400-op warm-up) and then
timing one drive + verify of a fresh deployment with profiling off, until
``S`` seconds have been measured (never fewer than three).  Host-time
figures are the median over those repeats; every other figure must be
identical in all of them or the command fails.  ``--trace 1`` reports the
per-layer metrics: exact counts of one more untraced run, host time per
layer from a run under the profiler at a quarter of the size, and the
isolated layer speeds.  Names, units, directions and bounds live in
``BENCHMARK.json``; see README.md next to this file.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

try:
    import hostclock                                        # noqa: E402
    import isolated                                         # noqa: E402
    import layers                                           # noqa: E402
    import measure                                          # noqa: E402
    from workloads import WORKLOADS, Workload               # noqa: E402
except ImportError as error:                                # no src/repro here
    sys.exit(f"run.py: the program under test is not importable from "
             f"{ROOT / 'src'}: {error}")

SPEC_PATH = ROOT / "BENCHMARK.json"
TRACE_DIR = ROOT / ".benchmarks"

MIN_REPEATS = 3
#: Stop adding repeats once this much wall time is gone (the contract
#: allows 180 s per invocation).
WALL_BUDGET_S = 120.0

#: ``--quick``: one in-process repeat at a sixtieth of the size.
QUICK_DIVISOR = 60


def load_spec() -> dict:
    """``BENCHMARK.json``: the declared metric names, units and bounds."""
    return json.loads(SPEC_PATH.read_text())


# ------------------------------------------------------------ timed repeats
def spawn_repeats(workload: Workload, ops: int, seed: int,
                  seconds: float) -> List[dict]:
    """Timed repeats in fresh child processes, one at a time.

    Repeats until ``seconds`` of drive + verify time have been measured,
    never fewer than :data:`MIN_REPEATS`.
    """
    began = time.perf_counter()
    runs: List[dict] = []
    measured = 0.0
    while (len(runs) < MIN_REPEATS
           or (measured < seconds
               and time.perf_counter() - began < WALL_BUDGET_S)):
        command = [sys.executable, str(HERE / "repeat.py"), workload.name,
                   str(ops), str(seed), repr(time.time())]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              check=False)
        if done.returncode != 0:
            raise RuntimeError(f"repeat of {workload.name} exited with "
                               f"{done.returncode}")
        runs.append(json.loads(done.stdout.splitlines()[-1]))
        measured += runs[-1]["host_s"]
    return runs


def end_to_end(workload: Workload, seed: int, runs: List[dict]) -> dict:
    """The end-to-end section from timed repeats: agreement gate, medians."""
    first = runs[0]
    failure = first["failure"]
    if failure is None:
        difference = measure.first_difference(runs)
        if difference is not None:
            failure = (f"{workload.name}: repeats on seed {seed} disagree "
                       f"on {difference}")
    repeats = {
        "verified_ops_per_s": [run["verified"] / run["reference_s"]
                               for run in runs],
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
        "setup_s": [run["setup_s"] for run in runs],
    }
    metrics = dict(first["end_to_end"])
    metrics.update({name: statistics.median(values)
                    for name, values in repeats.items()})
    attempted = sum(run["attempted"] for run in runs)
    verified = sum(run["verified"] for run in runs) if failure is None else 0
    return {"correct": failure is None, "failure": failure,
            "attempted": attempted, "failed": attempted - verified,
            "metrics": metrics, "repeats": repeats,
            "samples": first["samples"], "signature": first["signature"]}


# ------------------------------------------------------------ per-layer run
def per_layer(workload: Workload, full: dict, seed: int,
              speeds: Dict[str, float], traced_ops: int) -> dict:
    """The per-layer section: exact counts, traced host time, isolated speeds.

    ``full`` is an untraced full-size run made in this (warm) process; the
    profiler runs on ``traced_ops`` operations, next to an untraced run of
    the same size on the host clock that it must reproduce exactly.
    """
    plain = (full if traced_ops == full["attempted"]
             else measure.run_once(workload, traced_ops, seed,
                                   clock=hostclock.HostClock()))
    profiler = cProfile.Profile()
    traced = measure.run_once(workload, traced_ops, seed, profiler=profiler)
    profile = layers.attribute(profiler)

    failure = full["failure"] or traced["failure"]
    if failure is None:
        difference = measure.first_difference([plain, traced])
        if difference is not None:
            failure = (f"{workload.name}: the traced run differs from the "
                       f"untraced run of the same size on {difference}")
    attributed = sum(layer["self_s"] for layer in profile["layers"].values())
    coverage = attributed / profile["total_s"]
    if failure is None and coverage < 0.95:
        failure = (f"{workload.name}: only {coverage:.1%} of traced host time "
                   "is attributed to a named layer")

    # A layer's time per op: its share of the profile, applied to the
    # untraced run's time per op in reference-host seconds.
    per_op_us = (plain["reference_s"] / profile["total_s"]
                 * 1e6 / traced["attempted"])
    metrics = dict(full["counts"])
    metrics["spec.check_s"] = full["check_s"]
    for name, layer in profile["layers"].items():
        metrics[f"{name}.self_us_per_op"] = layer["self_s"] * per_op_us
        metrics[f"{name}.calls_per_op"] = layer["calls"] / traced["attempted"]
    metrics["trace.coverage"] = coverage
    metrics["trace.overhead_ratio"] = traced["host_s"] / plain["host_s"]
    metrics["trace.unattributed_us_per_op"] = profile["unattributed_s"] * per_op_us
    metrics.update(speeds)

    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"e2e-trace-{workload.name}.json"
    trace_path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "ops": traced["attempted"],
        "traced_host_s": traced["host_s"], "untraced_host_s": plain["host_s"],
        "profile_total_s": profile["total_s"],
        "unattributed_s": profile["unattributed_s"],
        "layers": {name: {"self_s": layer["self_s"],
                          "share": layer["self_s"] / profile["total_s"],
                          "calls": layer["calls"],
                          "top_functions": layer["top"]}
                   for name, layer in profile["layers"].items()},
    }, indent=1) + "\n")

    verified = full["verified"] if failure is None else 0
    return {"correct": failure is None, "failure": failure,
            "attempted": full["attempted"],
            "failed": full["attempted"] - verified,
            "metrics": metrics, "trace_file": str(trace_path)}


def warm_run(workload: Workload, ops: int, seed: int) -> dict:
    """An untimed warm-up, then one untraced run, in this process."""
    measure.run_once(workload, min(ops, measure.WARMUP_OPS), seed)
    return measure.run_once(workload, ops, seed)


# ------------------------------------------------------------------ output
def contract_line(section: dict, declared: List[dict]) -> str:
    """The one-line JSON result ``BENCHMARK.json``'s contract asks for.

    Raises ``KeyError`` if a declared metric was not measured, and
    ``ValueError`` if an undeclared one was.
    """
    metrics = section["metrics"]
    extra = set(metrics) - {entry["name"] for entry in declared}
    if extra:
        raise ValueError(f"measured but not declared in BENCHMARK.json: "
                         f"{sorted(extra)}")
    return json.dumps({
        "correct": section["correct"],
        "attempted": section["attempted"],
        "failed": section["failed"],
        "metrics": {entry["name"]: {"value": metrics[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in declared},
    })


def _print_section(title: str, section: dict, declared: List[dict]) -> None:
    print(f"  {title}")
    for entry in declared:
        value = section["metrics"][entry["name"]]
        shown = f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"
        print(f"    {entry['name']:<38} {shown:>14} {entry['unit']}")


def run_everything(seed: int, quick: bool, seconds: float) -> dict:
    """Every workload, both sections; prints as it goes, returns the lot."""
    spec = load_spec()
    print(f"ARES benchmark  seed {seed}  python {platform.python_version()}  "
          f"{'quick' if quick else f'{seconds:g} s measured per workload'}")
    speeds = isolated.measure_all(trials=1 if quick else isolated.TRIALS)
    results = {}
    for workload in WORKLOADS.values():
        if quick:
            ops = workload.ops // QUICK_DIVISOR
            clock = hostclock.HostClock()
            clock.start()
            runs = [measure.timed_repeat(workload, ops, seed, clock)]
            full, traced_ops = runs[0], runs[0]["attempted"]
        else:
            ops = workload.ops
            runs = spawn_repeats(workload, ops, seed, seconds)
            full, traced_ops = warm_run(workload, ops, seed), ops // 4
        outcome = end_to_end(workload, seed, runs)
        trace = per_layer(workload, full, seed, speeds, traced_ops)
        failed_share = outcome["failed"] / outcome["attempted"]
        print(f"\n{workload.name}: {runs[0]['attempted']} ops x "
              f"{len(runs)} repeats, "
              f"latency samples {outcome['samples']}")
        _print_section("end to end", outcome, spec["end_to_end"])
        print(f"    {'failed_ops_share':<38} {failed_share:>14.4g} share")
        _print_section(f"per layer (trace: {trace['trace_file']})",
                       trace, spec["per_layer"])
        for section in (outcome, trace):
            if section["failure"] is not None:
                print(f"  FAILED: {section['failure']}")
        results[workload.name] = {"end_to_end": outcome, "per_layer": trace}
    return results


def exit_code(results: dict) -> int:
    """0 when every section of every workload verified, else 1."""
    return 0 if all(section["correct"] for sections in results.values()
                    for section in sections.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=None,
                        help="host seconds to measure per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: one small in-process repeat")
    parser.add_argument("--json", metavar="PATH",
                        help="also write every result to PATH (for compare.py)")
    args = parser.parse_args(argv)

    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is None:
        results = run_everything(args.seed, args.quick, seconds)
        if args.json:
            pathlib.Path(args.json).write_text(json.dumps(results, indent=1) + "\n")
        return exit_code(results)

    workload = WORKLOADS[args.workload]
    if args.trace:
        # Isolated speeds first: they clear the decode cache, and the
        # warm-up below must leave it as every other run finds it.
        speeds = isolated.measure_all()
        section = per_layer(workload, warm_run(workload, workload.ops, args.seed),
                            args.seed, speeds, workload.ops // 4)
        declared = spec["per_layer"]
    else:
        section = end_to_end(workload, args.seed,
                             spawn_repeats(workload, workload.ops, args.seed,
                                           seconds))
        declared = spec["end_to_end"]
    if section["failure"] is not None:
        print(f"FAILED: {section['failure']}", file=sys.stderr)
    print(contract_line(section, declared))
    return 0 if section["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

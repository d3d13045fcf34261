"""Compare two benchmark results under ``BENCHMARK.json``'s bounds.

    python benchmarks/e2e/compare.py A.json B.json [--layers]

``A.json`` (the base, e.g. the parent commit) and ``B.json`` (the change)
are files written by ``run.py --json``.  One row is printed per (workload,
end-to-end metric) with both values, the ratio B/A and a verdict:

``same``        B is within the metric's bound of A;
``better``      B beats A by more than the bound;
``regressed``   B is worse than A by more than the bound;
``unresolved``  the repeats of either side spread (interquartile range
                over median) wider than the bound, and the difference does
                not clear that spread: the run cannot tell, measure again.

``failed_ops_share`` is held to an absolute bound.  Deterministic metrics
have no repeats, so on equal seeds any difference is real; ``==`` marks
bit-identical values.  With ``--layers`` the per-layer metrics follow,
without verdicts (they have no bounds): ``==`` or the ratio.  Exits 1 if
any row regressed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import List, Optional, Tuple

SPEC_PATH = pathlib.Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"

#: Absolute bound on the share of attempted operations that failed.
FAILED_SHARE_BOUND = 0.001


def spread(values: Optional[List[float]]) -> float:
    """Interquartile range over median of a metric's repeats.

    The same figure the acceptance protocol computes over invocations
    (``statistics.quantiles(values, n=4)``); 0.0 without repeats.
    """
    if not values or len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(base: float, change: float, better: str, bound: float,
            noise: float) -> str:
    """Classify ``change`` against ``base`` (see the module docstring)."""
    if base == change:
        return "same"
    if base == 0:
        return "regressed" if (change > 0) == (better == "lower") else "better"
    worse = (change - base) / abs(base)
    if better == "higher":
        worse = -worse
    if noise > bound and abs(worse) <= noise:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "better"
    return "same"


def _row(workload: str, name: str, unit: str, base: float, change: float,
         status: str) -> Tuple[str, str]:
    ratio = f"{change / base:8.4f}" if base else "     n/a"
    mark = "==" if base == change else "  "
    return status, (f"{workload:<15} {name:<34} {base:>14.6g} {change:>14.6g} "
                    f"{unit:<8} {ratio} {mark} {status}")


def compare(base: dict, change: dict, spec: dict,
            layers: bool = False) -> List[Tuple[str, str]]:
    """One ``(verdict, printable row)`` per (workload, metric)."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base or workload not in change:
            continue
        a, b = base[workload]["end_to_end"], change[workload]["end_to_end"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            noise = max(spread(a["repeats"].get(name)),
                        spread(b["repeats"].get(name)))
            status = verdict(a["metrics"][name], b["metrics"][name],
                             metric["better"], metric["bound"], noise)
            rows.append(_row(workload, name, metric["unit"],
                             a["metrics"][name], b["metrics"][name], status))
        shares = [side["failed"] / side["attempted"] for side in (a, b)]
        status = ("regressed" if shares[1] - shares[0] > FAILED_SHARE_BOUND
                  else "better" if shares[0] - shares[1] > FAILED_SHARE_BOUND
                  else "same")
        rows.append(_row(workload, "failed_ops_share", "share", *shares, status))
        if layers:
            a, b = base[workload]["per_layer"], change[workload]["per_layer"]
            for metric in spec["per_layer"]:
                name = metric["name"]
                rows.append(_row(workload, name, metric["unit"],
                                 a["metrics"][name], b["metrics"][name], "-"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="result of the base commit (ratio base)")
    parser.add_argument("change", help="result of the change")
    parser.add_argument("--layers", action="store_true",
                        help="also list the per-layer metrics (no verdicts)")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    rows = compare(json.loads(pathlib.Path(args.base).read_text()),
                   json.loads(pathlib.Path(args.change).read_text()),
                   spec, args.layers)
    print(f"{'workload':<15} {'metric':<34} {'A (base)':>14} {'B':>14} "
          f"{'unit':<8} {'B/A':>8}    verdict")
    for _, text in rows:
        print(text)
    regressed = sum(status == "regressed" for status, _ in rows)
    unresolved = sum(status == "unresolved" for status, _ in rows)
    print(f"{regressed} regressed, {unresolved} unresolved, {len(rows)} rows")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

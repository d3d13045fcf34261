"""Smoke tests of the benchmark itself (a ``--quick`` run, a few seconds).

They pin what later PRs rely on: the command emits exactly the metrics
``BENCHMARK.json`` declares, deterministic figures repeat exactly, the
profiler changes nothing and attributes (nearly) all of its time to named
layers, and a run that loses operations is reported as such and fails.
"""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

import compare
import hostclock
import measure
import run
from workloads import WORKLOADS, Workload, abd_quiet

from repro.chaos.faults import Crash
from repro.chaos.schedule import At, Schedule

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.fixture(scope="module")
def quick_results():
    return run.run_everything(seed=0, quick=True, seconds=0.0)


def test_benchmark_json_is_well_formed(spec):
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_quick_run_emits_exactly_the_declared_metrics(spec, quick_results):
    assert list(quick_results) == list(WORKLOADS)
    assert run.exit_code(quick_results) == 0
    for sections in quick_results.values():
        for section, declared in ((sections["end_to_end"], spec["end_to_end"]),
                                  (sections["per_layer"], spec["per_layer"])):
            assert section["failure"] is None
            assert set(section["metrics"]) == {m["name"] for m in declared}
            line = json.loads(run.contract_line(section, declared))
            assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
            assert line["correct"] is True and line["failed"] == 0
            assert all(entry["unit"] for entry in line["metrics"].values())
        assert all(value > 0 for value in sections["end_to_end"]["metrics"].values())


def test_trace_changes_nothing_and_covers_the_run(quick_results):
    # per_layer() fails the section if the traced run's signature or any
    # count differs from the untraced run of the same size.
    for sections in quick_results.values():
        layer_metrics = sections["per_layer"]["metrics"]
        assert sections["per_layer"]["correct"]
        assert layer_metrics["trace.coverage"] >= 0.95
        assert layer_metrics["trace.overhead_ratio"] > 1.0
    quiet = quick_results["abd_quiet"]["per_layer"]["metrics"]
    assert quiet["erasure.self_us_per_op"] < 0.01 * quiet["net.self_us_per_op"]
    large = quick_results["treas_large"]["per_layer"]["metrics"]
    assert large["erasure.self_us_per_op"] > large["sim.core.self_us_per_op"]


def test_counts_repeat_exactly_and_seeds_differ():
    workload = WORKLOADS["abd_chaos_full"]
    first, second, other = (measure.run_once(workload, 200, seed)
                            for seed in (7, 7, 8))
    assert measure.first_difference([first, second]) is None
    assert measure.first_difference([first, other]) is not None


def test_same_result_compares_as_same(spec, quick_results):
    rows = compare.compare(quick_results, quick_results, spec, layers=True)
    assert {status for status, _ in rows} == {"same", "-"}
    assert compare.verdict(100.0, 85.0, "higher", 0.10, noise=0.02) == "regressed"
    assert compare.verdict(100.0, 85.0, "higher", 0.10, noise=0.20) == "unresolved"
    assert compare.verdict(100.0, 120.0, "higher", 0.10, noise=0.02) == "better"
    assert compare.verdict(10.0, 10.5, "lower", 0.10, noise=0.0) == "same"


def _quorum_lost(ops: int):
    """``abd_quiet`` with three of shard 0's five servers crashed at t=30."""
    scenario = abd_quiet(ops)
    crashes = Schedule([At(30.0, Crash(f"s{index}")) for index in range(3)])
    return dataclasses.replace(scenario, name="e2e_quorum_lost",
                               schedule=lambda deployment: crashes)


def test_unreachable_quorum_is_reported_and_fails():
    workload = Workload("quorum_lost", _quorum_lost, ops=320)
    clock = hostclock.HostClock()
    clock.start()
    runs = [measure.timed_repeat(workload, workload.ops, 0, clock)]
    outcome = run.end_to_end(workload, 0, runs)
    assert not outcome["correct"]
    assert outcome["failed"] / outcome["attempted"] > 0
    assert "liveness" in outcome["failure"]
    assert run.exit_code({"quorum_lost": {"end_to_end": outcome}}) == 1

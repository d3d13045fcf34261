"""The sweep engine: grids, workers, campaigns, CLI.

The heavyweight guarantee -- a cell's history signature is byte-identical
whether it runs serially or in a pool worker -- is asserted here on a small
grid; CI re-asserts it with ``--check-serial=all`` on every push and over the
full registry nightly.
"""

from __future__ import annotations

import json

import pytest

from repro.sweep import (RunSpec, SweepGrid, auto_chunk, campaign,
                         default_jobs, execute_run, latency_summary,
                         parse_grid, parse_seeds, resolve_scenarios,
                         usable_cores)
from repro.sweep.__main__ import main as sweep_main
from repro.sweep.engine import MAX_AUTO_CHUNK, _cgroup_cpu_quota
from repro.workloads.scenarios import scenario_names


class TestGridParsing:
    def test_parse_full_registry(self):
        grid = parse_grid("scenarios=all;seeds=0..2")
        assert grid.scenarios == tuple(scenario_names())
        assert grid.seeds == (0, 1, 2)
        assert grid.params == ()

    def test_parse_patterns_and_names(self):
        grid = parse_grid("scenarios=abd_*,treas_crash_server;seeds=5")
        assert all(name.startswith("abd_") or name == "treas_crash_server"
                   for name in grid.scenarios)
        assert "treas_crash_server" in grid.scenarios
        assert grid.seeds == (5,)

    def test_parse_param_axes(self):
        grid = parse_grid("scenarios=abd_crash_minority;seeds=0;"
                          "value_size=128,512;think_time=1.5")
        assert dict(grid.params) == {"value_size": (128, 512), "think_time": (1.5,)}

    def test_seed_forms(self):
        assert parse_seeds("0..3") == (0, 1, 2, 3)
        assert parse_seeds("4,2,9") == (4, 2, 9)
        with pytest.raises(ValueError):
            parse_seeds("3..1")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="matches nothing"):
            parse_grid("scenarios=no_such_scenario;seeds=0")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown grid key"):
            parse_grid("scenarios=all;seeds=0;num_servers=9")

    def test_duplicate_clause_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_grid("scenarios=all;scenarios=all")

    def test_missing_scenarios_rejected(self):
        with pytest.raises(ValueError, match="must name scenarios"):
            parse_grid("seeds=0..1")

    def test_resolve_preserves_registration_order_and_dedups(self):
        registered = scenario_names()
        names = resolve_scenarios(["treas_*", "all"])
        # treas matches come first (in registration order), then the rest of
        # the registry (also in registration order), with no duplicates.
        treas = [name for name in registered if name.startswith("treas_")]
        rest = [name for name in registered if not name.startswith("treas_")]
        assert names == tuple(treas + rest)


class TestGridExpansion:
    def test_expansion_order_is_scenario_major(self):
        grid = SweepGrid(scenarios=("a_scenario", "b_scenario"), seeds=(0, 1))
        cells = [(spec.scenario, spec.seed) for spec in grid.expand()]
        assert cells == [("a_scenario", 0), ("a_scenario", 1),
                         ("b_scenario", 0), ("b_scenario", 1)]

    def test_param_cross_product(self):
        grid = SweepGrid(scenarios=("s",), seeds=(0,),
                         params=(("value_size", (128, 256)), ("think_time", (1.0,))))
        specs = grid.expand()
        assert len(specs) == 2
        assert {dict(spec.params)["value_size"] for spec in specs} == {128, 256}
        assert all(dict(spec.params)["think_time"] == 1.0 for spec in specs)

    def test_cell_ids_stable(self):
        spec = RunSpec("abd_crash_minority", 3,
                       params=(("think_time", 1.0), ("value_size", 128)))
        assert spec.cell_id == "abd_crash_minority/s3[think_time=1.0,value_size=128]"

    def test_invalid_param_rejected(self):
        with pytest.raises(ValueError, match="unknown grid parameter"):
            SweepGrid(scenarios=("s",), seeds=(0,), params=(("bogus", (1,)),))

    def test_duplicate_param_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicate grid parameter axis"):
            SweepGrid(scenarios=("s",), seeds=(0,),
                      params=(("value_size", (128, 256)), ("value_size", (512,))))

    def test_describe_counts_cells(self):
        grid = SweepGrid(scenarios=("a", "b"), seeds=(0, 1, 2),
                         params=(("value_size", (1, 2)),))
        assert grid.describe()["cells"] == 12


class TestExecuteRun:
    def test_record_shape(self):
        record = execute_run(RunSpec("abd_crash_minority", 0))
        assert record.ok, record.failure
        assert record.checker_method == "fast"
        assert record.history_ops > 0
        assert record.events > 0 and record.messages > 0
        assert len(record.signature_hash) == 64
        assert record.read_latency["count"] > 0
        assert record.write_latency["p99"] >= record.write_latency["p50"] > 0

    def test_matches_run_scenario_signature(self):
        import hashlib

        from repro.workloads.scenarios import run_scenario

        record = execute_run(RunSpec("treas_crash_server", 2))
        direct = run_scenario("treas_crash_server", seed=2)
        expected = hashlib.sha256(repr(direct.signature()).encode()).hexdigest()
        assert record.signature_hash == expected

    def test_param_override_changes_workload(self):
        base = execute_run(RunSpec("abd_crash_minority", 0))
        bigger = execute_run(RunSpec(
            "abd_crash_minority", 0,
            params=(("operations_per_reader", 5), ("operations_per_writer", 5))))
        assert bigger.ok, bigger.failure
        assert bigger.history_ops > base.history_ops
        assert bigger.signature_hash != base.signature_hash

    def test_param_override_is_deterministic(self):
        spec = RunSpec("abd_crash_minority", 1, params=(("value_size", 64),))
        assert execute_run(spec).signature_hash == execute_run(spec).signature_hash

    def test_unknown_scenario_is_recorded_not_raised(self):
        # expand() does not validate names (grids can be built directly), so
        # the worker must contain the KeyError instead of killing the pool.
        record = execute_run(RunSpec("no_such_scenario", 0))
        assert not record.ok
        assert "cell crashed" in record.failure
        assert record.signature_hash == ""

    def test_broken_cell_is_recorded_not_raised(self):
        # value_size must be non-negative; the worker reports the failure as
        # a failed cell instead of poisoning the whole campaign.
        record = execute_run(RunSpec("abd_crash_minority", 0,
                                     params=(("value_size", -1),)))
        assert not record.ok
        assert "value size must be non-negative" in record.failure


class TestCampaign:
    GRID = SweepGrid(scenarios=("abd_crash_minority", "treas_crash_server"),
                     seeds=(0, 1))

    def test_serial_campaign(self):
        result = campaign(self.GRID, jobs=1)
        assert result.ok and result.passed == 4
        assert [r.cell_id for r in result.records] == [
            spec.cell_id for spec in self.GRID.expand()]
        assert result.checker_method_counts() == {"fast": 4}

    def test_pooled_matches_serial_hash_for_hash(self):
        serial = campaign(self.GRID, jobs=1)
        pooled = campaign(self.GRID, jobs=2)
        assert pooled.ok
        assert serial.signature_map() == pooled.signature_map()
        # Records come back in expansion order regardless of completion order.
        assert [r.cell_id for r in pooled.records] == [r.cell_id for r in serial.records]

    def test_progress_callback_sees_every_cell(self):
        seen = []
        campaign(self.GRID, jobs=1, progress=seen.append)
        assert [record.cell_id for record in seen] == [
            spec.cell_id for spec in self.GRID.expand()]

    def test_pass_matrix_and_render(self):
        result = campaign(self.GRID, jobs=1)
        matrix = result.pass_matrix()
        assert matrix == {"abd_crash_minority": {0: True, 1: True},
                          "treas_crash_server": {0: True, 1: True}}
        rendered = result.render_matrix()
        assert "abd_crash_minority" in rendered and "ok" in rendered

    def test_to_json_schema(self):
        result = campaign(SweepGrid(scenarios=("abd_crash_minority",), seeds=(0,)),
                          jobs=1)
        report = result.to_json()
        assert report["cells_total"] == 1 and report["cells_failed"] == 0
        assert report["slowest_cell"] == "abd_crash_minority/s0"
        cell = report["cells"][0]
        assert {"signature_hash", "wall_clock_sec", "read_latency",
                "write_latency", "checker_method"} <= set(cell)
        json.dumps(report)  # must be serialisable as-is

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            campaign(self.GRID, jobs=0)

    def test_default_jobs_is_positive(self):
        assert default_jobs() >= 1

    def test_pinned_chunk_matches_serial_hash_for_hash(self):
        serial = campaign(self.GRID, jobs=1)
        chunked = campaign(self.GRID, jobs=2, chunk=3)
        assert chunked.chunk == 3
        assert chunked.signature_map() == serial.signature_map()
        assert [r.cell_id for r in chunked.records] == \
            [r.cell_id for r in serial.records]

    def test_auto_chunk_is_recorded(self):
        result = campaign(self.GRID, jobs=2)
        assert result.chunk >= 1
        assert result.pool_spinup_sec >= 0.0

    def test_workers_records_effective_pool_size(self):
        # A --jobs 16 request on a smaller host must not report 16: the
        # engine caps the pool at usable_cores() (and the pending cells)
        # and records what it actually started.
        serial = campaign(self.GRID, jobs=1)
        assert serial.workers == 1
        pooled = campaign(self.GRID, jobs=16)
        assert pooled.jobs == 16
        assert pooled.workers == \
            min(16, len(self.GRID.expand()), usable_cores())
        assert pooled.to_json()["workers"] == pooled.workers

    def test_invalid_chunk_rejected(self):
        with pytest.raises(ValueError, match="chunk"):
            campaign(self.GRID, jobs=2, chunk=0)

    def test_max_cells_truncates_deterministically(self):
        partial = campaign(self.GRID, jobs=1, max_cells=2)
        assert not partial.complete
        assert [r.cell_id for r in partial.records] == \
            [spec.cell_id for spec in self.GRID.expand()[:2]]

    def test_max_events_axis_is_a_livelock_frontier(self):
        # A starved event budget fails the cell (the adaptive campaigns
        # bisect exactly this), a generous one verifies.
        grid = SweepGrid(scenarios=("abd_crash_minority",), seeds=(0,),
                         params=(("max_events", (200, 60000)),))
        result = campaign(grid, jobs=1)
        by_budget = {dict(r.params)["max_events"]: r for r in result.records}
        assert not by_budget[200].ok
        assert by_budget[60000].ok


class TestAutoChunk:
    def test_cheap_cells_get_big_batches(self):
        # 5ms cells: ~50 cells per 0.25s task, but load balance caps first.
        assert auto_chunk(0.005, 1000, 4) == 50

    def test_expensive_cells_get_single_batches(self):
        assert auto_chunk(0.5, 1000, 4) == 1

    def test_load_balance_keeps_two_tasks_per_worker(self):
        # 16 pending cells over 4 workers: never more than 2 cells per task
        # even though the cost target would allow far larger batches.
        assert auto_chunk(0.001, 16, 4) == 2

    def test_capped_and_floored(self):
        assert auto_chunk(0.0, 100_000, 1) == MAX_AUTO_CHUNK
        assert auto_chunk(100.0, 10, 1) == 1


class TestUsableCores:
    def test_positive_and_at_most_affinity(self):
        import os

        assert 1 <= usable_cores() <= len(os.sched_getaffinity(0))

    def test_cgroup_quota_caps_cores(self, monkeypatch):
        import repro.sweep.engine as engine

        monkeypatch.setattr(engine.os, "sched_getaffinity",
                            lambda pid: set(range(16)))
        monkeypatch.setattr(engine, "_cgroup_cpu_quota", lambda: 2.0)
        assert usable_cores() == 2
        monkeypatch.setattr(engine, "_cgroup_cpu_quota", lambda: None)
        assert usable_cores() == 16
        # A sub-core quota still leaves one usable core.
        monkeypatch.setattr(engine, "_cgroup_cpu_quota", lambda: 0.5)
        assert usable_cores() == 1

    def test_cgroup_v2_parsing(self, tmp_path):
        (tmp_path / "cpu.max").write_text("200000 100000\n")
        assert _cgroup_cpu_quota(tmp_path) == 2.0
        (tmp_path / "cpu.max").write_text("max 100000\n")
        assert _cgroup_cpu_quota(tmp_path) is None

    def test_cgroup_v1_parsing(self, tmp_path):
        (tmp_path / "cpu").mkdir()
        (tmp_path / "cpu" / "cpu.cfs_quota_us").write_text("150000\n")
        (tmp_path / "cpu" / "cpu.cfs_period_us").write_text("100000\n")
        assert _cgroup_cpu_quota(tmp_path) == 1.5
        (tmp_path / "cpu" / "cpu.cfs_quota_us").write_text("-1\n")
        assert _cgroup_cpu_quota(tmp_path) is None

    def test_missing_cgroup_means_no_quota(self, tmp_path):
        assert _cgroup_cpu_quota(tmp_path / "nope") is None

    def test_default_jobs_follows_usable_cores(self, monkeypatch):
        import repro.sweep.engine as engine

        monkeypatch.setattr(engine, "usable_cores", lambda: 32)
        assert default_jobs() == 8
        monkeypatch.setattr(engine, "usable_cores", lambda: 3)
        assert default_jobs() == 3


class TestLatencySummary:
    def test_empty(self):
        assert latency_summary([])["count"] == 0

    def test_percentiles_nearest_rank(self):
        sample = list(range(1, 101))  # 1..100
        summary = latency_summary(sample)
        assert summary["p50"] == 50
        assert summary["p95"] == 95
        assert summary["p99"] == 99
        assert summary["max"] == 100
        assert summary["mean"] == pytest.approx(50.5)

    def test_single_sample(self):
        summary = latency_summary([2.5])
        assert summary["p50"] == summary["p99"] == summary["max"] == 2.5


class TestCli:
    def test_cli_runs_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = sweep_main(["--grid", "scenarios=abd_crash_minority;seeds=0..1",
                           "--jobs", "1", "--output", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["cells_total"] == 2 and report["cells_failed"] == 0
        assert "pass" in capsys.readouterr().out

    def test_cli_check_serial_gate(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = sweep_main(["--grid", "scenarios=treas_crash_server;seeds=0",
                           "--jobs", "2", "--check-serial",
                           "--output", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["serial_check"]["mismatches"] == 0

    def test_cli_list(self, capsys):
        assert sweep_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_cli_bad_grid_raises(self):
        with pytest.raises(ValueError):
            sweep_main(["--grid", "scenarios=nope;seeds=0"])

    def test_cli_chunk_flag(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = sweep_main(["--grid", "scenarios=abd_crash_minority;seeds=0..1",
                           "--jobs", "2", "--chunk", "2",
                           "--output", str(out), "--quiet"])
        assert code == 0
        assert json.loads(out.read_text())["chunk"] == 2

    def test_cli_check_serial_all(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = sweep_main(["--grid", "scenarios=treas_crash_server;seeds=0",
                           "--jobs", "2", "--check-serial=all",
                           "--output", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["serial_check"]["mode"] == "all"
        assert report["serial_check"]["mismatches"] == 0

    def test_cli_check_serial_bad_value(self):
        with pytest.raises(SystemExit):
            sweep_main(["--grid", "scenarios=treas_crash_server;seeds=0",
                        "--check-serial=zero", "--quiet"])

    def test_cli_stop_after_then_resume(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        out = tmp_path / "sweep.json"
        code = sweep_main(["--grid", "scenarios=abd_crash_minority;seeds=0..3",
                           "--jobs", "1", "--checkpoint", str(ckpt),
                           "--stop-after", "2", "--quiet"])
        assert code == 3  # incomplete but failure-free
        code = sweep_main(["--grid", "scenarios=abd_crash_minority;seeds=0..3",
                           "--jobs", "1", "--checkpoint", str(ckpt),
                           "--resume", "--output", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["complete"] and report["resumed_cells"] == 2
        assert report["cells_total"] == 4

    def test_cli_existing_checkpoint_without_resume_exits_2(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        args = ["--grid", "scenarios=abd_crash_minority;seeds=0",
                "--jobs", "1", "--checkpoint", str(ckpt), "--quiet"]
        assert sweep_main(args) == 0
        assert sweep_main(args) == 2

    def test_cli_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            sweep_main(["--grid", "scenarios=abd_crash_minority;seeds=0",
                        "--resume", "--quiet"])

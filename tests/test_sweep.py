"""The sweep engine: grids, workers, campaigns, CLI.

The heavyweight guarantee -- a cell's history signature is byte-identical
whether it runs serially or in a pool worker -- is asserted here on a small
grid and, against the committed goldens, for every registered scenario at
seed 0 in batch and streaming mode; CI re-asserts it with ``--check-serial``
on every push and over the full registry nightly.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.sweep import (RunSpec, SweepGrid, campaign, execute_run,
                         latency_summary, parse_grid, parse_seeds,
                         resolve_scenarios)
from repro.sweep.__main__ import main as sweep_main
from repro.workloads.scenarios import scenario_names

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_signatures.json")
    .read_text())


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

    def test_single_seed_forms(self):
        assert parse_seeds(" 7 ") == (7,)
        assert parse_seeds("5..5") == (5,)
        assert parse_seeds("3,,4,") == (3, 4)

    @pytest.mark.parametrize("text", ["", " , ", "x", "1..x", "1.5"])
    def test_bad_seed_text_rejected(self, text):
        with pytest.raises(ValueError):
            parse_seeds(text)

    def test_seeds_default_to_zero(self):
        assert parse_grid("scenarios=abd_crash_minority").seeds == (0,)

    def test_empty_clauses_are_ignored(self):
        grid = parse_grid(" scenarios=abd_crash_minority ; ;seeds=1;")
        assert grid.scenarios == ("abd_crash_minority",)
        assert grid.seeds == (1,)

    def test_clause_without_equals_rejected(self):
        with pytest.raises(ValueError, match="not key=value"):
            parse_grid("scenarios=all;seeds")

    def test_axis_values_use_the_field_parser(self):
        grid = parse_grid("scenarios=abd_crash_minority;think_time=2;value_size=64")
        assert dict(grid.params) == {"think_time": (2.0,), "value_size": (64,)}
        assert isinstance(dict(grid.params)["think_time"][0], float)
        with pytest.raises(ValueError):
            parse_grid("scenarios=abd_crash_minority;value_size=1.5")

    def test_axis_without_values_rejected(self):
        with pytest.raises(ValueError, match="has no values"):
            parse_grid("scenarios=abd_crash_minority;value_size=")

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

    def test_empty_scenarios_or_seeds_rejected(self):
        with pytest.raises(ValueError, match="at least one scenario"):
            SweepGrid(scenarios=(), seeds=(0,))
        with pytest.raises(ValueError, match="at least one seed"):
            SweepGrid(scenarios=("s",), seeds=())


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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_progress_callback_sees_every_cell(self, jobs):
        # Pooled results arrive through an ordered imap, so progress fires
        # in grid-expansion order at any pool size.
        seen = []
        campaign(self.GRID, jobs=jobs, progress=seen.append)
        assert [record.cell_id for record in seen] == [
            spec.cell_id for spec in self.GRID.expand()]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_crashed_cell_fails_and_campaign_finishes(self, jobs):
        # A worker exception becomes a failed record; the remaining cells
        # still run and the campaign returns normally.
        grid = SweepGrid(scenarios=("abd_crash_minority",), seeds=(0, 1),
                         params=(("value_size", (-1, 64)),))
        result = campaign(grid, jobs=jobs)
        assert len(result.records) == 4 and result.passed == 2
        assert [dict(r.params)["value_size"] for r in result.failures()] == [-1, -1]
        assert all("value size must be non-negative" in r.failure
                   for r in result.failures())

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

    def test_max_events_axis_is_a_livelock_frontier(self):
        # A starved event budget fails the cell (the adaptive campaigns
        # bisect exactly this), a generous one verifies.
        grid = SweepGrid(scenarios=("abd_crash_minority",), seeds=(0,),
                         params=(("max_events", (200, 60000)),))
        result = campaign(grid, jobs=1)
        by_budget = {dict(r.params)["max_events"]: r for r in result.records}
        assert not by_budget[200].ok
        assert by_budget[60000].ok


class TestPooledRegistry:
    """Every registered scenario, run in a pool worker, verifies and
    reproduces its golden batch signature: the tier-1 share of nightly's
    full-registry ``--check-serial`` gate, in both verification modes."""

    @pytest.fixture(scope="class", params=[False, True],
                    ids=["batch", "streaming"])
    def pooled(self, request):
        result = campaign(parse_grid("scenarios=all;seeds=0"), jobs=2,
                          streaming=request.param)
        assert [r.cell_id for r in result.records] == [
            f"{name}/s0" for name in scenario_names()]
        return request.param, {r.scenario: r for r in result.records}

    @pytest.mark.parametrize("name", scenario_names())
    def test_pooled_cell_matches_golden(self, pooled, name):
        streaming, records = pooled
        record = records[name]
        assert record.ok, record.failure
        assert record.signature_hash == GOLDEN[name], (
            f"{name} diverged from its golden signature in a pool worker")
        method = "streaming" if streaming else "fast"
        assert record.checker_method in (method, f"per-key({method})")


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

    def test_cli_check_serial_gate(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = sweep_main(["--grid", "scenarios=treas_crash_server;seeds=0..1",
                           "--jobs", "2", "--check-serial",
                           "--output", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["serial_check"]["mismatches"] == 0
        # The bare flag re-runs the whole grid, not a sample.
        assert "all 2 cells byte-identical" in capsys.readouterr().out

    def test_cli_streaming_check_serial_leg(self, tmp_path, capsys):
        # CI's push-time smoke: streaming-pooled cells against batch-serial.
        out = tmp_path / "sweep.json"
        code = sweep_main(["--grid", "scenarios=abd_crash_minority,"
                           "treas_crash_server;seeds=0..1",
                           "--jobs", "2", "--streaming", "--check-serial",
                           "--output", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["cells_total"] == 4 and report["cells_failed"] == 0
        assert report["serial_check"]["mismatches"] == 0
        assert "speedup" in report["serial_check"]
        assert {cell["checker_method"] for cell in report["cells"]} == {"streaming"}
        assert "all 4 cells byte-identical" in capsys.readouterr().out

    def test_cli_failing_cell_exits_1(self, capsys):
        code = sweep_main(["--grid",
                           "scenarios=abd_crash_minority;seeds=0;value_size=-1",
                           "--quiet"])
        assert code == 1
        out = capsys.readouterr().out
        assert "0/1 cells passed" in out
        assert "FAILED abd_crash_minority/s0[value_size=-1]" in out

    def test_cli_report_implies_metrics(self, tmp_path, capsys):
        out, html = tmp_path / "sweep.json", tmp_path / "campaign.html"
        code = sweep_main(["--grid", "scenarios=ldr_gray_degradation;seeds=0",
                           "--output", str(out), "--report", str(html),
                           "--quiet"])
        assert code == 0
        cell = json.loads(out.read_text())["cells"][0]
        assert cell["metrics"]["slo"]
        assert html.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
        assert "SLO verdicts: 0 failed across 1 cells" in capsys.readouterr().out

    def test_cli_bad_grid_raises(self):
        with pytest.raises(ValueError):
            sweep_main(["--grid", "scenarios=nope;seeds=0"])

"""Adaptive frontier search: bisection, monotonicity checks, CLI mode.

Synthetic oracles (monkeypatched in place of :func:`execute_run`) pin the
bisection logic exactly; one real-scenario campaign proves the canonical
``max_events`` axis yields a genuine livelock frontier.
"""

from __future__ import annotations

import json

import pytest

from repro.sweep.adaptive import AdaptiveCampaign, bisect_axis
from repro.sweep.__main__ import main as sweep_main
from repro.sweep.result import RunRecord


class TestBisectAxis:
    def test_min_passing_frontier(self):
        outcome = bisect_axis(lambda v: v >= 137, 0, 1000)
        assert outcome.direction == "min_passing"
        assert outcome.frontier == 137

    def test_max_passing_frontier(self):
        outcome = bisect_axis(lambda v: v <= 137, 0, 1000)
        assert outcome.direction == "max_passing"
        assert outcome.frontier == 137

    def test_all_pass_and_all_fail(self):
        assert bisect_axis(lambda v: True, 0, 10).direction == "all_pass"
        assert bisect_axis(lambda v: True, 0, 10).frontier == 0
        outcome = bisect_axis(lambda v: False, 0, 10)
        assert outcome.direction == "all_fail" and outcome.frontier is None

    def test_probe_count_is_logarithmic(self):
        outcome = bisect_axis(lambda v: v >= 500_000, 0, 1_000_000)
        # 2 endpoints + ~log2(10^6) midpoints, nowhere near a linear scan.
        assert len(outcome.probed) <= 25

    def test_float_axis(self):
        outcome = bisect_axis(lambda v: v >= 0.37, 0.0, 1.0, integer=False)
        assert outcome.direction == "min_passing"
        assert abs(outcome.frontier - 0.37) < 1.0 / 128.0

    def test_adjacent_bracket(self):
        outcome = bisect_axis(lambda v: v >= 6, 5, 6)
        assert outcome.frontier == 6

    def test_bad_bracket_rejected(self):
        with pytest.raises(ValueError, match="lo < hi"):
            bisect_axis(lambda v: True, 5, 5)


def _synthetic(monkeypatch, pred):
    """Replace the cell executor with a synthetic pass/fail oracle."""

    def fake(spec, streaming=False):
        value = dict(spec.params)["max_events"]
        ok = pred(value, spec.seed)
        return RunRecord(
            scenario=spec.scenario, seed=spec.seed, params=spec.params,
            ok=ok, failure=None if ok else "synthetic failure",
            signature_hash="synthetic", wall_clock_sec=0.0, history_ops=0,
            events=0, messages=0, checker_method="synthetic")

    monkeypatch.setattr("repro.sweep.engine.execute_run", fake)


class TestAdaptiveCampaign:
    def test_finds_min_passing_frontier(self, monkeypatch):
        _synthetic(monkeypatch, lambda v, seed: v >= 137)
        frontier = AdaptiveCampaign(scenario="synthetic", axis="max_events",
                                    lo=0, hi=1000).run()
        assert frontier.direction == "min_passing"
        assert frontier.frontier == 137
        assert frontier.monotonic and not frontier.violations

    def test_worst_seed_defines_the_frontier(self, monkeypatch):
        # A value passes only if EVERY seed passes, so the reported
        # frontier belongs to the most demanding seed.
        _synthetic(monkeypatch, lambda v, seed: v >= 100 + seed * 50)
        frontier = AdaptiveCampaign(scenario="synthetic", axis="max_events",
                                    lo=0, hi=1000, seeds=(0, 1)).run()
        assert frontier.frontier == 150

    def test_non_monotone_oracle_is_reported(self, monkeypatch):
        # Pass-iff-even is maximally non-monotone; the seed-deterministic
        # verification probes must expose it rather than bless a frontier.
        _synthetic(monkeypatch, lambda v, seed: v % 2 == 0)
        frontier = AdaptiveCampaign(scenario="synthetic", axis="max_events",
                                    lo=0, hi=999, verify_probes=4).run()
        assert not frontier.monotonic
        assert frontier.violations

    def test_probes_are_cached_per_value(self, monkeypatch):
        calls = []

        def fake(spec, streaming=False):
            calls.append(dict(spec.params)["max_events"])
            return RunRecord(
                scenario=spec.scenario, seed=spec.seed, params=spec.params,
                ok=True, failure=None, signature_hash="synthetic",
                wall_clock_sec=0.0, history_ops=0, events=0, messages=0,
                checker_method="synthetic")

        monkeypatch.setattr("repro.sweep.engine.execute_run", fake)
        AdaptiveCampaign(scenario="synthetic", axis="max_events",
                         lo=0, hi=1000).run()
        assert len(calls) == len(set(calls))

    def test_progress_sees_every_probe(self, monkeypatch):
        _synthetic(monkeypatch, lambda v, seed: v >= 137)
        seen = []
        frontier = AdaptiveCampaign(scenario="synthetic", axis="max_events",
                                    lo=0, hi=1000).run(progress=seen.append)
        assert len(seen) == len(frontier.records)

    def test_rerun_probes_identically(self, monkeypatch):
        _synthetic(monkeypatch, lambda v, seed: v >= 137)
        campaign = AdaptiveCampaign(scenario="synthetic", axis="max_events",
                                    lo=0, hi=1000)
        first = campaign.run()
        second = campaign.run()
        assert [r.cell_id for r in first.records] == \
            [r.cell_id for r in second.records]

    def test_to_json_is_serialisable(self, monkeypatch):
        _synthetic(monkeypatch, lambda v, seed: v >= 137)
        report = AdaptiveCampaign(scenario="synthetic", axis="max_events",
                                  lo=0, hi=1000).run().to_json()
        assert report["frontier"] == 137 and report["monotonic"]
        json.dumps(report)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown bisection axis"):
            AdaptiveCampaign(scenario="s", axis="bogus", lo=0, hi=10)
        with pytest.raises(ValueError, match="lo < hi"):
            AdaptiveCampaign(scenario="s", axis="max_events", lo=10, hi=10)
        with pytest.raises(ValueError, match="fixed parameter"):
            AdaptiveCampaign(scenario="s", axis="max_events", lo=0, hi=10,
                             base_params=(("max_events", 5),))

    def test_real_event_budget_frontier(self):
        # The canonical axis on a real scenario: below the frontier the
        # simulator's event budget exhausts (livelock failure), above it
        # the run completes and verifies.
        frontier = AdaptiveCampaign(scenario="abd_crash_minority",
                                    axis="max_events", lo=200, hi=60000,
                                    seeds=(0,)).run()
        assert frontier.direction == "min_passing"
        assert frontier.monotonic, frontier.violations
        assert 200 < frontier.frontier < 60000
        passing = [r for r in frontier.records if r.ok]
        assert passing and all(len(r.signature_hash) == 64 for r in passing)


class TestCliBisect:
    def test_cli_bisect_writes_frontier_report(self, tmp_path, capsys):
        out = tmp_path / "frontier.json"
        code = sweep_main(["--grid", "scenarios=abd_crash_minority;seeds=0",
                           "--bisect", "max_events=200..60000",
                           "--quiet", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["kind"] == "frontier-report"
        frontier = report["campaigns"][0]
        assert frontier["direction"] == "min_passing"
        assert frontier["monotonic"]
        assert "frontier" in capsys.readouterr().out

    def test_cli_bisect_rejects_bad_axis(self, capsys):
        with pytest.raises(SystemExit):
            sweep_main(["--grid", "scenarios=abd_crash_minority;seeds=0",
                        "--bisect", "bogus=1..2"])

    def test_cli_bisect_rejects_campaign_flags(self):
        with pytest.raises(SystemExit):
            sweep_main(["--grid", "scenarios=abd_crash_minority;seeds=0",
                        "--bisect", "max_events=200..400", "--check-serial"])

    @pytest.mark.parametrize("flags", [["--metrics"], ["--report", "r.html"]],
                             ids=["metrics", "report"])
    def test_cli_bisect_rejects_metrics_flags(self, flags):
        with pytest.raises(SystemExit):
            sweep_main(["--grid", "scenarios=abd_crash_minority;seeds=0",
                        "--bisect", "max_events=200..400", *flags])

    @pytest.mark.parametrize("bisect", ["max_events=500", "max_events=a..b",
                                        "max_events"])
    def test_cli_bisect_rejects_bad_bracket(self, bisect):
        with pytest.raises(SystemExit):
            sweep_main(["--grid", "scenarios=abd_crash_minority;seeds=0",
                        "--bisect", bisect])

    def test_cli_bisect_rejects_multi_value_axes(self):
        with pytest.raises(SystemExit):
            sweep_main(["--grid",
                        "scenarios=abd_crash_minority;seeds=0;value_size=1,2",
                        "--bisect", "max_events=200..400"])

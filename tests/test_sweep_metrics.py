"""Metrics through the sweep plane: records, pooled campaigns, HTML.

The sweep carries each cell's exported :class:`~repro.obs.report.MetricsReport`
dict (plus SLO verdicts) across the process boundary and through the JSON
report.  These tests pin the contracts the campaign report depends on:

* metrics-free records render byte-identically to the pre-metrics schema
  (old reports re-parse);
* a pooled metrics campaign reports per-cell bytes identical to a serial
  one (no cache state leaks between the cells a worker runs);
* SLO failures are reported in the record but never flip ``RunRecord.ok``;
* the HTML campaign report is self-contained, well-formed and renders the
  matrix, degradation curves and sparklines from the same JSON.
"""

from __future__ import annotations

import json
from html.parser import HTMLParser

import pytest

from repro.sweep.engine import campaign, execute_run
from repro.sweep.grid import RunSpec, parse_grid
from repro.sweep.html import render_campaign_html
from repro.sweep.result import RunRecord

GRID = "scenarios=treas_gray_degradation;seeds=0..1;fault_rate=0.0,0.05"


@pytest.fixture(scope="module")
def metrics_result():
    return campaign(parse_grid(GRID), jobs=1, metrics=True)


# ----------------------------------------------------------------- records
def test_execute_run_attaches_report_and_slo_verdicts():
    spec = RunSpec(scenario="ldr_gray_degradation", seed=0, params=())
    record = execute_run(spec, metrics=True)
    assert record.ok
    assert record.metrics is not None
    assert record.metrics["histograms"]["read_latency"]["count"] > 0
    verdicts = record.metrics["slo"]
    assert len(verdicts) == 2
    assert all(entry["ok"] and entry["detail"] is None for entry in verdicts)


def test_metrics_free_record_json_has_no_metrics_key():
    spec = RunSpec(scenario="abd_crash_minority", seed=0, params=())
    record = execute_run(spec)
    assert record.metrics is None
    assert "metrics" not in record.to_json()


def test_slo_failures_do_not_flip_record_ok():
    """A cell past the calibrated envelope reports the broken SLO but stays
    ``ok``: correctness and SLO verdicts are separate axes by design."""
    spec = RunSpec(scenario="abd_gray_degradation", seed=1,
                   params=(("fault_rate", 0.0625),))
    record = execute_run(spec, metrics=True)
    assert record.ok
    assert any(not entry["ok"] for entry in record.metrics["slo"])


def test_metrics_agree_between_serial_and_identical_rerun():
    spec = RunSpec(scenario="treas_gray_degradation", seed=0, params=())
    a = execute_run(spec, metrics=True)
    b = execute_run(spec, metrics=True)
    assert a.signature_hash == b.signature_hash
    assert json.dumps(a.metrics, sort_keys=True) == \
        json.dumps(b.metrics, sort_keys=True)


# ---------------------------------------------------------- pooled campaign
def _stable(records):
    """Record JSON with the only legitimately varying field masked."""
    return json.dumps(
        [dict(record.to_json(), wall_clock_sec=0) for record in records],
        sort_keys=True)


def test_pooled_metrics_campaign_matches_serial_byte_identically(metrics_result):
    pooled = campaign(parse_grid(GRID), jobs=2, metrics=True)
    assert _stable(pooled.records) == _stable(metrics_result.records)


# -------------------------------------------------------------------- HTML
_VOID_TAGS = {"meta", "br", "img", "hr", "input", "link", "circle",
              "polyline"}


class _WellFormedness(HTMLParser):
    """Minimal tag-balance checker for the self-contained report page."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = []
        self.errors = []

    def handle_starttag(self, tag, attrs):
        if tag not in _VOID_TAGS:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if tag in _VOID_TAGS:
            return
        if not self.stack or self.stack[-1] != tag:
            self.errors.append(f"unbalanced </{tag}>")
        else:
            self.stack.pop()


def test_html_report_is_well_formed_and_complete(metrics_result):
    page = metrics_result.render_html()
    checker = _WellFormedness()
    checker.feed(page)
    assert checker.errors == []
    assert checker.stack == []
    assert page.startswith("<!DOCTYPE html>")
    for token in ("Pass/fail matrix", "Degradation curves", "pass fraction",
                  "mean p99 read latency", "treas_gray_degradation",
                  "<polyline", "SLOs", "&#10003;"):
        assert token in page, f"missing section/token: {token}"
    # Self-contained: no external fetches of any kind.
    for external in ("http://", "https://", "<script"):
        assert external not in page


def test_html_renders_identically_from_rehydrated_json(metrics_result):
    rehydrated = json.loads(json.dumps(metrics_result.to_json()))
    assert render_campaign_html(rehydrated) == metrics_result.render_html()


def test_html_without_metrics_omits_sparkline_columns():
    result = campaign(parse_grid("scenarios=abd_crash_minority;seeds=0"),
                      jobs=1)
    page = result.render_html()
    checker = _WellFormedness()
    checker.feed(page)
    assert checker.errors == [] and checker.stack == []
    assert "Pass/fail matrix" in page
    assert "Degradation curves" not in page  # no fault_rate axis
    assert "SLOs" not in page


def test_html_escapes_failure_text():
    record = RunRecord(
        scenario="abd_crash_minority", seed=0, params=(),
        ok=False, failure="<script>alert(1)</script>", signature_hash="",
        wall_clock_sec=0.0, history_ops=0, events=0, messages=0,
        checker_method="")
    from repro.sweep.result import SweepResult

    page = SweepResult(grid={}, jobs=1, records=[record],
                       wall_clock_sec=0.0).render_html()
    assert "<script>" not in page
    assert "&lt;script&gt;" in page

"""Self-contained HTML campaign reports: matrix, curves, sparklines.

:func:`render_campaign_html` turns the JSON rendering of a
:class:`~repro.sweep.result.SweepResult` (``SweepResult.to_json()``, or the
same dict re-read from a ``--output`` file) into one static HTML page with
zero external dependencies -- no JavaScript, no CDN fonts, no chart
library; every curve and sparkline is inline SVG built from the record
dicts.  The page has three sections:

* **Pass/fail matrix** -- one row per scenario, one column per seed,
  parameter cells AND-ed, mirroring ``SweepResult.render_matrix()``.
* **Degradation curves** -- when the grid sweeps a ``fault_rate`` axis,
  one curve pair per scenario: pass fraction and mean p99 read latency
  against the fault rate, the quantitative "how does the DAP degrade"
  answer the gray-failure scenarios exist for.
* **Per-cell table** -- every cell's verdict, checker, latency summary,
  SLO verdicts and (for ``--metrics`` campaigns) a virtual-time sparkline
  of per-window mean read latency from the cell's exported
  :class:`~repro.obs.report.MetricsReport`.

The renderer is a pure function of the report dict (no timestamps, no
randomness), so re-rendering an archived campaign JSON reproduces the page
byte-for-byte.
"""

from __future__ import annotations

import html
import json
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["render_campaign_html"]

#: Colour palette shared by the matrix, curves and per-cell table.
PASS_COLOR = "#15803d"
FAIL_COLOR = "#b91c1c"
CURVE_COLOR = "#1d4ed8"

_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 72em; color: #1f2937; }
h1 { font-size: 1.4em; } h2 { font-size: 1.15em; margin-top: 2em; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #d1d5db; padding: 0.25em 0.6em; text-align: left; }
th { background: #f3f4f6; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.ok { color: """ + PASS_COLOR + """; font-weight: 600; }
.fail { color: """ + FAIL_COLOR + """; font-weight: 600; }
.muted { color: #6b7280; }
.summary span { margin-right: 1.6em; }
.chartrow { display: flex; gap: 2em; flex-wrap: wrap; margin: 0.6em 0 1.4em; }
.chart { border: 1px solid #e5e7eb; padding: 0.5em 0.7em; }
.chart figcaption { font-size: 0.85em; color: #6b7280; }
.slo { margin: 0; padding-left: 1.2em; font-size: 0.9em; }
code { background: #f3f4f6; padding: 0 0.25em; }
"""


def _esc(value: object) -> str:
    """HTML-escape any value's string form."""
    return html.escape(str(value), quote=True)


def _fmt(value: float, places: int = 3) -> str:
    """Compact fixed-point rendering without trailing zeros."""
    text = f"{value:.{places}f}".rstrip("0").rstrip(".")
    return text or "0"


def _polyline(points: Sequence[Tuple[float, float]], width: int, height: int,
              color: str, lo: Optional[float] = None,
              hi: Optional[float] = None) -> str:
    """SVG path fragment for a series, normalised into a width x height box.

    ``lo``/``hi`` pin the y-range (e.g. 0..1 for pass fractions); by
    default the range is the series' own min/max.  A flat or single-point
    series renders as a horizontal line rather than dividing by zero.
    """
    if not points:
        return ""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo = min(ys) if lo is None else lo
    y_hi = max(ys) if hi is None else hi
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    pad = 3.0
    coords = " ".join(
        f"{pad + (x - x_lo) / x_span * (width - 2 * pad):.1f},"
        f"{height - pad - (y - y_lo) / y_span * (height - 2 * pad):.1f}"
        for x, y in points)
    dots = "".join(
        f'<circle cx="{pad + (x - x_lo) / x_span * (width - 2 * pad):.1f}" '
        f'cy="{height - pad - (y - y_lo) / y_span * (height - 2 * pad):.1f}" '
        f'r="2" fill="{color}"/>'
        for x, y in points) if len(points) <= 24 else ""
    return (f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>{dots}')


def _chart(points: Sequence[Tuple[float, float]], caption: str,
           color: str = CURVE_COLOR, lo: Optional[float] = None,
           hi: Optional[float] = None) -> str:
    """A captioned SVG line chart with min/max range annotations."""
    width, height = 260, 80
    ys = [p[1] for p in points]
    y_lo = min(ys) if lo is None else lo
    y_hi = max(ys) if hi is None else hi
    label = (f"x: {_fmt(min(p[0] for p in points))}..{_fmt(max(p[0] for p in points))}"
             f" &middot; y: {_fmt(y_lo)}..{_fmt(y_hi)}") if points else "no data"
    return (f'<figure class="chart"><svg width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">'
            f'{_polyline(points, width, height, color, lo=lo, hi=hi)}</svg>'
            f'<figcaption>{_esc(caption)} <span class="muted">({label})'
            f'</span></figcaption></figure>')


def _sparkline(points: Sequence[Tuple[float, float]]) -> str:
    """A bare inline sparkline (virtual time on x) for the per-cell table."""
    if not points:
        return '<span class="muted">-</span>'
    width, height = 140, 26
    return (f'<svg width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">'
            f'{_polyline(points, width, height, CURVE_COLOR)}</svg>')


def _mean_series(cell: Dict[str, object], series: str
                 ) -> List[Tuple[float, float]]:
    """``(window start, window mean)`` points of one cell's metric histogram."""
    metrics = cell.get("metrics") or {}
    histogram = metrics.get("histograms", {}).get(series)
    if not histogram:
        return []
    return [(float(w[0]), float(w[2])) for w in histogram["windows"] if w[1]]


def _summary_section(report: Dict[str, object]) -> str:
    """The header block: grid description plus campaign-level aggregates."""
    failed = report.get("cells_failed", 0)
    verdict = ('<span class="ok">PASS</span>' if not failed
               else f'<span class="fail">{failed} FAILED</span>')
    grid = _esc(json.dumps(report.get("grid", {}), sort_keys=True))
    return (
        f"<h1>Sweep campaign report</h1>"
        f'<p><code>{grid}</code></p>'
        f'<p class="summary">{verdict} '
        f'<span>{report.get("cells_passed", 0)}/{report.get("cells_total", 0)}'
        f" cells passed</span>"
        f'<span>{_fmt(float(report.get("wall_clock_sec", 0.0)), 2)}s wall'
        f" clock</span></p>")


def _matrix_section(cells: Sequence[Dict[str, object]]) -> str:
    """Scenario x seed pass/fail table (parameter cells AND-ed per seed)."""
    matrix: Dict[str, Dict[int, bool]] = {}
    for cell in cells:
        row = matrix.setdefault(cell["scenario"], {})
        seed = cell["seed"]
        row[seed] = row.get(seed, True) and bool(cell["ok"])
    seeds = sorted({seed for row in matrix.values() for seed in row})
    head = "".join(f"<th>s{seed}</th>" for seed in seeds)
    body = []
    for name, row in matrix.items():
        rendered = "".join(
            f'<td class="{"ok" if row[seed] else "fail"}">'
            f'{"ok" if row[seed] else "FAIL"}</td>'
            if seed in row else '<td class="muted">-</td>'
            for seed in seeds)
        body.append(f"<tr><td>{_esc(name)}</td>{rendered}</tr>")
    return (f"<h2>Pass/fail matrix</h2><table>"
            f"<tr><th>scenario</th>{head}</tr>{''.join(body)}</table>")


def _curves_section(cells: Sequence[Dict[str, object]]) -> str:
    """Per-scenario degradation curves over the grid's ``fault_rate`` axis."""
    by_scenario: Dict[str, Dict[float, List[Dict[str, object]]]] = {}
    for cell in cells:
        params = cell.get("params") or {}
        if "fault_rate" not in params:
            continue
        rates = by_scenario.setdefault(cell["scenario"], {})
        rates.setdefault(float(params["fault_rate"]), []).append(cell)
    if not by_scenario:
        return ""
    sections = ["<h2>Degradation curves (over <code>fault_rate</code>)</h2>"]
    for scenario, rates in sorted(by_scenario.items()):
        pass_curve = []
        p99_curve = []
        for rate in sorted(rates):
            group = rates[rate]
            pass_curve.append(
                (rate, sum(1 for c in group if c["ok"]) / len(group)))
            p99s = [c["read_latency"]["p99"] for c in group
                    if c.get("read_latency", {}).get("count")]
            if p99s:
                p99_curve.append((rate, sum(p99s) / len(p99s)))
        sections.append(
            f"<h3>{_esc(scenario)}</h3><div class=\"chartrow\">"
            + _chart(pass_curve, "pass fraction", color=PASS_COLOR,
                     lo=0.0, hi=1.0)
            + _chart(p99_curve, "mean p99 read latency (virtual s)")
            + "</div>")
    return "".join(sections)


def _slo_list(cell: Dict[str, object]) -> str:
    """The cell's SLO verdicts as a compact list ('-' when none attached)."""
    verdicts = (cell.get("metrics") or {}).get("slo") or []
    if not verdicts:
        return '<span class="muted">-</span>'
    items = []
    for entry in verdicts:
        if entry["ok"]:
            items.append(f'<li class="ok">&#10003; '
                         f'{_esc(entry["description"])}</li>')
        else:
            items.append(f'<li class="fail">&#10007; '
                         f'{_esc(entry["detail"] or entry["description"])}</li>')
    return f'<ul class="slo">{"".join(items)}</ul>'


def _cells_section(cells: Sequence[Dict[str, object]]) -> str:
    """The per-cell detail table, in grid-expansion order."""
    any_metrics = any(cell.get("metrics") for cell in cells)
    spark_head = "<th>read latency over virtual time</th><th>SLOs</th>" \
        if any_metrics else ""
    rows = []
    for cell in cells:
        status = ('<td class="ok">ok</td>' if cell["ok"]
                  else '<td class="fail">FAIL</td>')
        p99 = cell.get("read_latency", {}).get("p99", 0.0)
        spark = ""
        if any_metrics:
            spark = (f"<td>{_sparkline(_mean_series(cell, 'read_latency'))}"
                     f"</td><td>{_slo_list(cell)}</td>")
        rows.append(
            f"<tr><td><code>{_esc(cell['cell'])}</code></td>{status}"
            f"<td>{_esc(cell.get('checker_method') or '-')}</td>"
            f'<td class="num">{cell.get("history_ops", 0)}</td>'
            f'<td class="num">{_fmt(float(p99))}</td>'
            f'<td class="num">{_fmt(float(cell.get("wall_clock_sec", 0.0)), 2)}'
            f"</td>{spark}</tr>")
    return (f"<h2>Cells</h2><table><tr><th>cell</th><th>verdict</th>"
            f"<th>checker</th><th>ops</th><th>p99 read</th><th>wall s</th>"
            f"{spark_head}</tr>{''.join(rows)}</table>")


def render_campaign_html(report: Dict[str, object]) -> str:
    """Render a ``SweepResult.to_json()`` dict as one self-contained page.

    Accepts the live dict or the same JSON re-read from disk; the output
    depends only on the dict's contents, so archived campaign reports
    re-render byte-identically.
    """
    cells = report.get("cells", [])
    failed_cells = [cell for cell in cells if not cell["ok"]]
    failures = ""
    if failed_cells:
        items = "".join(
            f'<li><code>{_esc(cell["cell"])}</code>: '
            f'<span class="muted">{_esc((cell.get("failure") or "")[:400])}'
            f"</span></li>"
            for cell in failed_cells)
        failures = f"<h2>Failures</h2><ul>{items}</ul>"
    return ("<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
            "<title>Sweep campaign report</title>"
            f"<style>{_CSS}</style></head><body>"
            f"{_summary_section(report)}"
            f"{_matrix_section(cells)}"
            f"{_curves_section(cells)}"
            f"{failures}"
            f"{_cells_section(cells)}"
            "</body></html>\n")

"""A small SLO assertion DSL evaluated against exported metric reports.

SLOs turn chaos scenarios into quantitative regression tests: instead of
only "linearizable or not", a scenario can assert "p99 read latency
recovers within N virtual seconds of heal" or "zero NACKs at
fault_rate=0".  Assertions are built fluently::

    p99("read_latency", after="heal", grace=10.0).within(12.0)
    rate("nacks").below(0.0)          # inclusive: total must be zero

and evaluated against a :class:`~repro.obs.report.MetricsReport` with
:meth:`SLO.evaluate`, which returns ``None`` on success or a human-readable
failure message.

Anchoring semantics: ``after="heal"`` resolves to the **first** ``heal``
mark in the report -- the moment the scripted fault window closed.  (Later
marks come from continuous background fault windows, which only close at
simulator drain; anchoring on them would make "after heal" vacuous.)  When
the scenario never heals the anchor falls back to virtual time zero, so
the assertion covers the whole degraded run -- which is exactly why
removing a scenario's heal entry makes its recovery SLO fail (the negative
control the test suite exercises).  Quantile assertions are evaluated
window-by-window: every non-empty window starting at or after the anchor
(plus ``grace``) must satisfy the bound, a time-series-native reading of
"recovers and stays recovered".
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

__all__ = ["SLO", "mean", "p99", "peak", "rate"]


class SLO:
    """One named assertion over a :class:`~repro.obs.report.MetricsReport`.

    Instances are immutable value objects safe to embed in the frozen
    :class:`~repro.workloads.scenarios.ChaosScenario` dataclass; equality
    and hashing follow the description string so scenario replacement via
    ``dataclasses.replace`` keeps working.
    """

    __slots__ = ("description", "_check")

    def __init__(self, description: str,
                 check: Callable[[object], Optional[str]]) -> None:
        self.description = description
        self._check = check

    def __repr__(self) -> str:
        return f"SLO({self.description!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SLO) and other.description == self.description

    def __hash__(self) -> int:
        return hash(self.description)

    def evaluate(self, report) -> Optional[str]:
        """``None`` when the report satisfies the SLO, else a failure message."""
        return self._check(report)


def _anchor(report, after: Optional[str], grace: float) -> Tuple[float, bool]:
    """Resolve an ``after`` mark to an absolute anchor time.

    Returns ``(anchor, found)``: the first occurrence of the mark plus
    ``grace``, or ``(grace, False)`` when the mark never fired (whole-run
    coverage -- the negative-control semantics described in the module
    docstring).
    """
    if after is None:
        return grace, True
    at = report.first_mark(after)
    if at is None:
        return grace, False
    return at + grace, True


def _empty_tail(report, series: str, anchor: float) -> str:
    """Why no window of ``series`` starts at or after ``anchor``.

    Names the first start the fixed-width windows cover and the last window
    that holds samples.
    """
    histogram = report.histogram(series)
    if histogram is None:
        return f"no '{series}' histogram in the report"
    width = histogram["width"]
    first = math.ceil(anchor / width) * width
    text = (f"no samples in '{series}' after t={anchor:g} (windows "
            f"starting >= {first:g}, width {width:g})")
    filled = [w for w in histogram["windows"] if w[1]]
    if filled:
        start, count = filled[-1][:2]
        text += (f"; last non-empty window starts at t={start:g} with "
                 f"{int(count)} samples")
    return text


class _QuantileQuery:
    """Fluent builder for per-window quantile bounds (``.within(limit)``)."""

    __slots__ = ("series", "stat", "after", "grace")

    def __init__(self, series: str, stat: str, after: Optional[str],
                 grace: float) -> None:
        self.series = series
        self.stat = stat
        self.after = after
        self.grace = grace

    def within(self, limit: float) -> SLO:
        """Every queried window's ``stat`` must be at most ``limit``."""
        series, stat, after, grace = (self.series, self.stat, self.after,
                                      self.grace)
        suffix = f", after={after}" if after else ""
        if grace:
            suffix += f"+{grace:g}s"
        description = f"{stat}({series}{suffix}) <= {limit:g}"

        def check(report) -> Optional[str]:
            anchor, found = _anchor(report, after, grace)
            worst = report.worst_window_stat(series, stat, after=anchor)
            if worst is None:
                return f"{description}: {_empty_tail(report, series, anchor)}"
            if worst > limit:
                origin = "" if found else f" (mark '{after}' never fired)"
                return (f"{description}: worst window {stat}={worst:g} at "
                        f"t>={anchor:g}{origin}")
            return None

        return SLO(description, check)


class _RateQuery:
    """Fluent builder for counter-rate bounds (``.below(limit)``)."""

    __slots__ = ("series", "after", "grace")

    def __init__(self, series: str, after: Optional[str],
                 grace: float) -> None:
        self.series = series
        self.after = after
        self.grace = grace

    def below(self, limit: float) -> SLO:
        """The counter's events-per-virtual-second must be at most ``limit``.

        The bound is inclusive, so ``rate(...).below(0.0)`` asserts the
        counter never fired in the queried range at all.
        """
        series, after, grace = self.series, self.after, self.grace
        suffix = f", after={after}" if after else ""
        if grace:
            suffix += f"+{grace:g}s"
        description = f"rate({series}{suffix}) <= {limit:g}/s"

        def check(report) -> Optional[str]:
            anchor, found = _anchor(report, after, grace)
            value = report.rate(series, after=anchor)
            if value > limit:
                total = report.counter_total(series, after=anchor)
                origin = "" if found else f" (mark '{after}' never fired)"
                return (f"{description}: {total} events -> {value:g}/s at "
                        f"t>={anchor:g}{origin}")
            return None

        return SLO(description, check)


def mean(series: str, after: Optional[str] = None,
         grace: float = 0.0) -> _QuantileQuery:
    """Per-window mean bound on histogram ``series``."""
    return _QuantileQuery(series, "mean", after, grace)


def p99(series: str, after: Optional[str] = None,
        grace: float = 0.0) -> _QuantileQuery:
    """Per-window p99 bound on histogram ``series``."""
    return _QuantileQuery(series, "p99", after, grace)


def peak(series: str, after: Optional[str] = None,
         grace: float = 0.0) -> _QuantileQuery:
    """Per-window maximum bound on histogram ``series``."""
    return _QuantileQuery(series, "max", after, grace)


def rate(series: str, after: Optional[str] = None,
         grace: float = 0.0) -> _RateQuery:
    """Events-per-virtual-second bound on counter ``series``."""
    return _RateQuery(series, after, grace)

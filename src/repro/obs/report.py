"""The per-run metrics export: a compact, JSON-ready time-series bundle.

A :class:`MetricsReport` freezes a :class:`~repro.obs.registry.MetricsRegistry`
into a plain nested dict (floats rounded to six places) that travels through
``ChaosRunResult``, the sweep's ``RunRecord`` and the checkpoint journal
byte-identically -- ``to_json`` returns the dict itself and ``from_json``
wraps it back, so a report survives any number of serialize/parse round
trips unchanged.  The query helpers (:meth:`last_mark`,
:meth:`worst_window_stat`, :meth:`counter_total`, :meth:`rate`) are the
evaluation surface the SLO DSL in :mod:`repro.obs.slo` runs against.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["MetricsReport"]

#: Schema tag embedded in every exported report.
REPORT_SCHEMA = 1

#: Index of a per-window statistic inside a finalized histogram window
#: ``[start, count, mean, max, p99]``.
_HIST_STATS = {"count": 1, "mean": 2, "max": 3, "p99": 4}


def _rounded(value):
    """Recursively round floats to 6 places for a compact, stable export."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, tuple):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def _rounded_snapshot(snapshot: Dict[str, object]) -> Dict[str, object]:
    """Round a series snapshot in place, exploiting its known shape.

    Snapshots are flat dicts of numbers plus a ``windows`` list of numeric
    lists; rounding them directly (``round`` leaves ints alone, exactly
    like :func:`_rounded`) skips a deep recursive walk on the export path.
    """
    for key, value in snapshot.items():
        if key == "windows":
            snapshot[key] = [[round(v, 6) for v in w] for w in value]
        else:
            snapshot[key] = round(value, 6)
    return snapshot


class MetricsReport:
    """An immutable-by-convention view over one run's exported metrics.

    Construct with :meth:`from_registry` at the end of an instrumented run
    or :meth:`from_json` when re-reading a sweep record.  The underlying
    dict is exposed as :attr:`data` and returned verbatim by
    :meth:`to_json`.
    """

    __slots__ = ("data",)

    def __init__(self, data: Dict[str, object]) -> None:
        self.data = data

    # --------------------------------------------------------- construction
    @classmethod
    def from_registry(cls, registry, duration: float,
                      extra: Optional[Dict[str, object]] = None
                      ) -> "MetricsReport":
        """Snapshot ``registry`` into a rounded, JSON-ready report."""
        data = {
            "schema": REPORT_SCHEMA,
            "duration": round(duration, 6),
            "window": round(registry.window, 6),
            "counters": {name: _rounded_snapshot(series.snapshot())
                         for name, series in sorted(registry.counters.items())},
            "gauges": {name: _rounded_snapshot(series.snapshot())
                       for name, series in sorted(registry.gauges.items())},
            "histograms": {name: _rounded_snapshot(series.snapshot())
                           for name, series in
                           sorted(registry.histograms.items())},
            "marks": {name: [round(t, 6) for t in times]
                      for name, times in sorted(registry.marks.items())},
            # ``meta`` is free-form (sim snapshot, cache info, network
            # totals) so it keeps the recursive walk.
            "meta": _rounded(dict(extra or {})),
        }
        return cls(data)

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "MetricsReport":
        """Wrap a previously exported report dict (no copying)."""
        return cls(payload)

    def to_json(self) -> Dict[str, object]:
        """The underlying JSON-ready dict, byte-stable across round trips."""
        return self.data

    # --------------------------------------------------------------- access
    @property
    def duration(self) -> float:
        """Virtual time at which the report was frozen."""
        return float(self.data.get("duration", 0.0))

    def first_mark(self, name: str) -> Optional[float]:
        """Virtual time of the earliest ``name`` mark, if any.

        This is the SLO anchor: scenarios script at most one fault window,
        so the first ``heal`` is the scripted recovery point, while any
        continuous background windows close only at simulator drain (their
        marks land at the far end of virtual time and would make "after
        heal" vacuous).
        """
        times = self.data.get("marks", {}).get(name)
        if not times:
            return None
        return float(times[0])

    def last_mark(self, name: str) -> Optional[float]:
        """Virtual time of the most recent ``name`` mark, if any."""
        times = self.data.get("marks", {}).get(name)
        if not times:
            return None
        return float(times[-1])

    def histogram(self, name: str) -> Optional[Dict[str, object]]:
        """The exported summary of histogram ``name``, if recorded."""
        return self.data.get("histograms", {}).get(name)

    def _hist_windows(self, name: str, after: float) -> List[List[float]]:
        series = self.histogram(name)
        if series is None:
            return []
        return [w for w in series["windows"] if w[0] >= after and w[1]]

    def worst_window_stat(self, name: str, stat: str,
                          after: float = 0.0) -> Optional[float]:
        """Max of a per-window statistic over windows starting at/after ``after``.

        ``stat`` is one of ``count``, ``mean``, ``max`` or ``p99``.
        Returns ``None`` when the histogram is missing or no non-empty
        window starts in the queried range -- callers decide whether that
        is vacuous success or a failed assertion.
        """
        windows = self._hist_windows(name, after)
        if not windows:
            return None
        index = _HIST_STATS[stat]
        return max(float(w[index]) for w in windows)

    def counter_total(self, name: str, after: float = 0.0) -> int:
        """Counter events at/after virtual time ``after`` (0 when absent).

        With ``after=0.0`` this is the exact whole-run total; with a later
        anchor it sums the windows starting at/after the anchor, so events
        inside the anchor's own window count toward the tail.
        """
        series = self.data.get("counters", {}).get(name)
        if series is None:
            return 0
        if after <= 0.0:
            return int(series["total"])
        return int(sum(w[1] for w in series["windows"] if w[0] >= after))

    def rate(self, name: str, after: float = 0.0) -> float:
        """Counter events per virtual second over the queried tail."""
        span = self.duration - after
        if span <= 0.0:
            return 0.0
        return self.counter_total(name, after) / span

"""Link latency models.

The paper's latency analysis (Section 4.4) assumes every message takes
between ``d`` (minimum) and ``D`` (maximum) time units to be delivered.  The
models here make that assumption concrete and configurable per experiment:

* :class:`FixedLatency` -- every message takes exactly ``delay`` units.
* :class:`UniformLatency` -- delays drawn uniformly from ``[d, D]``.
* :class:`AsymmetricLatency` -- different models per (source-role,
  destination-role) pair; used to reproduce the worst-case constructions in
  which reconfigurers enjoy the minimum delay ``d`` while readers/writers
  suffer the maximum ``D`` (Section 4.4, Fig. 2).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.common.ids import ProcessId, Role
from repro.sim.core import Simulator


class LatencyModel:
    """Base class: maps a (source, destination) pair to a delivery delay."""

    #: Minimum possible delay (the paper's ``d``); used by analytic formulas.
    d: float = 0.0
    #: Maximum possible delay (the paper's ``D``); used by analytic formulas.
    D: float = 0.0

    def sample(self, sim: Simulator, src: ProcessId, dest: ProcessId) -> float:
        """Return the delivery delay for one message from ``src`` to ``dest``."""
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Every message is delivered after exactly ``delay`` time units."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay < 0:
            raise ValueError("latency must be non-negative")
        self.delay = delay
        self.d = delay
        self.D = delay

    def sample(self, sim: Simulator, src: ProcessId, dest: ProcessId) -> float:
        return self.delay

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixedLatency({self.delay})"


class UniformLatency(LatencyModel):
    """Delays drawn uniformly at random from ``[d, D]`` (seeded by the simulator)."""

    def __init__(self, d: float = 1.0, D: float = 2.0) -> None:
        if d < 0 or D < d:
            raise ValueError(f"invalid latency bounds [{d}, {D}]")
        self.d = d
        self.D = D
        self._span = D - d

    def sample(self, sim: Simulator, src: ProcessId, dest: ProcessId) -> float:
        # The expression random.uniform evaluates, and (like sim.uniform) no
        # draw for a degenerate range: same floats, same RNG stream.
        span = self._span
        return self.d + span * sim.rng.random() if span else self.d

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformLatency(d={self.d}, D={self.D})"


class AsymmetricLatency(LatencyModel):
    """Per-role latency: different models for different (src-role, dst-role) pairs.

    Parameters
    ----------
    default:
        Model used when no override matches.
    overrides:
        Mapping from ``(src_role, dst_role)`` to a model.  ``None`` in either
        position of the key acts as a wildcard.

    Example -- the worst-case execution of the latency analysis, where
    reconfiguration traffic is fast (``d``) and client data traffic is slow
    (``D``)::

        AsymmetricLatency(
            default=FixedLatency(D),
            overrides={(Role.RECONFIGURER, None): FixedLatency(d),
                       (None, Role.RECONFIGURER): FixedLatency(d)},
        )
    """

    def __init__(
        self,
        default: LatencyModel,
        overrides: Optional[Dict[Tuple[Optional[Role], Optional[Role]], LatencyModel]] = None,
    ) -> None:
        self.default = default
        self.overrides = dict(overrides or {})
        all_models = [default, *self.overrides.values()]
        self.d = min(m.d for m in all_models)
        self.D = max(m.D for m in all_models)

    def _lookup(self, src: ProcessId, dest: ProcessId) -> LatencyModel:
        keys = [
            (src.role, dest.role),
            (src.role, None),
            (None, dest.role),
        ]
        for key in keys:
            if key in self.overrides:
                return self.overrides[key]
        return self.default

    def sample(self, sim: Simulator, src: ProcessId, dest: ProcessId) -> float:
        return self._lookup(src, dest).sample(sim, src, dest)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AsymmetricLatency(default={self.default!r}, overrides={len(self.overrides)})"


class CallableLatency(LatencyModel):
    """Adapter turning an arbitrary callable into a latency model.

    The callable receives ``(sim, src, dest)`` and returns the delay.  The
    caller must supply the ``d``/``D`` bounds used by analytic formulas.
    """

    def __init__(self, fn: Callable[[Simulator, ProcessId, ProcessId], float], d: float, D: float) -> None:
        self.fn = fn
        self.d = d
        self.D = D

    def sample(self, sim: Simulator, src: ProcessId, dest: ProcessId) -> float:
        return self.fn(sim, src, dest)

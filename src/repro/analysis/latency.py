"""The latency bounds of Section 4.4 (Lemmas 55-60).

All bounds are expressed in terms of the minimum (``d``) and maximum (``D``)
message delay and the consensus decision time ``T(CN)``, matching the
notation of the paper.  The benchmark harness prints these bounds next to
the latencies measured on the simulator, so the "shape" claims of the
analysis (which quantity grows with what) can be checked directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


def put_config_bounds(d: float, D: float) -> Tuple[float, float]:
    """Lemma 55(i): ``2d ≤ T(put-config) ≤ 2D``."""
    return 2 * d, 2 * D


def read_next_config_bounds(d: float, D: float) -> Tuple[float, float]:
    """Lemma 55(ii): ``2d ≤ T(read-next-config) ≤ 2D``."""
    return 2 * d, 2 * D


def dap_bounds(d: float, D: float) -> Tuple[float, float]:
    """Lemma 58: every two-phase DAP action takes between ``2d`` and ``2D``."""
    return 2 * d, 2 * D


def read_config_bounds(d: float, D: float, mu: int, nu: int) -> Tuple[float, float]:
    """Lemma 56: ``4d(ν-µ+1) ≤ T(read-config) ≤ 4D(ν-µ+1)``."""
    steps = nu - mu + 1
    return 4 * d * steps, 4 * D * steps


def rw_operation_upper_bound(D: float, mu_start: int, nu_end: int) -> float:
    """Lemma 59: a read/write takes at most ``6D(ν(σ_e) - µ(σ_s) + 2)``."""
    return 6 * D * (nu_end - mu_start + 2)


def reconfig_pipeline_lower_bound(d: float, consensus_delay: float, k: int) -> float:
    """Lemma 57: installing ``k`` back-to-back configurations takes at least
    ``4d·Σ_{i=1..k} i + k·(T(CN) + 2d)``.

    The lemma's premise is its worst case: the ``i``-th reconfiguration is
    invoked by a reconfigurer whose sequence still starts at ``c0``, so it
    walks all ``i`` configurations installed before it (``4d`` each,
    Lemma 56's ``read-config`` bound) before it proposes (``T(CN)``) and
    propagates the decision (``2d``).  That walk is the ``Σ i`` term.  A
    reconfigurer whose sequence is already current walks nothing, and the
    bound, quadratic in ``k``, does not hold for its chain of installs,
    which is linear in ``k``.
    """
    return 4 * d * (k * (k + 1) // 2) + k * (consensus_delay + 2 * d)


def min_delay_for_termination(D: float, consensus_delay: float, k: int) -> float:
    """Lemma 60: a read/write terminates despite ``k`` concurrent installs if
    ``d ≥ 3D/k − T(CN) / (2(k+2))``."""
    return 3 * D / k - consensus_delay / (2 * (k + 2))


@dataclass
class LatencyEnvelope:
    """Convenience bundle of the bounds for a given ``(d, D, T(CN))`` setting."""

    d: float
    D: float
    consensus_delay: float = 0.0

    def sequence_walk(self, mu: int, nu: int) -> Tuple[float, float]:
        """Bounds for one walk of the sequence (Algorithm 4's ``read-config``)
        spanning indices ``[µ, ν]``."""
        return read_config_bounds(self.d, self.D, mu, nu)

    def rw_operation(self, mu_start: int, nu_end: int) -> float:
        """Upper bound for a read/write operation."""
        return rw_operation_upper_bound(self.D, mu_start, nu_end)

    def reconfig_pipeline(self, k: int) -> float:
        """Lower bound for installing ``k`` consecutive configurations."""
        return reconfig_pipeline_lower_bound(self.d, self.consensus_delay, k)

    def termination_threshold(self, k: int) -> float:
        """Minimum ``d`` for read/write termination under ``k`` installs."""
        return min_delay_for_termination(self.D, self.consensus_delay, k)

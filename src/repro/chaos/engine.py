"""The chaos engine: arms fault schedules on a running system.

:class:`ChaosEngine` is the glue between the declarative layers
(:mod:`repro.chaos.faults`, :mod:`repro.chaos.schedule`) and the substrate:
it resolves process names against the network registry, turns schedule
entries into simulator events, owns the network hooks installed by window
faults, and keeps a timestamped log of everything it injected.

Determinism: fault *timing* rides on the simulator's event queue (ties
broken by insertion order, like every other event) and fault *randomness*
(drop/duplication coin flips, reorder jitter) comes from the engine's own
seeded RNG, independent of the simulator RNG that drives latencies.  Two
runs with the same seeds therefore produce byte-identical executions, and
the chaos log doubles as a determinism witness for tests.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.common.errors import SimulationError
from repro.common.ids import ProcessId, Role
from repro.net.network import Network

from repro.chaos.faults import Cut, Fault, Target
from repro.chaos.schedule import Schedule

#: Shorthand prefixes accepted in fault targets: ``s3`` = ``server-3`` etc.
_SHORTHAND = {"s": "server", "w": "writer", "r": "reader", "g": "reconfigurer"}

#: How many recent chaos-log entries the bounded ring retains.  Scripted
#: schedules record a handful of lines; per-message stochastic triggers at
#: 10^6-op scale would otherwise grow the log without bound and break the
#: streaming pipeline's O(open-window) memory guarantee.
LOG_RECENT = 256


#: Quantization step for effective gate rates.  Gates at the same seed
#: share one coin stream, so two runs whose rates quantize to the same
#: step are byte-identical -- the pass/fail oracle a ``fault_rate`` sweep
#: bisects is a *step function* of the rate, and frontier probes landing
#: anywhere inside a step agree deterministically instead of sampling
#: fresh micro-noise at every float.
RATE_RESOLUTION = 1.0 / 64.0

#: The network's add/remove methods for each hook kind of :meth:`ChaosEngine.install`.
_NETWORK_HOOKS = {
    "drop": ("add_drop_filter", "remove_drop_filter"),
    "delay": ("add_delay_adjuster", "remove_delay_adjuster"),
    "dup": ("add_duplicator", "remove_duplicator"),
}

#: What a gated hook returns when its gate does not fire (a delay hook
#: returns the delay it was given): keep, no extra copies, admit.
_IDLE = {"drop": False, "dup": 0, "governor": None}


class StochasticGate:
    """A dedicated Bernoulli stream gating one :class:`~repro.chaos.schedule.Stochastic` entry.

    Each gate owns its own seeded RNG (derived from the engine seed and a
    per-engine gate counter), so gated per-message draws never perturb the
    engine RNG that scripted faults consume -- superimposing a stochastic
    background on a scripted schedule leaves the scripted coin flips
    byte-identical.

    The nominal ``rate`` is quantized to :data:`RATE_RESOLUTION` steps
    (round-to-nearest), which makes runs piecewise-constant in the rate:
    the coin stream does not depend on the rate, so every rate inside one
    step fires on exactly the same draws.
    """

    __slots__ = ("rate", "effective_rate", "rng", "triggers")

    def __init__(self, rate: float, rng: random.Random) -> None:
        self.rate = rate
        self.effective_rate = round(rate / RATE_RESOLUTION) * RATE_RESOLUTION
        self.rng = rng
        #: How many times this gate fired (for reports; not part of signatures).
        self.triggers = 0

    def fires(self) -> bool:
        """Draw one Bernoulli trial; ``True`` lets the gated hook act."""
        if self.rng.random() < self.effective_rate:
            self.triggers += 1
            return True
        return False


class ChaosEngine:
    """Injects scripted faults into a :class:`~repro.net.network.Network`.

    Parameters
    ----------
    network:
        The network under attack (its simulator provides the clock).
    seed:
        Seed of the engine's dedicated RNG (an int or a string; strings
        hash deterministically across processes).  Keeping chaos randomness
        out of the simulator RNG means arming a schedule never perturbs
        latency or workload draws -- the fault-free prefix of a chaotic run
        is identical to the fault-free run.  Callers that also seed the
        simulator should derive a *distinct* seed here (e.g.
        ``f"chaos-{seed}"``): two ``random.Random`` instances built from
        the same integer emit identical sequences, which would correlate
        fault coin flips with latency draws.
    """

    def __init__(self, network: Network, seed: Union[int, str] = 0) -> None:
        self.network = network
        self.sim = network.sim
        self.seed = seed
        self.rng = random.Random(seed)
        #: Timestamped, time-ordered log of recent fault applications: a
        #: bounded ring (plus total/dropped counters) so per-message
        #: stochastic triggers stay O(1) in memory at any scale.
        self.log: "deque[Tuple[float, str]]" = deque(maxlen=LOG_RECENT)
        #: Total entries ever recorded / entries evicted from the ring.
        self.log_total = 0
        self.log_dropped = 0
        #: Currently active window faults (one entry per active start, so a
        #: fault reused by overlapping schedule windows appears once per
        #: window and each stop retires exactly one activation).
        self.active: List[Fault] = []
        #: Coroutine handles of operations the schedule fired (e.g.
        #: :class:`~repro.chaos.faults.Reconfigure` migrations); the
        #: scenario runner checks them for exceptions and stalls the same
        #: way it checks workload sessions.
        self.pending_operations: List = []
        # Hooks installed per fault instance: fault id -> stack of
        # per-activation groups of (kind, hook, governor) entries, as
        # passed to install().  Grouping per activation lets the same
        # fault object appear in several (even overlapping) schedule
        # entries: each stop removes only its own activation's hooks.
        self._hooks: Dict[int, List[List[Tuple[str, object, object]]]] = {}
        # Collects the hooks installed by the fault.start() call in flight.
        self._pending_install: Optional[List[Tuple[str, object, object]]] = None
        # Bernoulli gates handed out to Stochastic schedule entries, in
        # creation (= arming) order; the counter seeds each gate's RNG.
        self.gates: List[StochasticGate] = []
        # The gate of the Stochastic activation in flight: while set, every
        # hook a fault installs is wrapped behind per-decision gate draws.
        self._active_gate: Optional[StochasticGate] = None
        #: Observability registry; None (the default) keeps the fault
        #: lifecycle at one attribute test per activation, same idiom as
        #: the network's quiet path.  Activations bump counters and stops
        #: leave ``heal`` marks the SLO DSL anchors recovery windows on.
        self.metrics = None

    # ------------------------------------------------------------ resolution
    def resolve(self, target: Target) -> ProcessId:
        """Resolve a target (id, ``"server-3"`` or ``"s3"``) to a :class:`ProcessId`."""
        if isinstance(target, ProcessId):
            if target not in self.network.processes:
                raise SimulationError(f"chaos target {target} is not registered")
            return target
        name = str(target)
        if len(name) >= 2 and name[0] in _SHORTHAND and name[1:].isdigit():
            name = f"{_SHORTHAND[name[0]]}-{int(name[1:])}"
        for pid in self.network.processes:
            if pid.name == name:
                return pid
        raise SimulationError(f"chaos target {target!r} does not name a registered process")

    def resolve_all(self, targets: Iterable[Target]) -> FrozenSet[ProcessId]:
        """Resolve a collection of targets to a frozen set of process ids.

        A :class:`~repro.common.ids.Role` target stands for every process
        registered with that role now.
        """
        pids = set()
        for target in targets:
            if isinstance(target, Role):
                pids.update(pid for pid in self.network.processes if pid.role is target)
            else:
                pids.add(self.resolve(target))
        return frozenset(pids)

    # ------------------------------------------------------------- injection
    def inject(self, schedule: Union[Schedule, Iterable]) -> "ChaosEngine":
        """Arm ``schedule`` (a :class:`Schedule` or iterable of entries)."""
        if not isinstance(schedule, Schedule):
            schedule = Schedule(list(schedule))
        schedule.arm(self)
        return self

    def apply_at(self, time: float, fault: Fault) -> None:
        """Schedule a point application (or permanent start) of ``fault``."""
        self.sim.schedule_at(time, lambda: self._apply(fault),
                             label=f"chaos {fault.describe()}")

    def start_at(self, time: float, fault: Fault) -> None:
        """Schedule the start of a window fault."""
        self.sim.schedule_at(time, lambda: self._start(fault),
                             label=f"chaos start {fault.describe()}")

    def stop_at(self, time: float, fault: Fault) -> None:
        """Schedule the stop of a window fault."""
        self.sim.schedule_at(time, lambda: self._stop(fault),
                             label=f"chaos stop {fault.describe()}")

    # ------------------------------------------------------- stochastic gates
    def new_gate(self, rate: float) -> StochasticGate:
        """Create a Bernoulli gate with its own seed-derived RNG stream.

        The stream is ``Random(f"{seed!r}:gate:{n}")`` for the ``n``-th gate
        created on this engine, so gates are mutually independent, never
        touch :attr:`rng`, and reproduce exactly across processes.
        """
        gate = StochasticGate(rate, random.Random(f"{self.seed!r}:gate:{len(self.gates)}"))
        self.gates.append(gate)
        return gate

    def start_stochastic_at(self, time: float, fault: Fault,
                            gate: StochasticGate) -> None:
        """Schedule a gated start of a window fault (see :class:`StochasticGate`)."""
        self.sim.schedule_at(time, lambda: self._start_stochastic(fault, gate),
                             label=f"chaos start stochastic {fault.describe()}")

    # ------------------------------------------------------- fault lifecycle
    def _activate(self, fault: Fault, run) -> None:
        """Run a fault's start/apply, grouping the hooks it installs."""
        self._pending_install = []
        try:
            run()
        finally:
            installed, self._pending_install = self._pending_install, None
        if installed:
            self._hooks.setdefault(id(fault), []).append(installed)

    def _apply(self, fault: Fault) -> None:
        self.record(fault.describe())
        if self.metrics is not None:
            self.metrics.inc("fault_activations")
        self._activate(fault, lambda: fault.apply(self))
        if id(fault) in self._hooks:
            self.active.append(fault)

    def _start(self, fault: Fault) -> None:
        self.record(f"start {fault.describe()}")
        if self.metrics is not None:
            self.metrics.inc("fault_activations")
        self._activate(fault, lambda: fault.start(self))
        self.active.append(fault)

    def _start_stochastic(self, fault: Fault, gate: StochasticGate) -> None:
        # Log the *effective* (quantized) rate: two runs whose nominal
        # rates land in the same RATE_RESOLUTION step are the same run,
        # and their chaos logs must be byte-identical too.
        self.record(f"start {fault.describe()} ~rate={gate.effective_rate:g}")
        if self.metrics is not None:
            self.metrics.inc("fault_activations")
        self._active_gate = gate
        try:
            self._activate(fault, lambda: fault.start(self))
        finally:
            self._active_gate = None
        self.active.append(fault)

    def _stop(self, fault: Fault) -> None:
        if fault not in self.active:
            return  # already healed (e.g. by an explicit Heal entry)
        self.record(f"stop {fault.describe()}")
        if self.metrics is not None:
            self.metrics.mark("heal")
        fault.stop(self)
        self.active.remove(fault)

    def heal_partitions(self) -> None:
        """Stop every active :class:`~repro.chaos.faults.Cut` activation."""
        while True:
            fault = next((f for f in self.active if isinstance(f, Cut)), None)
            if fault is None:
                return
            self._stop(fault)

    def track_operation(self, handle) -> None:
        """Register a schedule-fired operation handle for liveness checking."""
        self.pending_operations.append(handle)

    def operation_errors(self) -> List[str]:
        """Failures of schedule-fired operations: exceptions and stalls.

        Called after the simulator drained; an operation that neither
        completed nor raised by then can never make progress (the event
        queue is empty), so it is reported as stalled.
        """
        errors = []
        for handle in self.pending_operations:
            if handle.exception() is not None:
                errors.append(repr(handle.exception()))
            elif not handle.done():
                label = getattr(handle, "label", "") or "operation"
                errors.append(f"chaos-triggered {label!r} never completed (stalled)")
        return errors

    def record(self, text: str) -> None:
        """Append a timestamped line to the (bounded) chaos log."""
        self.log_total += 1
        if len(self.log) == LOG_RECENT:
            self.log_dropped += 1
        self.log.append((self.sim.now, text))

    def describe_log(self) -> str:
        """Human-readable rendering of the chaos log (recent ring).

        When per-message stochastic triggers have evicted older entries, an
        elision header reports how many; otherwise the rendering is exactly
        the full log, line for line.
        """
        lines = [f"{t:8.2f}  {text}" for t, text in self.log]
        if self.log_dropped:
            lines.insert(0, f"  [...]   {self.log_dropped} earlier entries elided "
                            f"({self.log_total} recorded)")
        return "\n".join(lines)

    def log_signature(self) -> Tuple[Tuple[float, str], ...]:
        """Deterministic tuple rendering of the log, for run signatures.

        With nothing evicted this is byte-identical to ``tuple(log)`` over
        the previous unbounded list, so pre-existing golden signatures are
        unchanged; once the ring overflows, an elision marker carrying the
        exact drop/total counters keeps the signature a faithful witness.
        """
        if not self.log_dropped:
            return tuple(self.log)
        marker = (-1.0, f"[{self.log_dropped} entries elided; {self.log_total} recorded]")
        return (marker, *self.log)

    # ----------------------------------------------------------- hook wiring
    def install(self, fault: Fault, kind: str, hook, governor=None) -> None:
        """Install ``hook`` on behalf of ``fault`` (removed on stop).

        ``kind`` names where it goes: ``"drop"``, ``"delay"`` and ``"dup"``
        are the network's drop filters, delay adjusters and duplicators,
        and ``"governor"`` is ``governor``'s admission rules (see
        :class:`~repro.chaos.resources.ResourceGovernor`).

        Inside a :class:`~repro.chaos.schedule.Stochastic` activation the
        hook is wrapped behind a gate: the gate draws first, on every
        decision (so the draw sequence is independent of the hook's own
        link matching), and when it does not fire the hook is idle -- the
        message is kept, gets no extra copies and keeps its sampled delay,
        and the request is admitted.
        """
        gate = self._active_gate
        if gate is not None:
            inner, idle = hook, _IDLE.get(kind)

            def hook(*args):
                if gate.fires():
                    return inner(*args)
                return args[-1] if kind == "delay" else idle
        if governor is not None:
            governor.rules.append(hook)
        else:
            getattr(self.network, _NETWORK_HOOKS[kind][0])(hook)
        entry = (kind, hook, governor)
        if self._pending_install is not None:
            self._pending_install.append(entry)
        else:  # installed outside _start/_apply (direct fault.start(engine))
            self._hooks.setdefault(id(fault), []).append([entry])

    def remove_hooks(self, fault: Fault) -> None:
        """Remove the hooks of ``fault``'s most recent activation."""
        groups = self._hooks.get(id(fault))
        if not groups:
            return
        for kind, hook, governor in groups.pop():
            if governor is not None:
                if hook in governor.rules:
                    governor.rules.remove(hook)
            else:
                getattr(self.network, _NETWORK_HOOKS[kind][1])(hook)
        if not groups:
            del self._hooks[id(fault)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ChaosEngine active={len(self.active)} log={self.log_total}>"

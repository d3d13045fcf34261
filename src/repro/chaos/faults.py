"""Composable fault injectors.

Every fault is a small declarative object naming *what* goes wrong; *when* it
goes wrong is the schedule's job (:mod:`repro.chaos.schedule`) and *how* it
is wired into the running system is the engine's
(:mod:`repro.chaos.engine`).  Faults therefore hold no runtime state of
their own -- the engine keeps the installed network hooks, which lets the
same fault object appear in several schedule entries.

Two kinds of fault exist:

* **Point faults** (:class:`Crash`, :class:`Restart`, :class:`Heal`) happen
  instantaneously via :meth:`Fault.apply`.
* **Window faults** (:class:`Partition`, :class:`Isolate`, :class:`Drop`,
  :class:`Duplicate`, :class:`Reorder`, :class:`LatencySpike`,
  :class:`SlowServer`, and the resource-exhaustion family
  :class:`CpuPressure`, :class:`MemoryPressure`, :class:`DiskFull`) are
  active between :meth:`Fault.start` and :meth:`Fault.stop`; scheduling
  them with :class:`~repro.chaos.schedule.At` starts them permanently
  (until a :class:`Heal`).

Process targets may be given as :class:`~repro.common.ids.ProcessId`
objects, full names (``"server-3"``) or the shorthand used throughout the
paper's figures (``"s3"``, ``"w0"``, ``"r1"``, ``"g0"``).

Liveness note: the paper proves operations terminate only while each
configuration loses at most ``f`` servers and channels stay reliable.
Faults beyond that envelope (partitioning a client away from every quorum,
dropping messages to a majority) are *allowed* -- safety must still hold --
but operations may stall; scenario authors are responsible for keeping
schedules inside the tolerance when they also assert liveness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, Optional, Tuple, TYPE_CHECKING, Union

from repro.common.ids import ProcessId, Role

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.engine import ChaosEngine

#: A process target: an id, a full name, or a figure-style shorthand.
Target = Union[ProcessId, str]


def _targets(targets: Iterable[Target]) -> Tuple[Target, ...]:
    if isinstance(targets, (str, ProcessId)):
        return (targets,)
    return tuple(targets)


@dataclass(frozen=True, eq=False)
class Fault:
    """Base class of all fault injectors.

    ``eq=False`` keeps identity semantics so the engine can track installed
    hooks per fault instance even when two faults have identical fields.
    """

    def describe(self) -> str:
        """One-line human-readable description (used for the chaos log)."""
        return type(self).__name__.lower()

    # ------------------------------------------------------------- point API
    def apply(self, engine: "ChaosEngine") -> None:
        """Fire a point fault; window faults interpret this as ``start``."""
        self.start(engine)

    # ------------------------------------------------------------ window API
    def start(self, engine: "ChaosEngine") -> None:
        """Activate the fault (install network hooks, crash processes, ...)."""
        raise NotImplementedError

    def stop(self, engine: "ChaosEngine") -> None:
        """Deactivate the fault (remove installed hooks).  Point faults ignore it."""


# --------------------------------------------------------------------- crash
@dataclass(frozen=True, eq=False)
class Crash(Fault):
    """Crash one or more processes (crash-stop, until a :class:`Restart`)."""

    targets: Tuple[Target, ...]

    def __init__(self, *targets: Target) -> None:
        object.__setattr__(self, "targets", _targets(targets))

    def describe(self) -> str:
        return f"crash({', '.join(str(t) for t in self.targets)})"

    def start(self, engine: "ChaosEngine") -> None:
        for pid in engine.resolve_all(self.targets):
            engine.network.crash(pid)


@dataclass(frozen=True, eq=False)
class Restart(Fault):
    """Restart crashed processes (crash-recovery with stable storage).

    Server protocol state survives the outage (see
    :meth:`repro.sim.process.Process.restart`); messages sent while the
    process was down are lost, exactly as in a real reboot.
    """

    targets: Tuple[Target, ...]

    def __init__(self, *targets: Target) -> None:
        object.__setattr__(self, "targets", _targets(targets))

    def describe(self) -> str:
        return f"restart({', '.join(str(t) for t in self.targets)})"

    def start(self, engine: "ChaosEngine") -> None:
        for pid in engine.resolve_all(self.targets):
            engine.network.restart(pid)


# ----------------------------------------------------------------- partition
@dataclass(frozen=True, eq=False)
class Partition(Fault):
    """Split the process set into groups that cannot exchange messages.

    Messages between two listed groups are dropped; processes not listed in
    any group (e.g. servers added by a reconfiguration after the partition
    was scheduled) form an implicit extra group that can only talk to itself.
    Use :class:`Isolate` when "these processes vs. everyone else" is meant.
    """

    groups: Tuple[FrozenSet[Target], ...]

    def __init__(self, *groups: Iterable[Target]) -> None:
        if len(groups) < 2:
            raise ValueError("a partition needs at least two groups")
        object.__setattr__(self, "groups", tuple(frozenset(g) for g in groups))

    def describe(self) -> str:
        rendered = " | ".join("{" + ", ".join(sorted(str(t) for t in g)) + "}"
                              for g in self.groups)
        return f"partition({rendered})"

    def start(self, engine: "ChaosEngine") -> None:
        resolved = [engine.resolve_all(group) for group in self.groups]

        def side(pid: ProcessId) -> int:
            for index, group in enumerate(resolved):
                if pid in group:
                    return index
            return -1

        engine.install_drop_filter(
            self, lambda src, dest, message: side(src) != side(dest))

    def stop(self, engine: "ChaosEngine") -> None:
        engine.remove_hooks(self)


@dataclass(frozen=True, eq=False)
class Isolate(Fault):
    """Partition ``targets`` away from everyone else.

    Unlike :class:`Partition`, membership of the "everyone else" side is
    decided per message, so processes created *after* the fault started
    (fresh servers installed by a reconfiguration) end up on the connected
    side instead of in limbo.
    """

    targets: Tuple[Target, ...]

    def __init__(self, *targets: Target) -> None:
        object.__setattr__(self, "targets", _targets(targets))

    def describe(self) -> str:
        return f"isolate({', '.join(str(t) for t in self.targets)})"

    def start(self, engine: "ChaosEngine") -> None:
        island = engine.resolve_all(self.targets)
        engine.install_drop_filter(
            self, lambda src, dest, message: (src in island) != (dest in island))

    def stop(self, engine: "ChaosEngine") -> None:
        engine.remove_hooks(self)


@dataclass(frozen=True, eq=False)
class Heal(Fault):
    """Point fault removing every active :class:`Partition`/:class:`Isolate`."""

    def describe(self) -> str:
        return "heal()"

    def start(self, engine: "ChaosEngine") -> None:
        engine.heal_partitions()


# ------------------------------------------------------------ reconfiguration
@dataclass(frozen=True, eq=False)
class Reconfigure(Fault):
    """Point action firing a reconfiguration/migration from a fault schedule.

    ``action`` is a zero-argument callable -- typically a closure over the
    deployment, e.g. ``lambda: store.spawn_migrate_shard(0, dap="treas",
    fresh_servers=6)`` -- invoked at the scheduled time.  When it returns a
    coroutine handle, the handle is registered with the engine
    (:meth:`~repro.chaos.engine.ChaosEngine.track_operation`) so the
    scenario runner can assert the triggered operation neither stalled nor
    raised, exactly like the workload sessions.

    Strictly speaking a reconfiguration is an *operation*, not a fault --
    but scripting it through the schedule DSL is what lets adversary
    scenarios interleave migrations with crashes and partitions at exact
    virtual times, which is where reconfiguration bugs live.
    """

    action: Callable[[], object]
    note: str

    def __init__(self, action: Callable[[], object], note: str = "migration") -> None:
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "note", note)

    def describe(self) -> str:
        return f"reconfigure({self.note})"

    def start(self, engine: "ChaosEngine") -> None:
        handle = self.action()
        if handle is not None:
            engine.track_operation(handle)


# ------------------------------------------------------------- message chaos
@dataclass(frozen=True, eq=False)
class Drop(Fault):
    """Drop each matching message independently with probability ``probability``.

    ``src``/``dst`` optionally restrict the fault to messages from/to the
    given processes (either side ``None`` matches everything).  Randomness
    comes from the engine's dedicated RNG, so a chaos run with the same seed
    drops exactly the same messages.
    """

    probability: float
    src: Optional[Tuple[Target, ...]]
    dst: Optional[Tuple[Target, ...]]

    def __init__(self, probability: float,
                 src: Optional[Iterable[Target]] = None,
                 dst: Optional[Iterable[Target]] = None) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        object.__setattr__(self, "probability", probability)
        object.__setattr__(self, "src", None if src is None else _targets(src))
        object.__setattr__(self, "dst", None if dst is None else _targets(dst))

    def describe(self) -> str:
        scope = ""
        if self.src is not None:
            scope += f" from {', '.join(str(t) for t in self.src)}"
        if self.dst is not None:
            scope += f" to {', '.join(str(t) for t in self.dst)}"
        return f"drop(p={self.probability}{scope})"

    def _matches(self, engine: "ChaosEngine") -> "tuple":
        src = None if self.src is None else engine.resolve_all(self.src)
        dst = None if self.dst is None else engine.resolve_all(self.dst)
        return src, dst

    def start(self, engine: "ChaosEngine") -> None:
        src_set, dst_set = self._matches(engine)

        def rule(src, dest, message) -> bool:
            if src_set is not None and src not in src_set:
                return False
            if dst_set is not None and dest not in dst_set:
                return False
            return engine.rng.random() < self.probability

        engine.install_drop_filter(self, rule)

    def stop(self, engine: "ChaosEngine") -> None:
        engine.remove_hooks(self)


@dataclass(frozen=True, eq=False)
class Duplicate(Fault):
    """Deliver ``copies`` extra copies of each message with probability ``probability``.

    Every copy draws its own latency sample, so duplicates may overtake the
    original.  Quorum gathers dedupe replies per responder
    (:class:`repro.sim.futures.QuorumFuture`), so protocols remain correct.
    """

    probability: float
    copies: int

    def __init__(self, probability: float = 1.0, copies: int = 1) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("duplication probability must be in [0, 1]")
        if copies < 1:
            raise ValueError("duplication must add at least one copy")
        object.__setattr__(self, "probability", probability)
        object.__setattr__(self, "copies", copies)

    def describe(self) -> str:
        return f"duplicate(p={self.probability}, copies={self.copies})"

    def start(self, engine: "ChaosEngine") -> None:
        def rule(src, dest, message) -> int:
            return self.copies if engine.rng.random() < self.probability else 0

        engine.install_duplicator(self, rule)

    def stop(self, engine: "ChaosEngine") -> None:
        engine.remove_hooks(self)


@dataclass(frozen=True, eq=False)
class Reorder(Fault):
    """Aggressively reorder messages by adding uniform jitter to each delay.

    The network already reorders (every message draws an independent delay);
    this fault widens the window by up to ``jitter`` extra time units per
    message, which stresses the "old replies arriving late" paths.
    """

    jitter: float

    def __init__(self, jitter: float) -> None:
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        object.__setattr__(self, "jitter", jitter)

    def describe(self) -> str:
        return f"reorder(jitter={self.jitter})"

    def start(self, engine: "ChaosEngine") -> None:
        engine.install_delay_adjuster(
            self, lambda src, dest, message, delay: delay + engine.rng.uniform(0.0, self.jitter))

    def stop(self, engine: "ChaosEngine") -> None:
        engine.remove_hooks(self)


@dataclass(frozen=True, eq=False)
class LatencySpike(Fault):
    """Multiply (and optionally pad) every delivery delay while active.

    Models a congested network: ``delay * factor + extra`` for all traffic.
    """

    factor: float
    extra: float

    def __init__(self, factor: float = 1.0, extra: float = 0.0) -> None:
        if factor < 0 or extra < 0:
            raise ValueError("latency spike factor/extra must be non-negative")
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "extra", extra)

    def describe(self) -> str:
        return f"latency_spike(factor={self.factor}, extra={self.extra})"

    def start(self, engine: "ChaosEngine") -> None:
        engine.install_delay_adjuster(
            self, lambda src, dest, message, delay: delay * self.factor + self.extra)

    def stop(self, engine: "ChaosEngine") -> None:
        engine.remove_hooks(self)


@dataclass(frozen=True, eq=False)
class SlowServer(Fault):
    """Gray failure: one process stays up but all its traffic crawls.

    Messages to *or* from ``target`` take ``delay * factor + extra``.  The
    process never appears crashed, so quorum gathers still count it as alive
    -- the classic "limping node" that is worse than a clean crash.
    """

    target: Target
    factor: float
    extra: float

    def __init__(self, target: Target, factor: float = 4.0, extra: float = 0.0) -> None:
        if factor < 0 or extra < 0:
            raise ValueError("slow-server factor/extra must be non-negative")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "extra", extra)

    def describe(self) -> str:
        return f"slow_server({self.target}, factor={self.factor}, extra={self.extra})"

    def start(self, engine: "ChaosEngine") -> None:
        pid = engine.resolve(self.target)

        def adjust(src, dest, message, delay: float) -> float:
            if src == pid or dest == pid:
                return delay * self.factor + self.extra
            return delay

        engine.install_delay_adjuster(self, adjust)

    def stop(self, engine: "ChaosEngine") -> None:
        engine.remove_hooks(self)


# --------------------------------------------------------- resource pressure
def _resolve_servers(engine: "ChaosEngine",
                     targets: Tuple[Target, ...]) -> "FrozenSet[ProcessId]":
    """Resolve targets, defaulting (empty tuple) to every registered server."""
    if targets:
        return engine.resolve_all(targets)
    return frozenset(pid for pid in engine.network.processes
                     if pid.role is Role.SERVER)


@dataclass(frozen=True, eq=False)
class CpuPressure(Fault):
    """Gray failure: pressured servers process everything slowly.

    Models CPU starvation as multiplicative processing-delay inflation on
    every message *into* the pressured servers (``delay * factor + extra``),
    via the existing delay-adjuster hooks -- the request sits in the run
    queue before the handler fires.  With no targets given, every server is
    pressured.  The servers never appear crashed, so quorums still count
    them; under a :class:`~repro.chaos.schedule.Stochastic` entry only the
    gated fraction of messages is slowed, which is what sporadic CPU
    contention looks like from the network.
    """

    targets: Tuple[Target, ...]
    factor: float
    extra: float

    def __init__(self, *targets: Target, factor: float = 3.0,
                 extra: float = 0.0) -> None:
        if factor < 0 or extra < 0:
            raise ValueError("cpu-pressure factor/extra must be non-negative")
        object.__setattr__(self, "targets", _targets(targets) if targets else ())
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "extra", extra)

    def describe(self) -> str:
        scope = ", ".join(str(t) for t in self.targets) or "all servers"
        return f"cpu_pressure({scope}, factor={self.factor}, extra={self.extra})"

    def start(self, engine: "ChaosEngine") -> None:
        pressured = _resolve_servers(engine, self.targets)

        def adjust(src, dest, message, delay: float) -> float:
            if dest in pressured:
                return delay * self.factor + self.extra
            return delay

        engine.install_delay_adjuster(self, adjust)

    def stop(self, engine: "ChaosEngine") -> None:
        engine.remove_hooks(self)


@dataclass(frozen=True, eq=False)
class MemoryPressure(Fault):
    """Bound the object-state bytes a server may hold; over budget it sheds.

    While active, a data-carrying request that would push the server's
    stored object bytes (:meth:`~repro.core.server.AresServer.storage_data_bytes`)
    over ``budget_bytes`` is refused with an explicit NACK instead of being
    applied -- bounded memory with explicit shedding, never silent growth.
    Metadata-only traffic (tag queries, configuration reads, consensus)
    always passes, so the control plane limps on while the data plane sheds.
    """

    budget_bytes: int
    targets: Tuple[Target, ...]

    def __init__(self, budget_bytes: int, *targets: Target) -> None:
        if budget_bytes < 0:
            raise ValueError("memory budget must be non-negative")
        object.__setattr__(self, "budget_bytes", int(budget_bytes))
        object.__setattr__(self, "targets", _targets(targets) if targets else ())

    def describe(self) -> str:
        scope = ", ".join(str(t) for t in self.targets) or "all servers"
        return f"memory_pressure({scope}, budget={self.budget_bytes}B)"

    def start(self, engine: "ChaosEngine") -> None:
        from repro.chaos.resources import ensure_governor, memory_budget_rule
        for pid in sorted(_resolve_servers(engine, self.targets)):
            server = engine.network.process(pid)
            engine.install_governor_rule(
                self, ensure_governor(server, engine),
                memory_budget_rule(self.budget_bytes))

    def stop(self, engine: "ChaosEngine") -> None:
        engine.remove_hooks(self)


@dataclass(frozen=True, eq=False)
class DiskFull(Fault):
    """The persistence layer is out of space: every data write is refused.

    Write-persistence failures surface as retriable NACKs carrying the
    classic ``[Errno 28] No space left on device`` reason, so clients retry
    against the remaining quorum instead of hanging.  Reads and
    metadata-only traffic still succeed -- exactly how a full disk degrades
    a real replica.
    """

    targets: Tuple[Target, ...]

    def __init__(self, *targets: Target) -> None:
        object.__setattr__(self, "targets", _targets(targets) if targets else ())

    def describe(self) -> str:
        scope = ", ".join(str(t) for t in self.targets) or "all servers"
        return f"disk_full({scope})"

    def start(self, engine: "ChaosEngine") -> None:
        from repro.chaos.resources import disk_full_rule, ensure_governor
        for pid in sorted(_resolve_servers(engine, self.targets)):
            server = engine.network.process(pid)
            engine.install_governor_rule(
                self, ensure_governor(server, engine), disk_full_rule())

    def stop(self, engine: "ChaosEngine") -> None:
        engine.remove_hooks(self)

"""Composable fault injectors: one link matcher, a few effects over it.

Every fault is a small declarative object naming *what* goes wrong; *when* it
goes wrong is the schedule's job (:mod:`repro.chaos.schedule`) and *how* it
is wired into the running system is the engine's
(:mod:`repro.chaos.engine`).  Faults therefore hold no runtime state of
their own -- the engine keeps the installed hooks, which lets the same
fault object appear in several schedule entries.

Two kinds of fault exist:

* **Point faults** (:class:`Crash`, :class:`Restart`, :class:`Heal`, and
  the scripted :class:`Reconfigure` action) happen instantaneously via
  :meth:`Fault.apply`.
* **Window faults** are active between :meth:`Fault.start` and
  :meth:`Fault.stop`; scheduling them with
  :class:`~repro.chaos.schedule.At` starts them permanently (until a
  :class:`Heal`, for cuts).  Each is an *effect* on the messages of a set
  of :class:`Links`:

  * :class:`Cut` drops them;
  * :class:`Lossy` drops each with a probability;
  * :class:`Slow` inflates or jitters their delivery delay;
  * :class:`Refuse` has their destination servers refuse data writes;
  * :class:`Duplicate` (every link) re-delivers them.

The vocabulary scenarios are written in maps onto those effects, one
constructor per name: :func:`Partition` and :func:`Isolate` are cuts,
:func:`Drop` is lossy, :func:`Reorder`, :func:`LatencySpike`,
:func:`SlowServer` and :func:`CpuPressure` are slow links, and
:func:`MemoryPressure` and :func:`DiskFull` are refusals.  Each keeps its
``describe()`` text, which the chaos log -- and so every golden signature
-- records.

Process targets may be given as :class:`~repro.common.ids.ProcessId`
objects, full names (``"server-3"``), the shorthand used throughout the
paper's figures (``"s3"``, ``"w0"``, ``"r1"``, ``"g0"``), or a
:class:`~repro.common.ids.Role`, which stands for every process registered
with that role when the fault starts.

Liveness note: the paper proves operations terminate only while each
configuration loses at most ``f`` servers and channels stay reliable.
Faults beyond that envelope (partitioning a client away from every quorum,
dropping messages to a majority) are *allowed* -- safety must still hold --
but operations may stall; scenario authors are responsible for keeping
schedules inside the tolerance when they also assert liveness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterable, Optional, Tuple, TYPE_CHECKING, Union

from repro.chaos.resources import (
    AdmissionRule,
    disk_full_rule,
    ensure_governor,
    memory_budget_rule,
)
from repro.common.ids import ProcessId, Role

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.engine import ChaosEngine

#: A process target: an id, a full name, a figure-style shorthand, or a role.
Target = Union[ProcessId, str, Role]

#: The resource faults' default target: every server registered at start.
_SERVERS = (Role.SERVER,)


def _targets(targets: Iterable[Target]) -> Tuple[Target, ...]:
    if isinstance(targets, (str, ProcessId)):
        return (targets,)
    return tuple(targets)


def _names(targets: Iterable[Target]) -> str:
    return ", ".join(str(t) for t in targets)


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
        """Activate the fault (install hooks, crash processes, ...)."""
        raise NotImplementedError

    def stop(self, engine: "ChaosEngine") -> None:
        """Deactivate the fault: remove the hooks its activation installed."""
        engine.remove_hooks(self)


# --------------------------------------------------------------------- crash
@dataclass(frozen=True, eq=False)
class Crash(Fault):
    """Crash one or more processes (crash-stop, until a :class:`Restart`)."""

    targets: Tuple[Target, ...]

    def __init__(self, *targets: Target) -> None:
        object.__setattr__(self, "targets", targets)

    def describe(self) -> str:
        return f"crash({_names(self.targets)})"

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
        object.__setattr__(self, "targets", targets)

    def describe(self) -> str:
        return f"restart({_names(self.targets)})"

    def start(self, engine: "ChaosEngine") -> None:
        for pid in engine.resolve_all(self.targets):
            engine.network.restart(pid)


@dataclass(frozen=True, eq=False)
class Heal(Fault):
    """Point fault removing every active :class:`Cut` (partitions, isolations)."""

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


# ------------------------------------------------------------------- links
@dataclass(frozen=True)
class Links:
    """A set of directed links ``src -> dest``, named by their end processes.

    A field left ``None`` constrains nothing, so ``Links()`` is every link;
    a link belongs to the set when it meets every given field:

    * ``src`` / ``dst``: its sender / receiver is one of these targets;
    * ``either``: its sender or its receiver is one of these;
    * ``across``: its two ends lie on different sides of these groups, the
      processes in no group forming one more side.

    An explicitly empty list matches no link.  Targets resolve once, when
    the effect starts, so a process registered later (a server added by a
    reconfiguration) is in no list and on the unlisted side of ``across``.
    """

    src: Optional[Tuple[Target, ...]] = None
    dst: Optional[Tuple[Target, ...]] = None
    either: Optional[Tuple[Target, ...]] = None
    across: Optional[Tuple[FrozenSet[Target], ...]] = None

    def __post_init__(self) -> None:
        for name in ("src", "dst", "either"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _targets(getattr(self, name)))
        if self.across is not None:
            object.__setattr__(self, "across", tuple(frozenset(g) for g in self.across))

    def resolve(self, engine: "ChaosEngine") -> Optional[Callable[[ProcessId, ProcessId], bool]]:
        """The set as a ``(src, dest) -> bool`` predicate; ``None`` for every link."""
        tests = []
        if self.src is not None:
            src = engine.resolve_all(self.src)
            tests.append(lambda s, d: s in src)
        if self.dst is not None:
            dst = engine.resolve_all(self.dst)
            tests.append(lambda s, d: d in dst)
        if self.either is not None:
            either = engine.resolve_all(self.either)
            tests.append(lambda s, d: s in either or d in either)
        if self.across is not None:
            groups = [engine.resolve_all(group) for group in self.across]
            # A process's side is the first group listing it; -1 is the rest.
            side = {pid: index for index, group in reversed(list(enumerate(groups)))
                    for pid in group}
            tests.append(lambda s, d: side.get(s, -1) != side.get(d, -1))
        if len(tests) < 2:
            return tests[0] if tests else None
        return lambda s, d: all(test(s, d) for test in tests)


# ----------------------------------------------------------------- effects
@dataclass(frozen=True, eq=False)
class _LinkFault(Fault):
    """A window fault acting on the messages of ``links``.

    ``label`` is the :meth:`describe` text (the class name when empty); the
    vocabulary constructors set it to their own spelling.
    """

    links: Links
    label: str = field(default="", kw_only=True)

    def describe(self) -> str:
        return self.label or super().describe()


@dataclass(frozen=True, eq=False)
class Cut(_LinkFault):
    """Drop every message on ``links``; no coin is drawn."""

    def start(self, engine: "ChaosEngine") -> None:
        match = self.links.resolve(engine)
        engine.install(self, "drop",
                       lambda src, dest, message: match is None or match(src, dest))


@dataclass(frozen=True, eq=False)
class Lossy(_LinkFault):
    """Drop each message on ``links`` independently with probability ``probability``.

    One ``engine.rng.random()`` is drawn per matching message, even at
    probability 1, so a chaos run with the same seed drops exactly the same
    messages.
    """

    probability: float

    def start(self, engine: "ChaosEngine") -> None:
        match = self.links.resolve(engine)
        engine.install(self, "drop", lambda src, dest, message: (
            (match is None or match(src, dest))
            and engine.rng.random() < self.probability))


@dataclass(frozen=True, eq=False)
class Slow(_LinkFault):
    """Rewrite the delivery delay of every message on ``links``.

    The new delay is ``delay * factor + extra``; with ``jitter`` set it is
    ``delay + engine.rng.uniform(0, jitter)`` instead, one draw per
    matching message (even at ``jitter=0``).
    """

    factor: float = 1.0
    extra: float = 0.0
    jitter: Optional[float] = None

    def start(self, engine: "ChaosEngine") -> None:
        match = self.links.resolve(engine)

        def adjust(src, dest, message, delay: float) -> float:
            if match is not None and not match(src, dest):
                return delay
            if self.jitter is not None:
                return delay + engine.rng.uniform(0.0, self.jitter)
            return delay * self.factor + self.extra

        engine.install(self, "delay", adjust)


@dataclass(frozen=True, eq=False)
class Refuse(_LinkFault):
    """Have the destination servers of ``links`` refuse what ``rule`` refuses.

    Admission happens where a request arrives, so only ``links.dst``
    counts; ``None`` there means every server registered at start.  Each
    such server's :class:`~repro.chaos.resources.ResourceGovernor` gets
    ``rule``, and a refused request is answered with an explicit NACK.
    """

    rule: AdmissionRule

    def start(self, engine: "ChaosEngine") -> None:
        dst = _SERVERS if self.links.dst is None else self.links.dst
        for pid in sorted(engine.resolve_all(dst)):
            governor = ensure_governor(engine.network.process(pid), engine)
            engine.install(self, "governor", self.rule, governor)


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
        engine.install(self, "dup", lambda src, dest, message: (
            self.copies if engine.rng.random() < self.probability else 0))


# -------------------------------------------------------------- vocabulary
def Partition(*groups: Iterable[Target]) -> Cut:
    """Split the process set into groups that cannot exchange messages.

    Messages between two listed groups are dropped; processes not listed in
    any group (e.g. servers added by a reconfiguration after the partition
    was scheduled) form an implicit extra group that can only talk to itself.
    Use :func:`Isolate` when "these processes vs. everyone else" is meant.
    """
    if len(groups) < 2:
        raise ValueError("a partition needs at least two groups")
    links = Links(across=groups)
    rendered = " | ".join("{" + ", ".join(sorted(str(t) for t in g)) + "}"
                          for g in links.across)
    return Cut(links, label=f"partition({rendered})")


def Isolate(*targets: Target) -> Cut:
    """Partition ``targets`` away from everyone else.

    Unlike :func:`Partition`'s listed groups, the "everyone else" side is
    the unlisted one, so processes created *after* the fault started (fresh
    servers installed by a reconfiguration) end up on the connected side
    instead of in limbo.
    """
    return Cut(Links(across=(targets,)), label=f"isolate({_names(targets)})")


def Drop(probability: float, src: Optional[Iterable[Target]] = None,
         dst: Optional[Iterable[Target]] = None) -> Lossy:
    """Drop each message from ``src`` to ``dst`` with probability ``probability``.

    Either side ``None`` matches every process; an empty list matches none.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError("drop probability must be in [0, 1]")
    links = Links(src=src, dst=dst)
    scope = ""
    if links.src is not None:
        scope += f" from {_names(links.src)}"
    if links.dst is not None:
        scope += f" to {_names(links.dst)}"
    return Lossy(links, probability, label=f"drop(p={probability}{scope})")


def Reorder(jitter: float) -> Slow:
    """Aggressively reorder messages by adding uniform jitter to each delay.

    The network already reorders (every message draws an independent delay);
    this fault widens the window by up to ``jitter`` extra time units per
    message, which stresses the "old replies arriving late" paths.
    """
    if jitter < 0:
        raise ValueError("jitter must be non-negative")
    return Slow(Links(), jitter=jitter, label=f"reorder(jitter={jitter})")


def LatencySpike(factor: float = 1.0, extra: float = 0.0) -> Slow:
    """A congested network: every delivery delay becomes ``delay * factor + extra``."""
    if factor < 0 or extra < 0:
        raise ValueError("latency spike factor/extra must be non-negative")
    return Slow(Links(), factor, extra,
                label=f"latency_spike(factor={factor}, extra={extra})")


def SlowServer(target: Target, factor: float = 4.0, extra: float = 0.0) -> Slow:
    """Gray failure: one process stays up but all its traffic crawls.

    Messages to *or* from ``target`` take ``delay * factor + extra``.  The
    process never appears crashed, so quorum gathers still count it as alive
    -- the classic "limping node" that is worse than a clean crash.
    """
    if factor < 0 or extra < 0:
        raise ValueError("slow-server factor/extra must be non-negative")
    return Slow(Links(either=target), factor, extra,
                label=f"slow_server({target}, factor={factor}, extra={extra})")


def CpuPressure(*targets: Target, factor: float = 3.0, extra: float = 0.0) -> Slow:
    """Gray failure: pressured servers process everything slowly.

    Models CPU starvation as processing-delay inflation on every message
    *into* the pressured servers (``delay * factor + extra``) -- the request
    sits in the run queue before the handler fires.  With no targets given,
    every server is pressured.  The servers never appear crashed, so
    quorums still count them; under a
    :class:`~repro.chaos.schedule.Stochastic` entry only the gated fraction
    of messages is slowed, which is what sporadic CPU contention looks like
    from the network.
    """
    if factor < 0 or extra < 0:
        raise ValueError("cpu-pressure factor/extra must be non-negative")
    scope = _names(targets) or "all servers"
    return Slow(Links(dst=targets or _SERVERS), factor, extra,
                label=f"cpu_pressure({scope}, factor={factor}, extra={extra})")


def MemoryPressure(budget_bytes: int, *targets: Target) -> Refuse:
    """Bound the object-state bytes a server may hold; over budget it sheds.

    While active, a data-carrying request that would push the server's
    stored object bytes (:meth:`~repro.core.server.AresServer.storage_data_bytes`)
    over ``budget_bytes`` is refused with an explicit NACK instead of being
    applied -- bounded memory with explicit shedding, never silent growth.
    Metadata-only traffic (tag queries, configuration reads, consensus)
    always passes, so the control plane limps on while the data plane sheds.
    With no targets given, every server is pressured.
    """
    if budget_bytes < 0:
        raise ValueError("memory budget must be non-negative")
    budget = int(budget_bytes)
    scope = _names(targets) or "all servers"
    return Refuse(Links(dst=targets or _SERVERS), memory_budget_rule(budget),
                  label=f"memory_pressure({scope}, budget={budget}B)")


def DiskFull(*targets: Target) -> Refuse:
    """The persistence layer is out of space: every data write is refused.

    Write-persistence failures surface as retriable NACKs carrying the
    classic ``[Errno 28] No space left on device`` reason, so clients retry
    against the remaining quorum instead of hanging.  Reads and
    metadata-only traffic still succeed -- exactly how a full disk degrades
    a real replica.  With no targets given, every server's disk is full.
    """
    scope = _names(targets) or "all servers"
    return Refuse(Links(dst=targets or _SERVERS), disk_full_rule(),
                  label=f"disk_full({scope})")

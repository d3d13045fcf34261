"""Property-test harness for in-flight store reconfigurations.

Every seed derives a randomized *plan*: a store layout (ABD / TREAS / LDR
shard mixes), a keyed closed-loop workload (single-key reads/writes and
pipelined ``multi_put``/``multi_get`` batches) and a fault schedule
interleaving live reconfigurations -- shard migrations onto fresh servers,
in-place DAP flips, key-range rebalances -- with a tolerated server crash
and packet chaos (duplication/reordering).  The plan executes
on the simulator and **every run** is verified for

* liveness       -- no stalled or errored client session or migration,
* atomicity      -- per-key linearizability over records spanning config
                    epochs,
* tag monotonicity across epochs (per key),
* determinism    -- a second execution of the same seed must reproduce the
                    history and the chaos log byte-for-byte.

Seed selection: the harness covers seeds 0..99 in CI, sharded into four
buckets by the ``STORE_RECONFIG_SEEDS`` environment variable (``lo..hi`` or
a comma list).  Unset, a 25-seed smoke bucket runs so tier-1 stays fast::

    STORE_RECONFIG_SEEDS=25..49 pytest tests/test_store_reconfig_property.py

On failure the offending plan is dumped as JSON into
``$STORE_RECONFIG_REPRO_DIR`` (default ``store-reconfig-failures/``) so CI
can upload the repro -- re-running the named seed reproduces the run
byte-for-byte.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Tuple

import pytest

from repro.chaos import At, ChaosEngine, Crash, Duplicate, During, Reconfigure, \
    Reorder, Schedule
from repro.net.latency import UniformLatency
from repro.spec.linearizability import (check_linearizability_per_key,
                                        check_tag_monotonicity_per_key)
from repro.store import ShardSpec, StoreDeployment, StoreSpec
from repro.workloads.generator import ClosedLoopDriver, WorkloadSpec

# --------------------------------------------------------------- seed ranges

DEFAULT_SEEDS = "0..24"
FULL_SEED_COUNT = 100


def _parse_seeds(text: str) -> List[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        seeds = list(range(int(lo), int(hi) + 1))
    else:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    if not seeds:
        # A misconfigured CI job (empty matrix value, STORE_RECONFIG_SEEDS=)
        # must fail loudly, not go green having verified zero seeds.
        raise ValueError(f"STORE_RECONFIG_SEEDS selected no seeds: {text!r}")
    return seeds


SEEDS = _parse_seeds(os.environ.get("STORE_RECONFIG_SEEDS", DEFAULT_SEEDS))


# ------------------------------------------------------------------ the plan
#
# Shard layouts.  Crash victims are drawn only from the *initial* servers of
# ABD shards: an ABD-5 shard tolerates 2 lost servers and the harness
# crashes at most one, so every configuration a migration creates or
# retires keeps its quorums (TREAS [6,4] tolerates 1 and LDR 3+3 one
# directory plus one replica -- the harness never crashes those shards).

LAYOUTS: Tuple[Tuple[str, Tuple[ShardSpec, ...]], ...] = (
    ("abd+abd", (ShardSpec(dap="abd", num_servers=5),
                 ShardSpec(dap="abd", num_servers=5))),
    ("abd+treas", (ShardSpec(dap="abd", num_servers=5),
                   ShardSpec(dap="treas", num_servers=6, k=4, delta=8))),
    ("abd+ldr+abd", (ShardSpec(dap="abd", num_servers=5),
                     ShardSpec(dap="ldr", num_servers=6),
                     ShardSpec(dap="abd", num_servers=5))),
)


@dataclass
class ReconfigEvent:
    """One scheduled live reconfiguration of the plan."""

    time: float
    kind: str  # "fresh" | "flip" | "move"
    shard: int = 0
    target: int = 0
    keys: List[str] = field(default_factory=list)


@dataclass
class Plan:
    """A fully-derived, JSON-serialisable description of one property run."""

    seed: int
    layout: str
    num_keys: int
    batch_size: int
    zipf: bool
    think_time: float
    operations: int
    events: List[ReconfigEvent]
    crash_time: Optional[float]
    crash_server: Optional[str]
    chaos_window: Optional[Tuple[float, float]]

    def describe(self) -> dict:
        """The JSON repro payload (everything needed to re-derive the run)."""
        return asdict(self)


def make_plan(seed: int) -> Plan:
    """Derive the seed's randomized schedule (pure: no simulator involved)."""
    rng = random.Random(f"store-reconfig-property-{seed}")
    layout_name, shards = LAYOUTS[rng.randrange(len(LAYOUTS))]
    num_shards = len(shards)
    num_keys = rng.randint(6, 10)

    kinds = ["fresh", "flip", "move"]
    events: List[ReconfigEvent] = []
    for _ in range(rng.randint(1, 2)):
        time = round(rng.uniform(4.0, 22.0), 2)
        kind = kinds[rng.randrange(len(kinds))]
        shard = rng.randrange(num_shards)
        event = ReconfigEvent(time=time, kind=kind, shard=shard)
        if kind == "move":
            count = rng.randint(1, 3)
            event.keys = [f"k{i}" for i in
                          sorted(rng.sample(range(num_keys), count))]
            event.target = rng.randrange(num_shards)
        events.append(event)

    # At most one crash, only ever of an initial ABD-shard server.
    crash_time = crash_server = None
    if rng.random() < 0.5:
        abd_shards = [i for i, s in enumerate(shards) if s.dap == "abd"]
        victim_shard = abd_shards[rng.randrange(len(abd_shards))]
        offset = sum(s.num_servers for s in shards[:victim_shard])
        crash_server = f"s{offset + rng.randrange(shards[victim_shard].num_servers)}"
        crash_time = round(rng.uniform(6.0, 26.0), 2)

    chaos_window = None
    if rng.random() < 0.5:
        start = round(rng.uniform(2.0, 8.0), 2)
        chaos_window = (start, round(start + rng.uniform(15.0, 30.0), 2))

    return Plan(
        seed=seed,
        layout=layout_name,
        num_keys=num_keys,
        batch_size=rng.choice((1, 1, 2)),
        zipf=rng.random() < 0.3,
        think_time=rng.choice((1.0, 2.0)),
        operations=rng.randint(3, 4),
        events=events,
        crash_time=crash_time,
        crash_server=crash_server,
        chaos_window=chaos_window,
    )


# ----------------------------------------------------------------- execution

def _migrate_fresh(deployment: StoreDeployment, shard_index: int):
    """Fire-time action: re-slice a shard onto as many fresh servers as it
    *currently* has (an earlier event may have changed its size/kind)."""
    count = len(deployment.shard_map.shards[shard_index].servers)
    return deployment.spawn_migrate_shard(shard_index, fresh_servers=count)


def _flip_dap(deployment: StoreDeployment, shard_index: int):
    """Fire-time action: flip the shard's *current* DAP kind.

    The branch is taken when the event fires, not when the schedule is
    built, so a second event on a shard an earlier event already flipped
    really flips it back.  ABD -> TREAS recruits 6 fresh servers so the
    [6, 4] quorum keeps fault tolerance 1; everything else flips to ABD in
    place (majority quorums on the existing slice).
    """
    if deployment.shard_map.shards[shard_index].dap == "abd":
        return deployment.spawn_migrate_shard(shard_index, dap="treas",
                                              fresh_servers=6, k=4, delta=8)
    return deployment.spawn_migrate_shard(shard_index, dap="abd")


def _event_entry(deployment: StoreDeployment, event: ReconfigEvent) -> At:
    """Translate one plan event into a scheduled ``Reconfigure`` action.

    Actions inspect the deployment at *fire* time (see :func:`_flip_dap`)
    -- everything they read is deterministic simulator state, so the run
    stays byte-reproducible.
    """
    if event.kind == "fresh":
        action = (lambda s=event.shard: _migrate_fresh(deployment, s))
        note = f"shard {event.shard} -> fresh servers"
    elif event.kind == "flip":
        action = (lambda s=event.shard: _flip_dap(deployment, s))
        note = f"flip shard {event.shard}"
    elif event.kind == "move":
        action = (lambda keys=tuple(event.keys), t=event.target:
                  deployment.spawn_move_keys(list(keys), t))
        note = f"move {','.join(event.keys)} -> shard {event.target}"
    else:  # pragma: no cover - plan generator only emits the kinds above
        raise ValueError(f"unknown plan event kind {event.kind!r}")
    return At(event.time, Reconfigure(action, note=note))


def run_plan(plan: Plan):
    """Execute the plan once; returns ``(deployment, engine, errors)``."""
    deployment = StoreDeployment(StoreSpec(
        shards=LAYOUTS[[name for name, _ in LAYOUTS].index(plan.layout)][1],
        num_writers=2, num_readers=2,
        latency=UniformLatency(1.0, 2.0), seed=plan.seed))
    engine = ChaosEngine(deployment.network,
                         seed=f"chaos-store-reconfig-{plan.seed}")
    entries: List = [_event_entry(deployment, event) for event in plan.events]
    if plan.crash_server is not None:
        entries.append(At(plan.crash_time, Crash(plan.crash_server)))
    if plan.chaos_window is not None:
        start, end = plan.chaos_window
        entries.append(During(start, end, Duplicate(0.2), Reorder(1.0)))
    engine.inject(Schedule(entries))

    workload = WorkloadSpec(
        operations_per_writer=plan.operations,
        operations_per_reader=plan.operations,
        value_size=128,
        think_time=plan.think_time,
        num_keys=plan.num_keys,
        key_distribution="zipf" if plan.zipf else "uniform",
        zipf_s=1.3,
        batch_size=plan.batch_size,
    )
    driver = ClosedLoopDriver(deployment, workload,
                              rng=random.Random(f"workload-store-reconfig-{plan.seed}"))
    result = driver.run()
    errors = list(result.errors) + engine.operation_errors()
    return deployment, engine, errors


def signature(deployment: StoreDeployment, engine: ChaosEngine) -> tuple:
    """Determinism witness: merged keyed history + chaos log."""
    return (deployment.history.signature(), tuple(engine.log))


# -------------------------------------------------------------- repro dumps

REPRO_DIR = pathlib.Path(os.environ.get("STORE_RECONFIG_REPRO_DIR",
                                        "store-reconfig-failures"))


def _dump_repro(plan: Plan, failure: str) -> None:
    REPRO_DIR.mkdir(parents=True, exist_ok=True)
    payload = {"scenario": "store_reconfig_property", "plan": plan.describe(),
               "failure": failure,
               "rerun": (f"STORE_RECONFIG_SEEDS={plan.seed} python -m pytest "
                         "tests/test_store_reconfig_property.py")}
    path = REPRO_DIR / f"seed-{plan.seed}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


# ------------------------------------------------------------------ the test

def verify_seed(seed: int) -> None:
    """Run one seed twice and assert every property (see module docstring)."""
    plan = make_plan(seed)
    deployment, engine, errors = run_plan(plan)
    try:
        assert errors == [], (
            f"seed {seed} lost liveness: {errors}\nchaos log:\n"
            f"{engine.describe_log()}")
        # The run must actually have reconfigured something.
        reconfig_log = [text for _, text in engine.log if "reconfigure" in text]
        assert reconfig_log, f"seed {seed} scheduled no reconfiguration"
        # Every event kind advances the map's epoch.
        assert deployment.shard_map.epoch >= 1
        migrated = deployment.history.reconfigs()
        # Per-key RECONFIG records span the epochs the checkers must accept.
        assert all(record.key is not None for record in migrated)

        verdict = check_linearizability_per_key(deployment.history)
        assert verdict.ok, (
            f"seed {seed} violated per-key atomicity: {verdict.reason}\n"
            f"chaos log:\n{engine.describe_log()}")
        monotonic = check_tag_monotonicity_per_key(deployment.history)
        assert monotonic is None, (
            f"seed {seed} violated tag monotonicity across epochs: {monotonic}")

        # Byte-identical determinism: a second execution of the same plan
        # must reproduce the merged history and the chaos log exactly.
        second_deployment, second_engine, second_errors = run_plan(plan)
        assert second_errors == errors
        assert signature(second_deployment, second_engine) == \
            signature(deployment, engine), (
            f"seed {seed} is not deterministic: two executions diverged")
    except AssertionError as exc:
        _dump_repro(plan, str(exc))
        raise


@pytest.mark.parametrize("seed", SEEDS)
def test_reconfig_under_randomized_schedules(seed):
    """The acceptance battery: every selected seed passes all properties."""
    verify_seed(seed)


# --------------------------------------------------- harness self-diagnostics

def test_seed_selection_parses_ranges_and_lists():
    assert _parse_seeds("0..3") == [0, 1, 2, 3]
    assert _parse_seeds("5,9, 11") == [5, 9, 11]
    assert len(_parse_seeds(f"0..{FULL_SEED_COUNT - 1}")) == FULL_SEED_COUNT
    for empty in ("", "   ", ","):
        with pytest.raises(ValueError, match="no seeds"):
            _parse_seeds(empty)


def test_plans_are_seed_deterministic_and_diverse():
    """Plan derivation is pure, and the full seed range exercises every
    event kind, every layout, crashes and packet chaos."""
    plans = [make_plan(seed) for seed in range(FULL_SEED_COUNT)]
    again = [make_plan(seed) for seed in range(FULL_SEED_COUNT)]
    assert [p.describe() for p in plans] == [p.describe() for p in again]
    kinds = {event.kind for plan in plans for event in plan.events}
    assert kinds == {"fresh", "flip", "move"}
    assert {plan.layout for plan in plans} == {name for name, _ in LAYOUTS}
    assert any(plan.crash_server for plan in plans)
    assert any(plan.chaos_window for plan in plans)
    assert any(plan.batch_size > 1 for plan in plans)
    assert any(plan.zipf for plan in plans)


def test_repro_dump_written_on_failure(tmp_path, monkeypatch):
    """The CI artifact path: a failing seed leaves a self-contained repro."""
    import sys

    monkeypatch.setattr(sys.modules[__name__], "REPRO_DIR", tmp_path)
    plan = make_plan(0)
    _dump_repro(plan, "synthetic failure")
    payload = json.loads((tmp_path / "seed-0.json").read_text())
    assert payload["failure"] == "synthetic failure"
    assert payload["plan"]["seed"] == 0
    assert "STORE_RECONFIG_SEEDS=0" in payload["rerun"]

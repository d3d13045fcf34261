"""Property-test harness for contending reconfigurers.

Every seed derives a *plan*: 2-4 reconfigurers, each running three
back-to-back reconfigurations onto fresh ABD / TREAS / LDR configurations
drawn from a 30-server pool, while two writers and two readers run a
closed-loop workload.  The plan runs once per initial DAP, with garbage
collection on and off and with the Section 5 direct state transfer on and
off, and **every run** is verified for

* liveness    -- every read, write and reconfiguration completes without
                 error,
* atomicity   -- the history is linearizable,
* uniqueness  -- no configuration id is ever installed at two GL indices
                 by any process's sequence (and no index holds two).

Contending reconfigurers with gc are what no registered scenario runs: a
reconfigurer whose proposal was installed, and then refused by a retired
configuration, must not propose it again at a later index.

Seed selection: CI covers seeds 0..99 in one job, named by the
``RECONFIG_CONTENTION_SEEDS`` environment variable (``lo..hi``, a comma
list, or both: ``0..3,18``).  Unset, a small bucket runs so tier-1 stays
fast::

    RECONFIG_CONTENTION_SEEDS=25..49 pytest tests/test_reconfig_contention_property.py

On failure the plan is dumped as JSON into ``reconfig-contention-failures/``;
re-running the named seed reproduces the run byte-for-byte.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import random
from dataclasses import asdict, dataclass
from typing import Dict, List, Set, Tuple
from unittest import mock

import pytest
from property_harness import dump_repro, parse_seeds

from repro.config.sequence import ConfigSequence
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.net.latency import UniformLatency
from repro.spec.linearizability import check_linearizability
from repro.workloads.generator import ClosedLoopDriver, WorkloadSpec

# --------------------------------------------------------------- seed ranges

#: Tier-1 bucket.  Seeds 0 and 11 catch a reconfigurer that proposes its
#: installed configuration again after a retirement refusal ("configuration
#: ... already present in the sequence"); seed 9 catches a direct transfer
#: whose forward request a contender's equal broadcast id silenced; seed 21
#: catches a transfer walk that a retirement refusal re-based past its last
#: entry and that then read a tag from an empty walk.  In seed 19's LDR runs
#: with gc a client's put-data is refused by a retired configuration and
#: re-bases on its tombstone.
DEFAULT_SEEDS = "0,1,9,11,19,21"
DAPS = ("abd", "treas", "ldr")
RECONFIGS_PER_RECONFIGURER = 3


SEEDS = parse_seeds(os.environ.get("RECONFIG_CONTENTION_SEEDS", DEFAULT_SEEDS),
                    "RECONFIG_CONTENTION_SEEDS")


# ------------------------------------------------------------------ the plan

@dataclass
class Plan:
    """A JSON-serialisable description of one contention run."""

    seed: int
    initial_dap: str
    gc: bool
    direct: bool
    reconfigurers: int

    def describe(self) -> dict:
        """The JSON repro payload (everything needed to re-derive the run)."""
        return asdict(self)


def make_plan(seed: int, initial_dap: str, gc: bool, direct: bool) -> Plan:
    """The run of ``seed`` on one axis point: 2, 3 or 4 reconfigurers."""
    return Plan(seed=seed, initial_dap=initial_dap, gc=gc, direct=direct,
                reconfigurers=2 + seed % 3)


def _configuration(deployment: AresDeployment, dap: str, rng: random.Random):
    """A fresh configuration of kind ``dap`` on servers drawn from the pool."""
    pool = sorted(deployment.servers)
    if dap == "abd":
        return deployment.make_configuration(dap="abd", servers=rng.sample(pool, 5))
    if dap == "treas":
        return deployment.make_configuration(dap="treas", servers=rng.sample(pool, 6),
                                             k=4)
    return deployment.make_configuration(dap="ldr", servers=rng.sample(pool, 6))


def _reconfigurer_session(deployment: AresDeployment, index: int, plan: Plan,
                          rng: random.Random):
    """Coroutine: reconfigurer ``index``'s back-to-back reconfigurations.

    Reconfiguration ``j`` goes to DAP ``(seed + index + j) % 3``.
    """
    reconfigurer = deployment.reconfigurers[index]
    for j in range(RECONFIGS_PER_RECONFIGURER):
        dap = DAPS[(plan.seed + index + j) % len(DAPS)]
        yield from reconfigurer.reconfig(_configuration(deployment, dap, rng))
    return None


@contextlib.contextmanager
def observed_placements():
    """Record every ``(index, cfg_id)`` any configuration sequence installs."""
    placements: Dict[object, Set[int]] = {}
    occupants: Dict[int, Set[object]] = {}

    def note(index, record):
        placements.setdefault(record.config.cfg_id, set()).add(index)
        occupants.setdefault(index, set()).add(record.config.cfg_id)

    append, set_record, jump_to = (ConfigSequence.append, ConfigSequence.set_record,
                                   ConfigSequence.jump_to)

    def noting_append(self, record):
        index = append(self, record)
        note(index, record)
        return index

    def noting_set_record(self, index, record):
        set_record(self, index, record)
        note(index, record)

    def noting_jump_to(self, index, record):
        jump_to(self, index, record)
        note(index, record)

    with mock.patch.object(ConfigSequence, "append", noting_append), \
            mock.patch.object(ConfigSequence, "set_record", noting_set_record), \
            mock.patch.object(ConfigSequence, "jump_to", noting_jump_to):
        yield placements, occupants


def run_plan(plan: Plan):
    """Execute the plan once; returns ``(deployment, errors, placements, occupants)``."""
    with observed_placements() as (placements, occupants):
        deployment = AresDeployment(DeploymentSpec(
            num_servers=30, initial_dap=plan.initial_dap, initial_config_size=5,
            num_writers=2, num_readers=2, num_reconfigurers=plan.reconfigurers,
            latency=UniformLatency(1.0, 4.0), seed=plan.seed, gc=plan.gc,
            direct_state_transfer=plan.direct))
        rng = random.Random(f"reconfig-contention-{plan.seed}")
        sessions = [
            deployment.reconfigurers[index].spawn(
                _reconfigurer_session(deployment, index, plan, rng),
                label=f"reconfigurer-{index}:session")
            for index in range(plan.reconfigurers)]
        workload = WorkloadSpec(operations_per_writer=6, operations_per_reader=6,
                                value_size=64, think_time=4.0)
        result = ClosedLoopDriver(
            deployment, workload,
            rng=random.Random(f"workload-reconfig-contention-{plan.seed}")).run()
    errors = list(result.errors)
    errors.extend(repr(s.exception()) for s in sessions if s.exception() is not None)
    errors.extend(f"session {s.label!r} never completed (stalled)"
                  for s in sessions if not s.done())
    return deployment, errors, placements, occupants


# -------------------------------------------------------------- repro dumps

REPRO_DIR = pathlib.Path("reconfig-contention-failures")


def _dump_repro(plan: Plan, failure: str) -> None:
    name = (f"seed-{plan.seed}-{plan.initial_dap}-gc{int(plan.gc)}"
            f"-direct{int(plan.direct)}.json")
    dump_repro(REPRO_DIR / name, __file__, "RECONFIG_CONTENTION_SEEDS", plan.seed,
               plan.describe(), failure)


# ------------------------------------------------------------------ the test

def verify_plan(plan: Plan) -> None:
    """Run one plan and assert every property (see module docstring)."""
    deployment, errors, placements, occupants = run_plan(plan)
    try:
        assert errors == [], f"{plan} lost liveness: {errors}"
        reconfigs = deployment.history.reconfigs()
        assert len(reconfigs) == plan.reconfigurers * RECONFIGS_PER_RECONFIGURER
        twice: List[Tuple[object, Set[int]]] = [
            (cfg_id, indices) for cfg_id, indices in placements.items()
            if len(indices) > 1]
        assert not twice, f"{plan}: configurations at two GL indices: {twice}"
        shared = {index: ids for index, ids in occupants.items() if len(ids) > 1}
        assert not shared, f"{plan}: GL indices holding two configurations: {shared}"
        verdict = check_linearizability(deployment.history)
        assert verdict.ok, f"{plan} violated atomicity: {verdict.reason}"
    except AssertionError as exc:
        _dump_repro(plan, str(exc))
        raise


@pytest.mark.parametrize("direct", [False, True], ids=["client", "direct"])
@pytest.mark.parametrize("gc", [False, True], ids=["nogc", "gc"])
@pytest.mark.parametrize("initial_dap", DAPS)
@pytest.mark.parametrize("seed", SEEDS)
def test_contending_reconfigurers(seed, initial_dap, gc, direct):
    """The acceptance battery: every selected run passes all properties."""
    verify_plan(make_plan(seed, initial_dap, gc, direct))


# --------------------------------------------------- harness self-diagnostics

def test_repro_dump_written_on_failure(tmp_path, monkeypatch):
    """The CI artifact path: a failing run leaves a self-contained repro."""
    import sys

    monkeypatch.setattr(sys.modules[__name__], "REPRO_DIR", tmp_path)
    plan = make_plan(18, "abd", True, False)
    _dump_repro(plan, "synthetic failure")
    payload = json.loads((tmp_path / "seed-18-abd-gc1-direct0.json").read_text())
    assert payload["failure"] == "synthetic failure"
    assert payload["plan"]["reconfigurers"] == 2
    assert "RECONFIG_CONTENTION_SEEDS=18" in payload["rerun"]

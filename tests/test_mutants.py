"""Protocol mutants the ordinary ``check()`` must kill (ROADMAP item 2(3)).

Each mutant is a monkeypatched protocol bug that the paper's proofs rule
out.  ``KILLS`` records, per mutant, the first registered scenario x seed
(seeds ``0..999`` in order, scenarios in registry order within a seed) whose
``check()`` fails under it; tier-1 re-runs exactly those cells, first
unmutated (the cell verifies) and then mutated (it does not).  The table is
mirrored in ``docs/ARCHITECTURE.md`` ("Mutants").  A mutant no such cell
kills stays listed in ``SURVIVORS``: a strict xfail on the nearest
registered cell, whose reason names the scenario that is missing.

The mutants referee fused configuration discovery and the transfer fence:

* ``unfenced-transfer`` -- the reconfigurer's transfer query carries no
  fence.  A ``put-data`` can then reach a server after the transfer read it
  but before the reconfigurer's ``put-config`` did, so a write completes on
  ``⊥`` links without being seen by the transfer.
* ``fused-ldr-trailing-read-config`` -- the ``put-data`` links replace the
  trailing ``read-config`` on LDR ranges too.  LDR's ``put-data`` reaches
  no consensus quorum and carries no link, so an LDR write skips discovery.
* ``blind-first-round`` -- the first round neither runs ``read-config`` nor
  reads ``nextC``: servers stop attaching the link to query replies, so a
  client only learns of new configurations after it has already chosen its
  tag or value.
"""

from __future__ import annotations

import pytest

from repro.common.ids import reader_id, reconfigurer_id, server_id, writer_id
from repro.common.values import Value
from repro.core import server as server_module
from repro.core.client import RegisterOpsMixin
from repro.core.deployment import AresDeployment
from repro.core.server import WRITE_CONFIG
from repro.dap import abd, treas
from repro.net.latency import FixedLatency
from repro.spec.linearizability import check_linearizability
from repro.workloads.scenarios import run_scenario


def _unfenced(query):
    """``query`` with the ``fence`` argument dropped."""

    def unfenced(self, fence=None):
        return query(self)

    return unfenced


def unfenced_transfer(monkeypatch) -> None:
    for client in (abd.AbdDapClient, treas.TreasDapClient):
        for name in ("get_tag", "get_data"):
            monkeypatch.setattr(client, name, _unfenced(getattr(client, name)))


def _propagate_on_put_data_links(self, cseq, dap_for, pair):
    """``put-data`` into ``ν`` while its replies report a successor, any DAP."""
    while True:
        index = cseq.nu
        dap = dap_for(cseq.config_at(index))
        yield from dap.put_data(pair)
        if dap.next_config is None:
            return
        yield from self._follow_link(cseq, index, dap.next_config)


def fused_ldr_trailing_read_config(monkeypatch) -> None:
    monkeypatch.setattr(RegisterOpsMixin, "_register_propagate",
                        _propagate_on_put_data_links)


def blind_first_round(monkeypatch) -> None:
    monkeypatch.setattr(server_module, "_DISCOVERY_KINDS",
                        frozenset({abd.WRITE, treas.PUT_DATA}))


MUTANTS = {
    "unfenced-transfer": unfenced_transfer,
    "fused-ldr-trailing-read-config": fused_ldr_trailing_read_config,
    "blind-first-round": blind_first_round,
}

#: mutant -> first killing ``(scenario, seed)``.
KILLS = {
    "blind-first-round": ("store_rebalance_hot_range", 239),
}

#: mutant -> ``(nearest registered cell, the scenario that is missing)``.
SURVIVORS = {
    "unfenced-transfer": (("abd_reconfig_crash", 0), (
        "missing scenario: a reconfiguration during which one writer's "
        "put-data and the put-config rounds reach part of the old "
        "configuration later than the reconfigurer's put-config + get-data "
        "rounds take, while a reader learns the finalized successor before "
        "the write completes (survives seeds 0..999 of every registered "
        "scenario; test_counter_execution_of_the_transfer_fence builds the "
        "execution by hand)")),
    "fused-ldr-trailing-read-config": (("abd_reconfig_crash", 0), (
        "missing scenario: dense migration of LDR keys under concurrent "
        "writes, as the benchmark's store_migrate workload runs (75 "
        "migrations over ABD, TREAS and LDR shards), scaled down and "
        "registered in workloads/scenarios.py (survives seeds 0..999 of "
        "every registered scenario)")),
}


@pytest.mark.parametrize("mutant, cell", [
    *((mutant, cell) for mutant, cell in sorted(KILLS.items())),
    *(pytest.param(mutant, cell, marks=pytest.mark.xfail(strict=True, reason=why))
      for mutant, (cell, why) in sorted(SURVIVORS.items())),
])
def test_mutant_is_killed_by_its_cell(mutant, cell, monkeypatch):
    scenario, seed = cell
    assert run_scenario(scenario, seed=seed).check()[0] is None
    MUTANTS[mutant](monkeypatch)
    failure, _ = run_scenario(scenario, seed=seed).check()
    assert failure is not None, f"{mutant} survives {scenario} seed {seed}"


@pytest.mark.parametrize("mutated", [False, True], ids=["protocol", "mutant"])
def test_counter_execution_of_the_transfer_fence(mutated, monkeypatch):
    """Why the reconfigurer's transfer query must carry the fence.

    ABD-5 ``c0`` reconfigures to ``c1``; every message takes 1 unless slowed
    below.  The writer's put-data reaches ``s2`` at 3, before the
    reconfigurer's ``put-config`` (9.5), and ``s3``/``s4`` only at 33, after
    the reconfigurer's ``get-data`` read them (11.5); ``put-config`` never
    reaches ``s3``/``s4`` in time.  So the transfer into ``c1`` carries
    ``v0``.  A reader learns ``<c1, F>`` at 22.  Under the protocol the
    ``get-data`` installed ``c1`` at ``s3``/``s4``, so the put-data quorum
    ``{s2, s3, s4}`` reports it and the write puts ``tau`` into ``c1`` too.
    Under the mutant that quorum answers ``nextC = ⊥``, the write completes
    at 34, and the reader's next read, gathering from ``c1`` only, returns
    ``v0``.
    """
    if mutated:
        unfenced_transfer(monkeypatch)
    deployment = AresDeployment(num_servers=5, initial_dap="abd", num_writers=1,
                                num_readers=1, latency=FixedLatency(1.0))
    s = [server_id(index) for index in range(5)]
    writer, reader, reconfigurer = writer_id(0), reader_id(0), reconfigurer_id(0)
    slowed = {(writer, s[0], abd.WRITE): 100, (writer, s[1], abd.WRITE): 100,
              (writer, s[3], abd.WRITE): 30, (writer, s[4], abd.WRITE): 30,
              (reconfigurer, s[2], abd.QUERY_DATA): 5,
              (reader, s[2], abd.QUERY_DATA): 100}
    for client in (reconfigurer, reader):
        for server in s[3:]:
            slowed[client, server, WRITE_CONFIG] = 100
    deployment.network.add_delay_adjuster(
        lambda src, dest, message, delay:
            delay + slowed.get((src, dest, message.kind), 0))
    successor = deployment.make_configuration(dap="abd", fresh_servers=5)
    deployment.spawn_write(Value.of_size(8, label="tau"))
    reads = []
    deployment.sim.schedule(2.5, lambda: deployment.spawn_reconfig(successor))
    for at in (20.0, 45.0):
        deployment.sim.schedule(at, lambda: reads.append(deployment.spawn_read()))
    deployment.run()
    assert [read.result().label for read in reads] == \
        (["v0", "v0"] if mutated else ["v0", "tau"])
    assert check_linearizability(deployment.history).ok is not mutated

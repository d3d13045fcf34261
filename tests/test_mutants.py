"""Protocol mutants the ordinary ``check()`` must kill (ROADMAP item 2(3)).

Each mutant is a monkeypatched protocol bug that the paper's proofs rule
out.  ``KILLS`` records, per mutant, the first registered scenario x seed
(seeds ``0..30`` in order, scenarios in registry order within a seed) whose
``check()`` fails under it; tier-1 re-runs exactly those cells, first
unmutated (the cell verifies) and then mutated (it does not).  The table is
mirrored in ``docs/ARCHITECTURE.md`` ("Mutants").  A mutant no such cell
kills stays listed in ``SURVIVORS``: a strict xfail on the nearest
registered cell, whose reason names the scenario that is missing.

The two mutants here referee fused configuration discovery:

* ``fused-trailing-read-config`` -- the unsafe fusion.  The ``read-config``
  after ``put-data`` is replaced by the ``nextC`` links the ``put-data``
  replies carry.  A ``put-data`` can reach a server before a concurrent
  reconfiguration's ``put-config`` does, so the write completes without
  seeing a successor whose state transfer missed it.
* ``blind-first-round`` -- the first round neither runs ``read-config`` nor
  reads ``nextC``: servers stop attaching the link, so a client only learns
  of new configurations after it has already chosen its tag or value.
"""

from __future__ import annotations

import pytest

from repro.common.ids import reader_id, reconfigurer_id, server_id, writer_id
from repro.common.values import Value
from repro.config.sequence import next_link
from repro.core import server as server_module
from repro.core.client import RegisterOpsMixin
from repro.core.deployment import AresDeployment
from repro.core.server import WRITE_CONFIG
from repro.dap import abd, treas
from repro.net.latency import FixedLatency
from repro.spec.linearizability import check_linearizability
from repro.workloads.scenarios import run_scenario


def _noting_link(put_data):
    """``put_data`` that also keeps the ``nextC`` its one round's replies carry."""

    def noting(self, tag_value):
        primitive = put_data(self, tag_value)
        replies = yield next(primitive)
        self.next_config = next_link([msg.get("next") for _, msg in replies])
        try:
            primitive.send(replies)
        except StopIteration as stop:
            return stop.value

    return noting


def _propagate_on_put_data_links(self, cseq, dap_for, pair):
    """``put-data`` into ``ν`` while its replies report a successor."""
    while True:
        index = cseq.nu
        dap = dap_for(cseq.config_at(index))
        yield from dap.put_data(pair)
        if dap.next_config is None:
            return
        yield from self._follow_link(cseq, index, dap.next_config)


def fused_trailing_read_config(monkeypatch) -> None:
    monkeypatch.setattr(server_module, "_DISCOVERY_KINDS",
                        server_module._DISCOVERY_KINDS | {abd.WRITE, treas.PUT_DATA})
    for client in (abd.AbdDapClient, treas.TreasDapClient):
        monkeypatch.setattr(client, "put_data", _noting_link(client.put_data))
    monkeypatch.setattr(RegisterOpsMixin, "_register_propagate",
                        _propagate_on_put_data_links)


def blind_first_round(monkeypatch) -> None:
    monkeypatch.setattr(server_module, "_DISCOVERY_KINDS", frozenset())


MUTANTS = {
    "fused-trailing-read-config": fused_trailing_read_config,
    "blind-first-round": blind_first_round,
}

#: mutant -> first killing ``(scenario, seed)``.
KILLS = {
    "blind-first-round": ("store_rebalance_hot_range", 11),
}

#: mutant -> ``(nearest registered cell, the scenario that is missing)``.
SURVIVORS = {
    "fused-trailing-read-config": (("abd_reconfig_crash", 0), (
        "missing scenario: a reconfiguration during which one writer's "
        "put-data and the put-config rounds reach part of the old "
        "configuration later than the reconfigurer's put-config + get-data "
        "rounds take, while a reader learns the finalized successor before "
        "the write completes (survives seeds 0..30 of every registered "
        "scenario; test_counter_execution_of_the_fused_trailing_read_config "
        "builds the execution by hand)")),
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
def test_counter_execution_of_the_fused_trailing_read_config(mutated, monkeypatch):
    """Why ``put-data`` replies cannot stand in for the trailing ``read-config``.

    ABD-5 ``c0`` reconfigures to ``c1``; every message takes 1 unless slowed
    below.  The writer's put-data reaches ``s2`` at 3, before the
    reconfigurer's ``put-config`` (9.5), and ``s3``/``s4`` only at 33, after
    the reconfigurer's ``get-data`` read them (11.5); ``put-config`` never
    reaches ``s3``/``s4`` in time.  So the transfer into ``c1`` carries
    ``v0`` while the put-data quorum ``{s2, s3, s4}`` answers ``nextC = ⊥``.
    A reader learns ``<c1, F>`` at 22.  Under the protocol the write's
    trailing ``read-config`` (at 34) sees ``c1`` at ``s0``..``s2`` and puts
    ``tau`` there; under the mutant the write completes at 34, and the
    reader's next read, gathering from ``c1`` only, returns ``v0``.
    """
    if mutated:
        fused_trailing_read_config(monkeypatch)
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

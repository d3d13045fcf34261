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
* ``skip-read-write-back`` -- every read returns after its ``get-data``
  walk: the one-round read without the test that its quorum agreed.

Three hand-built ``FixedLatency`` executions kill what no registered cell
does; a fourth shows why a one-round read needs the transfer fence.
"""

from __future__ import annotations

from operator import methodcaller

import pytest

from repro.common.ids import reader_id, reconfigurer_id, server_id, writer_id
from repro.common.tags import max_tag_value
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


def _read_without_write_back(self, cseq, dap_for):
    """The read body returning whatever its ``get-data`` walk found."""
    pairs = yield from self._query_sequence(cseq, dap_for, methodcaller("get_data"))
    return max_tag_value(pairs)


def skip_read_write_back(monkeypatch) -> None:
    monkeypatch.setattr(RegisterOpsMixin, "_read_body", _read_without_write_back)


MUTANTS = {
    "unfenced-transfer": unfenced_transfer,
    "fused-ldr-trailing-read-config": fused_ldr_trailing_read_config,
    "blind-first-round": blind_first_round,
    "skip-read-write-back": skip_read_write_back,
}

#: mutant -> first killing ``(scenario, seed)``.
KILLS = {}

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
    "blind-first-round": (("store_rebalance_hot_range", 239), (
        "missing scenario: one reader that stays idle while a "
        "reconfiguration finalizes and a writer writes twice past it, one "
        "operation at a time, so the reader's next get-data quorum in the "
        "old configuration agrees on the first write (survives seeds 0..999 "
        "of every registered scenario since reads take one round when the "
        "quorum agrees; test_blind_first_round_is_killed_by_a_write_past_a_"
        "reconfiguration builds the execution by hand)")),
    "skip-read-write-back": (("abd_packet_chaos", 0), (
        "missing scenario: a write whose put-data reaches one server long "
        "before the others, while one reader's get-data quorum includes that "
        "server and a later reader's quorum does not (survives seeds 0..999 "
        "of every registered scenario; test_counter_execution_of_skipping_"
        "the_read_write_back builds the execution by hand)")),
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


def _slowed(deployment, slowed):
    """Add ``slowed[(src, dest, kind)]`` to every matching message's delay."""
    deployment.network.add_delay_adjuster(
        lambda src, dest, message, delay:
            delay + slowed.get((src, dest, message.kind), 0))


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
    _slowed(deployment, slowed)
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


@pytest.mark.parametrize("mutated", [False, True], ids=["protocol", "mutant"])
def test_counter_execution_of_skipping_the_read_write_back(mutated, monkeypatch):
    """Why a read whose quorum disagrees must write back.

    ABD-5; every message takes 1 unless slowed below.  The writer's
    put-data of ``tau`` reaches ``s0`` at 3 and the other servers only
    after 100.  Reader 1's quorum ``{s0, s1, s2}`` answers at 7 with ``tau``
    at ``s0`` alone.  Under the protocol the tags disagree, so the read
    writes ``tau`` back to a quorum before returning at 9; under the mutant
    it returns at 7.  Reader 2's quorum ``{s2, s3, s4}`` answers at 14: it
    holds ``tau`` only if reader 1 wrote it back.
    """
    if mutated:
        skip_read_write_back(monkeypatch)
    deployment = AresDeployment(num_servers=5, initial_dap="abd", num_writers=1,
                                num_readers=2, latency=FixedLatency(1.0))
    s = [server_id(index) for index in range(5)]
    writer, first, second = writer_id(0), reader_id(0), reader_id(1)
    slowed = {(writer, server, abd.WRITE): 100 for server in s[1:]}
    slowed.update({(first, server, abd.QUERY_DATA): 100 for server in s[3:]})
    slowed.update({(second, server, abd.QUERY_DATA): 100 for server in s[:2]})
    _slowed(deployment, slowed)
    deployment.spawn_write(Value.of_size(8, label="tau"))
    reads = []
    for at, reader_index in ((5.0, 0), (12.0, 1)):
        deployment.sim.schedule(
            at, lambda index=reader_index: reads.append(deployment.spawn_read(index)))
    deployment.run()
    assert [read.result().label for read in reads] == \
        (["tau", "v0"] if mutated else ["tau", "tau"])
    assert check_linearizability(deployment.history).ok is not mutated


@pytest.mark.parametrize("mutated", [False, True], ids=["protocol", "mutant"])
def test_blind_first_round_is_killed_by_a_write_past_a_reconfiguration(mutated, monkeypatch):
    """Why the ``get-data`` replies must carry the link.

    ABD-5, one writer, one reader, one operation at a time: read,
    reconfigure ``c0 -> c1``, write ``tau1``, write ``tau2``, read.  Under
    the mutant the writer learns ``c1`` only from its ``put-data`` replies,
    so ``tau1`` lands in ``c0`` as well as ``c1``, and ``tau2`` in ``c1``
    only.  The reader's ``get-data`` quorum in ``c0`` then agrees on
    ``tau1`` and reports no link, and the read returns ``tau1`` in one
    round.  Under the protocol those replies carry the link, and the read
    walks on to ``c1`` and ``tau2``.
    """
    if mutated:
        blind_first_round(monkeypatch)
    deployment = AresDeployment(num_servers=5, initial_dap="abd", num_writers=1,
                                num_readers=1, latency=FixedLatency(1.0))
    successor = deployment.make_configuration(dap="abd", fresh_servers=5)
    steps = (deployment.read,
             lambda: deployment.reconfig(successor),
             lambda: deployment.write(Value.of_size(8, label="tau1")),
             lambda: deployment.write(Value.of_size(8, label="tau2")),
             deployment.read)
    results = []
    for step in steps:
        results.append(step())
        deployment.sim.run_until(deployment.sim.now + 1.0)
    assert [results[0].label, results[-1].label] == \
        ["v0", "tau1" if mutated else "tau2"]
    assert check_linearizability(deployment.history).ok is not mutated


@pytest.mark.parametrize("mutated", [False, True], ids=["protocol", "mutant"])
def test_counter_execution_of_the_read_side_fence(mutated, monkeypatch):
    """Why a one-round read needs the transfer fence.

    ABD-5 ``c0`` reconfigures to ``c1`` with garbage collection; every
    message takes 1 unless slowed below.  The writer's put-data of ``tau``
    reaches ``s3``/``s4`` at 3 and ``s2`` at 13; its acks from ``s2`` on are
    held back, so the write stays pending.  The reconfigurer's ``put-config``
    never reaches ``s2`` in time, and its transfer reads ``v0`` from
    ``{s0, s1, s2}`` at 11.5.  The reader queries ``s3``/``s4`` at 6, before
    any link, and ``s2`` at 14, so its quorum ``{s2, s3, s4}`` agrees on
    ``tau``.  Under the protocol the transfer query installed ``c1`` at
    ``s2``, whose reply carries it: the read walks on and writes ``tau`` into
    ``c1``.  Under the mutant no reply reports a link and the read returns
    ``tau`` in one round.  Its next read at 30 is refused by the retired
    ``c0``, re-bases on ``c1`` and returns what is there: ``v0`` under the
    mutant.
    """
    if mutated:
        unfenced_transfer(monkeypatch)
    deployment = AresDeployment(num_servers=5, initial_dap="abd", num_writers=1,
                                num_readers=1, latency=FixedLatency(1.0), gc=True)
    s = [server_id(index) for index in range(5)]
    writer, reader, reconfigurer = writer_id(0), reader_id(0), reconfigurer_id(0)
    slowed = {(writer, s[0], abd.WRITE): 100, (writer, s[1], abd.WRITE): 100,
              (writer, s[2], abd.WRITE): 10,
              (reconfigurer, s[2], WRITE_CONFIG): 100,
              (reconfigurer, s[3], abd.QUERY_DATA): 100,
              (reconfigurer, s[4], abd.QUERY_DATA): 100,
              (reader, s[0], abd.QUERY_DATA): 100,
              (reader, s[1], abd.QUERY_DATA): 100,
              (reader, s[2], abd.QUERY_DATA): 8}
    slowed.update({(server, writer, "ABD-ACK"): 100 for server in s[2:]})
    _slowed(deployment, slowed)
    successor = deployment.make_configuration(dap="abd", fresh_servers=5)
    deployment.spawn_write(Value.of_size(8, label="tau"))
    reads = []
    deployment.sim.schedule(2.5, lambda: deployment.spawn_reconfig(successor))
    for at in (5.0, 30.0):
        deployment.sim.schedule(at, lambda: reads.append(deployment.spawn_read()))
    deployment.run()
    assert [read.result().label for read in reads] == \
        (["tau", "v0"] if mutated else ["tau", "tau"])
    assert check_linearizability(deployment.history).ok is not mutated

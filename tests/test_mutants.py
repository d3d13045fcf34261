"""Protocol mutants the ordinary ``check()`` must kill (ROADMAP item 2(3)).

Each mutant is a monkeypatched protocol bug that the paper's proofs rule
out.  ``KILLS`` records, per mutant, the first registered scenario x seed
(seeds ``0..999`` in order, scenarios in registry order within a seed) whose
``check()`` fails under it; tier-1 re-runs exactly those cells, first
unmutated (the cell verifies) and then mutated (it does not).  The table is
mirrored in ``docs/ARCHITECTURE.md`` ("Mutants").  A mutant no such cell
kills stays listed in ``SURVIVORS``: a strict xfail on the nearest
registered cell, whose reason names the scenario that is missing.

The mutants referee fused configuration discovery, the transfer fence and
one-round reads:

* ``unfenced-transfer`` -- the reconfigurer's transfer query carries no
  fence.  A ``put-data`` can then reach a server after the transfer read it
  but before the reconfigurer's finalizing ``put-config`` did, so a write
  completes on ``⊥`` links without being seen by the transfer.
* ``linkless-ldr-put-data`` -- directories stop attaching the link to
  ``put-metadata`` replies, so an LDR write skips discovery after its
  ``put-data``: it can complete on ``⊥`` while a transfer that missed its
  value installs the successor.
* ``blind-first-round`` -- the first round does not read ``nextC``: servers
  stop attaching the link to query replies (under every DAP), so a
  client only learns of new configurations after it has already chosen its
  tag or value.
* ``skip-read-write-back`` -- every read returns after its ``get-data``
  walk: the one-round read without the test that its quorum agreed, for
  ABD and TREAS reads alike.
* ``treas-read-agrees-on-decodable`` -- a TREAS read counts as agreed
  whenever its tag is decodable, i.e. at least ``k`` lists of its quorum
  hold the element, not every one of them.
* ``ldr-read-agrees-on-max`` -- an LDR read counts as agreed whenever it
  returns the maximum tag of its directory majority, even if not every
  directory reply carries it, so it skips the help round and the
  write-back.
* ``repropose-installed`` -- add-config proposes even when its sequence
  already holds the configuration (learned from a promise's link), so
  Paxos can decide it at a second GL index.
* ``fresh-tag-restart`` -- a ``put-data`` refused by a retired
  configuration restarts the whole read or write instead of re-basing on
  the tombstone, so a restarted write queries again and stores its value
  under a second, fresh tag.
* ``dropped-forward-requests`` -- a TREAS source server that lacks the
  element of a direct transfer's tag drops the forward request instead of
  serving it when the element arrives, so the transfer of an in-flight
  write's tag never completes.

Nine hand-built ``FixedLatency`` executions kill the mutants, seven of them
where no registered cell does; a tenth shows why a one-round read needs
the transfer fence.  ``dropped-forward-requests``'s is
``tests/test_ares_treas_transfer.py::TestForwardOfAnInFlightWrite``.
"""

from __future__ import annotations

from operator import methodcaller

import pytest

from repro.common.errors import QuorumRefusedError, is_retirement_refusal
from repro.common.ids import reader_id, reconfigurer_id, server_id, writer_id
from repro.common.tags import max_tag_value
from repro.common.values import Value
from repro.config.sequence import ConfigRecord, Status
from repro.consensus.paxos import ACCEPT, PaxosProposer
from repro.core import server as server_module
from repro.core.client import RegisterOpsMixin
from repro.core.deployment import AresDeployment
from repro.core.reconfig import ReconfigOpsMixin
from repro.core.server import WRITE_CONFIG
from repro.dap import abd, ldr, treas
from repro.net.latency import FixedLatency
from repro.spec.linearizability import check_linearizability
from repro.workloads.scenarios import run_scenario


def _unfenced(query):
    """``query`` with the ``fence`` argument dropped."""

    def unfenced(self, fence=None):
        return query(self)

    return unfenced


def unfenced_transfer(monkeypatch) -> None:
    for client in (abd.AbdDapClient, treas.TreasDapClient, ldr.LdrDapClient):
        for name in ("get_tag", "get_data"):
            monkeypatch.setattr(client, name, _unfenced(getattr(client, name)))


def linkless_ldr_put_data(monkeypatch) -> None:
    monkeypatch.setattr(server_module, "_DISCOVERY_KINDS",
                        server_module._DISCOVERY_KINDS - {ldr.PUT_METADATA})


def blind_first_round(monkeypatch) -> None:
    monkeypatch.setattr(server_module, "_DISCOVERY_KINDS",
                        frozenset({abd.WRITE, treas.PUT_DATA, ldr.PUT_METADATA}))


def _read_without_write_back(self, cseq, dap_for):
    """The read body returning whatever its ``get-data`` walk found."""
    pairs = yield from self._query_sequence(cseq, dap_for, methodcaller("get_data"))
    return max_tag_value(pairs)


def skip_read_write_back(monkeypatch) -> None:
    monkeypatch.setattr(RegisterOpsMixin, "_read_body", _read_without_write_back)


def _agree_on_decodable(select):
    """``_select_decodable`` noting every pair it returns as agreed."""

    def select_decodable(self, replies):
        pair = select(self, replies)
        if pair is not None:
            self.agreed_tag = pair.tag
        return pair

    return select_decodable


def treas_read_agrees_on_decodable(monkeypatch) -> None:
    client = treas.TreasDapClient
    monkeypatch.setattr(client, "_select_decodable",
                        _agree_on_decodable(client._select_decodable))


def _agree_on_max(query):
    """``_query_directories`` noting every maximum tag it returns as agreed."""

    def query_directories(self, fence):
        tag, location = yield from query(self, fence)
        self.agreed_tag = tag
        return tag, location

    return query_directories


def ldr_read_agrees_on_max(monkeypatch) -> None:
    client = ldr.LdrDapClient
    monkeypatch.setattr(client, "_query_directories",
                        _agree_on_max(client._query_directories))


def _add_config_reproposing(self, cseq, proposed):
    """add-config without its test that the sequence holds ``proposed``."""
    while True:
        index, last = cseq.nu, cseq.last.config
        proposer = PaxosProposer(self, last, instance=last.cfg_id,
                                 extra_decision_delay=self.consensus_delay)
        try:
            outcome = yield from proposer.propose(proposed)
        except QuorumRefusedError as error:
            index = self._rebase(cseq, index, last, error)
            if proposer.offered:
                return cseq.last.config, index
            continue
        if isinstance(outcome, ConfigRecord):
            yield from self._follow_link(cseq, index, outcome)
            continue
        self.directory.register(outcome)
        existing = cseq.index_of(outcome.cfg_id)
        if existing is None:
            existing = cseq.append(ConfigRecord(outcome, Status.PENDING))
        return outcome, existing


def repropose_installed(monkeypatch) -> None:
    monkeypatch.setattr(ReconfigOpsMixin, "_add_config", _add_config_reproposing)


def _propagate_without_rebase(self, cseq, dap_for, pair):
    """put-data until the sequence stops growing, with no re-base on a refusal."""
    while True:
        nu = cseq.nu
        dap = dap_for(cseq.config_at(nu))
        yield from dap.put_data(pair)
        if dap.next_config is None:
            return
        yield from self._follow_link(cseq, nu, dap.next_config)


def _restarting(body, cap=64):
    """``body`` re-run from its first round while refused only for retirement."""

    def restarting(self, *args):
        for restart in range(cap + 1):
            try:
                return (yield from body(self, *args))
            except QuorumRefusedError as error:
                if restart == cap or not is_retirement_refusal(error):
                    raise

    return restarting


def _drop_pending(self, tag):
    """``_serve_pending`` forgetting every kept forward request."""
    self.pending_forwards.clear()


def dropped_forward_requests(monkeypatch) -> None:
    monkeypatch.setattr(treas.TreasServerState, "_serve_pending", _drop_pending)


def fresh_tag_restart(monkeypatch) -> None:
    monkeypatch.setattr(RegisterOpsMixin, "_register_propagate",
                        _propagate_without_rebase)
    for name in ("_write_body", "_read_body"):
        monkeypatch.setattr(RegisterOpsMixin, name,
                            _restarting(getattr(RegisterOpsMixin, name)))


MUTANTS = {
    "unfenced-transfer": unfenced_transfer,
    "linkless-ldr-put-data": linkless_ldr_put_data,
    "blind-first-round": blind_first_round,
    "skip-read-write-back": skip_read_write_back,
    "treas-read-agrees-on-decodable": treas_read_agrees_on_decodable,
    "ldr-read-agrees-on-max": ldr_read_agrees_on_max,
    "repropose-installed": repropose_installed,
    "fresh-tag-restart": fresh_tag_restart,
    "dropped-forward-requests": dropped_forward_requests,
}

#: mutant -> first killing ``(scenario, seed)``.
KILLS = {
    "ldr-read-agrees-on-max": ("ldr_gray_degradation", 114),
    "unfenced-transfer": ("store_rebalance_hot_range", 13),
}

#: mutant -> ``(nearest registered cell, the scenario that is missing)``.
SURVIVORS = {
    "linkless-ldr-put-data": (("ldr_reconfig_crash", 0), (
        "missing scenario: dense migration of LDR keys under concurrent "
        "writes, as the benchmark's store_migrate workload runs (75 "
        "migrations over ABD, TREAS and LDR shards), scaled down and "
        "registered in workloads/scenarios.py (survives seeds 0..999 of "
        "every registered scenario; test_counter_execution_of_a_linkless_"
        "ldr_put_data builds the execution by hand)")),
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
    "repropose-installed": (("storm_mixed_dap_chaos", 0), (
        "missing scenario: contending reconfigurers with gc -- two to four "
        "reconfigurers running back-to-back reconfigurations onto fresh "
        "configurations while clients write and read, as "
        "test_reconfig_contention_property.py runs (survives seeds 0..999 "
        "of every registered scenario; test_counter_execution_of_a_"
        "re_proposal builds the execution by hand)")),
    "fresh-tag-restart": (("store_migration_gc", 0), (
        "missing scenario: a write whose put-data straddles the retirement "
        "of its configuration while a second writer writes past it -- the "
        "put-data reaches a quorum only after gc retired the configuration, "
        "and the other writer's write completes in between (survives seeds "
        "0..999 of every registered scenario; store_migration_gc is the one "
        "registered scenario with gc on; test_counter_execution_of_a_write_"
        "restarted_with_a_fresh_tag builds the execution by hand)")),
    "dropped-forward-requests": (("treas_reconfig_partition", 0), (
        "missing scenario: a direct-transfer reconfiguration (no registered "
        "scenario runs one, ROADMAP item 21(a)) of the tag of a TREAS write "
        "whose put-data reaches n-k+1 servers only after the forward request "
        "(survives every registered cell; TestForwardOfAnInFlightWrite in "
        "test_ares_treas_transfer.py builds the execution by hand)")),
    "treas-read-agrees-on-decodable": (("treas_partition_heal", 0), (
        "missing scenario: a TREAS write whose put-data reaches exactly k "
        "servers long before the others, while one reader's get-data quorum "
        "includes those k and a later reader's quorum misses one of them "
        "(survives seeds 0..999 of every registered scenario; "
        "test_counter_execution_of_a_decodable_but_unagreed_treas_read "
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


def _slowed(deployment, slowed):
    """Add ``slowed[(src, dest, kind)]`` to every matching message's delay."""
    deployment.network.add_delay_adjuster(
        lambda src, dest, message, delay:
            delay + slowed.get((src, dest, message.kind), 0))


@pytest.mark.parametrize("mutated", [False, True], ids=["protocol", "mutant"])
def test_counter_execution_of_the_transfer_fence(mutated, monkeypatch):
    """Why the reconfigurer's transfer query must carry the fence.

    ABD-5 ``c0`` reconfigures to ``c1``; every message takes 1 unless slowed
    below.  The writer's put-data reaches ``s2`` at 3, and ``s3``/``s4``
    only at 33, after the reconfigurer's ``get-data`` read them (7.5); that
    ``get-data`` reaches ``s2`` only at 12.5, so its quorum ``{s0, s1, s3}``
    misses ``tau`` and the transfer into ``c1`` carries ``v0``.  The
    finalizing ``put-config`` (11.5) never reaches ``s3``/``s4`` in time.
    A reader learns ``<c1, F>`` at 22.  Under the protocol the
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
def test_counter_execution_of_a_linkless_ldr_put_data(mutated, monkeypatch):
    """Why LDR's ``put-metadata`` replies must carry the link.

    LDR 3+3 ``c0`` (directories ``s0``..``s2``, replicas ``s3``..``s5``)
    reconfigures to ``c1``; every message takes 1 unless slowed below.  The
    writer's value reaches the replicas at 3, but its ``put-metadata``
    reaches ``s1``/``s2`` only at 35 and ``s0`` after 100.  So the
    reconfigurer's fenced transfer query (9.5) sees no metadata and carries
    ``v0`` into ``c1``; ``<c1, F>`` reaches the directories at 17.5 and a
    reader at 26.  The write's ``put-metadata`` quorum ``{s1, s2}`` answers
    at 36 with ``c1`` as ``nextC``: under the protocol the write follows it
    and puts ``tau`` into ``c1``; under the mutant the replies carry no
    link, the write completes at 36, and the reader's next read, gathering
    from ``c1`` only, returns ``v0``.
    """
    if mutated:
        linkless_ldr_put_data(monkeypatch)
    deployment = AresDeployment(num_servers=6, initial_dap="ldr", num_writers=1,
                                num_readers=1, latency=FixedLatency(1.0))
    s = [server_id(index) for index in range(6)]
    writer = writer_id(0)
    _slowed(deployment, {(writer, s[0], ldr.PUT_METADATA): 100,
                         (writer, s[1], ldr.PUT_METADATA): 30,
                         (writer, s[2], ldr.PUT_METADATA): 30})
    successor = deployment.make_configuration(dap="ldr", fresh_servers=6)
    deployment.spawn_write(Value.of_size(8, label="tau"))
    reads = []
    deployment.sim.schedule(2.5, lambda: deployment.spawn_reconfig(successor))
    for at in (25.0, 50.0):
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
def test_counter_execution_of_a_decodable_but_unagreed_treas_read(mutated, monkeypatch):
    """Why every list of a TREAS read's quorum must hold the element.

    TREAS ``[6, 4]``, δ = 4; every message takes 1 unless slowed below.
    The writer's put-data of ``tau`` reaches ``s0``..``s3`` at 3 and
    ``s4``/``s5`` only after 100.  Reader 1's quorum ``{s0, ..., s4}``
    answers at 7: ``tau``'s element sits in four lists, so it decodes, but
    ``s4`` lacks it.  Under the protocol the read writes ``tau`` back before
    returning at 9; under the mutant it returns at 7.  Reader 2's quorum
    ``{s1, ..., s5}`` answers at 14: it holds ``tau`` in ``k`` lists only if
    reader 1 wrote it back, and otherwise decodes ``v0``.
    """
    if mutated:
        treas_read_agrees_on_decodable(monkeypatch)
    deployment = AresDeployment(num_servers=6, initial_dap="treas", k=4, delta=4,
                                num_writers=1, num_readers=2, latency=FixedLatency(1.0))
    s = [server_id(index) for index in range(6)]
    writer, first, second = writer_id(0), reader_id(0), reader_id(1)
    slowed = {(writer, server, treas.PUT_DATA): 100 for server in s[4:]}
    slowed.update({(first, s[5], treas.QUERY_LIST): 100,
                   (second, s[0], treas.QUERY_LIST): 100})
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
def test_counter_execution_of_an_unagreed_ldr_read(mutated, monkeypatch):
    """Why every directory reply of an LDR read must carry its tag.

    LDR 3+3 (directories ``s0``..``s2``, replicas ``s3``..``s5``); every
    message takes 1 unless slowed below.  The writer's value reaches the
    replicas at 3 and its ``put-metadata`` of ``tau`` reaches ``s0`` at 5,
    ``s1``/``s2`` only after 100.  Reader 1's directory majority
    ``{s0, s1}`` answers at 8 with ``tau`` at ``s0`` alone.  Under the
    protocol the tags disagree, so the read helps ``tau`` onto every
    directory, fetches it and writes it back before returning at 16; under
    the mutant it fetches and returns at 10.  Reader 2's majority
    ``{s1, s2}`` answers at 22: it holds ``tau`` only if reader 1 helped.
    """
    if mutated:
        ldr_read_agrees_on_max(monkeypatch)
    deployment = AresDeployment(num_servers=6, initial_dap="ldr", num_writers=1,
                                num_readers=2, latency=FixedLatency(1.0))
    s = [server_id(index) for index in range(6)]
    writer, first, second = writer_id(0), reader_id(0), reader_id(1)
    _slowed(deployment, {(writer, s[1], ldr.PUT_METADATA): 100,
                         (writer, s[2], ldr.PUT_METADATA): 100,
                         (first, s[2], ldr.QUERY_TAG_LOCATION): 100,
                         (second, s[0], ldr.QUERY_TAG_LOCATION): 100})
    deployment.spawn_write(Value.of_size(8, label="tau"))
    reads = []
    for at, reader_index in ((6.0, 0), (20.0, 1)):
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
    reaches ``s3``/``s4`` at 3 and ``s2`` at 11; its acks from ``s2`` on are
    held back, so the write stays pending.  The reconfigurer's transfer
    reads ``v0`` from ``{s0, s1, s2}`` at 7.5, and its finalizing
    ``put-config`` (11.5) never reaches ``s2`` in time; ``c0`` retires at
    13.5.  The reader queries ``s3``/``s4`` at 6, before any link, and
    ``s2`` at 12, so its quorum ``{s2, s3, s4}`` agrees on ``tau``.  Under
    the protocol the transfer query installed ``c1`` at ``s2``, whose reply
    carries it: the read walks on and writes ``tau`` into ``c1``.  Under the
    mutant no reply reports a link and the read returns ``tau`` in one
    round.  Its next read at 30 is refused by the retired ``c0``, re-bases
    on ``c1`` and returns what is there: ``v0`` under the mutant.
    """
    if mutated:
        unfenced_transfer(monkeypatch)
    deployment = AresDeployment(num_servers=5, initial_dap="abd", num_writers=1,
                                num_readers=1, latency=FixedLatency(1.0), gc=True)
    s = [server_id(index) for index in range(5)]
    writer, reader, reconfigurer = writer_id(0), reader_id(0), reconfigurer_id(0)
    slowed = {(writer, s[0], abd.WRITE): 100, (writer, s[1], abd.WRITE): 100,
              (writer, s[2], abd.WRITE): 8,
              (reconfigurer, s[2], WRITE_CONFIG): 100,
              (reconfigurer, s[3], abd.QUERY_DATA): 100,
              (reconfigurer, s[4], abd.QUERY_DATA): 100,
              (reader, s[0], abd.QUERY_DATA): 100,
              (reader, s[1], abd.QUERY_DATA): 100,
              (reader, s[2], abd.QUERY_DATA): 6}
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


@pytest.mark.parametrize("mutated", [False, True], ids=["protocol", "mutant"])
def test_counter_execution_of_a_re_proposal(mutated, monkeypatch):
    """Why add-config must not propose a configuration its sequence holds.

    The shape the contention harness caught (e.g. its seed 19 on LDR):
    ABD-5 ``c0``, reconfigurers A and B; every message takes 1 unless
    slowed below.  A's accept of ``cA`` reaches ``s0``/``s1`` at 3 and the
    others only after 100.  B prepares at 3.5, adopts ``cA`` from the
    promises, decides it and puts ``<cA, P>`` into ``c0``.  A's accept is
    refused, and its next prepare names ``cA``: A follows the link.  Under
    the protocol its sequence now holds ``cA`` and add-config returns it.
    Under the mutant A proposes ``cA`` again, at ``cA``'s own instance, and
    ``cA``'s servers accept ``cA`` as its own successor: GL would hold
    ``cA`` at indices 1 and 2.  A later reconfiguration proposing at
    ``cA``'s instance then gets ``cA`` back instead of installing its own
    configuration, and so does every one after it.
    """
    if mutated:
        repropose_installed(monkeypatch)
    deployment = AresDeployment(num_servers=5, initial_dap="abd", num_writers=1,
                                num_readers=1, num_reconfigurers=2,
                                latency=FixedLatency(1.0))
    s = [server_id(index) for index in range(5)]
    _slowed(deployment, {(reconfigurer_id(0), server, ACCEPT): 100 for server in s[2:]})
    proposed = deployment.make_configuration(dap="abd", fresh_servers=5)
    contender = deployment.make_configuration(dap="abd", fresh_servers=5)
    reconfigs = [deployment.spawn_reconfig(proposed, 0)]
    deployment.sim.schedule(
        2.5, lambda: reconfigs.append(deployment.spawn_reconfig(contender, 1)))
    deployment.run()
    assert [op.result().cfg_id for op in reconfigs] == [proposed.cfg_id] * 2
    accepted = [server.acceptors[proposed.cfg_id].accepted_value
                for server in map(deployment.servers.get, proposed.servers)
                if proposed.cfg_id in server.acceptors]
    assert accepted == ([proposed] * 5 if mutated else [])
    successor = deployment.make_configuration(dap="abd", fresh_servers=5)
    later = deployment.spawn_reconfig(successor, 1)
    deployment.run()
    assert later.result() is (proposed if mutated else successor)
    assert deployment.read(0).label == "v0"


@pytest.mark.parametrize("mutated", [False, True], ids=["protocol", "mutant"])
def test_counter_execution_of_a_write_restarted_with_a_fresh_tag(mutated, monkeypatch):
    """Why a refused ``put-data`` re-bases instead of restarting the write.

    ABD-5 ``c0`` reconfigures to ``c1`` with garbage collection; every
    message takes 1 unless slowed below.  Writer 0 tags ``v`` with
    ``(1, writer-0)``; its put-data reaches ``s3``/``s4`` at 3 and
    ``s0``..``s2`` only at 103.  The reconfigurer's transfer query reads
    ``{s2, s3, s4}`` and carries ``v`` into ``c1``; ``c0`` retires at 13.5.
    The read at 15 returns ``v`` from ``c1``, and writer 1 writes ``v'``
    under ``(2, writer-1)`` at 20.  At 103 writer 0's put-data is refused
    by the retired ``c0``.  Under the protocol it re-bases on ``c1`` and
    puts ``v`` there under its one tag, below ``v'``.  Under the mutant the
    write restarts, queries ``c1`` and stores ``v`` again under
    ``(3, writer-0)``, above ``v'``: the read at 120 returns ``v`` a second
    time, after a read already returned ``v`` and ``v'`` was written.
    """
    if mutated:
        fresh_tag_restart(monkeypatch)
    deployment = AresDeployment(num_servers=5, initial_dap="abd", num_writers=2,
                                num_readers=1, latency=FixedLatency(1.0), gc=True)
    s = [server_id(index) for index in range(5)]
    slowed = {(writer_id(0), server, abd.WRITE): 100 for server in s[:3]}
    slowed.update({(reconfigurer_id(0), server, abd.QUERY_DATA): 100
                   for server in s[:2]})
    _slowed(deployment, slowed)
    successor = deployment.make_configuration(dap="abd", fresh_servers=5)
    deployment.spawn_write(Value.of_size(8, label="v"), 0)
    reads = []
    deployment.sim.schedule(2.5, lambda: deployment.spawn_reconfig(successor))
    deployment.sim.schedule(
        20.0, lambda: deployment.spawn_write(Value.of_size(8, label="v'"), 1))
    for at in (15.0, 120.0):
        deployment.sim.schedule(at, lambda: reads.append(deployment.spawn_read()))
    deployment.run()
    assert [read.result().label for read in reads] == \
        (["v", "v"] if mutated else ["v", "v'"])
    assert check_linearizability(deployment.history).ok is not mutated

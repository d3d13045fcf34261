"""Tests for the ARES reconfiguration service (Algorithms 4, 5, 6).

Covers the sequence-traversal actions, the four phases of ``reconfig``, the
configuration-sequence properties the paper proves (Uniqueness, Prefix,
Progress -- Lemmas 13-16) and behaviour under concurrent reconfigurers.
"""

from __future__ import annotations

import pytest

from repro.common.ids import config_id, server_id
from repro.common.values import Value
from repro.config.sequence import ConfigRecord, ConfigSequence, Status
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.consensus.paxos import ACCEPT, PREPARE
from repro.core.server import WRITE_CONFIG
from repro.dap import abd, ldr, treas
from repro.net.latency import FixedLatency, UniformLatency
from repro.spec.history import OperationType
from repro.spec.linearizability import check_linearizability


def make_deployment(**overrides):
    defaults = dict(num_servers=5, initial_dap="treas", delta=4, num_writers=2,
                    num_readers=2, num_reconfigurers=2, seed=0,
                    latency=UniformLatency(1.0, 2.0))
    defaults.update(overrides)
    return AresDeployment(DeploymentSpec(**defaults))


def note_gathers(process):
    """The labels of the quorum rounds ``process`` opens from now on."""
    labels = []
    open_round = process.broadcast_and_gather

    def noting(servers, make_message, threshold, label="gather"):
        labels.append(label.split("[")[0])
        return open_round(servers, make_message, threshold, label)

    process.broadcast_and_gather = noting
    return labels


class TestSequenceTraversal:
    def test_add_config_on_fresh_system_proposes_at_the_initial_configuration(self):
        dep = make_deployment()
        reconfigurer = dep.reconfigurers[0]
        new_cfg = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        handle = reconfigurer.spawn(reconfigurer._add_config(reconfigurer.cseq, new_cfg))
        installed, index = dep.sim.run_until_complete(handle)
        assert (installed.cfg_id, index) == (new_cfg.cfg_id, 1)
        seq = reconfigurer.cseq
        assert len(seq) == 2
        assert seq[0].config.cfg_id == dep.initial_configuration.cfg_id
        assert seq[1].status is Status.PENDING

    def test_add_config_discovers_installed_configuration(self):
        # reconfigurers[1] never ran: its promise quorum on c0 names c1,
        # finalized, and it proposes its own configuration after it.
        dep = make_deployment()
        new_cfg = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        dep.reconfig(new_cfg, 0)
        stale = dep.reconfigurers[1]
        mine = dep.make_configuration(dap="abd", fresh_servers=3)
        handle = stale.spawn(stale._add_config(stale.cseq, mine))
        installed, index = dep.sim.run_until_complete(handle)
        seq = stale.cseq
        assert (installed.cfg_id, index) == (mine.cfg_id, 2)
        assert seq[1].config.cfg_id == new_cfg.cfg_id
        assert seq[1].status is Status.FINALIZED

    def test_put_config_installs_nextc_at_quorum(self):
        dep = make_deployment()
        client = dep.readers[0]
        new_cfg = dep.make_configuration(dap="abd", fresh_servers=3)
        from repro.config.sequence import ConfigRecord

        record = ConfigRecord(new_cfg, Status.PENDING)
        handle = client.spawn(client.put_config(dep.initial_configuration, record))
        dep.sim.run_until_complete(handle)
        holders = sum(
            1 for server in dep.servers.values()
            if server.next_config.get(dep.initial_configuration.cfg_id) is not None
        )
        assert holders >= dep.initial_configuration.consensus_quorum_size


class TestReconfigOperation:
    def test_reconfig_installs_and_finalizes(self):
        dep = make_deployment()
        new_cfg = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        installed = dep.reconfig(new_cfg, 0)
        assert installed.cfg_id == new_cfg.cfg_id
        reconfigurer = dep.reconfigurers[0]
        assert reconfigurer.cseq.nu == 1
        assert reconfigurer.cseq[1].status is Status.FINALIZED
        assert reconfigurer.completed_reconfigs == 1

    def test_reconfig_transfers_latest_value(self):
        dep = make_deployment()
        dep.write(Value.of_size(256, label="before-reconfig"), 0)
        new_cfg = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        dep.reconfig(new_cfg, 0)
        # The new configuration's servers now hold the value: a reader that
        # only contacts the new configuration (fresh client state) finds it.
        assert dep.read(0).label == "before-reconfig"
        by_config = dep.storage_by_configuration()
        assert by_config.get(new_cfg.cfg_id, 0) > 0

    def test_reconfig_across_dap_kinds(self):
        dep = make_deployment()
        dep.write(Value.of_size(128, label="v1"), 0)
        abd_cfg = dep.make_configuration(dap="abd", fresh_servers=3)
        dep.reconfig(abd_cfg, 0)
        assert dep.read(0).label == "v1"
        dep.write(Value.of_size(128, label="v2"), 1)
        treas_cfg = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        dep.reconfig(treas_cfg, 1)
        assert dep.read(1).label == "v2"

    def test_reconfig_to_smaller_and_larger_configurations(self):
        dep = make_deployment(num_servers=9)
        dep.write(Value.of_size(64, label="x"), 0)
        smaller = dep.make_configuration(dap="treas",
                                         servers=[server_id(i) for i in range(4)], k=3)
        dep.reconfig(smaller, 0)
        assert dep.read(0).label == "x"
        larger = dep.make_configuration(dap="treas", fresh_servers=12, k=8)
        dep.reconfig(larger, 1)
        assert dep.read(1).label == "x"

    def test_multiple_sequential_reconfigs_grow_the_sequence(self):
        dep = make_deployment()
        for round_number in range(3):
            cfg = dep.make_configuration(dap="treas", fresh_servers=5, k=4)
            dep.reconfig(cfg, 0)
        assert dep.reconfigurers[0].cseq.nu == 3
        assert dep.reconfigurers[0].cseq.mu == 3
        # Clients discover the whole chain.
        dep.write(Value.of_size(32, label="final"), 0)
        assert dep.read(0).label == "final"

    def test_reconfig_history_records_latency(self):
        dep = make_deployment()
        cfg = dep.make_configuration(dap="treas", fresh_servers=5, k=4)
        dep.reconfig(cfg, 0)
        recs = dep.history.reconfigs()
        assert len(recs) == 1
        assert recs[0].latency > 0
        assert recs[0].config_id == cfg.cfg_id


class TestTransferFence:
    def test_update_config_fences_every_entry_but_the_last(self):
        # [c0 F, c1 P, c2 P]: get-data on c0 carries <c1, P>, on c1 <c2, P>;
        # c2, the configuration being filled, receives no query at all.
        dep = make_deployment(initial_dap="abd")
        c0 = dep.initial_configuration
        c1 = dep.make_configuration(dap="abd", fresh_servers=3)
        c2 = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        records = [ConfigRecord(c1, Status.PENDING), ConfigRecord(c2, Status.PENDING)]
        cseq = ConfigSequence(c0)
        reconfigurer = dep.reconfigurers[0]
        for record in records:
            reconfigurer.directory.register(record.config)
            cseq.append(record)
        fences = {}
        to_target = set()

        def note(src, dest, message, delay):
            if src == reconfigurer.pid and message.kind in (abd.QUERY_DATA,
                                                            treas.QUERY_LIST):
                fences[message.config_id] = message.get("fence")
            if src == reconfigurer.pid and message.config_id is c2.cfg_id:
                to_target.add(message.kind)
            return delay

        dep.network.add_delay_adjuster(note)
        dep.sim.run_until_complete(reconfigurer.spawn(
            reconfigurer._update_config(cseq, reconfigurer._state.dap_for)))
        assert fences == {c0.cfg_id: records[0], c1.cfg_id: records[1]}
        assert to_target == {treas.PUT_DATA}
        for configuration, record in ((c0, records[0]), (c1, records[1])):
            holders = [pid for pid in configuration.servers
                       if dep.servers[pid].next_config.get(configuration.cfg_id) is record]
            assert len(holders) >= configuration.quorum_size


    def test_an_ldr_transfer_fences_its_directory_query(self):
        # [c0 F, c1 P] with LDR c0: the transfer's directory query carries
        # <c1, P>, and a directory majority installs it as nextC.
        dep = make_deployment(initial_dap="ldr", num_servers=6)
        c0 = dep.initial_configuration
        record = ConfigRecord(dep.make_configuration(dap="abd", fresh_servers=3),
                              Status.PENDING)
        cseq = ConfigSequence(c0)
        reconfigurer = dep.reconfigurers[0]
        reconfigurer.directory.register(record.config)
        cseq.append(record)
        fences = []

        def note(src, dest, message, delay):
            if src == reconfigurer.pid and message.kind == ldr.QUERY_TAG_LOCATION:
                fences.append((dest, message.get("fence")))
            return delay

        dep.network.add_delay_adjuster(note)
        dep.sim.run_until_complete(reconfigurer.spawn(
            reconfigurer._update_config(cseq, reconfigurer._state.dap_for)))
        assert fences == [(pid, record) for pid in c0.ldr_directories]
        holders = [pid for pid in c0.ldr_directories
                   if dep.servers[pid].next_config.get(c0.cfg_id) is record]
        assert len(holders) >= c0.consensus_quorum_size


class TestConsensusQuorums:
    def test_ldr_sequence_and_paxos_traffic_reaches_directories_only(self):
        # A write, a reconfiguration away from LDR c0, a stale reconfigurer
        # walking past c0 and a stale read: every put-config and Paxos
        # message naming c0 goes to its directories, never to a replica.
        dep = make_deployment(initial_dap="ldr", num_servers=6)
        c0 = dep.initial_configuration
        control = {WRITE_CONFIG, PREPARE, ACCEPT}
        reached = {}

        def note(src, dest, message, delay):
            if message.kind in control and message.config_id is c0.cfg_id:
                reached.setdefault(message.kind, set()).add(dest)
            return delay

        dep.network.add_delay_adjuster(note)
        dep.write(Value.of_size(16, label="x"), 0)
        dep.reconfig(dep.make_configuration(dap="abd", fresh_servers=5), 0)
        dep.reconfig(dep.make_configuration(dap="abd", fresh_servers=3), 1)
        assert dep.read(1).label == "x"
        assert reached == {kind: set(c0.ldr_directories) for kind in control}


class TestReconfigRounds:
    def test_steady_state_abd_reconfig_runs_five_rounds_in_ten_delays(self):
        # Discovery rides the Paxos prepare: no read-config round, no
        # DECIDED broadcast.  The fenced get-data on c0 installs <c1, P>, so
        # add-config puts no config of its own, and update-config does not
        # query c1, the configuration it fills.
        dep = make_deployment(initial_dap="abd", num_servers=10,
                              initial_config_size=5, latency=FixedLatency(1.0))
        dep.write(Value.of_size(16, label="x"), 0)
        reconfigurer = dep.reconfigurers[0]
        labels = note_gathers(reconfigurer)
        sent = []
        dep.network.add_delay_adjuster(
            lambda src, dest, message, delay:
                sent.append(message.kind) or delay if src == reconfigurer.pid else delay)
        start = dep.sim.now
        dep.reconfig(dep.make_configuration(dap="abd", fresh_servers=5), 0)
        assert labels == ["paxos-prepare", "paxos-accept", "abd-get-data",
                          "abd-put-data", "put-config"]
        assert len(sent) == 5 * 5
        assert dep.sim.now - start == 10.0
        assert dep.read(1).label == "x"


class TestConcurrentReconfigurations:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_contending_reconfigurers_agree_on_successor(self, seed):
        dep = make_deployment(seed=seed)
        cfg_a = dep.make_configuration(dap="treas", fresh_servers=5, k=4)
        cfg_b = dep.make_configuration(dap="abd", fresh_servers=3)
        handle_a = dep.spawn_reconfig(cfg_a, 0)
        handle_b = dep.spawn_reconfig(cfg_b, 1)
        dep.run()
        assert handle_a.exception() is None and handle_b.exception() is None
        seq_a = dep.reconfigurers[0].cseq
        seq_b = dep.reconfigurers[1].cseq
        # Configuration Uniqueness (Lemma 13): same index, same configuration.
        for index in range(1, min(seq_a.nu, seq_b.nu) + 1):
            assert seq_a[index].config.cfg_id == seq_b[index].config.cfg_id
        # Index 1 was decided by consensus: it is one of the two proposals.
        assert seq_a[1].config.cfg_id in {cfg_a.cfg_id, cfg_b.cfg_id}

    def test_sequences_are_prefix_related(self):
        # A reader's sequence grows through its own rounds' links.
        dep = make_deployment()
        cfg_a = dep.make_configuration(dap="treas", fresh_servers=5, k=4)
        dep.reconfig(cfg_a, 0)
        client = dep.readers[0]
        dep.read(0)
        seq_after_one = client.cseq.copy()
        cfg_b = dep.make_configuration(dap="abd", fresh_servers=3)
        dep.reconfig(cfg_b, 1)
        dep.read(0)
        seq_after_two = client.cseq
        assert (seq_after_one.nu, seq_after_two.nu) == (1, 2)
        # Configuration Prefix (Lemma 14 / Theorem 16b).
        assert seq_after_one.is_prefix_of(seq_after_two)
        # Configuration Progress (Lemma 15): µ is monotone.
        assert seq_after_one.mu <= seq_after_two.mu

    def test_operations_remain_atomic_under_concurrent_reconfig(self):
        dep = make_deployment(delta=8, seed=5)
        ops = []
        for index in range(2):
            ops.append(dep.spawn_write(dep.writers[index].next_value(64), index))
            ops.append(dep.spawn_read(index))
        cfg_a = dep.make_configuration(dap="treas", fresh_servers=5, k=4)
        cfg_b = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        ops.append(dep.spawn_reconfig(cfg_a, 0))
        ops.append(dep.spawn_reconfig(cfg_b, 1))
        dep.run()
        assert all(op.exception() is None for op in ops)
        result = check_linearizability(dep.history)
        assert result.ok, result.reason


class TestReconfigErrorPaths:
    """Off-the-happy-path behaviour of Algorithm 5 (previously untested)."""

    def test_reconfig_onto_crashed_target_quorum_raises(self):
        """Proposing a configuration whose servers are (mostly) dead fails
        fast: the update phase cannot gather the target quorum and the
        coroutine surfaces ``QuorumUnavailableError`` instead of hanging."""
        from repro.common.errors import QuorumUnavailableError

        dep = make_deployment()
        dep.write(Value.of_size(64, label="pre"), 0)
        cfg = dep.make_configuration(dap="abd", fresh_servers=3)
        for pid in cfg.servers:
            dep.network.crash(pid)
        handle = dep.spawn_reconfig(cfg, 0)
        dep.run()
        assert isinstance(handle.exception(), QuorumUnavailableError)
        # The pending record was already announced to the old quorum before
        # the transfer failed, so Algorithm 7 forces later operations through
        # the dead configuration too: they fail fast the same way instead of
        # silently serving from the old quorum (which would break atomicity
        # if the new servers ever came back).
        late = dep.spawn_write(Value.of_size(64, label="post"), 0)
        dep.run()
        assert isinstance(late.exception(), QuorumUnavailableError)

    def test_reconfig_onto_partitioned_quorum_stalls_but_stays_safe(self):
        """A partition (not a crash) of the target servers is outside the
        liveness envelope: the reconfiguration must stall -- requests are
        dropped, not refused -- while safety of everything completed so far
        holds and the sequence state stays uniqueness-consistent."""
        from repro.chaos import ChaosEngine, Isolate, Schedule, At

        dep = make_deployment()
        dep.write(Value.of_size(64, label="pre"), 0)
        cfg = dep.make_configuration(dap="abd", fresh_servers=3)
        engine = ChaosEngine(dep.network, seed="partitioned-target")
        engine.inject(Schedule([
            At(dep.sim.now, Isolate(*[pid.name for pid in cfg.servers]))]))
        handle = dep.spawn_reconfig(cfg, 0)
        dep.run()
        assert not handle.done()
        assert handle.exception() is None
        # Completed operations remain linearizable.
        result = check_linearizability(dep.history)
        assert result.ok, result.reason
        # Configuration Uniqueness holds on every server's nextC state.
        initial_id = dep.initial_configuration.cfg_id
        successors = {server.next_config[initial_id].config.cfg_id
                      for server in dep.servers.values()
                      if server.next_config.get(initial_id) is not None}
        assert successors <= {cfg.cfg_id}

    @pytest.mark.parametrize("delay", [0.5, 2.0, 6.0])
    def test_finalize_racing_a_concurrent_proposal(self, delay):
        """Reconfigurer B proposes while A is mid-flight (between phases,
        depending on ``delay``): whatever the interleaving, both terminate,
        per-index uniqueness holds, both proposals are installed somewhere,
        and subsequent traffic linearizes."""
        dep = make_deployment(seed=11)
        cfg_a = dep.make_configuration(dap="treas", fresh_servers=5, k=4)
        cfg_b = dep.make_configuration(dap="abd", fresh_servers=3)
        handle_a = dep.spawn_reconfig(cfg_a, 0)
        handles = [handle_a]
        dep.sim.schedule_at(delay, lambda: handles.append(dep.spawn_reconfig(cfg_b, 1)),
                            label="late-proposal")
        dep.run()
        assert len(handles) == 2
        assert all(h.done() and h.exception() is None for h in handles)
        seq_a = dep.reconfigurers[0].cseq
        seq_b = dep.reconfigurers[1].cseq
        for index in range(1, min(seq_a.nu, seq_b.nu) + 1):
            assert seq_a[index].config.cfg_id == seq_b[index].config.cfg_id
        installed = {seq_b[i].config.cfg_id for i in range(len(seq_b))}
        installed |= {seq_a[i].config.cfg_id for i in range(len(seq_a))}
        # Each reconfig returns the configuration decided at its index: the
        # loser of a contended round adopts the winner's proposal (its own
        # is dropped -- at most one configuration per index), so at least
        # one of the two proposals is installed and every returned decision
        # appears in the sequences.
        decisions = {h.result().cfg_id for h in handles}
        assert decisions & {cfg_a.cfg_id, cfg_b.cfg_id}
        assert decisions <= installed
        dep.write(Value.of_size(64, label="after-race"), 0)
        assert dep.read(0).label == "after-race"
        result = check_linearizability(dep.history)
        assert result.ok, result.reason

    def test_contending_proposals_install_at_most_one_config_per_index(self):
        """The loser of the consensus round adopts the decided configuration
        and its own proposal is dropped from that index -- the decided
        record is what every server's nextC holds."""
        dep = make_deployment(seed=3)
        cfg_a = dep.make_configuration(dap="treas", fresh_servers=5, k=4)
        cfg_b = dep.make_configuration(dap="abd", fresh_servers=3)
        handle_a = dep.spawn_reconfig(cfg_a, 0)
        handle_b = dep.spawn_reconfig(cfg_b, 1)
        dep.run()
        assert handle_a.exception() is None and handle_b.exception() is None
        initial_id = dep.initial_configuration.cfg_id
        successors = {server.next_config[initial_id].config.cfg_id
                      for server in dep.servers.values()
                      if server.next_config.get(initial_id) is not None}
        assert len(successors) == 1


class TestServerSideState:
    def test_next_config_is_write_once_finalized(self):
        dep = make_deployment()
        cfg = dep.make_configuration(dap="treas", fresh_servers=5, k=4)
        dep.reconfig(cfg, 0)
        initial_id = dep.initial_configuration.cfg_id
        finalized_holders = [
            server for server in dep.servers.values()
            if server.next_config.get(initial_id) is not None
            and server.next_config[initial_id].status is Status.FINALIZED
        ]
        assert finalized_holders
        # A later WRITE-CONFIG with a pending record must not downgrade it.
        from repro.config.sequence import ConfigRecord
        from repro.net.message import request
        from repro.core.server import WRITE_CONFIG

        victim = finalized_holders[0]
        bogus = ConfigRecord(cfg, Status.PENDING)
        victim.on_message(dep.writers[0].pid,
                          request(WRITE_CONFIG, 999, config_id=initial_id, record=bogus))
        assert victim.next_config[initial_id].status is Status.FINALIZED

    def test_servers_host_dap_state_per_configuration(self):
        dep = make_deployment()
        dep.write(Value.of_size(64, label="x"), 0)
        cfg = dep.make_configuration(dap="treas", fresh_servers=5, k=4)
        dep.reconfig(cfg, 0)
        dep.write(Value.of_size(64, label="y"), 0)
        new_server = dep.servers[cfg.servers[0]]
        assert cfg.cfg_id in new_server.dap_states
        old_server = dep.servers[dep.initial_configuration.servers[0]]
        assert dep.initial_configuration.cfg_id in old_server.dap_states

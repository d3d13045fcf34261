"""Configuration retirement end to end: reclamation, tombstones, gc-config.

Covers the PR-10 retirement machinery at every layer: the server-side
``RETIRE-CONFIG`` handler and its refusal semantics,
the two reconfiguration edge-case regressions (add-config deciding a
configuration already in the sequence, finalize-config finalizing the
*installed* index), the gc-config phase retiring prefixes through
:class:`~repro.core.deployment.AresDeployment`, stale clients converging
through tombstone jumps under crashes and partitions, store-level storage
reclamation accounting after a live shard migration, and the ``gc`` sweep
axis.  ``ConfigSequence.prune``/``jump_to`` unit tests live in
``test_config.py``; the ``store_migration_gc`` golden signature is pinned by
the generic chaos battery in ``test_chaos_scenarios.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.errors import (RETIRED_CONFIG_REASON, ConfigurationError,
                                 QuorumRefusedError, is_retirement_refusal)
from repro.common.ids import config_id, server_id, writer_id
from repro.common.tags import Tag
from repro.common.values import Value
from repro.config.configuration import Configuration
from repro.config.sequence import ConfigRecord, Status
from repro.consensus.paxos import ACCEPT, PREPARE, Ballot, PaxosProposer
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.core.directory import ConfigurationDirectory
from repro.core.reconfig import ReconfigOpsMixin
from repro.core.server import RETIRE_CONFIG, WRITE_CONFIG, AresServer
from repro.dap.treas import PUT_DATA, QUERY_LIST
from repro.net.latency import FixedLatency, UniformLatency
from repro.net.message import request
from repro.net.network import Network
from repro.obs.registry import install_metrics
from repro.sim.core import Simulator
from repro.sim.process import Process
from repro.spec.linearizability import check_tag_monotonicity_per_key
from repro.store import ShardSpec, StoreDeployment, StoreSpec
from repro.sweep.engine import execute_run
from repro.sweep.grid import RunSpec, parse_grid
from repro.sweep.grid import _parse_bool
from repro.workloads.scenarios import get_scenario, run_scenario_instance


# --------------------------------------------------------------------------
# Server-level unit fixtures (mirrors test_core_server_directory.build).
# --------------------------------------------------------------------------

class Probe(Process):
    """Client probe capturing replies."""

    def __init__(self, pid, network):
        super().__init__(pid, network)
        self.replies = []

    def on_message(self, src, message):
        self.replies.append((src, message))

    def last_reply(self):
        assert self.replies, "expected a reply"
        return self.replies[-1][1]


def build(num_servers=3):
    sim = Simulator(seed=0)
    network = Network(sim, latency=FixedLatency(1.0))
    directory = ConfigurationDirectory()
    servers = [AresServer(server_id(i), network, directory) for i in range(num_servers)]
    cfg = Configuration.treas(config_id(0), [s.pid for s in servers], k=2, delta=2)
    directory.register(cfg)
    probe = Probe(writer_id(0), network)
    return sim, network, directory, servers, cfg, probe


def successor_record(directory, index=1):
    """A finalized successor record to retire behind."""
    succ = Configuration.abd(config_id(index), [server_id(10)])
    directory.register(succ)
    return ConfigRecord(succ, Status.FINALIZED)


def store_value(sim, server, cfg, probe, size=40):
    """Instantiate DAP state on ``server`` by storing one coded element."""
    element = cfg.code.encode(Value.of_size(size, label="x"))[0]
    probe.send(server.pid, request(PUT_DATA, 1, config_id=cfg.cfg_id,
                                   tag=Tag(1, writer_id(0)), element=element))
    sim.run()


def retire(sim, server, cfg, probe, record, index=1, rid=7):
    probe.send(server.pid, request(RETIRE_CONFIG, rid, config_id=cfg.cfg_id,
                                   metadata_fields=3, record=record, index=index))
    sim.run()


class TestServerRetirement:
    def test_retire_reclaims_state_and_leaves_tombstone(self):
        sim, network, directory, servers, cfg, probe = build()
        store_value(sim, servers[0], cfg, probe)
        held = servers[0].storage_data_bytes()
        assert held > 0
        record = successor_record(directory)
        retire(sim, servers[0], cfg, probe, record)
        assert probe.last_reply().kind == "ARES-RETIRE-ACK"
        assert servers[0].dap_states == {}
        assert servers[0].acceptors == {}
        assert cfg.cfg_id not in servers[0].next_config
        assert servers[0].retired[cfg.cfg_id] == (record, 1)
        assert servers[0].configs_retired == 1
        assert servers[0].bytes_reclaimed == held
        assert servers[0].storage_data_bytes() == 0

    def test_retire_is_idempotent_and_never_double_counts(self):
        sim, network, directory, servers, cfg, probe = build()
        store_value(sim, servers[0], cfg, probe)
        record = successor_record(directory)
        retire(sim, servers[0], cfg, probe, record)
        reclaimed = servers[0].bytes_reclaimed
        retire(sim, servers[0], cfg, probe, record, rid=8)
        assert servers[0].configs_retired == 1
        assert servers[0].bytes_reclaimed == reclaimed
        assert probe.last_reply().kind == "ARES-RETIRE-ACK"

    def test_retire_keeps_the_farthest_tombstone(self):
        sim, network, directory, servers, cfg, probe = build()
        far = successor_record(directory, index=3)
        retire(sim, servers[0], cfg, probe, far, index=3)
        near = ConfigRecord(Configuration.abd(config_id(2), [server_id(11)]),
                            Status.FINALIZED)
        retire(sim, servers[0], cfg, probe, near, index=2, rid=9)
        assert servers[0].retired[cfg.cfg_id] == (far, 3)

    def test_prepare_on_retired_configuration_is_refused_with_the_tombstone(self):
        # A stale reconfigurer's add-config re-bases on the refusal.
        sim, network, directory, servers, cfg, probe = build()
        record = successor_record(directory)
        retire(sim, servers[0], cfg, probe, record)
        probe.send(servers[0].pid, request(
            PREPARE, 2, config_id=cfg.cfg_id, metadata_fields=2,
            ballot=Ballot.make(1, probe.pid), instance=cfg.cfg_id))
        sim.run()
        reply = probe.last_reply()
        assert reply.kind == "SRV-NACK" and reply["nack"]
        assert reply["error"] == RETIRED_CONFIG_REASON
        assert reply["record"] is record
        assert reply["jump"] == 1
        assert servers[0].acceptors == {}

    def test_write_config_on_retired_configuration_is_benign(self):
        # A slow put-config racing retirement must not error the writer's
        # gather and must not resurrect nextC state.
        sim, network, directory, servers, cfg, probe = build()
        record = successor_record(directory)
        retire(sim, servers[0], cfg, probe, record)
        probe.send(servers[0].pid, request(
            WRITE_CONFIG, 2, config_id=cfg.cfg_id,
            record=ConfigRecord(record.config, Status.PENDING)))
        sim.run()
        assert probe.last_reply().kind == "ARES-CONFIG-ACK"
        assert cfg.cfg_id not in servers[0].next_config

    def test_dap_traffic_to_retired_configuration_is_nacked(self):
        sim, network, directory, servers, cfg, probe = build()
        record = successor_record(directory)
        retire(sim, servers[0], cfg, probe, record)
        store_value(sim, servers[0], cfg, probe)  # request_id 1, post-retire
        reply = probe.last_reply()
        assert reply.kind == "SRV-NACK"
        assert reply["error"] == RETIRED_CONFIG_REASON
        # The refusal carries the tombstone the client re-bases on.
        assert (reply["record"], reply["jump"]) == (record, 1)
        # No resurrection: the refused message created no DAP state.
        assert servers[0].dap_states == {}
        assert servers[0].dap_state_for(cfg.cfg_id) is None

    def test_paxos_traffic_to_retired_instance_is_nacked(self):
        sim, network, directory, servers, cfg, probe = build()
        record = successor_record(directory)
        retire(sim, servers[0], cfg, probe, record)
        probe.send(servers[0].pid, request(PREPARE, 3, instance=cfg.cfg_id,
                                           ballot=(1, probe.pid)))
        sim.run()
        reply = probe.last_reply()
        assert reply.kind == "SRV-NACK"
        assert reply["error"] == RETIRED_CONFIG_REASON
        assert (reply["record"], reply["jump"]) == (record, 1)
        assert servers[0].acceptors == {}

    def test_fenced_query_to_retired_configuration_is_nacked(self):
        # The transfer fence never resurrects nextC behind a tombstone.
        sim, network, directory, servers, cfg, probe = build()
        record = successor_record(directory)
        retire(sim, servers[0], cfg, probe, record)
        probe.send(servers[0].pid, request(
            QUERY_LIST, 2, config_id=cfg.cfg_id, metadata_fields=3,
            fence=ConfigRecord(record.config, Status.PENDING)))
        sim.run()
        reply = probe.last_reply()
        assert reply.kind == "SRV-NACK"
        assert (reply["record"], reply["jump"]) == (record, 1)
        assert cfg.cfg_id not in servers[0].next_config

    def test_retiring_an_unserved_configuration_materialises_no_state(self):
        sim, network, directory, servers, cfg, probe = build()
        assert cfg.cfg_id not in servers[0].retired
        record = successor_record(directory)
        retire(sim, servers[0], cfg, probe, record)
        assert cfg.cfg_id in servers[0].retired
        assert list(servers[0].dap_states) == []

    @pytest.mark.parametrize("dap", ["abd", "treas", "ldr"])
    def test_fresh_dap_state_stores_zero_bytes(self, dap):
        # The accounting invariant storage_data_bytes() relies on: a member
        # configuration that never served traffic contributes 0 bytes, so
        # summing only instantiated states is exact.
        sim, network, directory, servers, cfg, probe = build()
        pids = [s.pid for s in servers]
        if dap == "abd":
            fresh = Configuration.abd(config_id(5), pids)
        elif dap == "treas":
            fresh = Configuration.treas(config_id(5), pids, k=2, delta=2)
        else:
            replicas = [server_id(20 + i) for i in range(3)]
            fresh = Configuration.ldr(config_id(5), pids, replicas)
        directory.register(fresh)
        state = servers[0].dap_state_for(fresh.cfg_id)
        assert state is not None
        assert state.storage_data_bytes() == 0

    def test_retirement_refusal_classifier(self):
        retirement = QuorumRefusedError("nack", reasons=(RETIRED_CONFIG_REASON,))
        assert is_retirement_refusal(retirement)
        mixed = QuorumRefusedError("nack", reasons=(RETIRED_CONFIG_REASON,
                                                    "resource:memory"))
        assert not is_retirement_refusal(mixed)
        assert not is_retirement_refusal(QuorumRefusedError("nack"))
        assert not is_retirement_refusal(ValueError("boom"))


# --------------------------------------------------------------------------
# Reconfiguration edge-case regressions (the two crash windows).
# --------------------------------------------------------------------------

def make_deployment(**overrides):
    defaults = dict(num_servers=8, initial_dap="abd", initial_config_size=4,
                    num_writers=2, num_readers=3, num_reconfigurers=2, seed=0,
                    gc=True, latency=UniformLatency(1.0, 2.0))
    defaults.update(overrides)
    return AresDeployment(DeploymentSpec(**defaults))


class TestReconfigEdgeCases:
    def test_add_config_accepts_decision_already_in_sequence(self, monkeypatch):
        # The store's concurrent per-key reconfigurations share one cseq: a
        # sibling can append the decided configuration while our proposal
        # is in flight.  add-config must adopt the existing entry, not
        # append-and-crash.
        dep = make_deployment(gc=False)
        reconfigurer = dep.reconfigurers[0]
        cseq = reconfigurer.cseq
        cfg1 = dep.make_configuration(dap="abd", fresh_servers=4)
        mine = dep.make_configuration(dap="abd", fresh_servers=4)

        def sibling_decides_first(self, value):
            yield from ()
            cseq.append(ConfigRecord(cfg1, Status.PENDING))
            return cfg1

        monkeypatch.setattr(PaxosProposer, "propose", sibling_decides_first)
        handle = reconfigurer.spawn(reconfigurer._add_config(cseq, mine))
        installed, index = dep.sim.run_until_complete(handle)
        assert installed.cfg_id == cfg1.cfg_id
        assert index == 1
        # The sequence still satisfies Uniqueness: one entry per cfg_id.
        assert cseq.nu == 1

    def test_contending_reconfigurers_complete_without_crashing(self):
        # The end-to-end shape of the same window: two reconfigurers race
        # distinct proposals; at most one configuration installs per index
        # and both operations complete (pre-fix this raised
        # ConfigurationError inside add-config when the loser observed the
        # winner's decision already in its sequence).
        dep = make_deployment(gc=False, num_servers=12)
        pool = sorted(dep.servers)
        cfg_a = dep.make_configuration(dap="abd", servers=pool[4:8])
        cfg_b = dep.make_configuration(dap="abd", servers=pool[8:12])
        first = dep.spawn_reconfig(cfg_a, 0)
        second = dep.spawn_reconfig(cfg_b, 1)
        dep.sim.run()
        installed_a = first.result()
        installed_b = second.result()
        assert {installed_a.cfg_id, installed_b.cfg_id} <= {cfg_a.cfg_id,
                                                            cfg_b.cfg_id}
        seq_a = dep.reconfigurers[0].cseq
        seq_b = dep.reconfigurers[1].cseq
        assert seq_a.is_prefix_of(seq_b) or seq_b.is_prefix_of(seq_a)
        longer = seq_a if len(seq_a) >= len(seq_b) else seq_b
        ids = [entry.config.cfg_id for entry in longer]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("direct", [False, True], ids=["client", "direct"])
    def test_a_transfer_walk_re_based_past_its_last_entry_ends(self, direct):
        # The walker's sequence is [c0 F, c1 P], so its transfer walk
        # queries c0 alone.  That query is slowed; meanwhile the contender
        # installs c1, finalizes it and retires c0.  c0 refuses the walk's
        # query with the tombstone <c1, F> at 1, past the walk's last
        # entry: the contender filled the target, and update-config ends
        # with nothing gathered.
        dep = make_deployment(latency=FixedLatency(1.0),
                              direct_state_transfer=direct)
        walker, contender = dep.reconfigurers
        target = dep.make_configuration(dap="abd", fresh_servers=4)
        walker.cseq.append(ConfigRecord(target, Status.PENDING))
        dep.network.add_delay_adjuster(
            lambda src, dest, message, delay: delay + 50 * (src == walker.pid))
        installing = dep.spawn_reconfig(target, 1)
        walk = walker.spawn(walker._update_config(walker.cseq, walker._state.dap_for))
        dep.run()
        assert installing.result() is target and contender.configs_retired == 1
        assert walk.exception() is None and walk.result() is None
        assert walker.tombstone_jumps == 1
        assert walker.cseq.mu == walker.cseq.nu == 1

    def test_finalize_config_finalizes_the_installed_index(self):
        # Interleaving window: a contender appends index nu+1 between our
        # update-config and finalize-config.  Finalizing the recomputed
        # cseq.nu would mark the *contender's* configuration F before its
        # state transfer completed; the fix finalizes the installed index.
        dep = make_deployment(gc=False)
        reconfigurer = dep.reconfigurers[0]
        seq = reconfigurer.cseq
        mine = dep.make_configuration(dap="abd", fresh_servers=4)
        contender = dep.make_configuration(dap="abd", fresh_servers=4)
        my_index = seq.append(ConfigRecord(mine, Status.PENDING))
        their_index = seq.append(ConfigRecord(contender, Status.PENDING))
        handle = reconfigurer.spawn(reconfigurer._finalize_config(seq, my_index))
        dep.sim.run_until_complete(handle)
        assert seq[my_index].status is Status.FINALIZED
        assert seq[their_index].status is Status.PENDING

    def test_finalize_config_skips_put_config_to_a_pruned_predecessor(self):
        # After gc-config pruned [base..mu), finalizing at base must not
        # try to propagate to the (reclaimed) predecessor's quorum.
        dep = make_deployment()
        dep.write(Value.of_size(64, label="v"), 0)
        pool = sorted(dep.servers)
        dep.reconfig(dep.make_configuration(dap="abd", servers=pool[4:8]), 0)
        seq = dep.reconfigurers[0].cseq
        assert seq.base == 1  # gc pruned the initial configuration
        handle = dep.reconfigurers[0].spawn(
            dep.reconfigurers[0]._finalize_config(seq, seq.base))
        finalized = dep.sim.run_until_complete(handle)
        assert finalized.status is Status.FINALIZED


# --------------------------------------------------------------------------
# gc-config end to end on the single-register deployment.
# --------------------------------------------------------------------------

class TestRetirementEndToEnd:
    def test_gc_reconfig_retires_the_old_configuration(self):
        dep = make_deployment()
        dep.write(Value.of_size(256, label="precious"), 0)
        pool = sorted(dep.servers)
        old_servers = [dep.servers[pid] for pid in pool[:4]]
        held = sum(server.storage_data_bytes() for server in old_servers)
        assert held > 0
        new_cfg = dep.make_configuration(dap="abd", servers=pool[4:8])
        dep.reconfig(new_cfg, 0)
        # Every old-config server reclaimed its state behind a tombstone.
        for server in old_servers:
            assert server.retired[dep.initial_configuration.cfg_id][1] == 1
            assert server.storage_data_bytes() == 0
        assert dep.configs_retired() == 4
        assert dep.bytes_reclaimed() == held
        assert dep.reconfigurers[0].configs_retired == 1
        # The reconfigurer's own sequence pruned its dead prefix...
        assert dep.reconfigurers[0].cseq.base == 1
        # ...and the data survived the retirement.
        assert dep.read(0).label == "precious"

    def test_retiring_an_ldr_configuration_reclaims_its_replicas(self):
        # nextC and consensus live on the directories, but RETIRE-CONFIG
        # still goes to every server: the replicas hold the data it
        # reclaims.
        dep = make_deployment(initial_dap="ldr", num_servers=6,
                              initial_config_size=6, latency=FixedLatency(1.0))
        dep.write(Value.of_size(256, label="precious"), 0)
        old = dep.initial_configuration
        dep.reconfig(dep.make_configuration(dap="abd", fresh_servers=5), 0)
        dep.run()
        for pid in old.servers:
            assert old.cfg_id in dep.servers[pid].retired
        for pid in old.ldr_replicas:
            assert dep.servers[pid].bytes_reclaimed > 0
        assert dep.read(1).label == "precious"

    def test_gc_retires_even_when_the_new_configuration_lost_its_quorum(
            self, monkeypatch):
        # gc-config sends nothing to the new configuration, so a
        # reconfiguration that finalized completes and retires its
        # predecessor although the successor has no live quorum left.
        dep = make_deployment()
        dep.write(Value.of_size(64, label="v"), 0)
        pool = sorted(dep.servers)
        new_cfg = dep.make_configuration(dap="abd", servers=pool[4:8])
        gc_config = ReconfigOpsMixin._gc_config

        def crash_then_gc(self, cseq):
            for pid in pool[4:7]:
                dep.network.crash(pid)
            return (yield from gc_config(self, cseq))

        monkeypatch.setattr(ReconfigOpsMixin, "_gc_config", crash_then_gc)
        assert dep.reconfig(new_cfg, 0) == new_cfg
        assert dep.reconfigurers[0].configs_retired == 1
        assert dep.configs_retired() == 4

    def test_a_retired_instance_that_may_hold_our_value_gets_no_second_proposal(self):
        # ABD-5 c0; every message takes 1 unless slowed.  A's accept of cA
        # reaches s0/s1 only, so B adopts cA and installs it, then installs
        # cB with gc, retiring c0 and cA behind the tombstone <cB, F> at 2.
        # A's next prepare on c0 is refused with that tombstone.  cA is
        # decided at index 1 but A's sequence no longer shows it: proposing
        # cA at cB's instance could decide it at index 3 too.  A adopts cB.
        dep = make_deployment(num_servers=5, initial_config_size=5,
                              latency=FixedLatency(1.0))
        proposer, contender = dep.reconfigurers
        dep.network.add_delay_adjuster(
            lambda src, dest, message, delay: delay + 100 * (
                src == proposer.pid and message.kind == ACCEPT
                and dest in dep.initial_configuration.servers[2:]))
        c_a, c_b1, c_b2 = (dep.make_configuration(dap="abd", fresh_servers=5)
                           for _ in range(3))
        contender.gc_enabled = False

        def contend():
            assert (yield from contender.reconfig(c_b1)) is c_a
            contender.gc_enabled = True
            assert (yield from contender.reconfig(c_b2)) is c_b2

        first = dep.spawn_reconfig(c_a, 0)
        second = []
        dep.sim.schedule(2.5, lambda: second.append(contender.spawn(contend())))
        dep.run()
        assert second[0].exception() is None
        assert first.result() is c_b2
        assert proposer.tombstone_jumps >= 1
        assert [entry.config for entry in proposer.cseq] == [c_b2]
        assert not any(c_b2.cfg_id in server.next_config
                       for server in dep.servers.values())

    def test_gc_disabled_retires_nothing(self):
        dep = make_deployment(gc=False)
        dep.write(Value.of_size(256, label="v"), 0)
        dep.reconfig(dep.make_configuration(dap="abd", fresh_servers=4), 0)
        assert dep.configs_retired() == 0
        assert dep.bytes_reclaimed() == 0
        assert dep.reconfigurers[0].cseq.base == 0

    def test_stale_reader_converges_through_tombstone_jumps(self):
        dep = make_deployment(num_servers=12)
        pool = sorted(dep.servers)
        dep.write(Value.of_size(128, label="v0"), 0)
        dep.reconfig(dep.make_configuration(dap="abd", servers=pool[4:8]), 0)
        dep.write(Value.of_size(128, label="v1"), 0)
        dep.reconfig(dep.make_configuration(dap="abd", servers=pool[8:12]), 0)
        # readers[2] never ran: its sequence still starts at the (now twice
        # retired) initial configuration.
        stale = dep.readers[2]
        assert stale.cseq.base == 0
        assert dep.read(2).label == "v1"
        # One jump per retirement boundary (ShardMap.forward semantics).
        assert stale.tombstone_jumps == 2
        assert stale.cseq.base == 2

    def test_stale_reader_jumping_onto_an_ldr_configuration_walks_on(self):
        # The retired ABD configuration's tombstone names an LDR one.  Its
        # directory round carries nextC like any DAP's first round, so the
        # reader finds the live ABD successor c2, which holds the latest
        # write, from that round and runs no discovery round of its own.
        dep = make_deployment(num_servers=14)
        pool = sorted(dep.servers)
        dep.write(Value.of_size(64, label="v0"), 0)
        dep.reconfig(dep.make_configuration(dap="ldr", servers=pool[4:10]), 0)
        dep.reconfigurers[0].gc_enabled = False         # the LDR one stays live
        dep.reconfig(dep.make_configuration(dap="abd", servers=pool[10:14]), 0)
        dep.write(Value.of_size(64, label="w1"), 0)     # the writer learns c2
        dep.write(Value.of_size(64, label="fresh"), 0)  # lands in c2 only
        stale = dep.readers[2]
        assert stale.cseq.base == 0
        sent = []

        def note(src, dest, message, delay):
            if src == stale.pid:
                sent.append(message.kind)
            return delay

        dep.network.add_delay_adjuster(note)
        assert dep.read(2).label == "fresh"
        assert stale.tombstone_jumps == 1
        assert (stale.cseq.base, stale.cseq.mu) == (1, 2)
        # Its only control round is the put-config of the link it learned.
        assert ([kind for kind in sent if kind.startswith(("ARES-", "PAXOS-"))]
                == [WRITE_CONFIG] * len(stale.cseq.config_at(1).ldr_directories))
        on_ldr = stale.dap_for(stale.cseq.config_at(1))
        assert on_ldr.next_config.config is stale.cseq.config_at(2)

    def test_stale_writer_converges_and_its_write_is_read(self):
        dep = make_deployment(num_servers=12)
        pool = sorted(dep.servers)
        dep.write(Value.of_size(64, label="v0"), 0)
        dep.reconfig(dep.make_configuration(dap="abd", servers=pool[4:8]), 0)
        dep.reconfig(dep.make_configuration(dap="abd", servers=pool[8:12]), 0)
        stale = dep.writers[1]
        assert stale.cseq.base == 0
        dep.write(Value.of_size(64, label="late"), 1)
        assert stale.tombstone_jumps >= 1
        assert dep.read(0).label == "late"

    def test_retirement_metrics_are_visible_in_the_registry(self):
        dep = make_deployment(num_servers=12)
        registry = install_metrics(dep)
        pool = sorted(dep.servers)
        dep.write(Value.of_size(256, label="v"), 0)
        dep.reconfig(dep.make_configuration(dap="abd", servers=pool[4:8]), 0)
        dep.reconfig(dep.make_configuration(dap="abd", servers=pool[8:12]), 0)
        dep.read(2)  # stale reader jumps through the tombstones
        assert registry.counters["configs_retired"].total == 2
        assert registry.counters["bytes_reclaimed"].total == dep.bytes_reclaimed()
        assert registry.counters["tombstone_jumps"].total >= 2
        assert "reconfig_phase:gc-config" in registry.histograms

    @pytest.mark.parametrize("seed", range(30))
    def test_stale_clients_converge_under_crashes_and_partitions(self, seed):
        # Two chained retirements, then one crash in every configuration
        # generation plus one partitioned (fully isolated) middle-generation
        # server -- each 4-server quorum system keeps 3 >= quorum live, so
        # traversal must still converge through the tombstones.
        dep = make_deployment(num_servers=12, seed=seed)
        pool = sorted(dep.servers)
        dep.write(Value.of_size(64, label="v0"), 0)
        dep.reconfig(dep.make_configuration(dap="abd", servers=pool[4:8]), 0)
        dep.write(Value.of_size(64, label="v1"), 0)
        dep.reconfig(dep.make_configuration(dap="abd", servers=pool[8:12]), 0)

        dep.servers[pool[seed % 4]].crash()
        dep.servers[pool[8 + seed % 4]].crash()
        isolated = pool[4 + seed % 4]
        dep.network.add_drop_filter(
            lambda src, dest, message: isolated in (src, dest))

        stale_reader = dep.readers[2]
        assert stale_reader.cseq.base == 0
        assert dep.read(2).label == "v1"
        assert stale_reader.tombstone_jumps >= 1
        assert stale_reader.cseq.base == 2

        stale_writer = dep.writers[1]
        assert stale_writer.cseq.base == 0
        dep.write(Value.of_size(64, label=f"w{seed}"), 1)
        assert stale_writer.cseq.base == 2
        assert dep.read(0).label == f"w{seed}"


# --------------------------------------------------------------------------
# Store layer: per-key retirement and storage reclamation accounting.
# --------------------------------------------------------------------------

def make_store(**overrides):
    defaults = dict(
        shards=(ShardSpec(dap="abd", num_servers=5),
                ShardSpec(dap="abd", num_servers=5)),
        num_writers=2, num_readers=2, seed=0, gc=True)
    defaults.update(overrides)
    return StoreDeployment(StoreSpec(**defaults))


class TestStoreRetirement:
    def test_migration_with_gc_reclaims_source_storage(self):
        store = make_store()
        keys = [f"k{i}" for i in range(8)]
        store.multi_put({key: store.writers[0].next_value(128) for key in keys})
        source = [store.servers[pid]
                  for pid in store.shard_map.shards[0].servers]
        migrating = {key for key in keys
                     if store.shard_map.shard_index(key) == 0}
        assert migrating, "expected some keys on shard 0"
        # Shard pools are disjoint, so after the shard-0 keys migrate away
        # the source servers own nothing: their still-owned baseline is 0.
        held = sum(server.storage_data_bytes() for server in source)
        assert held > 0
        total_before = store.total_storage_data_bytes()

        store.migrate_shard(0, fresh_servers=5)

        assert sum(server.storage_data_bytes() for server in source) == 0
        assert store.bytes_reclaimed() == held
        # One configuration retired per migrated key (per-key gc-config).
        assert store.configs_retired() == len(migrating) * len(source)
        # The data itself moved, not vanished: totals stay plausible and
        # every key still reads back.
        assert store.total_storage_data_bytes() >= total_before - held
        for key in keys:
            assert store.get(key) is not None

    def test_migration_without_gc_keeps_source_storage(self):
        store = make_store(gc=False)
        keys = [f"k{i}" for i in range(8)]
        store.multi_put({key: store.writers[0].next_value(128) for key in keys})
        source = [store.servers[pid]
                  for pid in store.shard_map.shards[0].servers]
        held = sum(server.storage_data_bytes() for server in source)
        store.migrate_shard(0, fresh_servers=5)
        assert sum(server.storage_data_bytes() for server in source) == held
        assert store.bytes_reclaimed() == 0
        assert store.configs_retired() == 0

    def test_stale_store_clients_read_through_retired_configs(self):
        store = make_store()
        store.put("k0", store.writers[0].next_value(64))
        store.migrate_shard(0, fresh_servers=5)
        # readers[1] never touched k0: its per-key sequence (if any) is
        # fresh, and the shard map forward converges it; the retired
        # source servers answer with tombstones, never stale data.
        value = store.get("k0", reader_index=1)
        assert value.size == 64

    def test_stale_store_clients_rebase_on_the_entry_point_in_one_refusal(self):
        # Both clients last saw k0 before three migrations of its shard.  The
        # tombstone of the configuration they hold names only its immediate
        # successor (itself retired since), so following tombstones costs
        # one refusal per migration; the shard map's entry point is the
        # latest finalized configuration, so each client is refused once.
        store = make_store()
        store.put("k0", store.writers[0].next_value(64))
        assert store.get("k0", reader_index=1).size == 64
        shard = store.shard_map.shard_index("k0")
        for _ in range(3):
            store.migrate_shard(shard, fresh_servers=5)
        writer, reader = store.writers[0], store.readers[1]
        assert (writer.tombstone_jumps, reader.tombstone_jumps) == (0, 0)
        _, entry_index = store.shard_map.entry_point("k0")
        assert entry_index == 3

        late = store.writers[0].next_value(64)
        store.put("k0", late)
        assert store.get("k0", reader_index=1).label == late.label
        for client in (writer, reader):
            assert client.tombstone_jumps == 1
            assert client.register_for("k0").cseq.mu == entry_index

    def test_gc_scenario_history_is_tag_monotone_per_key(self):
        scenario = get_scenario("store_migration_gc")
        assert scenario.gc
        result = run_scenario_instance(scenario, seed=0)
        failure, method = result.check()
        assert failure is None
        assert method == "per-key(fast)"
        assert check_tag_monotonicity_per_key(result.history) is None
        assert result.deployment.configs_retired() > 0
        assert result.deployment.bytes_reclaimed() > 0

    def test_gc_scenario_with_gc_off_retires_nothing_and_diverges(self):
        scenario = get_scenario("store_migration_gc")
        on = run_scenario_instance(scenario, seed=0)
        off = run_scenario_instance(dataclasses.replace(scenario, gc=False),
                                    seed=0)
        assert off.deployment.configs_retired() == 0
        assert off.deployment.bytes_reclaimed() == 0
        failure, _ = off.check()
        assert failure is None
        assert on.signature() != off.signature()


# --------------------------------------------------------------------------
# The gc sweep axis.
# --------------------------------------------------------------------------

class TestGcSweepAxis:
    def test_parse_bool_vocabulary(self):
        for text in ("1", "true", "YES", "on"):
            assert _parse_bool(text) is True
        for text in ("0", "false", "No", "off"):
            assert _parse_bool(text) is False
        assert _parse_bool(True) is True
        with pytest.raises(ValueError):
            _parse_bool("maybe")

    def test_parse_grid_accepts_a_gc_axis(self):
        grid = parse_grid("scenarios=store_migration_gc;seeds=0;gc=0,1")
        assert grid.params == (("gc", (False, True)),)
        cells = grid.expand()
        assert [spec.cell_id for spec in cells] == [
            "store_migration_gc/s0[gc=False]",
            "store_migration_gc/s0[gc=True]",
        ]

    def test_inert_gc_axis_fails_the_cell(self):
        record = execute_run(RunSpec(scenario="abd_crash_minority", seed=0,
                                     params=(("gc", True),)))
        assert not record.ok
        assert "gc" in record.failure
        assert "never reconfigures" in record.failure

    def test_gc_axis_with_a_num_reconfigs_axis_is_accepted(self):
        record = execute_run(RunSpec(scenario="abd_crash_minority", seed=0,
                                     params=(("gc", True), ("num_reconfigs", 1))))
        assert record.ok, record.failure

    def test_gc_override_changes_the_run_and_gc_off_matches_baseline(self):
        baseline = execute_run(RunSpec(scenario="abd_reconfig_crash", seed=0))
        gc_off = execute_run(RunSpec(scenario="abd_reconfig_crash", seed=0,
                                     params=(("gc", False),)))
        gc_on = execute_run(RunSpec(scenario="abd_reconfig_crash", seed=0,
                                    params=(("gc", True),)))
        assert baseline.ok and gc_off.ok and gc_on.ok
        # gc=0 is byte-identical to the un-overridden scenario...
        assert gc_off.signature_hash == baseline.signature_hash
        # ...and gc=1 actually changes the execution.
        assert gc_on.signature_hash != baseline.signature_hash

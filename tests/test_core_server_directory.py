"""Unit tests for the ARES server message routing and the configuration directory."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.common.ids import config_id, reader_id, server_id, writer_id
from repro.common.tags import Tag
from repro.common.values import Value
from repro.config.configuration import Configuration
from repro.config.sequence import ConfigRecord, Status
from repro.consensus.paxos import NACK, PREPARE, PROMISE, Ballot
from repro.core.directory import ConfigurationDirectory
from repro.core.server import WRITE_CONFIG, AresServer
from repro.dap import ldr
from repro.dap.treas import PUT_DATA, QUERY_LIST, QUERY_TAG
from repro.net.latency import FixedLatency
from repro.net.message import METADATA_FIELD_BYTES, request
from repro.net.network import Network
from repro.sim.core import Simulator
from repro.sim.process import Process


class Probe(Process):
    """Client probe capturing replies."""

    def __init__(self, pid, network):
        super().__init__(pid, network)
        self.replies = []

    def on_message(self, src, message):
        self.replies.append((src, message))


def prepare(rid, cfg, round_number=1):
    """A Paxos PREPARE for ``cfg``'s instance, as a reconfigurer sends it."""
    return request(PREPARE, rid, config_id=cfg.cfg_id, metadata_fields=2,
                   ballot=Ballot.make(round_number, reader_id(0)),
                   instance=cfg.cfg_id)


def build(num_servers=3):
    sim = Simulator(seed=0)
    network = Network(sim, latency=FixedLatency(1.0))
    directory = ConfigurationDirectory()
    servers = [AresServer(server_id(i), network, directory) for i in range(num_servers)]
    cfg = Configuration.treas(config_id(0), [s.pid for s in servers], k=2, delta=2)
    directory.register(cfg)
    probe = Probe(writer_id(0), network)
    return sim, network, directory, servers, cfg, probe


def build_ldr():
    """``build()`` grown to six servers, with an LDR 3+3 configuration."""
    sim, network, directory, servers, _, probe = build()
    servers += [AresServer(server_id(i), network, directory) for i in range(3, 6)]
    pids = [server.pid for server in servers]
    cfg = Configuration.ldr(config_id(2), pids[:3], pids[3:])
    directory.register(cfg)
    return sim, servers, cfg, probe


class TestConfigurationDirectory:
    def test_register_and_get(self):
        directory = ConfigurationDirectory()
        cfg = Configuration.abd(config_id(0), [server_id(0)])
        directory.register(cfg)
        assert directory.get(config_id(0)) is cfg
        assert config_id(0) in directory
        assert len(directory) == 1
        assert list(directory) == [cfg]

    def test_reregistering_same_object_is_noop(self):
        directory = ConfigurationDirectory()
        cfg = Configuration.abd(config_id(0), [server_id(0)])
        directory.register(cfg)
        directory.register(cfg)
        assert len(directory) == 1

    def test_conflicting_registration_rejected(self):
        directory = ConfigurationDirectory()
        directory.register(Configuration.abd(config_id(0), [server_id(0)]))
        other = Configuration.abd(config_id(0), [server_id(1)])
        with pytest.raises(ConfigurationError):
            directory.register(other)

    def test_unknown_lookup(self):
        directory = ConfigurationDirectory()
        with pytest.raises(ConfigurationError):
            directory.get(config_id(9))
        assert directory.maybe_get(config_id(9)) is None


class TestAresServerRouting:
    def test_promise_initially_carries_no_next_config(self):
        sim, network, directory, servers, cfg, probe = build()
        probe.send(servers[0].pid, prepare(1, cfg))
        sim.run()
        assert len(probe.replies) == 1
        promise = probe.replies[0][1]
        assert promise.kind == PROMISE
        assert "next" in promise.body and promise["next"] is None

    def test_write_config_then_every_prepare_reply_carries_it(self):
        # A promise and a refusal of a lower ballot both report the link,
        # charged the two metadata fields of a DAP reply's link.
        sim, network, directory, servers, cfg, probe = build()
        next_cfg = Configuration.abd(config_id(1), [server_id(10)])
        record = ConfigRecord(next_cfg, Status.PENDING)
        probe.send(servers[0].pid, request(WRITE_CONFIG, 1, config_id=cfg.cfg_id, record=record))
        sim.run()
        probe.send(servers[0].pid, prepare(2, cfg, round_number=2))
        probe.send(servers[0].pid, prepare(3, cfg, round_number=1))
        sim.run()
        promise, refusal = (message for _, message in probe.replies[-2:])
        assert (promise.kind, refusal.kind) == (PROMISE, NACK)
        assert promise["next"] is refusal["next"] is record
        assert promise.metadata_bytes == refusal.metadata_bytes == 3 * METADATA_FIELD_BYTES

    def test_first_round_replies_and_put_data_acks_carry_next_config(self):
        sim, network, directory, servers, cfg, probe = build()
        record = ConfigRecord(Configuration.abd(config_id(1), [server_id(10)]),
                              Status.FINALIZED)
        probe.send(servers[0].pid, request(WRITE_CONFIG, 1, config_id=cfg.cfg_id,
                                           record=record))
        probe.send(servers[1].pid, request(QUERY_LIST, 2, config_id=cfg.cfg_id))
        for rid, kind in ((3, QUERY_TAG), (4, QUERY_LIST)):
            probe.send(servers[0].pid, request(kind, rid, config_id=cfg.cfg_id))
        element = cfg.code.encode(Value.of_size(20, label="x"))[0]
        probe.send(servers[0].pid, request(PUT_DATA, 5, config_id=cfg.cfg_id,
                                           tag=Tag(1, writer_id(0)), element=element))
        sim.run()
        replies = {message.in_reply_to: message for _, message in probe.replies}
        assert replies[2]["next"] is None            # server 1 knows no successor
        assert replies[3]["next"] is replies[4]["next"] is replies[5]["next"] is record
        # The link costs two metadata fields, as on a Paxos promise.
        assert replies[3].metadata_bytes == 3 * METADATA_FIELD_BYTES
        assert replies[5].metadata_bytes == 3 * METADATA_FIELD_BYTES

    def test_ldr_directory_query_and_put_metadata_replies_carry_next_config(self):
        # The directories are an LDR configuration's consensus quorum
        # system; its replica rounds carry no link.
        sim, servers, cfg, probe = build_ldr()
        pids = [server.pid for server in servers]
        record = ConfigRecord(Configuration.abd(config_id(1), [server_id(10)]),
                              Status.FINALIZED)
        probe.send(pids[0], request(WRITE_CONFIG, 1, config_id=cfg.cfg_id,
                                    record=record))
        tag = Tag(1, writer_id(0))
        probe.send(pids[0], request(ldr.QUERY_TAG_LOCATION, 2, config_id=cfg.cfg_id))
        probe.send(pids[0], request(ldr.PUT_METADATA, 3, config_id=cfg.cfg_id,
                                    tag=tag, location=(pids[3],)))
        probe.send(pids[1], request(ldr.PUT_METADATA, 4, config_id=cfg.cfg_id,
                                    tag=tag, location=(pids[3],)))
        probe.send(pids[3], request(ldr.PUT_DATA, 5, config_id=cfg.cfg_id, tag=tag,
                                    value=Value.of_size(20, label="x")))
        probe.send(pids[3], request(ldr.GET_DATA, 6, config_id=cfg.cfg_id, tag=tag))
        sim.run()
        replies = {message.in_reply_to: message for _, message in probe.replies}
        assert replies[2]["next"] is replies[3]["next"] is record
        assert replies[4]["next"] is None            # server 1 knows no successor
        assert "next" not in replies[5].body and "next" not in replies[6].body

    @pytest.mark.parametrize("current", [None, Status.PENDING, Status.FINALIZED])
    def test_fence_installs_by_algorithm_6s_rule_before_the_answer(self, current):
        # A transfer query's fence goes in over ⊥ and over a pending record,
        # never over a finalized one, and the reply already reports it.
        sim, network, directory, servers, cfg, probe = build()
        successor = Configuration.abd(config_id(1), [server_id(10)])
        if current is not None:
            probe.send(servers[0].pid, request(
                WRITE_CONFIG, 1, config_id=cfg.cfg_id,
                record=ConfigRecord(successor, current)))
        fence = ConfigRecord(successor, Status.FINALIZED if current is None
                             else Status.PENDING)
        probe.send(servers[0].pid, request(QUERY_TAG, 2, config_id=cfg.cfg_id,
                                           metadata_fields=3, fence=fence))
        sim.run()
        installed = servers[0].next_config[cfg.cfg_id]
        if current is Status.FINALIZED:
            assert installed.status is Status.FINALIZED and installed is not fence
        else:
            assert installed is fence
        assert probe.replies[-1][1]["next"] is installed

    def test_finalized_record_not_overwritten_by_pending(self):
        sim, network, directory, servers, cfg, probe = build()
        final_cfg = Configuration.abd(config_id(1), [server_id(10)])
        probe.send(servers[0].pid, request(
            WRITE_CONFIG, 1, config_id=cfg.cfg_id,
            record=ConfigRecord(final_cfg, Status.FINALIZED)))
        sim.run()
        probe.send(servers[0].pid, request(
            WRITE_CONFIG, 2, config_id=cfg.cfg_id,
            record=ConfigRecord(final_cfg, Status.PENDING)))
        sim.run()
        assert servers[0].next_config[cfg.cfg_id].status is Status.FINALIZED

    def test_dap_state_created_lazily_only_for_members(self):
        sim, network, directory, servers, cfg, probe = build()
        # Before any DAP traffic, no state is instantiated, though the
        # server *is* a member of the registered config.
        assert list(servers[0].dap_states) == []
        assert servers[0].pid in directory.get(cfg.cfg_id).servers
        assert servers[0].storage_data_bytes() == 0
        element = cfg.code.encode(Value.of_size(20, label="x"))[0]
        probe.send(servers[0].pid, request(PUT_DATA, 1, config_id=cfg.cfg_id,
                                           tag=Tag(1, writer_id(0)), element=element))
        sim.run()
        assert list(servers[0].dap_states) == [cfg.cfg_id]
        assert servers[0].storage_data_bytes() > 0

    def test_dap_message_for_unknown_configuration_ignored(self):
        sim, network, directory, servers, cfg, probe = build()
        element = cfg.code.encode(Value.of_size(20, label="x"))[0]
        probe.send(servers[0].pid, request(PUT_DATA, 1, config_id=config_id(77),
                                           tag=Tag(1, writer_id(0)), element=element))
        sim.run()
        assert probe.replies == []
        assert list(servers[0].dap_states) == []

    def test_dap_message_to_non_member_ignored(self):
        sim, network, directory, servers, cfg, probe = build()
        foreign = Configuration.treas(config_id(5), [server_id(20 + i) for i in range(3)], k=2)
        directory.register(foreign)
        element = foreign.code.encode(Value.of_size(20, label="x"))[0]
        probe.send(servers[0].pid, request(PUT_DATA, 1, config_id=foreign.cfg_id,
                                           tag=Tag(1, writer_id(0)), element=element))
        sim.run()
        assert probe.replies == []

    def test_dap_message_without_config_id_ignored(self):
        sim, network, directory, servers, cfg, probe = build()
        probe.send(servers[0].pid, request(PUT_DATA, 1, tag=Tag(1, writer_id(0)), element=None))
        sim.run()
        assert probe.replies == []

    def test_unknown_message_kind_ignored(self):
        sim, network, directory, servers, cfg, probe = build()
        probe.send(servers[0].pid, request("TOTALLY-UNKNOWN", 1, config_id=cfg.cfg_id))
        sim.run()
        assert probe.replies == []

    def test_crashed_server_stops_replying(self):
        sim, network, directory, servers, cfg, probe = build()
        servers[0].crash()
        probe.send(servers[0].pid, prepare(1, cfg))
        sim.run()
        assert probe.replies == []

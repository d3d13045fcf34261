"""Unit tests for the single-decree Paxos consensus substrate."""

from __future__ import annotations

import pytest

from repro.common.errors import ConsensusError
from repro.common.ids import config_id, reconfigurer_id, server_id
from repro.config.configuration import Configuration
from repro.consensus.paxos import (ACCEPT, PREPARE, Ballot, PaxosAcceptorState,
                                   PaxosProposer)
from repro.core.directory import ConfigurationDirectory
from repro.core.server import AresServer
from repro.net.latency import UniformLatency
from repro.net.network import Network
from repro.sim.core import Simulator
from repro.sim.process import Process


class ProposerClient(Process):
    """A bare client process used to host proposer coroutines."""


def build_system(num_servers=5, num_clients=2, seed=0, latency=None):
    sim = Simulator(seed=seed)
    network = Network(sim, latency=latency or UniformLatency(1.0, 3.0))
    directory = ConfigurationDirectory()
    servers = [AresServer(server_id(i), network, directory) for i in range(num_servers)]
    configuration = Configuration.treas(config_id(0), [s.pid for s in servers])
    directory.register(configuration)
    clients = [ProposerClient(reconfigurer_id(i), network) for i in range(num_clients)]
    return sim, network, configuration, servers, clients


class TestBallots:
    def test_ordering(self):
        a = Ballot.make(1, reconfigurer_id(0))
        b = Ballot.make(1, reconfigurer_id(1))
        c = Ballot.make(2, reconfigurer_id(0))
        assert a < b < c
        assert Ballot.initial() < a

    def test_initial_smaller_than_all(self):
        assert Ballot.initial() < Ballot.make(1, reconfigurer_id(0))


class TestAcceptorState:
    def test_rejects_unknown_kind(self):
        from repro.net.message import request

        state = PaxosAcceptorState()
        with pytest.raises(ConsensusError):
            state.handle(request("BOGUS", 1))


class TestSingleProposer:
    def test_decides_proposed_value(self):
        sim, network, configuration, servers, clients = build_system()
        proposer = PaxosProposer(clients[0], configuration, instance=configuration.cfg_id)
        sent = []
        network.add_delay_adjuster(
            lambda src, dest, message, delay:
                sent.append(message.kind) or delay if src == clients[0].pid else delay)
        handle = clients[0].spawn(proposer.propose("value-A"))
        assert sim.run_until_complete(handle) == "value-A"
        # Decided on the first ballot: one prepare round, one accept round.
        assert sent == [PREPARE] * 5 + [ACCEPT] * 5

    def test_cannot_propose_none(self):
        sim, network, configuration, servers, clients = build_system()
        proposer = PaxosProposer(clients[0], configuration, instance=configuration.cfg_id)
        handle = clients[0].spawn(proposer.propose(None))
        sim.run()
        assert isinstance(handle.exception(), ConsensusError)

    def test_later_proposer_learns_existing_decision(self):
        sim, network, configuration, servers, clients = build_system()
        first = PaxosProposer(clients[0], configuration, instance=configuration.cfg_id)
        decision_a = sim.run_until_complete(clients[0].spawn(first.propose("A")))
        second = PaxosProposer(clients[1], configuration, instance=configuration.cfg_id)
        decision_b = sim.run_until_complete(clients[1].spawn(second.propose("B")))
        assert decision_a == "A"
        assert decision_b == "A"  # agreement: the earlier decision sticks

    def test_decision_delay_adds_latency(self):
        sim, network, configuration, servers, clients = build_system(latency=None)
        proposer = PaxosProposer(clients[0], configuration,
                                 instance=configuration.cfg_id, extra_decision_delay=50.0)
        handle = clients[0].spawn(proposer.propose("X"))
        sim.run_until_complete(handle)
        assert sim.now >= 50.0

    def test_tolerates_minority_acceptor_crashes(self):
        sim, network, configuration, servers, clients = build_system(num_servers=5)
        servers[0].crash()
        servers[1].crash()
        proposer = PaxosProposer(clients[0], configuration, instance=configuration.cfg_id)
        decision = sim.run_until_complete(clients[0].spawn(proposer.propose("survive")))
        assert decision == "survive"


class TestConcurrentProposers:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_agreement_under_contention(self, seed):
        sim, network, configuration, servers, clients = build_system(
            num_clients=3, seed=seed)
        handles = []
        for index, client in enumerate(clients):
            proposer = PaxosProposer(client, configuration, instance=configuration.cfg_id)
            handles.append(client.spawn(proposer.propose(f"value-{index}")))
        sim.run()
        decisions = [h.result() for h in handles]
        # Agreement: every proposer learns the same decision.
        assert len(set(decisions)) == 1
        # Validity: the decision is one of the proposed values.
        assert decisions[0] in {"value-0", "value-1", "value-2"}

    def test_independent_instances_decide_independently(self):
        sim, network, configuration, servers, clients = build_system(num_clients=2)
        other_instance = config_id(99)
        p0 = PaxosProposer(clients[0], configuration, instance=configuration.cfg_id)
        p1 = PaxosProposer(clients[1], configuration, instance=other_instance)
        h0 = clients[0].spawn(p0.propose("for-instance-0"))
        h1 = clients[1].spawn(p1.propose("for-instance-99"))
        sim.run()
        assert h0.result() == "for-instance-0"
        assert h1.result() == "for-instance-99"

"""Tests for the metadata-consistent broadcast used by ARES-TREAS (Section 5).

The ``md-primitive`` of [21] must deliver a forward request to either *all*
non-faulty servers of the old configuration or to *none*, even if the
reconfiguration client crashes mid-broadcast.  The implementation achieves
this with a server-side echo: the first server to receive the request relays
it to every peer.  These tests exercise exactly that corner.
"""

from __future__ import annotations

import pytest

from repro.common.values import Value
from repro.dap.treas import FWD_CODE_ELEM, MD_BCAST_REQ_FW
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.net.latency import FixedLatency, UniformLatency


def make_deployment(**overrides):
    defaults = dict(num_servers=6, initial_dap="treas", delta=4, num_writers=1,
                    num_readers=1, num_reconfigurers=1, seed=0,
                    latency=UniformLatency(1.0, 2.0), direct_state_transfer=True)
    defaults.update(overrides)
    return AresDeployment(DeploymentSpec(**defaults))


class TestEchoDelivery:
    def test_every_old_server_sees_the_forward_request(self):
        dep = make_deployment()
        dep.write(Value.of_size(400, label="x"), 0)
        old_cfg = dep.initial_configuration
        cfg = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        dep.reconfig(cfg, 0)
        # Every live server of the old configuration saw (and de-duplicated)
        # the broadcast: its transfer state recorded the broadcast id.
        for pid in old_cfg.servers:
            state = dep.servers[pid].dap_states.get(old_cfg.cfg_id)
            assert state is not None
            assert len(state.seen_broadcasts) == 1

    def test_duplicate_echoes_do_not_duplicate_forwards(self):
        dep = make_deployment(latency=FixedLatency(1.0))
        dep.write(Value.of_size(400, label="x"), 0)
        old_n = dep.initial_configuration.n
        cfg = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        dep.reconfig(cfg, 0)
        forwards = dep.stats.by_kind(FWD_CODE_ELEM).messages
        # Each old server forwards its element to each new server exactly once.
        assert forwards <= old_n * cfg.n
        broadcasts = dep.stats.by_kind(MD_BCAST_REQ_FW).messages
        # Original fan-out (n) plus one echo round (n * (n - 1)).
        assert broadcasts == old_n + old_n * (old_n - 1)


class TestReconfigurerCrashMidBroadcast:
    def test_all_or_none_despite_client_crash(self):
        """Crash the reconfigurer after it reached only one old server.

        The echo relay must still deliver the forward request to every other
        old server, so the new configuration ends up holding a decodable copy
        of the value (the "all" side of all-or-none), and a later
        reconfiguration by another client finds a consistent system.
        """
        dep = make_deployment(num_reconfigurers=2, latency=FixedLatency(1.0))
        dep.write(Value.of_size(600, label="survivor"), 0)
        reconfigurer = dep.reconfigurers[0]
        cfg = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        handle = dep.spawn_reconfig(cfg, 0)
        # Let the reconfiguration proceed through read-config, consensus and
        # the start of the md-broadcast, then kill the client.  With unit
        # latencies the broadcast messages are already in flight, so the echo
        # phase runs entirely among the servers.
        dep.sim.run_until(dep.sim.now + 30.0)
        reconfigurer.crash()
        dep.sim.run()
        # The reconfig operation itself never completes...
        assert handle.exception() is not None or handle.done()
        # ...but the forward request reached every old server (all-or-none).
        old_cfg = dep.initial_configuration
        seen = [len(dep.servers[pid].dap_states[old_cfg.cfg_id].seen_broadcasts)
                for pid in old_cfg.servers
                if old_cfg.cfg_id in dep.servers[pid].dap_states]
        assert seen and all(count == seen[0] for count in seen)
        # The object is still readable (through whichever configurations a
        # fresh traversal discovers), and a second reconfigurer can finish the
        # job cleanly.
        assert dep.read(0).label == "survivor"
        cfg2 = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        dep.reconfig(cfg2, 1)
        assert dep.read(0).label == "survivor"

"""Tests for ARES read/write clients (Algorithm 7) and client-visible liveness."""

from __future__ import annotations

import pytest

from repro.common.ids import server_id
from repro.common.values import Value
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.core.server import READ_CONFIG, WRITE_CONFIG
from repro.net.latency import FixedLatency, UniformLatency
from repro.spec.history import OperationType
from repro.spec.linearizability import check_linearizability, check_tag_monotonicity
from repro.spec.properties import check_dap_properties


def make_deployment(**overrides):
    defaults = dict(num_servers=6, initial_dap="treas", delta=6, num_writers=3,
                    num_readers=3, num_reconfigurers=2, seed=0,
                    latency=UniformLatency(1.0, 2.0), record_dap=True)
    defaults.update(overrides)
    return AresDeployment(DeploymentSpec(**defaults))


def note_rounds(dep, pid):
    """The message kinds ``pid`` sends from now on, one entry per round."""
    kinds = []
    last = [None]

    def note(src, dest, message, delay):
        if src == pid and last[0] != (message.kind, message.config_id):
            last[0] = (message.kind, message.config_id)
            kinds.append(message.kind)
        return delay

    dep.network.add_delay_adjuster(note)
    return kinds


class TestRounds:
    @pytest.mark.parametrize("dap, rounds", [
        ("abd", ["ABD-QUERY-TAG", "ABD-WRITE"]),
        ("treas", ["TREAS-QUERY-TAG", "TREAS-PUT-DATA"]),
        ("ldr", ["LDR-QUERY-TAG-LOCATION", "LDR-PUT-DATA", "LDR-PUT-METADATA"]),
    ])
    def test_a_write_reads_next_config_off_its_own_rounds(self, dap, rounds):
        # Every DAP reads nextC off its first round and its put-data
        # replies (LDR's put-metadata), so no write runs read-config.
        dep = make_deployment(initial_dap=dap)
        kinds = note_rounds(dep, dep.writers[0].pid)
        dep.write(Value.of_size(10, label="x"), 0)
        assert kinds == rounds


def abd_five(**overrides):
    """ABD-5, one writer and one reader, every message taking exactly 1."""
    defaults = dict(num_servers=5, initial_dap="abd", num_writers=1, num_readers=1,
                    num_reconfigurers=1, latency=FixedLatency(1.0))
    defaults.update(overrides)
    return AresDeployment(DeploymentSpec(**defaults))


class TestReadRounds:
    """An ABD or TREAS read skips its write-back only when its quorum agrees."""

    @pytest.mark.parametrize("dap, rounds", [
        ("abd", ["ABD-QUERY"]),
        ("treas", ["TREAS-QUERY-LIST"]),
        ("ldr", ["LDR-QUERY-TAG-LOCATION", "LDR-PUT-METADATA", "LDR-GET-DATA",
                 "LDR-PUT-DATA", "LDR-PUT-METADATA"]),
    ])
    def test_only_a_quiet_read_outside_ldr_is_one_round(self, dap, rounds):
        dep = make_deployment(initial_dap=dap)
        dep.write(Value.of_size(10, label="x"), 0)
        kinds = note_rounds(dep, dep.readers[0].pid)
        assert dep.read(0).label == "x"
        assert kinds == rounds

    def test_a_quorum_with_mixed_tags_writes_back(self):
        # The write reaches s0 only; the reader's quorum {s0, s1, s2} holds
        # tau at s0 alone.
        dep = abd_five()
        writer, reader = dep.writers[0].pid, dep.readers[0].pid
        s = [server_id(index) for index in range(5)]
        slowed = {(writer, server, "ABD-WRITE") for server in s[1:]}
        slowed |= {(reader, server, "ABD-QUERY") for server in s[3:]}
        dep.network.add_delay_adjuster(
            lambda src, dest, message, delay:
                delay + 100 * ((src, dest, message.kind) in slowed))
        dep.spawn_write(Value.of_size(8, label="tau"))
        dep.sim.run_until(5.0)
        kinds = note_rounds(dep, reader)
        assert dep.read(0).label == "tau"
        assert kinds == ["ABD-QUERY", "ABD-WRITE"]
        dep.run()
        assert check_linearizability(dep.history).ok

    def test_a_treas_quorum_missing_the_element_in_one_list_writes_back(self):
        # TREAS [6, 4]: the write reaches s0..s3 only, and the reader's
        # quorum {s0, ..., s4} decodes tau from four lists while s4 lacks it.
        dep = abd_five(initial_dap="treas", num_servers=6, k=4)
        writer, reader = dep.writers[0].pid, dep.readers[0].pid
        s = [server_id(index) for index in range(6)]
        slowed = {(writer, server, "TREAS-PUT-DATA") for server in s[4:]}
        slowed.add((reader, s[5], "TREAS-QUERY-LIST"))
        dep.network.add_delay_adjuster(
            lambda src, dest, message, delay:
                delay + 100 * ((src, dest, message.kind) in slowed))
        dep.spawn_write(Value.of_size(8, label="tau"))
        dep.sim.run_until(5.0)
        kinds = note_rounds(dep, reader)
        assert dep.read(0).label == "tau"
        assert kinds == ["TREAS-QUERY-LIST", "TREAS-PUT-DATA"]
        dep.run()
        assert check_linearizability(dep.history).ok

    def test_a_treas_read_past_trimmed_elements_is_one_round(self):
        # delta + 1 writes before the read: every server has trimmed v0's
        # element to a placeholder, and every list still holds the last
        # write's element.
        dep = abd_five(initial_dap="treas", num_servers=6, k=4, delta=2)
        for index in range(3):
            dep.write(Value.of_size(8, label=f"w{index}"))
        lists = [server.dap_states[dep.initial_configuration.cfg_id].list
                 for server in dep.servers.values()]
        assert all(sum(element is None for element in entries.values()) == 1
                   for entries in lists)
        kinds = note_rounds(dep, dep.readers[0].pid)
        assert dep.read(0).label == "w2"
        assert kinds == ["TREAS-QUERY-LIST"]

    def test_a_reply_with_a_link_writes_back(self):
        # ABD c0 hands over to ABD c1 before the reader's first operation,
        # so the reader walks from c0.  A second reconfiguration puts its
        # pending c2 into c1's nextC 7 after it starts, and the reader's
        # get-data reaches c1 at 8: every reply agrees on c1's tag but
        # carries the link, so the read walks on to c2 and writes back there.
        dep = abd_five()
        dep.reconfig(dep.make_configuration(dap="abd", fresh_servers=5))
        dep.write(Value.of_size(8, label="tau"))
        start = dep.sim.now + 10.0
        dep.sim.run_until(start - 3.0)
        dep.spawn_reconfig(dep.make_configuration(dap="abd", fresh_servers=5))
        dep.sim.run_until(start)
        reader = dep.readers[0]
        kinds = note_rounds(dep, reader.pid)
        assert dep.read(0).label == "tau"
        assert kinds == ["ABD-QUERY", WRITE_CONFIG, "ABD-QUERY", WRITE_CONFIG,
                         "ABD-QUERY", "ABD-WRITE"]
        assert (reader.cseq.mu, reader.cseq.nu) == (1, 2)
        on_c1 = reader.dap_for(reader.cseq.config_at(1))
        assert on_c1.agreed_tag is not None
        assert on_c1.next_config.config is reader.cseq.config_at(2)
        dep.run()
        assert check_linearizability(dep.history).ok

    def test_a_pending_successor_writes_back(self):
        # The reconfiguration to c1 stalls after add-config, so c1 stays
        # pending.  The first read learns it and writes tau into c1; the
        # second finds tau at every server of both configurations with no
        # new link, and still writes back because µ < ν.
        dep = abd_five()
        dep.write(Value.of_size(8, label="tau"))
        reconfigurer = dep.reconfigurers[0].pid
        dep.network.add_delay_adjuster(
            lambda src, dest, message, delay:
                delay + 100 * (src == reconfigurer and message.kind == "ABD-QUERY"))
        dep.spawn_reconfig(dep.make_configuration(dap="abd", fresh_servers=5))
        dep.sim.run_until(dep.sim.now + 10.0)
        reader = dep.readers[0]
        first = note_rounds(dep, reader.pid)
        assert dep.read(0).label == "tau"
        assert first == ["ABD-QUERY", WRITE_CONFIG, "ABD-QUERY", "ABD-WRITE"]
        second = note_rounds(dep, reader.pid)
        assert dep.read(0).label == "tau"
        assert (reader.cseq.mu, reader.cseq.nu) == (0, 1)
        assert second == ["ABD-QUERY", "ABD-QUERY", "ABD-WRITE"]
        dep.run()
        assert check_linearizability(dep.history).ok


class TestBasicOperations:
    def test_write_then_read(self):
        dep = make_deployment()
        dep.write(Value.of_size(100, label="hello"), 0)
        assert dep.read(0).label == "hello"

    def test_read_before_any_write_returns_initial(self):
        dep = make_deployment()
        assert dep.read(0).label == "v0"

    def test_writes_from_different_writers_are_ordered(self):
        dep = make_deployment()
        tag_a = dep.write(Value.of_size(10, label="a"), 0)
        tag_b = dep.write(Value.of_size(10, label="b"), 1)
        tag_c = dep.write(Value.of_size(10, label="c"), 2)
        assert tag_a < tag_b < tag_c
        assert dep.read(0).label == "c"

    def test_client_sequence_grows_only_via_read_config(self):
        dep = make_deployment()
        writer = dep.writers[0]
        assert writer.cseq.nu == 0
        cfg = dep.make_configuration(dap="treas", fresh_servers=5, k=4)
        dep.reconfig(cfg, 0)
        # The writer has not operated yet, so its local view is still short.
        assert writer.cseq.nu == 0
        dep.write(Value.of_size(10, label="x"), 0)
        assert writer.cseq.nu == 1

    def test_abd_backed_ares(self):
        dep = make_deployment(initial_dap="abd")
        dep.write(Value.of_size(50, label="a"), 0)
        assert dep.read(0).label == "a"

    def test_initial_configuration_subset_of_pool(self):
        dep = make_deployment(num_servers=8, initial_config_size=5)
        assert dep.initial_configuration.n == 5
        dep.write(Value.of_size(10, label="x"), 0)
        assert dep.read(0).label == "x"


class TestAtomicityUnderConcurrency:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_concurrent_reads_and_writes(self, seed):
        dep = make_deployment(seed=seed)
        ops = []
        for round_number in range(2):
            for index in range(3):
                ops.append(dep.spawn_write(dep.writers[index].next_value(48), index))
                ops.append(dep.spawn_read(index))
        dep.run()
        assert all(op.exception() is None for op in ops)
        result = check_linearizability(dep.history)
        assert result.ok, result.reason
        assert check_tag_monotonicity(dep.history) is None
        assert check_dap_properties(dep.dap_recorder) == []

    @pytest.mark.parametrize("seed", [0, 1])
    def test_atomicity_with_reconfigurations_in_flight(self, seed):
        dep = make_deployment(seed=seed, delta=10)
        ops = []
        for index in range(3):
            ops.append(dep.spawn_write(dep.writers[index].next_value(64), index))
            ops.append(dep.spawn_read(index))
        cfg_a = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        ops.append(dep.spawn_reconfig(cfg_a, 0))
        cfg_b = dep.make_configuration(dap="abd", fresh_servers=3)
        ops.append(dep.spawn_reconfig(cfg_b, 1))
        # Second wave of client operations, started a bit later.
        def delayed_ops():
            yield dep.writers[0].sleep(5.0)
            for index in range(3):
                ops.append(dep.spawn_write(dep.writers[index].next_value(64), index))
                ops.append(dep.spawn_read(index))
            return None

        dep.writers[0].spawn(delayed_ops())
        dep.run()
        assert all(op.exception() is None for op in ops)
        result = check_linearizability(dep.history)
        assert result.ok, result.reason


class TestLivenessUnderFailures:
    def test_operations_survive_f_crashes_in_current_configuration(self):
        dep = make_deployment(num_servers=9, k=5)  # f = 2
        dep.network.crash(server_id(7))
        dep.network.crash(server_id(8))
        dep.write(Value.of_size(64, label="x"), 0)
        assert dep.read(0).label == "x"

    def test_reconfiguration_away_from_failing_servers(self):
        # The motivating use-case: servers of the old configuration start
        # failing, a reconfiguration moves the data to healthy servers, and
        # the service keeps operating after the old configuration dies.
        dep = make_deployment(num_servers=6)
        dep.write(Value.of_size(128, label="precious"), 0)
        dep.network.crash(server_id(5))  # within tolerance
        fresh = dep.make_configuration(dap="treas", fresh_servers=6, k=4)
        dep.reconfig(fresh, 0)
        # Clients learn the new configuration while the old one is still up
        # (operations after finalization pin their traversal to the new
        # configuration, so the old servers are no longer needed afterwards).
        assert dep.read(0).label == "precious"
        dep.write(Value.of_size(128, label="after-migration"), 0)
        reader = dep.readers[0]
        writer = dep.writers[0]
        assert reader.cseq.mu >= 1 and writer.cseq.mu >= 1
        # Now the remaining old servers die too; clients that already migrated
        # keep operating against the new configuration alone.
        for index in range(5):
            dep.network.crash(server_id(index))
        dep.write(Value.of_size(128, label="after-death-of-c0"), 0)
        assert dep.read(0).label == "after-death-of-c0"

    def test_reader_crash_mid_operation_aborts_cleanly(self):
        dep = make_deployment(seed=3)
        handle = dep.spawn_read(0)
        dep.sim.run_until(1.0)
        dep.readers[0].crash()
        dep.sim.run()
        assert handle.exception() is not None
        # The rest of the system is unaffected.
        dep.write(Value.of_size(16, label="x"), 0)
        assert dep.read(1).label == "x"


class TestHistoryAndLatencies:
    def test_latencies_are_positive_and_bounded_by_lemma59(self):
        from repro.analysis.latency import rw_operation_upper_bound

        dep = make_deployment()
        dep.write(Value.of_size(64, label="x"), 0)
        dep.read(0)
        D = dep.network.latency.D
        bound = rw_operation_upper_bound(D, mu_start=0, nu_end=0)
        for latency in dep.history.latencies():
            assert 0 < latency <= bound

    def test_operation_counts(self):
        dep = make_deployment()
        dep.write(Value.of_size(16, label="a"), 0)
        dep.read(0)
        dep.read(1)
        assert len(dep.history.writes()) == 1
        assert len(dep.history.reads()) == 2
        assert len(dep.history.operations(OperationType.RECONFIG)) == 0

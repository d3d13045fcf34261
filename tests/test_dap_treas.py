"""Unit tests for the TREAS DAP (Algorithms 2 and 3)."""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import QuorumUnavailableError
from repro.common.ids import config_id, server_id, writer_id
from repro.common.tags import BOTTOM_TAG, Tag, TagValue
from repro.common.values import Value
from repro.config.configuration import Configuration
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.dap.treas import (PUT_DATA, QUERY_LIST, QUERY_TAG, TreasDapClient,
                             TreasServerState)
from repro.erasure.interface import CodedElement
from repro.erasure.rs import ReedSolomonCode
from repro.net.latency import FixedLatency
from repro.net.message import request
from repro.spec.properties import check_dap_properties
from repro.workloads.scenarios import run_scenario, scenario_names


def dap(dep, client):
    """``client``'s DAP client for the deployment's one configuration."""
    return client.dap_for(dep.initial_configuration)


def make_config(n=6, k=4, delta=2):
    return Configuration.treas(config_id(0), [server_id(i) for i in range(n)], k=k, delta=delta)


class TestTreasServerState:
    def test_initial_list_holds_bottom_element(self):
        cfg = make_config()
        state = TreasServerState(cfg, server_id(2))
        assert BOTTOM_TAG in state.list
        assert state.list[BOTTOM_TAG] is not None
        assert state.list[BOTTOM_TAG].index == 2

    def test_insert_keeps_coded_element(self):
        cfg = make_config()
        state = TreasServerState(cfg, server_id(0))
        value = Value.of_size(40, label="x")
        element = cfg.code.encode(value)[0]
        tag = Tag(1, writer_id(0))
        state.insert(tag, element)
        assert state.coded_element_for(tag) == element
        assert state.max_known_tag() == tag

    def test_garbage_collection_keeps_delta_plus_one_elements(self):
        cfg = make_config(delta=2)
        state = TreasServerState(cfg, server_id(0))
        value = Value.of_size(40, label="x")
        element = cfg.code.encode(value)[0]
        tags = [Tag(i, writer_id(0)) for i in range(1, 7)]
        for tag in tags:
            state.insert(tag, element)
        with_elements = [t for t, e in state.list.items() if e is not None]
        assert len(with_elements) == cfg.delta + 1
        # The retained elements are exactly the delta+1 highest tags.
        assert sorted(with_elements) == sorted(tags)[-3:]
        # Trimmed tags are still present (as ⊥) so get-tag still sees them.
        assert all(t in state.list for t in tags)
        assert state.max_known_tag() == tags[-1]

    def test_storage_cost_matches_theorem3(self):
        # Total storage across servers is (delta+1) * n/k value units once
        # enough distinct tags have been written.
        n, k, delta = 6, 4, 2
        cfg = make_config(n=n, k=k, delta=delta)
        value_size = 400
        states = [TreasServerState(cfg, server_id(i)) for i in range(n)]
        for z in range(1, 10):
            value = Value.of_size(value_size, label=f"w{z}")
            elements = cfg.code.encode(value)
            for i, state in enumerate(states):
                state.insert(Tag(z, writer_id(0)), elements[i])
        total = sum(state.storage_data_bytes() for state in states)
        expected = (delta + 1) * n / k * value_size
        assert total == pytest.approx(expected)

    def test_duplicate_insert_does_not_replace(self):
        cfg = make_config()
        state = TreasServerState(cfg, server_id(0))
        tag = Tag(1, writer_id(0))
        first = cfg.code.encode(Value.of_size(10, label="first"))[0]
        second = cfg.code.encode(Value.of_size(10, label="second"))[0]
        state.insert(tag, first)
        state.insert(tag, second)
        assert state.coded_element_for(tag).label == "first"

    def test_query_tag_and_list_handlers(self):
        cfg = make_config()
        state = TreasServerState(cfg, server_id(0))
        tag_reply = state.handle(writer_id(0), request(QUERY_TAG, 1))
        assert tag_reply["tag"] == BOTTOM_TAG
        list_reply = state.handle(writer_id(0), request(QUERY_LIST, 2))
        assert len(list_reply["list"]) == 1
        element = cfg.code.encode(Value.of_size(40, label="x"))[0]
        state.handle(writer_id(0), request(PUT_DATA, 3, tag=Tag(1, writer_id(0)), element=element))
        list_reply = state.handle(writer_id(0), request(QUERY_LIST, 4))
        assert len(list_reply["list"]) == 2
        assert list_reply.data_bytes == element.size  # v0's element is empty


class RescannedList:
    """``List`` as the code before the incremental bookkeeping kept it: the
    reference the server state must agree with, rescanning on every call."""

    def __init__(self, state: TreasServerState) -> None:
        self.list = dict(state.list)
        self.delta = state.configuration.delta

    def insert(self, tag, element) -> None:
        existing = self.list.get(tag)
        if existing is None:
            self.list[tag] = element
        self._garbage_collect()

    def _garbage_collect(self) -> None:
        limit = self.delta + 1
        with_elements = [tag for tag, element in self.list.items() if element is not None]
        if len(with_elements) <= limit:
            return
        with_elements.sort()
        excess = len(with_elements) - limit
        for tag in with_elements[:excess]:
            self.list[tag] = None


#: Few distinct tags, so that sequences revisit them: duplicates, re-inserts
#: of trimmed tags, tags below everything held, the bottom tag itself.
insert_steps = st.lists(st.tuples(
    st.one_of(st.just(BOTTOM_TAG),
              st.builds(Tag, st.integers(0, 9), st.sampled_from([writer_id(0), writer_id(1)]))),
    st.one_of(st.none(), st.integers(0, 5))), max_size=40)


class TestServerBookkeepingEqualsRescan:
    @pytest.mark.parametrize("delta", [0, 1, 4])
    @settings(max_examples=60, deadline=None)
    @given(steps=insert_steps)
    def test_after_every_insert(self, delta, steps):
        state = TreasServerState(make_config(delta=delta), server_id(3))
        reference = RescannedList(state)
        offered = [BOTTOM_TAG]
        for tag, size in steps:
            element = None if size is None else CodedElement(
                index=3, payload=bytes(size), original_size=4 * size, label=f"{tag}/{size}")
            state.insert(tag, element)
            reference.insert(tag, element)
            if element is not None:
                offered.append(tag)
            # Same entries, same elements, same insertion order as a rescan.
            assert list(state.list.items()) == list(reference.list.items())
            assert state.max_known_tag() == max(state.list)
            assert state.storage_data_bytes() == sum(
                e.size for e in state.list.values() if e is not None)
            held = sorted(tag for tag, e in state.list.items() if e is not None)
            assert held == sorted(set(offered))[-(delta + 1):]
            reply_ = state.handle(writer_id(0), request(QUERY_LIST, 1))
            assert reply_["list"] == list(reference.list.items())
            assert reply_.data_bytes == state.storage_data_bytes()
            assert state.handle(writer_id(0), request(QUERY_TAG, 2))["tag"] == max(state.list)

    def test_reinserting_a_trimmed_tag_below_the_held_ones_stays_trimmed(self):
        cfg = make_config(delta=1)
        state = TreasServerState(cfg, server_id(0))
        element = cfg.code.encode(Value.of_size(40, label="x"))[0]
        tags = [Tag(z, writer_id(0)) for z in range(1, 5)]
        for tag in tags:
            state.insert(tag, element)
        state.insert(tags[0], element)
        assert state.coded_element_for(tags[0]) is None
        assert state.storage_data_bytes() == 2 * element.size
        assert list(state.list) == [BOTTOM_TAG, *tags]


class TestTreasPrimitives:
    def _deployment(self, n=6, k=4, delta=2, **kwargs):
        kwargs.setdefault("record_dap", True)
        kwargs.setdefault("num_writers", 2)
        kwargs.setdefault("num_readers", 2)
        return AresDeployment(initial_dap="treas", num_servers=n, k=k, delta=delta,
                              num_reconfigurers=0, latency=FixedLatency(1.0), **kwargs)

    def test_put_then_get_round_trip(self):
        dep = self._deployment()
        writer, reader = dep.writers[0], dep.readers[0]
        pair = TagValue(Tag(1, writer.pid), Value.of_size(120, label="hello"))
        dep.sim.run_until_complete(writer.spawn(dap(dep, writer).put_data(pair)))
        result = dep.sim.run_until_complete(reader.spawn(dap(dep, reader).get_data()))
        assert result.tag == pair.tag
        assert result.value.payload == pair.value.payload

    def test_get_tag_sees_completed_put(self):
        dep = self._deployment()
        writer = dep.writers[0]
        pair = TagValue(Tag(7, writer.pid), Value.of_size(16, label="x"))
        dep.sim.run_until_complete(writer.spawn(dap(dep, writer).put_data(pair)))
        reader = dep.readers[0]
        tag = dep.sim.run_until_complete(reader.spawn(dap(dep, reader).get_tag()))
        assert tag >= pair.tag

    def test_initial_get_data_returns_bottom_pair(self):
        dep = self._deployment()
        reader = dep.readers[0]
        result = dep.sim.run_until_complete(reader.spawn(dap(dep, reader).get_data()))
        assert result.tag == BOTTOM_TAG
        assert result.value.size == 0

    def test_survives_f_server_crashes(self):
        # f = (n - k) / 2 = 1 for [6, 4]
        dep = self._deployment(n=6, k=4)
        dep.servers[server_id(5)].crash()
        dep.write(dep.writers[0].next_value(64), 0)
        value = dep.read(0)
        assert value.label == "writer-0:1"

    def test_put_data_fails_fast_beyond_crash_tolerance(self):
        dep = self._deployment(n=6, k=4)
        for index in [3, 4, 5]:
            dep.servers[server_id(index)].crash()
        writer = dep.writers[0]
        pair = TagValue(Tag(1, writer.pid), Value.of_size(8, label="x"))
        handle = writer.spawn(dap(dep, writer).put_data(pair))
        dep.sim.run()
        assert isinstance(handle.exception(), QuorumUnavailableError)

    def test_fragment_traffic_is_value_size_over_k(self):
        n, k = 6, 4
        dep = self._deployment(n=n, k=k)
        value_size = 4000
        writer = dep.writers[0]
        pair = TagValue(Tag(1, writer.pid), Value.of_size(value_size, label="x"))
        dep.sim.run_until_complete(writer.spawn(dap(dep, writer).put_data(pair)))
        put_traffic = dep.stats.by_kind(PUT_DATA)
        assert put_traffic.messages == n
        assert put_traffic.data_bytes == n * (value_size // k)

    def test_dap_properties_hold(self):
        dep = self._deployment(delta=4)
        for _ in range(3):
            dep.write(dep.writers[0].next_value(32), 0)
            dep.read(0)
            dep.write(dep.writers[1].next_value(32), 1)
            dep.read(1)
        assert check_dap_properties(dep.dap_recorder) == []

    def test_read_with_many_concurrent_writes_is_garbage_collection_safe(self):
        # delta is set to cover the number of concurrent writers, so reads
        # must stay live even when all writers run concurrently.
        dep = self._deployment(n=6, k=4, delta=4, num_writers=4, num_readers=2)
        ops = []
        for index in range(4):
            ops.append(dep.spawn_write(dep.writers[index].next_value(48), index))
        for index in range(2):
            ops.append(dep.spawn_read(index))
        dep.run()
        assert all(op.exception() is None for op in ops)


class TestDecodedElementReuse:
    """Lifetime and scope of the elements ``get-data`` leaves for ``put-data``."""

    @staticmethod
    def _run(process, coroutine):
        return process.sim.run_until_complete(process.spawn(coroutine))

    def _static(self, **kwargs):
        kwargs.setdefault("num_writers", 1)
        kwargs.setdefault("num_readers", 1)
        return AresDeployment(initial_dap="treas", num_servers=6, k=4, delta=2,
                              num_reconfigurers=0, latency=FixedLatency(1.0), **kwargs)

    def test_write_back_reuses_what_the_read_decoded_from(self, encode_calls):
        dep = self._static()
        dep.write(Value.of_size(400, label="v"), 0)
        dep.servers[server_id(4)].crash()
        reader = dep.readers[0]
        del encode_calls[:]
        pair = self._run(reader, dap(dep, reader).get_data())
        assert dap(dep, reader)._decoded_from[0] == pair.tag
        self._run(reader, dap(dep, reader).put_data(pair))
        [(code, known, elements)] = encode_calls
        assert known == [0, 1, 2, 3, 5]
        assert elements == ReedSolomonCode(6, 4).encode(pair.value)
        assert dap(dep, reader)._decoded_from is None

    def test_elements_are_let_go_with_the_pair(self):
        dep = self._static()
        dep.write(Value.of_size(400, label="v"), 0)
        reader = dep.readers[0]

        def traverse():
            # Algorithm 7's read loop: a read through several configurations
            # keeps the best pair and writes back into the last one only, so
            # the pairs it drops must not pin their elements.
            pair = yield from dap(dep, reader).get_data()
            held_with_the_pair = dap(dep, reader)._decoded_from is not None
            pair = None
            return held_with_the_pair, dap(dep, reader)._decoded_from is None

        assert self._run(reader, traverse()) == (True, True)

    def test_no_client_holds_elements_after_any_scenario(self):
        for name in scenario_names():
            gc.collect()
            result = run_scenario(name, seed=0)
            sim = result.deployment.sim
            clients = [obj for obj in gc.get_objects()
                       if isinstance(obj, TreasDapClient) and obj.process.sim is sim]
            assert "treas" not in name or clients, name
            holding = [(client.process.pid, client.configuration.cfg_id)
                       for client in clients if client._decoded_from is not None]
            assert holding == [], name

    def test_write_after_read_on_one_client_encodes_in_full(self, encode_calls):
        dep = AresDeployment(DeploymentSpec(num_servers=6, initial_dap="treas", delta=4,
                                            num_writers=1, num_readers=1, seed=0))
        dep.write(Value.of_size(400, label="first"), 0)
        client = dep.writers[0]
        assert self._run(client, client.read()).label == "first"
        assert client.dap_for(dep.initial_configuration)._decoded_from is None
        del encode_calls[:]
        written = Value.of_size(400, label="second", fill=0x17)
        self._run(client, client.write(written))
        [(code, known, elements)] = encode_calls
        assert known == []
        assert elements == ReedSolomonCode(6, 4).encode(written)

    def test_pair_of_another_configuration_is_encoded_in_full(self, encode_calls):
        dep = AresDeployment(DeploymentSpec(num_servers=6, initial_dap="treas", delta=4,
                                            num_writers=1, num_readers=1, seed=0))
        old = dep.initial_configuration
        new = dep.make_configuration(dap="treas", fresh_servers=8, k=5)
        dep.directory.register(new)     # what installing it would have done
        writer, reader = dep.writers[0], dep.readers[0]
        stale = TagValue(Tag(1, writer.pid), Value.of_size(400, label="stale", fill=0x01))
        fresh = TagValue(Tag(2, writer.pid), Value.of_size(400, label="fresh", fill=0x02))
        self._run(writer, writer.dap_for(new).put_data(stale))
        self._run(writer, writer.dap_for(old).put_data(fresh))
        # Algorithm 7's read over cseq = [old, new]: the best pair is old's.
        best = self._run(reader, reader.dap_for(old).get_data())
        other = self._run(reader, reader.dap_for(new).get_data())
        assert (best.tag, other.tag) == (fresh.tag, stale.tag)
        assert reader.dap_for(new)._decoded_from[0] == stale.tag
        del encode_calls[:]
        self._run(reader, reader.dap_for(new).put_data(best))
        [(code, known, elements)] = encode_calls
        assert (code.n, code.k, known) == (8, 5, [])
        assert elements == ReedSolomonCode(8, 5).encode(fresh.value)
        assert reader.dap_for(new)._decoded_from is None
        for index, pid in enumerate(new.servers):
            state = dep.servers[pid].dap_states.get(new.cfg_id)
            if state is not None and state.coded_element_for(fresh.tag) is not None:
                assert state.coded_element_for(fresh.tag) == elements[index]

    def test_inconclusive_attempts_leave_nothing(self):
        dep = self._static()
        dep.write(Value.of_size(400, label="v"), 0)
        reader = dep.readers[0]
        pair = self._run(reader, dap(dep, reader).get_data())
        assert dap(dep, reader)._decoded_from is not None
        # A higher tag known to k servers without its elements: t*_max is
        # never decodable, so every attempt is inconclusive.
        for index in range(4):
            dep.servers[server_id(index)].dap_state_for(
                dep.initial_configuration.cfg_id).insert(Tag(9, writer_id(0)), None)
        dap(dep, reader).max_get_data_attempts = 2
        handle = reader.spawn(dap(dep, reader).get_data())
        dep.sim.run()
        assert isinstance(handle.exception(), QuorumUnavailableError)
        assert dap(dep, reader)._decoded_from is None
        assert pair.value.label == "v"

    def test_get_data_again_replaces_what_was_held(self, encode_calls):
        # What a one-round read leaves behind: it skips its put-data, and the
        # next operation calls get-data on a client that never got to
        # put-data.
        dep = self._static()
        dep.write(Value.of_size(400, label="one"), 0)
        reader = dep.readers[0]
        first = self._run(reader, dap(dep, reader).get_data())
        dep.write(Value.of_size(400, label="two", fill=0x22), 0)
        second = self._run(reader, dap(dep, reader).get_data())
        assert second.tag > first.tag
        assert dap(dep, reader)._decoded_from[0] == second.tag
        del encode_calls[:]
        self._run(reader, dap(dep, reader).put_data(first))
        [(code, known, elements)] = encode_calls
        assert known == []
        assert elements == ReedSolomonCode(6, 4).encode(first.value)
        assert dap(dep, reader)._decoded_from is None

    def test_elements_of_another_value_under_the_same_tag_are_refused(self):
        dep = self._static()
        dep.write(Value.of_size(400, label="v"), 0)
        reader = dep.readers[0]
        pair = self._run(reader, dap(dep, reader).get_data())
        forged = TagValue(pair.tag, Value.of_size(300, label="other"))
        handle = reader.spawn(dap(dep, reader).put_data(forged))
        dep.sim.run()
        assert isinstance(handle.exception(), ValueError)
        assert dap(dep, reader)._decoded_from is None

"""Unit tests for values and process/configuration identifiers."""

from __future__ import annotations

import copy
import gc
import multiprocessing
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.common import ids
from repro.common.ids import (
    ConfigId,
    ProcessId,
    Role,
    config_id,
    reader_id,
    reconfigurer_id,
    server_id,
    writer_id,
)
from repro.common.values import BOTTOM_VALUE, Value
from repro.core.deployment import AresDeployment, DeploymentSpec


class TestValue:
    def test_size_matches_payload(self):
        value = Value(payload=b"abcde", label="x")
        assert value.size == 5

    def test_of_size(self):
        value = Value.of_size(1024, label="big")
        assert value.size == 1024
        assert value.label == "big"

    def test_of_size_rejects_negative(self):
        with pytest.raises(ValueError):
            Value.of_size(-1)

    def test_text_round_trip(self):
        value = Value.from_text("hello world")
        assert value.as_text() == "hello world"
        assert value.label == "hello world"

    def test_bottom_value(self):
        assert BOTTOM_VALUE.size == 0
        assert BOTTOM_VALUE.label == "v0"

    @given(st.integers(0, 4096))
    def test_of_size_always_exact(self, size):
        assert Value.of_size(size).size == size


class TestPayloadInterning:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        from repro.common.values import payload_cache_clear

        payload_cache_clear()
        yield
        payload_cache_clear()

    def test_same_size_shares_payload_object(self):
        assert Value.of_size(1024).payload is Value.of_size(1024).payload
        assert Value.of_size(1024, label="a").payload is \
            Value.of_size(1024, label="b").payload

    def test_distinct_fill_not_shared(self):
        assert Value.of_size(16, fill=0x00).payload != Value.of_size(16).payload

    def test_fill_is_normalised_mod_256(self):
        assert Value.of_size(8, fill=0x1AB).payload is \
            Value.of_size(8, fill=0xAB).payload

    def test_storm_allocates_per_distinct_size_not_per_op(self):
        """A 150-op storm must allocate O(distinct sizes) payload buffers."""
        sizes = [256, 1024, 65536]
        values = [Value.of_size(sizes[i % len(sizes)], label=f"w{i}")
                  for i in range(150)]
        distinct_buffers = {id(value.payload) for value in values}
        assert len(distinct_buffers) == len(sizes)
        # Labels stay per-operation even though payload bytes are shared.
        assert len({value.label for value in values}) == 150

    def test_cache_is_bounded(self):
        from repro.common.values import payload_cache_info

        maxsize = payload_cache_info()["maxsize"]
        for size in range(2 * maxsize):
            Value.of_size(size)
        info = payload_cache_info()
        assert info["size"] == info["maxsize"] == maxsize
        assert info["misses"] == 2 * maxsize

    def test_lru_keeps_hot_sizes(self):
        from repro.common.values import payload_cache_info

        maxsize = payload_cache_info()["maxsize"]
        hot = Value.of_size(12345).payload
        for size in range(maxsize - 1):
            Value.of_size(size)
            Value.of_size(12345)  # keep the hot entry fresh
        assert Value.of_size(12345).payload is hot


class TestProcessIds:
    def test_roles(self):
        assert writer_id(0).role is Role.WRITER
        assert reader_id(1).role is Role.READER
        assert reconfigurer_id(2).role is Role.RECONFIGURER
        assert server_id(3).role is Role.SERVER

    def test_roles_parse_from_their_values(self):
        assert Role("server") is Role.SERVER
        assert Role("reconfigurer") is Role.RECONFIGURER
        with pytest.raises(ValueError):
            Role("not-a-role")

    def test_deployment_clients_take_the_client_roles(self):
        deployment = AresDeployment(DeploymentSpec(
            num_servers=3, num_writers=2, num_readers=2, num_reconfigurers=1))
        clients = [*deployment.writers, *deployment.readers,
                   *deployment.reconfigurers]
        assert {c.pid.role for c in clients} == {
            Role.WRITER, Role.READER, Role.RECONFIGURER}
        assert {pid.role for pid in deployment.servers} == {Role.SERVER}
        assert set(deployment.network.processes) == (
            {c.pid for c in clients} | set(deployment.servers))

    def test_equality_and_hash(self):
        assert writer_id(1) == writer_id(1)
        assert writer_id(1) != writer_id(2)
        assert writer_id(1) != server_id(1)
        assert len({writer_id(1), writer_id(1), writer_id(2)}) == 2

    def test_total_order_is_deterministic(self):
        ids = [writer_id(3), writer_id(1), server_id(0), reader_id(2)]
        ordered = sorted(ids)
        assert ordered == sorted(ids)  # stable under repetition
        assert writer_id(1) < writer_id(2)

    def test_name(self):
        assert writer_id(4).name == "writer-4"
        assert server_id(0).name == "server-0"


class TestConfigIds:
    def test_config_id_factory(self):
        assert config_id(3) == ConfigId("c3")
        assert str(config_id(3)) == "c3"

    def test_ordering(self):
        assert ConfigId("a") < ConfigId("b")


process_ids = st.builds(ProcessId, st.sampled_from(Role), st.integers(0, 50))
config_ids = st.builds(ConfigId, st.text("abc0123/", min_size=1, max_size=4))


class TestIdentityContract:
    """One object per ``(role, index)`` / ``name``: equality is identity and
    hashing is ``object.__hash__``, so every id-keyed probe stays in C."""

    @given(st.sampled_from(Role), st.integers(0, 10**6))
    def test_every_spelling_returns_the_same_object(self, role, index):
        pid = ProcessId(role, index)
        assert pid is ProcessId(role=role, index=index)

    def test_helpers_and_config_spellings_are_interned_too(self):
        assert writer_id(7) is ProcessId(Role.WRITER, 7)
        assert server_id(7) is ProcessId(role=Role.SERVER, index=7)
        assert server_id(7) is not writer_id(7)
        assert config_id(3) is ConfigId("c3") is ConfigId(name="c3")
        assert ConfigId("st0/k1") is ConfigId("st0/k1")

    @given(st.sampled_from(Role), st.integers(0, 10**6))
    def test_a_process_name_parses_back_to_the_same_object(self, role, index):
        pid = ProcessId(role, index)
        value, _, number = pid.name.rpartition("-")
        assert ProcessId(Role(value), int(number)) is pid

    @given(config_ids)
    def test_a_config_name_parses_back_to_the_same_object(self, cfg_id):
        assert ConfigId(str(cfg_id)) is cfg_id

    def test_names_are_distinct_across_roles(self):
        names = {ProcessId(role, index).name for role in Role for index in range(51)}
        assert len(names) == len(Role) * 51

    @pytest.mark.parametrize("identifier", [reader_id(2), ConfigId("st1/key-9")],
                             ids=["ProcessId", "ConfigId"])
    def test_copies_and_unpickling_return_the_same_object(self, identifier):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(identifier, protocol)) is identifier
        assert copy.copy(identifier) is identifier
        assert copy.deepcopy(identifier) is identifier
        assert copy.deepcopy({"nested": [identifier]})["nested"][0] is identifier

    def test_round_trip_through_another_process(self):
        # The child re-interns what it unpickles in its own table; what
        # comes back is re-interned here, onto the original objects.
        sent = [reconfigurer_id(1), ConfigId("c41"), server_id(0)]
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            returned = pool.apply_async(copy.copy, (sent,)).get(timeout=60)
        assert len(returned) == len(sent)
        assert all(back is original for back, original in zip(returned, sent))

    @pytest.mark.parametrize("identifier,attribute", [
        (writer_id(1), "index"), (writer_id(1), "role"), (writer_id(1), "name"),
        (writer_id(1), "sort_key"), (writer_id(1), "brand_new"),
        (config_id(1), "name"), (config_id(1), "brand_new")])
    def test_identifiers_are_immutable(self, identifier, attribute):
        with pytest.raises(AttributeError):
            setattr(identifier, attribute, 5)
        with pytest.raises(AttributeError):
            delattr(identifier, attribute)
        assert not hasattr(identifier, "__dict__")
        assert writer_id(1).sort_key == ("writer", 1) and config_id(1).name == "c1"

    @given(st.lists(process_ids, max_size=12))
    def test_process_ids_sort_by_role_value_then_index(self, pids):
        assert sorted(pids) == sorted(pids, key=lambda pid: (pid.role.value, pid.index))
        for a, b in zip(pids, pids[1:]):
            assert (a < b) == (a.sort_key < b.sort_key)
            assert (a <= b) == (a.sort_key <= b.sort_key)
            assert (a > b) == (a.sort_key > b.sort_key)
            assert (a >= b) == (a.sort_key >= b.sort_key)

    @given(st.lists(config_ids, max_size=12))
    def test_config_ids_sort_by_name(self, cfg_ids):
        assert sorted(cfg_ids) == sorted(cfg_ids, key=lambda cfg_id: cfg_id.name)

    def test_the_two_classes_do_not_compare(self):
        with pytest.raises(TypeError):
            writer_id(0) < config_id(0)
        with pytest.raises(TypeError):
            config_id(0) >= 3
        assert writer_id(0) != config_id(0)

    def test_repr_and_str_are_unchanged(self):
        assert repr(writer_id(4)) == "ProcessId(role=<Role.WRITER: 'writer'>, index=4)"
        assert repr(ConfigId("st2/k")) == "ConfigId(name='st2/k')"
        assert str(writer_id(4)) == f"{writer_id(4)}" == writer_id(4).name == "writer-4"
        assert str(ConfigId("st2/k")) == "st2/k"

    @pytest.mark.parametrize("cls", [ProcessId, ConfigId])
    def test_hashing_and_equality_are_objects_own(self, cls):
        assert cls.__hash__ is object.__hash__
        assert cls.__eq__ is object.__eq__
        assert cls.__ne__ is object.__ne__

    def test_throw_away_identifiers_are_not_kept_alive(self):
        gc.collect()
        configs, processes = len(ids._CONFIG_IDS), len(ids._PROCESS_IDS)
        for index in range(10_000):
            ConfigId(f"throw-away-{index}")
            ProcessId(Role.AUXILIARY, 10**9 + index)
        gc.collect()
        assert len(ids._CONFIG_IDS) == configs
        assert len(ids._PROCESS_IDS) == processes
        # ... while a held identifier keeps its entry, and its identity.
        held = ConfigId("held")
        gc.collect()
        assert ConfigId("held") is held and len(ids._CONFIG_IDS) == configs + 1

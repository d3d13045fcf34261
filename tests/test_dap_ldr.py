"""Unit tests for the LDR DAP (Algorithm 13)."""

from __future__ import annotations

import pytest

from repro.common.ids import config_id, server_id, writer_id
from repro.common.tags import BOTTOM_TAG, Tag, TagValue
from repro.common.values import Value
from repro.config.configuration import Configuration
from repro.core.deployment import AresDeployment
from repro.dap.ldr import (
    GET_DATA,
    LdrServerState,
    PUT_DATA,
    PUT_METADATA,
    QUERY_TAG_LOCATION,
)
from repro.net.latency import FixedLatency
from repro.net.message import request
from repro.spec.properties import check_dap_properties


def dap(dep, client):
    """``client``'s DAP client for the deployment's one configuration."""
    return client.dap_for(dep.initial_configuration)


def make_config(directories=3, replicas=3):
    dirs = [server_id(i) for i in range(directories)]
    reps = [server_id(directories + i) for i in range(replicas)]
    return Configuration.ldr(config_id(0), dirs, reps)


class TestLdrServerState:
    def test_roles_detected(self):
        cfg = make_config()
        directory_state = LdrServerState(cfg, server_id(0))
        replica_state = LdrServerState(cfg, server_id(4))
        assert directory_state.is_directory and not directory_state.is_replica
        assert replica_state.is_replica and not replica_state.is_directory

    def test_metadata_update_keeps_highest_tag(self):
        cfg = make_config()
        state = LdrServerState(cfg, server_id(0))
        high = Tag(5, writer_id(0))
        low = Tag(2, writer_id(0))
        state.handle(writer_id(0), request(PUT_METADATA, 1, tag=high, location=(server_id(3),)))
        state.handle(writer_id(0), request(PUT_METADATA, 2, tag=low, location=(server_id(4),)))
        reply = state.handle(writer_id(0), request(QUERY_TAG_LOCATION, 3))
        assert reply["tag"] == high
        assert reply["location"] == (server_id(3),)

    def test_replica_stores_values_by_tag(self):
        cfg = make_config()
        state = LdrServerState(cfg, server_id(3))
        tag = Tag(1, writer_id(0))
        state.handle(writer_id(0), request(PUT_DATA, 1, tag=tag, value=Value.of_size(30, label="x")))
        reply = state.handle(writer_id(0), request(GET_DATA, 2, tag=tag))
        assert reply["value"].label == "x"
        assert reply.data_bytes == 30

    def test_get_data_answers_only_the_asked_tag(self):
        cfg = make_config()
        state = LdrServerState(cfg, server_id(3))
        known = Tag(1, writer_id(0))
        newer = Tag(2, writer_id(0))
        state.handle(writer_id(0), request(PUT_DATA, 1, tag=known, value=Value.of_size(10, label="known")))
        state.handle(writer_id(0), request(PUT_DATA, 2, tag=newer, value=Value.of_size(10, label="newer")))
        assert state.handle(writer_id(0), request(GET_DATA, 3, tag=Tag(9, writer_id(1)))) is None
        reply = state.handle(writer_id(0), request(GET_DATA, 4, tag=known))
        assert reply["tag"] == known
        assert reply["value"].label == "known"

    def test_directory_storage_not_counted(self):
        cfg = make_config()
        state = LdrServerState(cfg, server_id(0))
        assert state.storage_data_bytes() == 0


class TestLdrPrimitives:
    def _deployment(self, **kwargs):
        kwargs.setdefault("record_dap", True)
        kwargs.setdefault("num_writers", 2)
        kwargs.setdefault("num_readers", 2)
        # LDR takes the first half of the servers as directories: 4 + 4.
        return AresDeployment(initial_dap="ldr", num_servers=8, num_reconfigurers=0,
                              latency=FixedLatency(1.0), **kwargs)

    def test_put_then_get_round_trip(self):
        dep = self._deployment()
        writer, reader = dep.writers[0], dep.readers[0]
        pair = TagValue(Tag(1, writer.pid), Value.of_size(100, label="doc"))
        dep.sim.run_until_complete(writer.spawn(dap(dep, writer).put_data(pair)))
        result = dep.sim.run_until_complete(reader.spawn(dap(dep, reader).get_data()))
        assert result.tag == pair.tag
        assert result.value.label == "doc"

    def test_initial_read_returns_bottom(self):
        dep = self._deployment()
        reader = dep.readers[0]
        result = dep.sim.run_until_complete(reader.spawn(dap(dep, reader).get_data()))
        assert result.tag == BOTTOM_TAG

    def test_read_transfers_value_only_once(self):
        # LDR's read fetches the value from f+1 replicas but only one replies
        # with the data before the threshold-1 gather resolves; the bulk of the
        # read is metadata traffic (that is the point of the algorithm).
        dep = self._deployment()
        writer, reader = dep.writers[0], dep.readers[0]
        value_size = 10_000
        pair = TagValue(Tag(1, writer.pid), Value.of_size(value_size, label="big"))
        dep.sim.run_until_complete(writer.spawn(dap(dep, writer).put_data(pair)))
        before = dep.stats.by_kind("LDR-DATA").data_bytes
        dep.sim.run_until_complete(reader.spawn(dap(dep, reader).get_data()))
        dep.sim.run()
        after = dep.stats.by_kind("LDR-DATA").data_bytes
        transferred = after - before
        # At most f+1 replicas answer with the full value.
        cfg = dep.initial_configuration
        assert transferred <= (cfg.ldr_f + 1) * value_size
        assert transferred >= value_size

    def test_register_operations_and_dap_properties(self):
        dep = self._deployment()
        for _ in range(2):
            dep.write(dep.writers[0].next_value(64), 0)
            dep.read(0)
            dep.write(dep.writers[1].next_value(64), 1)
            dep.read(1)
        assert check_dap_properties(dep.dap_recorder) == []

    def test_agreed_reads_skip_propagation(self):
        # Template A2's read (get-data only) is what an ARES read whose
        # directory majority agrees runs: LDR's get-data does its own helping,
        # i.e. it satisfies property C3.
        dep = self._deployment(num_writers=1, num_readers=1)
        dep.write(dep.writers[0].next_value(32), 0)
        value = dep.read(0)
        assert value.label == "writer-0:1"
        reader = dep.readers[0]
        pair = dep.sim.run_until_complete(reader.spawn(dap(dep, reader).get_data()))
        assert pair.value.label == "writer-0:1"
        put_calls = dep.dap_recorder.calls_for(dep.initial_configuration.cfg_id, "put-data")
        assert len(put_calls) == 1  # only the write's put-data
        violations = check_dap_properties(dep.dap_recorder, check_c3=True)
        assert violations == []

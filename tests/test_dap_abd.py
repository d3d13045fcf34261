"""Unit tests for the ABD DAP (Algorithm 12)."""

from __future__ import annotations

import pytest

from repro.common.ids import config_id, server_id, writer_id
from repro.common.tags import BOTTOM_TAG, Tag, TagValue
from repro.common.values import BOTTOM_VALUE, Value
from repro.config.configuration import Configuration
from repro.core.deployment import AresDeployment
from repro.dap.abd import AbdServerState, QUERY_DATA, QUERY_TAG, WRITE
from repro.net.latency import FixedLatency
from repro.net.message import request
from repro.spec.properties import check_dap_properties


def dap(dep, client):
    """``client``'s DAP client for the deployment's one configuration."""
    return client.dap_for(dep.initial_configuration)


class TestAbdServerState:
    def _state(self, n=3):
        servers = [server_id(i) for i in range(n)]
        cfg = Configuration.abd(config_id(0), servers)
        return AbdServerState(cfg, servers[0])

    def test_initial_state(self):
        state = self._state()
        assert state.tag == BOTTOM_TAG
        assert state.value == BOTTOM_VALUE
        assert state.storage_data_bytes() == 0

    def test_write_with_higher_tag_overwrites(self):
        state = self._state()
        tag = Tag(1, writer_id(0))
        value = Value.of_size(10, label="x")
        state.handle(writer_id(0), request(WRITE, 1, tag=tag, value=value))
        assert state.tag == tag
        assert state.value == value
        assert state.storage_data_bytes() == 10

    def test_write_with_lower_tag_ignored(self):
        state = self._state()
        high = Tag(5, writer_id(0))
        low = Tag(2, writer_id(1))
        state.handle(writer_id(0), request(WRITE, 1, tag=high, value=Value.of_size(10, label="hi")))
        state.handle(writer_id(1), request(WRITE, 2, tag=low, value=Value.of_size(20, label="lo")))
        assert state.tag == high
        assert state.value.label == "hi"

    def test_query_tag_reply(self):
        state = self._state()
        response = state.handle(writer_id(0), request(QUERY_TAG, 1))
        assert response["tag"] == BOTTOM_TAG
        assert response.in_reply_to == 1

    def test_query_data_reply_carries_value_bytes(self):
        state = self._state()
        tag = Tag(1, writer_id(0))
        state.handle(writer_id(0), request(WRITE, 1, tag=tag, value=Value.of_size(64, label="x")))
        response = state.handle(writer_id(0), request(QUERY_DATA, 2))
        assert response["tag"] == tag
        assert response.data_bytes == 64

    def test_unknown_kind_ignored(self):
        state = self._state()
        assert state.handle(writer_id(0), request("SOMETHING-ELSE", 1)) is None


class TestAbdPrimitives:
    def _deployment(self, **kwargs):
        kwargs.setdefault("record_dap", True)
        kwargs.setdefault("num_writers", 2)
        kwargs.setdefault("num_readers", 2)
        return AresDeployment(initial_dap="abd", num_servers=5, num_reconfigurers=0,
                              latency=FixedLatency(1.0), **kwargs)

    def test_get_tag_reflects_completed_put(self):
        dep = self._deployment()
        writer = dep.writers[0]
        pair = TagValue(Tag(3, writer.pid), Value.of_size(8, label="v"))
        dep.sim.run_until_complete(writer.spawn(dap(dep, writer).put_data(pair)))
        tag = dep.sim.run_until_complete(writer.spawn(dap(dep, writer).get_tag()))
        assert tag >= pair.tag

    def test_get_data_returns_put_pair(self):
        dep = self._deployment()
        writer, reader = dep.writers[0], dep.readers[0]
        pair = TagValue(Tag(2, writer.pid), Value.of_size(32, label="payload"))
        dep.sim.run_until_complete(writer.spawn(dap(dep, writer).put_data(pair)))
        result = dep.sim.run_until_complete(reader.spawn(dap(dep, reader).get_data()))
        assert result.tag == pair.tag
        assert result.value.label == "payload"

    def test_get_data_initially_returns_bottom(self):
        dep = self._deployment()
        reader = dep.readers[0]
        result = dep.sim.run_until_complete(reader.spawn(dap(dep, reader).get_data()))
        assert result.tag == BOTTOM_TAG
        assert result.value.label == "v0"

    def test_put_data_survives_minority_crashes(self):
        dep = self._deployment()
        dep.servers[list(dep.servers)[0]].crash()
        dep.servers[list(dep.servers)[1]].crash()
        writer = dep.writers[0]
        pair = TagValue(Tag(1, writer.pid), Value.of_size(8, label="v"))
        dep.sim.run_until_complete(writer.spawn(dap(dep, writer).put_data(pair)))
        reader = dep.readers[0]
        result = dep.sim.run_until_complete(reader.spawn(dap(dep, reader).get_data()))
        assert result.value.label == "v"

    def test_dap_properties_hold_over_sequential_workload(self):
        dep = self._deployment()
        for round_number in range(3):
            dep.write(dep.writers[0].next_value(16), 0)
            dep.read(0)
            dep.write(dep.writers[1].next_value(16), 1)
            dep.read(1)
        assert check_dap_properties(dep.dap_recorder) == []

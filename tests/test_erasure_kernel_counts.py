"""Exact work counts of the erasure kernel (deterministic, so noise-free).

The counts are taken by wrapping :func:`repro.erasure.gf256.gf_combine`
where :mod:`repro.erasure.rs` looks it up -- ``src/`` carries no counter.
A *row combination* is one call of the primitive (one output shard); a
*table multiply* is one coefficient outside ``{0, 1}``, i.e. one
``bytes.translate`` over a shard.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chaos.schedule import Schedule
from repro.common.ids import server_id, writer_id
from repro.common.tags import BOTTOM_TAG, Tag
from repro.common.values import Value
from repro.erasure import rs
from repro.erasure.rs import ReedSolomonCode
from repro.net.latency import UniformLatency
from repro.registers.static import StaticRegisterDeployment
from repro.store import ShardSpec, StoreDeployment, StoreSpec
from repro.workloads.generator import WorkloadSpec
from repro.workloads.scenarios import ChaosScenario, run_scenario_instance


@dataclasses.dataclass
class KernelCounts:
    combinations: int = 0
    table_multiplies: int = 0
    encodes: int = 0
    single_encodes: int = 0
    decodes: int = 0

    def take(self) -> tuple:
        """``(row combinations, table multiplies)`` since the last take."""
        taken = (self.combinations, self.table_multiplies)
        self.combinations = self.table_multiplies = 0
        return taken


@pytest.fixture
def kernel(monkeypatch) -> KernelCounts:
    counts = KernelCounts()
    combine = rs.gf_combine

    def counting_combine(coefficients, shards):
        counts.combinations += 1
        counts.table_multiplies += sum(1 for c in coefficients if c not in (0, 1))
        return combine(coefficients, shards)

    monkeypatch.setattr(rs, "gf_combine", counting_combine)
    for method, field in (("encode", "encodes"), ("encode_one", "single_encodes"),
                          ("decode", "decodes")):
        def counting(self, *args, _inner=getattr(ReedSolomonCode, method), _field=field,
                     **kwargs):
            setattr(counts, _field, getattr(counts, _field) + 1)
            return _inner(self, *args, **kwargs)
        monkeypatch.setattr(ReedSolomonCode, method, counting)
    return counts


class TestRowCombinationsPerCall:
    def test_encode_combines_once_per_parity_row(self, kernel):
        for n, k in [(6, 4), (12, 8), (5, 5), (3, 1)]:
            ReedSolomonCode(n, k).encode(Value.of_size(1000))
            assert kernel.take()[0] == n - k

    def test_encode_one_of_a_data_index_is_a_slice(self, kernel):
        code = ReedSolomonCode(6, 4)
        value = Value.of_size(1000)
        for index in range(4):
            code.encode_one(value, index)
        assert kernel.take() == (0, 0)
        for index in (4, 5):
            code.encode_one(value, index)
            assert kernel.take()[0] == 1

    def test_encode_combines_only_rows_no_known_element_covers(self, kernel):
        code = ReedSolomonCode(12, 8)
        value = Value.of_size(4096, label="v")
        elements = code.encode(value)
        kernel.take()
        for known in ((), elements[:8], elements[:9], elements[3:11], elements[8:], elements):
            assert code.encode(value, known) == elements
            missing_parity = 4 - sum(1 for element in known if element.index >= 8)
            assert kernel.take() == (missing_parity, 8 * missing_parity)

    @pytest.mark.parametrize("survivors,missing", [
        ((0, 1, 2, 3), 0), ((0, 1, 2, 4), 1), ((1, 2, 3, 5), 1),
        ((2, 3, 4, 5), 2), ((0, 3, 4, 5), 2)])
    def test_decode_combines_once_per_missing_data_shard(self, kernel, survivors, missing):
        code = ReedSolomonCode(6, 4)
        value = Value.of_size(4096, label="v")
        elements = code.encode(value)
        kernel.take()
        for _ in range(2):                      # cold, then warm
            assert code.decode([elements[i] for i in survivors]).payload == value.payload
            assert kernel.take()[0] == missing

    def test_decode_from_parity_heavy_set_of_a_wide_code(self, kernel):
        code = ReedSolomonCode(12, 8)
        value = Value.of_size(4096, label="v")
        elements = code.encode(value)
        kernel.take()
        assert code.decode(elements[4:]).payload == value.payload
        assert kernel.take() == (4, 32)         # dense rows: 4 x 8 translates


class TestTreasReadRowCombinations:
    """One read of a bare ``[6, 4]`` register: ``get-data`` then ``put-data``.

    The reader computes each coded element it was not sent exactly once --
    a missing data element in ``decode``, a missing parity element in the
    write-back -- so a read costs as many row combinations as elements its
    quorum lacked (before: the missing data elements plus two per read).
    """

    @staticmethod
    def _register(holders):
        """A register whose servers ``holders`` store one written pair."""
        deployment = StaticRegisterDeployment.treas(
            num_servers=6, k=4, delta=2, num_writers=1, num_readers=1)
        value = Value.of_size(4096, label="v")
        tag = Tag(1, writer_id(0))
        elements = deployment.configuration.code.encode(value)
        for index in holders:
            deployment.servers[server_id(index)].dap_state.insert(tag, elements[index])
        return deployment, tag, elements

    @staticmethod
    def _read(deployment, kernel):
        """``(pair, decode combinations, write-back combinations)`` of one read."""
        reader = deployment.readers[0]
        kernel.take()
        pair = deployment.sim.run_until_complete(reader.spawn(reader.dap.get_data()))
        decode = kernel.take()[0]
        deployment.sim.run_until_complete(reader.spawn(reader.dap.put_data(pair)))
        return pair, decode, kernel.take()[0]

    @pytest.mark.parametrize("silent", range(6))
    def test_one_silent_server(self, kernel, silent):
        deployment, tag, elements = self._register(holders=range(6))
        deployment.servers[server_id(silent)].crash()
        pair, decode, write_back = self._read(deployment, kernel)
        assert pair.tag == tag
        # Silent data server: its shard is rebuilt in decode and both parity
        # elements were received.  Silent parity server: nothing to rebuild,
        # and its element is the one the write-back has to compute.
        assert (decode, write_back) == ((1, 0) if silent < 4 else (0, 1))

    @pytest.mark.parametrize("silent,lagging,expected", [
        (0, 1, (2, 0)), (3, 4, (1, 1)), (5, 2, (1, 1)), (4, 5, (0, 2))])
    def test_silent_server_and_one_the_element_has_not_reached(
            self, kernel, silent, lagging, expected):
        deployment, tag, elements = self._register(
            holders=[index for index in range(6) if index != lagging])
        deployment.servers[server_id(silent)].crash()
        pair, decode, write_back = self._read(deployment, kernel)
        assert pair.tag == tag
        assert (decode, write_back) == expected
        # The write-back delivered to the lagging server what a fresh encode would.
        lagging_state = deployment.servers[server_id(lagging)].dap_state
        assert lagging_state.coded_element_for(tag) == elements[lagging]

    def test_read_of_the_bottom_tag_is_unchanged(self, kernel):
        deployment, _, _ = self._register(holders=())
        pair, decode, write_back = self._read(deployment, kernel)
        assert pair.tag == BOTTOM_TAG
        # Nothing is decoded, so nothing is remembered: the write-back
        # encodes the (empty) bottom value in full.
        assert (kernel.decodes, decode, write_back) == (0, 0, 2)


def test_treas_store_kernel_work_per_operation(kernel):
    """3 x TREAS [6, 4] store, seed 0: encodes, decodes and translates per op."""
    ops = 320
    scenario = ChaosScenario(
        name="exact_counts_treas_store", description="3x TREAS [6,4] store, no faults",
        dap="store", faults=(),
        deployment=lambda seed: StoreDeployment(StoreSpec(
            shards=(ShardSpec(dap="treas", num_servers=6, k=4, delta=4),) * 3,
            num_writers=4, num_readers=4,
            latency=UniformLatency(1.0, 2.0), seed=seed)),
        schedule=lambda deployment: Schedule([]),
        workload=WorkloadSpec(
            operations_per_writer=ops // 16, operations_per_reader=ops // 16,
            value_size=1024, think_time=0.0, num_keys=64, batch_size=2))
    result = run_scenario_instance(scenario, seed=0, streaming=True)
    assert result.check()[0] is None
    # One encode per write and per read write-back (320), plus the bottom
    # value once per (key, server) state: 64 keys x 6 servers.  No state
    # transfer runs, so encode_one is never called.
    assert (kernel.encodes, kernel.single_encodes) == (ops + 64 * 6, 0)
    # Only reads that found a written tag decode (the bottom tag does not).
    # Three rounds an operation instead of four re-time the run, so 103
    # reads (95 when read-config ran its own round) find a written tag.
    assert kernel.decodes == 103
    # Two parity rows per write and per bottom state; the 103 survivor sets
    # lacked 77 data shards between them, and the 103 write-backs reuse the
    # elements they were decoded from, so they compute only the 26 parity
    # elements their survivor sets lacked (2 x 103 rows when each write-back
    # encoded from scratch).  Every such row of a [6, 4] code is dense.
    assert kernel.combinations == 2 * (kernel.encodes - 103) + 77 + 26 == 1305
    assert kernel.table_multiplies == 4 * kernel.combinations == 5220

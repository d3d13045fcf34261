"""Unit tests for quorum systems, configurations and configuration sequences."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigurationError
from repro.common.ids import config_id, server_id
from repro.config.configuration import Configuration, DapKind
from repro.config.quorums import MajorityQuorums, ThresholdQuorums
from repro.config.sequence import ConfigRecord, ConfigSequence, Status


def servers(count: int, start: int = 0):
    return [server_id(start + i) for i in range(count)]


class TestMajorityQuorums:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (9, 5)])
    def test_quorum_size(self, n, expected):
        assert MajorityQuorums(servers(n)).quorum_size == expected

    def test_is_quorum(self):
        system = MajorityQuorums(servers(5))
        assert system.is_quorum(servers(3))
        assert not system.is_quorum(servers(2))

    def test_foreign_servers_do_not_count(self):
        system = MajorityQuorums(servers(5))
        outsiders = servers(3, start=100)
        assert not system.is_quorum(outsiders)

    @given(st.integers(1, 30))
    def test_any_two_majorities_intersect(self, n):
        system = MajorityQuorums(servers(n))
        assert system.intersection_lower_bound() >= 1

    def test_duplicate_servers_rejected(self):
        with pytest.raises(ConfigurationError):
            MajorityQuorums([server_id(0), server_id(0)])

    def test_max_crash_failures(self):
        assert MajorityQuorums(servers(5)).max_crash_failures() == 2
        assert MajorityQuorums(servers(4)).max_crash_failures() == 1


class TestThresholdQuorums:
    @pytest.mark.parametrize("n,k,expected", [(3, 2, 3), (5, 3, 4), (6, 4, 5), (9, 6, 8), (11, 7, 9)])
    def test_treas_threshold(self, n, k, expected):
        system = ThresholdQuorums.for_treas(servers(n), k)
        assert system.quorum_size == expected

    @given(st.integers(3, 30))
    def test_treas_quorums_intersect_in_k_servers(self, n):
        k = max(1, (2 * n) // 3)
        system = ThresholdQuorums.for_treas(servers(n), k)
        # Two quorums of size ceil((n+k)/2) intersect in >= k servers.
        assert system.intersection_lower_bound() >= k

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            ThresholdQuorums(servers(3), 0)
        with pytest.raises(ConfigurationError):
            ThresholdQuorums(servers(3), 4)


class TestConfigurationFactories:
    def test_abd_configuration(self):
        cfg = Configuration.abd(config_id(0), servers(5))
        assert cfg.dap is DapKind.ABD
        assert cfg.n == 5
        assert cfg.k == 1
        assert cfg.quorum_size == 3
        assert cfg.max_crash_failures() == 2

    def test_treas_configuration_defaults(self):
        cfg = Configuration.treas(config_id(0), servers(6))
        assert cfg.dap is DapKind.TREAS
        assert cfg.k == 4  # ceil(2n/3)
        assert cfg.quorum_size == 5  # ceil((n+k)/2)
        assert cfg.max_crash_failures() == 1

    def test_treas_explicit_k(self):
        cfg = Configuration.treas(config_id(0), servers(9), k=5, delta=3)
        assert cfg.k == 5
        assert cfg.delta == 3
        assert cfg.quorum_size == 7
        assert cfg.max_crash_failures() == 2

    def test_treas_liveness_constraint(self):
        # k must exceed n/3
        with pytest.raises(ConfigurationError):
            Configuration.treas(config_id(0), servers(9), k=3)
        Configuration.treas(config_id(0), servers(9), k=4)  # fine

    def test_treas_invalid_k(self):
        with pytest.raises(ConfigurationError):
            Configuration.treas(config_id(0), servers(4), k=5)

    def test_ldr_configuration(self):
        cfg = Configuration.ldr(config_id(0), servers(3), servers(5, start=3))
        assert cfg.dap is DapKind.LDR
        assert cfg.n == 8
        assert cfg.ldr_f == 2
        assert set(cfg.ldr_directories).isdisjoint(cfg.ldr_replicas)

    def test_ldr_consensus_quorums_are_directory_majorities(self):
        # nextC, put-config and Paxos live on the directories, which every
        # LDR operation reaches anyway.
        cfg = Configuration.ldr(config_id(0), servers(3), servers(5, start=3))
        assert cfg.consensus_quorums.servers == list(cfg.ldr_directories)
        assert cfg.consensus_quorums.quorum_size == cfg.quorum_size == 2

    @pytest.mark.parametrize("dap", ["abd", "treas"])
    def test_other_consensus_quorums_are_majorities_of_all_servers(self, dap):
        cfg = Configuration.of_kind(dap, config_id(0), servers(6))
        assert cfg.consensus_quorums.servers == list(cfg.servers)
        assert cfg.consensus_quorums.quorum_size == 4

    def test_ldr_overlapping_roles_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration.ldr(config_id(0), servers(3), servers(3))

    def test_ldr_f_too_large(self):
        with pytest.raises(ConfigurationError):
            Configuration.ldr(config_id(0), servers(3), servers(3, start=3), f=2)

    def test_code_server_count_must_match(self):
        from repro.erasure.rs import ReedSolomonCode
        from repro.config.quorums import MajorityQuorums as MQ

        with pytest.raises(ConfigurationError):
            Configuration(
                cfg_id=config_id(1), servers=tuple(servers(4)), dap=DapKind.TREAS,
                code=ReedSolomonCode(5, 3), quorums=MQ(servers(4)),
            )

    def test_empty_and_duplicate_servers_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration.abd(config_id(0), [])
        with pytest.raises(ConfigurationError):
            Configuration.abd(config_id(0), [server_id(0), server_id(0)])

    def test_negative_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration.treas(config_id(0), servers(6), delta=-1)

    def test_server_index(self):
        cfg = Configuration.treas(config_id(0), servers(5))
        assert cfg.server_index(server_id(3)) == 3
        with pytest.raises(ConfigurationError):
            cfg.server_index(server_id(42))

    def test_describe_mentions_parameters(self):
        cfg = Configuration.treas(config_id(7), servers(6), k=4, delta=2)
        text = cfg.describe()
        assert "c7" in text and "n=6" in text and "k=4" in text


class TestConfigSequence:
    def _initial(self):
        return Configuration.abd(config_id(0), servers(3))

    def test_initial_state(self):
        seq = ConfigSequence(self._initial())
        assert len(seq) == 1
        assert seq.mu == 0
        assert seq.nu == 0
        assert seq[0].status is Status.FINALIZED

    def test_append_and_finalize(self):
        seq = ConfigSequence(self._initial())
        c1 = Configuration.treas(config_id(1), servers(6, start=3))
        index = seq.append(ConfigRecord(c1, Status.PENDING))
        assert index == 1
        assert seq.mu == 0 and seq.nu == 1
        seq.finalize(1)
        assert seq.mu == 1
        assert seq.last_finalized().cfg_id == config_id(1)

    def test_duplicate_configuration_rejected(self):
        seq = ConfigSequence(self._initial())
        c1 = Configuration.treas(config_id(1), servers(6, start=3))
        seq.append(ConfigRecord(c1, Status.PENDING))
        with pytest.raises(ConfigurationError):
            seq.append(ConfigRecord(c1, Status.PENDING))

    def test_set_record_extends_or_upgrades(self):
        seq = ConfigSequence(self._initial())
        c1 = Configuration.treas(config_id(1), servers(6, start=3))
        seq.set_record(1, ConfigRecord(c1, Status.PENDING))
        assert seq[1].status is Status.PENDING
        seq.set_record(1, ConfigRecord(c1, Status.FINALIZED))
        assert seq[1].status is Status.FINALIZED
        # A finalized entry is never downgraded back to pending.
        seq.set_record(1, ConfigRecord(c1, Status.PENDING))
        assert seq[1].status is Status.FINALIZED

    def test_set_record_uniqueness_violation(self):
        seq = ConfigSequence(self._initial())
        c1 = Configuration.treas(config_id(1), servers(6, start=3))
        c_other = Configuration.abd(config_id(2), servers(3, start=9))
        seq.set_record(1, ConfigRecord(c1, Status.PENDING))
        with pytest.raises(ConfigurationError):
            seq.set_record(1, ConfigRecord(c_other, Status.PENDING))

    def test_set_record_gap_rejected(self):
        seq = ConfigSequence(self._initial())
        c1 = Configuration.treas(config_id(1), servers(6, start=3))
        with pytest.raises(ConfigurationError):
            seq.set_record(5, ConfigRecord(c1, Status.PENDING))

    def test_prefix_order(self):
        seq_a = ConfigSequence(self._initial())
        seq_b = ConfigSequence(self._initial())
        c1 = Configuration.treas(config_id(1), servers(6, start=3))
        c2 = Configuration.abd(config_id(2), servers(3, start=9))
        seq_a.append(ConfigRecord(c1, Status.PENDING))
        seq_b.append(ConfigRecord(c1, Status.FINALIZED))
        seq_b.append(ConfigRecord(c2, Status.PENDING))
        assert seq_a.is_prefix_of(seq_b)
        assert not seq_b.is_prefix_of(seq_a)

    def test_pending_suffix(self):
        seq = ConfigSequence(self._initial())
        c1 = Configuration.treas(config_id(1), servers(6, start=3))
        c2 = Configuration.abd(config_id(2), servers(3, start=9))
        seq.append(ConfigRecord(c1, Status.FINALIZED))
        seq.append(ConfigRecord(c2, Status.PENDING))
        suffix = seq.pending_suffix()
        assert [r.config.cfg_id for r in suffix] == [config_id(1), config_id(2)]

    def test_copy_is_independent(self):
        seq = ConfigSequence(self._initial())
        clone = seq.copy()
        c1 = Configuration.treas(config_id(1), servers(6, start=3))
        clone.append(ConfigRecord(c1, Status.PENDING))
        assert len(seq) == 1
        assert len(clone) == 2

    def test_describe(self):
        seq = ConfigSequence(self._initial())
        assert "c0" in seq.describe()


class TestConfigSequencePruning:
    """Retirement-side sequence semantics: prune, jump_to, and the µ cache."""

    def _initial(self):
        return Configuration.abd(config_id(0), servers(3))

    def _cfg(self, index: int) -> Configuration:
        return Configuration.abd(config_id(index), servers(3, start=3 * index))

    def _chain(self, length: int) -> ConfigSequence:
        seq = ConfigSequence(self._initial())
        for index in range(1, length):
            seq.append(ConfigRecord(self._cfg(index), Status.FINALIZED))
        return seq

    def test_prune_keeps_absolute_indices(self):
        seq = self._chain(4)
        seq.append(ConfigRecord(self._cfg(4), Status.PENDING))
        assert (seq.mu, seq.nu) == (3, 4)
        dropped = seq.prune(3)
        assert dropped == 3
        assert seq.base == 3
        # µ/ν and index arithmetic keep their paper meaning after the prune.
        assert (seq.mu, seq.nu) == (3, 4)
        assert len(seq) == 5
        assert seq.config_at(3).cfg_id == config_id(3)
        assert seq.last_finalized().cfg_id == config_id(3)
        assert [r.config.cfg_id for r in seq.pending_suffix()] == [
            config_id(3), config_id(4)]
        assert "3 pruned" in seq.describe()

    def test_pruned_index_access_raises(self):
        seq = self._chain(3)
        seq.prune(2)
        with pytest.raises(ConfigurationError):
            seq.config_at(0)
        with pytest.raises(ConfigurationError):
            seq.set_record(1, ConfigRecord(self._cfg(1), Status.FINALIZED))

    def test_prune_beyond_mu_rejected(self):
        seq = self._chain(2)
        seq.append(ConfigRecord(self._cfg(2), Status.PENDING))
        with pytest.raises(ConfigurationError):
            seq.prune(2)

    def test_prune_is_idempotent(self):
        seq = self._chain(3)
        assert seq.prune(2) == 2
        assert seq.prune(2) == 0
        assert seq.prune(1) == 0  # already behind the base

    def test_jump_to_rebases_past_unknown_entries(self):
        seq = ConfigSequence(self._initial())
        target = self._cfg(5)
        seq.jump_to(5, ConfigRecord(target, Status.FINALIZED))
        assert (seq.base, seq.mu, seq.nu) == (5, 5, 5)
        assert seq.last_finalized().cfg_id == config_id(5)
        # The walk can continue normally past the jump target.
        seq.set_record(6, ConfigRecord(self._cfg(6), Status.PENDING))
        assert seq.nu == 6

    def test_jump_to_inside_window_degrades_to_set_record(self):
        seq = self._chain(3)
        seq.jump_to(2, ConfigRecord(self._cfg(2), Status.FINALIZED))
        assert seq.base == 0 and len(seq) == 3
        with pytest.raises(ConfigurationError):
            # Uniqueness still enforced on the degraded path.
            seq.jump_to(2, ConfigRecord(self._cfg(9), Status.FINALIZED))

    def test_jump_to_pending_record_rejected(self):
        seq = ConfigSequence(self._initial())
        with pytest.raises(ConfigurationError):
            seq.jump_to(3, ConfigRecord(self._cfg(3), Status.PENDING))

    def test_records_before_and_index_of(self):
        seq = self._chain(4)
        seq.prune(2)
        assert [(i, r.config.cfg_id) for i, r in seq.records_before(3)] == [
            (2, config_id(2))]
        assert seq.index_of(config_id(3)) == 3
        assert seq.index_of(config_id(0)) is None  # pruned
        assert seq.index_of(config_id(99)) is None

    def test_copy_preserves_base_and_mu(self):
        seq = self._chain(3)
        seq.append(ConfigRecord(self._cfg(3), Status.PENDING))
        seq.prune(2)
        clone = seq.copy()
        assert (clone.base, clone.mu, clone.nu) == (seq.base, seq.mu, seq.nu)
        assert clone.is_prefix_of(seq) and seq.is_prefix_of(clone)

    def test_prefix_order_across_different_bases(self):
        long = self._chain(4)
        short = self._chain(3)
        long.prune(3)
        assert short.is_prefix_of(long)
        assert not long.is_prefix_of(short)

    @given(st.lists(st.sampled_from(["append_p", "append_f", "finalize",
                                     "prune", "jump"]),
                    max_size=40))
    def test_mu_cache_matches_backward_scan(self, ops):
        """The cached µ equals the reference scan after any op interleaving."""
        seq = ConfigSequence(self._initial())
        next_index = 1
        for op in ops:
            if op == "append_p":
                seq.append(ConfigRecord(self._cfg(next_index), Status.PENDING))
                next_index += 1
            elif op == "append_f":
                seq.append(ConfigRecord(self._cfg(next_index), Status.FINALIZED))
                next_index += 1
            elif op == "finalize":
                # Finalize the first pending entry, if any (upgrade via
                # set_record half the time to cover both mutators).
                for index in range(seq.base, seq.nu + 1):
                    if seq[index].status is Status.PENDING:
                        if index % 2:
                            seq.finalize(index)
                        else:
                            seq.set_record(index, seq[index].finalized())
                        break
            elif op == "prune":
                seq.prune(seq.mu)
            elif op == "jump":
                target = max(seq.nu + 2, next_index)
                seq.jump_to(target,
                            ConfigRecord(self._cfg(target), Status.FINALIZED))
                next_index = target + 1
            scanned = max(seq.base + offset for offset, record in enumerate(seq.entries())
                          if record.status is Status.FINALIZED)
            assert seq.mu == scanned, f"after {op}: {seq.describe()}"

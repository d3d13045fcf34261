"""Differential tests: streaming verification against the batch checkers.

The streaming stack (``repro.spec.streaming``) must be *equivalent* to the
batch path everywhere it claims a verdict: same pass/fail decision, same
failure classification, and byte-identical signature hashes.  Histories it
cannot decide online must raise :class:`StreamingAmbiguityError` -- never
silently pass.  These tests drive both modes over the scenario registry and
over hand-doctored adversarial histories.
"""

import hashlib
import json
import pathlib

import pytest

from repro.common.errors import (StreamingAmbiguityError, StreamingHistoryError,
                                 StreamingWindowError)
from repro.common.ids import reader_id, writer_id
from repro.common.tags import Tag
from repro.spec import (History, OperationType, SignatureAccumulator,
                        StreamingStats, check_linearizability)
from repro.workloads.scenarios import SCENARIOS, run_scenario

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_signatures.json")
    .read_text())

W0, W1, R0 = writer_id(0), writer_id(1), reader_id(0)
READ, WRITE = OperationType.READ, OperationType.WRITE


def _dual(build):
    """Record the same event script into a batch and a streaming history."""
    batch = History()
    build(batch)
    streaming = History()
    streaming.enable_streaming()
    build(streaming)
    streaming.stream.finalize()
    return batch, streaming


# ======================================================================
# Scenario-registry differential
# ======================================================================

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_streaming_scenario_matches_golden(name):
    """Every registered scenario verifies online and reproduces its golden
    batch signature byte-for-byte."""
    assert name in GOLDEN, f"no golden hash for {name}"
    result = run_scenario(name, seed=0, streaming=True)
    failure, method = result.check()
    assert failure is None, failure
    assert method in ("streaming", "per-key(streaming)")
    assert result.signature_hash() == GOLDEN[name]
    stream = result.history.stream
    assert stream.folded_records == stream.total_records
    # The whole point: the open window stays tiny (registry scenarios peak
    # at 4-17 unfolded records regardless of length).
    assert stream.open_window_peak <= 64


@pytest.mark.parametrize("name,seed", [
    ("abd_crash_minority", 1),
    ("abd_crash_minority", 2),
    ("store_mixed_dap_storm", 1),
    ("store_mixed_dap_storm", 2),
])
def test_streaming_matches_batch_on_extra_seeds(name, seed):
    streaming = run_scenario(name, seed=seed, streaming=True)
    s_failure, _ = streaming.check()
    batch = run_scenario(name, seed=seed)
    b_failure, _ = batch.check()
    assert s_failure == b_failure
    assert streaming.signature_hash() == batch.signature_hash()


# ======================================================================
# Adversarial doctored histories
# ======================================================================

def test_new_old_inversion_fails_both_modes():
    def build(h):
        wa = h.invoke(W0, WRITE, 0.0, value_label="A")
        h.respond(wa, 5.0, tag=Tag(1, W0))
        wb = h.invoke(W0, WRITE, 6.0, value_label="B")
        h.respond(wb, 10.0, tag=Tag(2, W0))
        r1 = h.invoke(R0, READ, 11.0)
        h.respond(r1, 12.0, value_label="B", tag=Tag(2, W0))
        r2 = h.invoke(R0, READ, 13.0)
        h.respond(r2, 14.0, value_label="A", tag=Tag(1, W0))

    batch, streaming = _dual(build)
    assert not check_linearizability(batch).ok
    # Streaming may classify the stale read either as a cluster inversion or
    # as a read of an already-retired value; both are proven violations.
    failure = streaming.stream.linearizability_failure()
    assert failure is not None
    assert "inversion" in failure or "stale" in failure


def test_read_of_unwritten_label_fails_both_modes():
    def build(h):
        r = h.invoke(R0, READ, 0.0)
        h.respond(r, 1.0, value_label="ghost")

    batch, streaming = _dual(build)
    assert not check_linearizability(batch).ok
    failure = streaming.stream.linearizability_failure()
    assert failure is not None and "ghost" in failure


def test_reads_of_failed_write_fail_both_modes():
    def build(h):
        w = h.invoke(W0, WRITE, 0.0, value_label="A")
        r = h.invoke(R0, READ, 1.0)
        h.respond(r, 2.0, value_label="A")
        h.fail(w, 5.0)

    batch, streaming = _dual(build)
    assert not check_linearizability(batch).ok
    assert streaming.stream.linearizability_failure() is not None


def test_failed_write_without_readers_is_fine_in_both_modes():
    def build(h):
        wa = h.invoke(W0, WRITE, 0.0, value_label="A")
        h.respond(wa, 5.0, tag=Tag(1, W0))
        wb = h.invoke(W1, WRITE, 6.0, value_label="B")
        h.fail(wb, 8.0)  # mid-stream client crash, nobody read B
        r = h.invoke(R0, READ, 9.0)
        h.respond(r, 10.0, value_label="A", tag=Tag(1, W0))

    batch, streaming = _dual(build)
    assert check_linearizability(batch).ok
    assert streaming.stream.linearizability_failure() is None
    assert streaming.stream.tag_failure() is None
    assert streaming.stream.failed_operations == 1


def test_initial_read_after_completed_write_fails_both_modes():
    def build(h):
        w = h.invoke(W0, WRITE, 0.0, value_label="A")
        h.respond(w, 5.0, tag=Tag(1, W0))
        r = h.invoke(R0, READ, 6.0)
        h.respond(r, 7.0, value_label="v0")

    batch, streaming = _dual(build)
    assert not check_linearizability(batch).ok
    failure = streaming.stream.linearizability_failure()
    assert failure is not None and "initial value" in failure


def test_duplicate_label_raises_ambiguity():
    """Duplicate labels need the Wing-Gong reference search, which streaming
    cannot run (the records are gone): explicit ambiguity, never a pass."""
    def build(h):
        w1 = h.invoke(W0, WRITE, 0.0, value_label="A")
        h.respond(w1, 1.0)
        w2 = h.invoke(W1, WRITE, 2.0, value_label="A")
        h.respond(w2, 3.0)

    _, streaming = _dual(build)
    with pytest.raises(StreamingAmbiguityError):
        streaming.stream.linearizability_failure()


def test_no_greedy_witness_raises_ambiguity():
    """min_res order fails, no tags for the second candidate: the batch
    reference search decides it (linearizable: B, A, C), streaming must
    raise ambiguity instead of guessing.  The slow unread write C pins the
    fold frontier so A's late read lands inside A's unfolded segment."""
    def build(h):
        wa = h.invoke(W0, WRITE, 0.0, value_label="A")
        wc = h.invoke(W0, WRITE, 5.0, value_label="C")
        wb = h.invoke(W1, WRITE, 10.0, value_label="B")
        h.respond(wa, 15.0)
        h.respond(wb, 40.0)
        r = h.invoke(R0, READ, 60.0)
        h.respond(r, 70.0, value_label="A")
        h.respond(wc, 100.0)

    batch, streaming = _dual(build)
    assert check_linearizability(batch).ok  # the reference search finds B, A, C
    with pytest.raises(StreamingAmbiguityError):
        streaming.stream.linearizability_failure()


def test_tag_order_witness_decides_when_min_res_order_fails():
    """Same shape as above but with protocol tags: the tag-order candidate
    (batch candidate 2) must rescue the verdict online too."""
    def build(h):
        wa = h.invoke(W0, WRITE, 0.0, value_label="A")
        wb = h.invoke(W1, WRITE, 10.0, value_label="B")
        h.respond(wa, 15.0, tag=Tag(2, W0))
        h.respond(wb, 40.0, tag=Tag(1, W1))
        r = h.invoke(R0, READ, 60.0)
        h.respond(r, 70.0, value_label="A", tag=Tag(2, W0))

    batch, streaming = _dual(build)
    assert check_linearizability(batch).ok
    assert streaming.stream.linearizability_failure() is None


# ======================================================================
# Window bound and API guards
# ======================================================================

def test_window_limit_raises():
    h = History()
    h.enable_streaming(window_limit=4)
    h.invoke(W0, WRITE, 0.0, value_label="stuck")  # never responds
    for i in range(3):
        r = h.invoke(R0, READ, 1.0 + i)
        h.respond(r, 1.5 + i, value_label="v0")
    with pytest.raises(StreamingWindowError):
        h.invoke(R0, READ, 10.0)


def test_enable_streaming_requires_empty_history():
    h = History()
    h.invoke(W0, WRITE, 0.0, value_label="A")
    with pytest.raises(StreamingHistoryError):
        h.enable_streaming()
    h2 = History()
    h2.enable_streaming()
    with pytest.raises(StreamingHistoryError):
        h2.enable_streaming()


def test_batch_queries_raise_in_streaming_mode():
    h = History()
    h.enable_streaming()
    w = h.invoke(W0, WRITE, 0.0, value_label="A", key="k0")
    h.respond(w, 1.0, tag=Tag(1, W0))
    for api in (h.operations, h.signature, h.describe, h.keys,
                h.split_by_key, lambda: h.for_key("k0"), lambda: list(h)):
        with pytest.raises(StreamingHistoryError):
            api()
    # The supported surface keeps working.
    assert len(h) == 1
    assert h.is_keyed()
    assert h.signature_hash()


def test_out_of_order_events_raise():
    h = History()
    h.enable_streaming()
    h.invoke(W0, WRITE, 5.0, value_label="A")
    with pytest.raises(StreamingHistoryError):
        h.invoke(W1, WRITE, 3.0, value_label="B")


def test_finalized_stream_rejects_records():
    h = History()
    stream = h.enable_streaming()
    w = h.invoke(W0, WRITE, 0.0, value_label="A")
    h.respond(w, 1.0)
    stream.finalize()
    with pytest.raises(StreamingHistoryError):
        h.invoke(W0, WRITE, 2.0, value_label="B")


# ======================================================================
# Signature accumulator
# ======================================================================

@pytest.mark.parametrize("ops", [0, 1, 2, 5])
def test_signature_hash_matches_batch_bytes(ops):
    """Tuple-repr closing differs at 0/1/n entries; the accumulator must
    reproduce every case."""
    def build(h):
        for i in range(ops):
            w = h.invoke(W0, WRITE, float(i), value_label=f"A{i}", key="k0")
            h.respond(w, i + 0.5, tag=Tag(i + 1, W0))

    batch, streaming = _dual(build)
    assert streaming.signature_hash() == batch.signature_hash()


def test_result_digest_matches_batch_bytes():
    entries = ((1, "writer-0", "write", 0.0, 1.0, "A", None, False),
               (2, "reader-0", "read", 2.0, 3.0, "A", None, False))
    chaos_log = [(12.0, "crash s2"), (20.0, "heal s2")]
    acc = SignatureAccumulator()
    for entry in entries:
        acc.fold(entry)
    expected_history = hashlib.sha256(repr(entries).encode()).hexdigest()
    expected_result = hashlib.sha256(
        repr((entries, tuple(chaos_log))).encode()).hexdigest()
    assert acc.history_digest() == expected_history
    assert acc.result_digest(chaos_log) == expected_result
    # Digest reads must not consume the accumulator.
    assert acc.history_digest() == expected_history


# ======================================================================
# Streaming statistics
# ======================================================================

def test_streaming_stats_exact_moments_and_bounded_sample():
    values = [((i * 2654435761) % 997) / 10.0 for i in range(10_000)]
    stats = StreamingStats(capacity=128, seed=7)
    for v in values:
        stats.add(v)
    assert stats.count == len(values)
    assert stats.max == max(values)
    assert stats.mean == pytest.approx(sum(values) / len(values))
    sample = stats.sample()
    assert len(sample) == 128
    # Deterministic for a fixed arrival sequence and seed.
    again = StreamingStats(capacity=128, seed=7)
    for v in values:
        again.add(v)
    assert again.sample() == sample


# ======================================================================
# Sweep-engine cross-mode gate
# ======================================================================

def test_sweep_streaming_cell_matches_batch_cell():
    from repro.sweep.engine import campaign
    from repro.sweep.grid import parse_grid

    grid = parse_grid("scenarios=abd_crash_minority;seeds=0")
    pooled = campaign(grid, jobs=2, streaming=True)
    serial = campaign(grid, jobs=1)
    assert pooled.ok and serial.ok
    assert pooled.signature_map() == serial.signature_map()
    record = pooled.records[0]
    assert record.checker_method in ("streaming", "per-key(streaming)")

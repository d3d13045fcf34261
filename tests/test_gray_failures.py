"""Gray failures: stochastic chaos, resource governors, retry/backoff.

Covers the continuous-degradation machinery end to end:

* the :class:`~repro.chaos.schedule.Stochastic` schedule primitive (seeded
  Bernoulli gates, the rate-0.0 no-op guarantee, rate quantization);
* resource-exhaustion faults (``DiskFull`` / ``MemoryPressure`` /
  ``QueueExhaustion``) and the server-side admission governor, including the
  explicit NACK path and quorum fail-fast;
* client retry/backoff (budget exhaustion, seeded-deterministic jitter,
  idempotent re-broadcast under NACKs);
* the bounded chaos event log;
* the ``fault_rate`` sweep axis and its inert-axis guard.
"""

from __future__ import annotations

import dataclasses
import random
from types import SimpleNamespace

import pytest

from repro.chaos import (
    ChaosEngine,
    CpuPressure,
    DiskFull,
    Drop,
    During,
    MemoryPressure,
    QueueExhaustion,
    Schedule,
    Stochastic,
)
from repro.chaos.engine import LOG_RECENT, RATE_RESOLUTION
from repro.chaos.resources import queue_limit_rule
from repro.common.errors import (
    RETIRED_CONFIG_REASON,
    QuorumRefusedError,
    RetriesExhaustedError,
    is_retirement_refusal,
)
from repro.common.ids import reader_id, server_id
from repro.common.values import Value
from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.net.latency import FixedLatency, UniformLatency
from repro.net.message import reply, request
from repro.net.network import Network
from repro.sim.core import Simulator
from repro.sim.process import Process, RetryPolicy
from repro.spec.linearizability import check_linearizability
from repro.workloads.scenarios import (
    get_scenario,
    run_scenario_instance,
    scenario_names,
)

GRAY_SCENARIOS = ("abd_gray_degradation", "treas_gray_degradation",
                  "ldr_gray_degradation")


def abd_deployment(seed: int = 0, retry: RetryPolicy = None) -> AresDeployment:
    return AresDeployment(DeploymentSpec(
        num_servers=5, initial_dap="abd", num_writers=1, num_readers=1,
        num_reconfigurers=1, latency=UniformLatency(1.0, 2.0), seed=seed,
        retry=retry))


class _Server(Process):
    """Answers every request one way: ``"echo"`` replies, ``"hole"`` stays
    silent, any other string is the reason of a NACK."""

    def __init__(self, pid, network, answer):
        super().__init__(pid, network)
        self.answer = answer
        self.requests = []

    def on_message(self, src, message):
        self.requests.append(message)
        if self.answer == "echo":
            self.send(src, reply(message))
        elif self.answer != "hole":
            self.send(src, reply(message, kind="SRV-NACK", nack=True,
                                 error=self.answer))


class _Client(Process):
    """Records when it opens each attempt and what reaches ``on_message``."""

    def __init__(self, pid, network):
        super().__init__(pid, network)
        self.opened = []        # (virtual time, request id) per attempt
        self.unsolicited = []   # in_reply_to of every message not routed

    def ping(self, rid):
        self.opened.append((self.sim.now, rid))
        return request("PING", rid)

    def on_message(self, src, message):
        self.unsolicited.append(message.in_reply_to)


def bare_round(policy, answers, latency=1.0, seed=0):
    """A retrying client and one ``_Server`` per answer; no deployment."""
    sim = Simulator(seed=seed)
    network = Network(sim, latency=FixedLatency(latency))
    servers = [_Server(server_id(index), network, answer)
               for index, answer in enumerate(answers)]
    client = _Client(reader_id(0), network)
    client.enable_retries(policy, seed=seed)
    return sim, client, servers


def open_round(client, servers, threshold=2):
    """Open one retried round; returns it and the list that receives the
    virtual time at which it completes."""
    round = client.broadcast_and_gather([s.pid for s in servers], client.ping,
                                        threshold=threshold, label="ping")
    finished = []
    round.add_done_callback(lambda _: finished.append(client.sim.now))
    return round, finished


class TestStochasticSchedule:
    def test_entries_are_validated(self):
        with pytest.raises(ValueError):
            Stochastic(-1.0, 5.0, Drop(1.0), rate=0.1)
        with pytest.raises(ValueError):
            Stochastic(5.0, 5.0, Drop(1.0), rate=0.1)  # empty window
        with pytest.raises(ValueError):
            Stochastic(0.0, 5.0, rate=0.1)  # no faults
        with pytest.raises(ValueError):
            Stochastic(0.0, 5.0, Drop(1.0), rate=1.5)
        with pytest.raises(ValueError):
            Stochastic(0.0, 5.0, Drop(1.0), rate=-0.1)

    def test_schedule_accepts_stochastic_entries(self):
        schedule = Schedule([Stochastic(2, 50, Drop(1.0), rate=0.25)])
        assert "stochastic [2, 50)" in schedule.describe()
        assert "rate=0.25" in schedule.describe()
        with pytest.raises(TypeError):
            Schedule([Drop(1.0)])  # bare fault still rejected

    def test_rate_zero_arms_nothing(self):
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network)
        engine.inject(Schedule([Stochastic(1, 50, Drop(1.0), rate=0.0)]))
        deployment.sim.run_until(10)
        assert not engine.active
        assert not engine.gates
        assert engine.log_total == 0

    def test_rate_zero_run_is_byte_identical_to_no_background(self):
        for name in GRAY_SCENARIOS:
            base = get_scenario(name)
            zero = dataclasses.replace(base, fault_rate=0.0)
            none = dataclasses.replace(base, background=None)
            assert (run_scenario_instance(zero, seed=1).signature()
                    == run_scenario_instance(none, seed=1).signature()), name

    def test_same_seed_same_rate_is_deterministic(self):
        for name in GRAY_SCENARIOS:
            scenario = get_scenario(name)
            assert scenario.fault_rate > 0.0
            first = run_scenario_instance(scenario, seed=7)
            second = run_scenario_instance(scenario, seed=7)
            assert first.signature() == second.signature(), name

    def test_rates_in_one_quantization_step_are_identical(self):
        # The gate coin stream does not depend on the rate, so two rates
        # that quantize to the same step run byte-identically -- the
        # property that makes fault_rate a bisectable step-function axis.
        base = get_scenario("abd_gray_degradation")
        step = RATE_RESOLUTION
        lo = dataclasses.replace(base, fault_rate=0.9 * step)
        hi = dataclasses.replace(base, fault_rate=1.1 * step)
        other = dataclasses.replace(base, fault_rate=2.0 * step)
        assert (run_scenario_instance(lo, seed=0).signature()
                == run_scenario_instance(hi, seed=0).signature())
        assert (run_scenario_instance(lo, seed=0).signature()
                != run_scenario_instance(other, seed=0).signature())

    def test_gates_do_not_perturb_scripted_faults(self):
        # A Stochastic background draws from per-gate RNG streams, never
        # from the engine RNG that scripted probabilistic faults consume.
        def run(with_background: bool):
            deployment = abd_deployment()
            engine = ChaosEngine(deployment.network, seed=0)
            entries = [During(1, 80, Drop(0.3, "s4"))]
            if with_background:
                entries.append(Stochastic(1, 80, Drop(1.0, "s3"), rate=0.5))
            engine.inject(Schedule(entries))
            deployment.write(Value.from_text("x", label="v1"))
            return engine

        quiet = run(False)
        noisy = run(True)
        quiet_scripted = [e for e in quiet.log if "s4" in e[1]]
        noisy_scripted = [e for e in noisy.log if "s4" in e[1]]
        assert quiet_scripted == noisy_scripted


class TestBoundedLog:
    def test_ring_keeps_recent_entries_and_counts_drops(self):
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network)
        for i in range(LOG_RECENT + 40):
            engine.record(f"entry-{i}")
        assert len(engine.log) == LOG_RECENT
        assert engine.log_total == LOG_RECENT + 40
        assert engine.log_dropped == 40
        assert engine.log[-1][1] == f"entry-{LOG_RECENT + 39}"
        assert engine.log[0][1] == "entry-40"

    def test_describe_log_marks_elision_only_when_dropped(self):
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network)
        engine.record("only")
        assert "elided" not in engine.describe_log()
        for i in range(LOG_RECENT + 5):
            engine.record(f"flood-{i}")
        text = engine.describe_log()
        assert "6 earlier entries elided" in text  # "only" + flood-0..4
        assert f"{LOG_RECENT + 6} recorded" in text

    def test_log_signature_is_plain_tuple_until_overflow(self):
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network)
        engine.record("a")
        engine.record("b")
        assert engine.log_signature() == tuple(engine.log)
        for i in range(LOG_RECENT):
            engine.record(f"flood-{i}")
        signature = engine.log_signature()
        assert "elided" in signature[0][1]
        assert signature[1:] == tuple(engine.log)


class TestResourceFaults:
    def test_disk_full_nacks_with_enospc_reason(self):
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network)
        engine.inject(Schedule([During(0.0001, 100, DiskFull())]))
        with pytest.raises(QuorumRefusedError):
            deployment.write(Value.from_text("spill", label="v1"))
        assert "[Errno 28] No space left on device" in engine.describe_log()
        # Tag queries carry no data, so the read control plane still works
        # (it serves the initial bottom value).
        deployment.read()

    def test_memory_pressure_bounds_stored_bytes(self):
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network)
        value = Value.from_text("x" * 64, label="v1")
        deployment.write(value)
        # Budget admits another value the size of v1 (so read write-backs
        # keep working) but not the oversized v2.
        budget = 2 * value.size + 8
        engine.inject(Schedule([
            During(deployment.sim.now + 1, 10_000, MemoryPressure(budget)),
        ]))
        with pytest.raises(QuorumRefusedError):
            deployment.write(Value.from_text("y" * 256, label="v2"))
        for server in deployment.servers.values():
            assert server.storage_data_bytes() <= budget
        assert deployment.read().label == "v1"

    def test_queue_limit_rule_is_a_deterministic_leaky_queue(self):
        rule = queue_limit_rule(limit=2, service_time=10.0)
        server = SimpleNamespace()
        data = SimpleNamespace(request_id=1, data_bytes=64)
        control = SimpleNamespace(request_id=2, data_bytes=0)
        assert rule(server, data, 0.0) is None
        assert rule(server, data, 1.0) is None
        assert "queue full" in rule(server, data, 2.0)
        assert rule(server, control, 2.0) is None  # control plane bypasses
        # The first slot frees at t=10, so a later arrival is admitted.
        assert rule(server, data, 10.5) is None

    def test_queue_exhaustion_sheds_under_concurrency(self):
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network)
        engine.inject(Schedule([
            During(0.0001, 1_000, QueueExhaustion(1, 50.0)),
        ]))
        # Three concurrent writes: with one queue slot per server, only
        # the first data-plane WRITE to arrive is admitted.
        ops = [deployment.spawn_write(Value.from_text(text, label=text))
               for text in ("a", "b", "c")]
        deployment.sim.run_until(900)
        shed = sum(s.governor.shed for s in deployment.servers.values()
                   if s.governor is not None)
        assert shed > 0
        assert any(op.done() and op.exception() is not None for op in ops)

    def test_governor_detaches_when_window_closes(self):
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network)
        engine.inject(Schedule([During(1, 20, DiskFull("s0"))]))
        deployment.sim.run_until(10)
        governor = deployment.servers[engine.resolve("s0")].governor
        assert governor is not None and governor.rules
        deployment.sim.run_until(30)
        assert not governor.rules
        deployment.write(Value.from_text("healed", label="v1"))
        assert deployment.read().label == "v1"

    def test_cpu_pressure_inflates_only_pressured_server_delays(self):
        deployment = abd_deployment()
        engine = ChaosEngine(deployment.network)
        engine.inject(Schedule([During(0.0001, 10_000,
                                       CpuPressure("s0", factor=50.0))]))
        deployment.write(Value.from_text("slow", label="v1"))
        # The write completes without waiting for the pressured server: a
        # majority of un-pressured servers acks first.
        assert deployment.sim.now < 50


class TestRetryBackoff:
    def test_policy_validates(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.5)

    def test_backoff_is_exponential_with_seeded_jitter(self):
        policy = RetryPolicy(attempts=4, base_delay=2.0, multiplier=2.0,
                             jitter=0.5)
        first = [policy.backoff(n, random.Random("gray")) for n in (1, 2, 3)]
        second = [policy.backoff(n, random.Random("gray")) for n in (1, 2, 3)]
        assert first == second  # same seed, same jitter
        for attempt, delay in enumerate(first, start=1):
            base = 2.0 * 2.0 ** (attempt - 1)
            assert base <= delay <= base * 1.5

    def test_refused_quorum_is_retried_until_pressure_heals(self):
        retry = RetryPolicy(attempts=6, timeout=30.0, base_delay=4.0,
                            multiplier=2.0, jitter=0.5)
        deployment = abd_deployment(retry=retry)
        engine = ChaosEngine(deployment.network)
        # Three of five servers refuse writes: the 3-of-5 quorum is
        # unreachable until the window closes, then a retry lands.
        engine.inject(Schedule([
            During(0.0001, 30, DiskFull("s0", "s1", "s2")),
        ]))
        deployment.write(Value.from_text("persistent", label="v1"))
        assert deployment.sim.now > 30
        writer = deployment.writers[0]
        assert writer.retries > 0
        assert writer.nacks_received > 0
        assert deployment.read().label == "v1"
        assert check_linearizability(deployment.history).ok

    def test_nacked_writes_never_duplicate_tag_applications(self):
        retry = RetryPolicy(attempts=6, timeout=30.0, base_delay=4.0,
                            multiplier=2.0, jitter=0.5)
        deployment = abd_deployment(retry=retry)
        engine = ChaosEngine(deployment.network)
        engine.inject(Schedule([
            During(0.0001, 30, DiskFull("s3", "s4")),
            During(0.0001, 30, Drop(0.4)),
        ]))
        tag = deployment.write(Value.from_text("once", label="v1"))
        # Re-broadcast attempts may deliver the same WRITE to a server more
        # than once; the tag comparison makes the apply idempotent, so
        # every server converges to exactly the written tag.
        deployment.sim.run_until(deployment.sim.now + 200)
        cfg = deployment.initial_configuration.cfg_id
        tags = {server.dap_states[cfg].tag
                for server in deployment.servers.values()
                if cfg in server.dap_states}
        assert tags == {tag}
        assert deployment.read().label == "v1"
        assert check_linearizability(deployment.history).ok

    def test_exhausted_budget_raises_clean_operation_error(self):
        retry = RetryPolicy(attempts=2, timeout=10.0, base_delay=1.0,
                            multiplier=2.0, jitter=0.0)
        deployment = abd_deployment(retry=retry)
        engine = ChaosEngine(deployment.network)
        engine.inject(Schedule([During(0.0001, 10_000, DiskFull())]))
        with pytest.raises(RetriesExhaustedError) as excinfo:
            deployment.write(Value.from_text("doomed", label="v1"))
        assert "after 2 attempts" in str(excinfo.value)

    # What one retried round guarantees, on a bare Process (no deployment).
    POLICY = RetryPolicy(attempts=4, timeout=10.0, base_delay=2.0,
                         multiplier=2.0, jitter=0.5)
    NO_JITTER = dataclasses.replace(POLICY, jitter=0.0)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_attempts_open_one_timeout_plus_one_backoff_apart(self, seed):
        sim, client, servers = bare_round(self.POLICY, ["hole"] * 3, seed=seed)
        round, finished = open_round(client, servers)
        sim.run()
        rng = random.Random(f"retry-{seed}-{client.pid.name}")
        expected = [0.0]
        for attempt in (1, 2, 3):
            expected.append(expected[-1] + 10.0
                            + self.POLICY.backoff(attempt, rng))
        assert [at for at, _ in client.opened] == expected     # exact floats
        assert [rid for _, rid in client.opened] == [1, 2, 3, 4]
        assert finished == [expected[-1] + 10.0] and sim.now == finished[0]
        assert client.retries == 3
        with pytest.raises(RetriesExhaustedError) as excinfo:
            round.result()
        assert str(excinfo.value) == (
            "reader-0: ping failed after 4 attempts: QuorumUnavailableError("
            "'reader-0: ping attempt 4 timed out after 10')")

    def test_concurrent_rounds_time_out_at_their_own_deadlines(self):
        policy = dataclasses.replace(self.NO_JITTER, attempts=2)
        sim, client, servers = bare_round(policy, ["hole"] * 3)
        _, first_finished = open_round(client, servers)
        second = []
        sim.schedule(1.0, lambda: second.extend(open_round(client, servers)))
        sim.run()
        # Opened at 0 and 1: timed out at 10 and 11, re-opened 2 later,
        # exhausted at 22 and 23 -- one sweep event serves both.
        assert [at for at, _ in client.opened] == [0.0, 1.0, 12.0, 13.0]
        assert first_finished == [22.0] and second[1] == [23.0]
        assert client.retries == 2

    def test_straggler_reply_reaches_on_message_not_the_new_attempt(self):
        sim, client, servers = bare_round(self.NO_JITTER, ["hole"] * 3)
        round, finished = open_round(client, servers)
        sim.run_until(14.0)              # attempt 2 opened at 12, delivered at 13
        assert [rid for _, rid in client.opened] == [1, 2]
        for server in servers:           # every server answers attempt 1 late
            server.send(client.pid, reply(server.requests[0]))
        sim.run_until(16.0)
        assert client.unsolicited == [1, 1, 1] and not round.done()
        for server in servers[:2]:
            server.send(client.pid, reply(server.requests[1]))
        sim.run()
        assert finished == [17.0] and len(round.result()) == 2
        assert client.retries == 1

    def test_retirement_refusal_surfaces_at_once_pressure_is_retried(self):
        sim, client, servers = bare_round(self.NO_JITTER,
                                          [RETIRED_CONFIG_REASON] * 3)
        round, finished = open_round(client, servers)
        sim.run()
        assert finished == [2.0] and client.retries == 0
        assert is_retirement_refusal(round.exception())
        assert len(client.opened) == 1

        sim, client, servers = bare_round(
            self.NO_JITTER, ["disk-full", "disk-full", RETIRED_CONFIG_REASON])
        round, finished = open_round(client, servers)
        sim.run()
        # Refused at 2, 6, 12 and 22 (backoffs 2, 4 and 8): never a timeout.
        assert [at for at, _ in client.opened] == [0.0, 4.0, 10.0, 20.0]
        assert finished == [22.0] and client.retries == 3
        assert client.nacks_received == 8       # the second refusal decides
        assert isinstance(round.exception(), RetriesExhaustedError)
        assert "QuorumRefusedError" in str(round.exception())

    def test_too_few_live_servers_on_every_attempt_exhausts_the_budget(self):
        sim, client, servers = bare_round(self.NO_JITTER, ["echo"] * 3)
        for server in servers[:2]:
            server.crash()
        round, finished = open_round(client, servers)       # does not raise
        sim.run()
        assert finished == [2.0 + 4.0 + 8.0] and client.retries == 3
        assert client.network.messages_sent == 0 and not client.opened
        with pytest.raises(RetriesExhaustedError, match="only 1 of 3 servers"):
            round.result()

    @pytest.mark.parametrize("restart", [False, True])
    def test_crash_during_backoff_never_sends_again(self, restart):
        sim, client, servers = bare_round(self.NO_JITTER, ["hole"] * 3)
        round, _ = open_round(client, servers)
        sim.schedule(11.0, client.crash)          # timed out at 10, wakes at 12
        if restart:
            sim.schedule(11.5, client.restart)
        sim.run()
        assert len(client.opened) == 1 and not round.done()
        assert client.network.messages_sent == 3 and sim.now == 12.0

    def test_crash_in_flight_disarms_the_round(self):
        sim, client, servers = bare_round(self.NO_JITTER, ["hole"] * 3)
        round, _ = open_round(client, servers)
        sim.schedule(5.0, client.crash)
        sim.schedule(6.0, client.restart)
        sim.run()
        assert len(client.opened) == 1 and not round.done()
        assert client.retries == 0 and sim.now == 6.0       # no sweep at 10

    def test_threshold_zero_resolves_at_once(self):
        sim, client, servers = bare_round(self.POLICY, ["echo"] * 3)
        round, finished = open_round(client, servers, threshold=0)
        assert round.done() and round.result() == [] and finished == [0.0]
        sim.run()
        assert sim.now == 2.0 and client.unsolicited == [1, 1, 1]
        assert client.retries == 0 and sim.cancelled_events == 0

    def test_reply_landing_exactly_on_the_deadline_completes_the_round(self):
        # Request and reply take 5 each: every reply lands on the deadline.
        # The first round's sweep was armed before its replies were sent,
        # the second round's sweep is re-armed (at 10) after -- the rule is
        # the same for both: deliveries of the instant go first.
        sim, client, servers = bare_round(self.POLICY, ["echo"] * 3,
                                          latency=5.0)
        first, first_finished = open_round(client, servers)
        second = []
        sim.schedule(3.0, lambda: second.extend(open_round(client, servers)))
        sim.run()
        assert first_finished == [10.0] and second[1] == [13.0]
        assert len(first.result()) == len(second[0].result()) == 2
        assert client.retries == 0 and len(client.opened) == 2

    def test_reply_after_the_deadline_loses(self):
        sim, client, servers = bare_round(self.NO_JITTER, ["echo"] * 3,
                                          latency=5.0 + 1e-9)
        _, finished = open_round(client, servers)
        sim.run_until(11.0)
        assert client.retries == 1 and client.unsolicited == [1, 1, 1]
        assert not finished

    @pytest.mark.parametrize("swap_at, timeout, times_out_at", [
        (5.0, 50.0, 50.0),      # longer: the armed attempt gets the extension
        (5.0, 8.0, 8.0),        # shorter: measured from the attempt's opening
        (9.0, 4.0, 9.0),        # already overdue: times out at the swap
    ])
    def test_policy_swapped_while_armed_governs_armed_rounds(
            self, swap_at, timeout, times_out_at):
        sim, client, servers = bare_round(self.NO_JITTER, ["hole"] * 3)
        open_round(client, servers)
        swapped = dataclasses.replace(self.NO_JITTER, timeout=timeout,
                                      base_delay=3.0)
        sim.schedule(swap_at, lambda: client.enable_retries(swapped))
        sim.run_until(times_out_at + 3.5)
        assert client.opened == [(0.0, 1), (times_out_at + 3.0, 2)]

    def test_last_sweep_does_not_outlive_the_last_coroutine(self):
        sim, client, servers = bare_round(self.POLICY, ["echo"] * 3)

        def session():
            for _ in range(2):
                yield client.broadcast_and_gather(
                    [s.pid for s in servers], client.ping, threshold=2)

        client.spawn(session())
        sim.run()
        # Two rounds of 2 vt; the sweep armed for t=10 is cancelled when the
        # session ends, so it cannot drag the final clock out to 10.
        assert sim.now == 4.0 and sim.cancelled_events == 1
        assert sim.pending_events == 0 and client.retries == 0

    def test_retry_disabled_by_default(self):
        deployment = abd_deployment()
        for client in [*deployment.writers, *deployment.readers,
                       *deployment.reconfigurers]:
            assert client.retry_policy is None

    def test_reconfigurers_never_get_retry(self):
        deployment = abd_deployment(retry=RetryPolicy())
        assert all(c.retry_policy is not None
                   for c in [*deployment.writers, *deployment.readers])
        assert all(r.retry_policy is None for r in deployment.reconfigurers)


class TestFaultRateSweepAxis:
    def test_gray_scenarios_are_registered(self):
        for name in GRAY_SCENARIOS:
            assert name in scenario_names()
            scenario = get_scenario(name)
            assert scenario.background is not None
            assert "gray" in scenario.faults

    def test_fault_rate_is_a_grid_axis(self):
        from repro.sweep.grid import parse_grid
        grid = parse_grid("scenarios=abd_gray_degradation;seeds=0;"
                          "fault_rate=0.0,0.1")
        cells = grid.expand()
        assert [dict(c.params)["fault_rate"] for c in cells] == [0.0, 0.1]

    def test_fault_rate_axis_is_rejected_on_quiet_scenarios(self):
        from repro.sweep.engine import execute_run
        from repro.sweep.grid import RunSpec
        record = execute_run(RunSpec(scenario="abd_crash_minority", seed=0,
                                     params=(("fault_rate", 0.1),)))
        assert not record.ok
        assert "no stochastic background" in record.failure

    def test_fault_rate_override_degrades_monotonically(self):
        from repro.sweep.engine import execute_run
        from repro.sweep.grid import RunSpec

        def ok_at(rate: float) -> bool:
            return execute_run(RunSpec(scenario="abd_gray_degradation",
                                       seed=0,
                                       params=(("fault_rate", rate),))).ok

        assert ok_at(0.0)
        assert not ok_at(0.45)

    def test_fault_rate_is_a_valid_bisect_axis(self):
        from repro.sweep.adaptive import AdaptiveCampaign
        campaign = AdaptiveCampaign(scenario="abd_gray_degradation",
                                    axis="fault_rate", lo=0.0, hi=0.5)
        assert campaign.lo == 0.0 and campaign.hi == 0.5

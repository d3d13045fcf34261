"""Property-based atomicity tests over randomly generated operation schedules.

Hypothesis generates small schedules of concurrent client operations (with
start offsets, value sizes, crash points and optional reconfigurations); each
schedule is executed on the deterministic simulator and the resulting history
must be linearizable with the DAP properties intact.  Shrinking then gives a
minimal failing schedule if a safety bug is ever introduced.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.deployment import AresDeployment, DeploymentSpec
from repro.net.latency import UniformLatency
from repro.spec.linearizability import check_linearizability, check_tag_monotonicity
from repro.spec.properties import check_dap_properties

# One scheduled client action: (kind, client index, start delay, value size)
action = st.tuples(
    st.sampled_from(["read", "write"]),
    st.integers(0, 2),
    st.floats(0.0, 10.0),
    st.sampled_from([16, 64, 256]),
)

schedules = st.lists(action, min_size=1, max_size=10)

RELAXED = settings(max_examples=20, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def execute_schedule(deployment, schedule):
    """Run the schedule, keeping each client well-formed.

    The paper's model requires well-formed clients (a client invokes at most
    one operation at a time), so actions that land on the same client are
    executed sequentially within one session coroutine; actions on different
    clients run concurrently.  Each action still waits out its start delay,
    so sessions interleave at random points.
    """
    sessions = {}
    for kind, index, delay, size in schedule:
        pool = deployment.writers if kind == "write" else deployment.readers
        client = pool[index % len(pool)]
        sessions.setdefault(client.pid, (client, []))[1].append((kind, delay, size))

    def session(client, actions):
        results = []
        for kind, delay, size in actions:
            yield client.sleep(delay)
            if kind == "write":
                results.append((yield from client.write(client.next_value(size))))
            else:
                results.append((yield from client.read()))
        return results

    operations = [client.spawn(session(client, actions))
                  for client, actions in sessions.values()]
    deployment.run()
    return operations


def assert_safe(deployment, operations):
    errors = [op.exception() for op in operations if op.exception() is not None]
    assert not errors, errors
    result = check_linearizability(deployment.history)
    assert result.ok, result.reason
    assert check_tag_monotonicity(deployment.history) is None
    if deployment.dap_recorder is not None:
        assert check_dap_properties(deployment.dap_recorder) == []


class TestRandomSchedulesStatic:
    @RELAXED
    @given(schedule=schedules, seed=st.integers(0, 1000))
    def test_treas_register_is_always_atomic(self, schedule, seed):
        deployment = AresDeployment(
            initial_dap="treas", num_servers=6, k=4, delta=12, num_writers=3,
            num_readers=3, num_reconfigurers=0, latency=UniformLatency(1.0, 4.0),
            seed=seed, record_dap=True)
        operations = execute_schedule(deployment, schedule)
        assert_safe(deployment, operations)

    @RELAXED
    @given(schedule=schedules, seed=st.integers(0, 1000))
    def test_abd_register_is_always_atomic(self, schedule, seed):
        deployment = AresDeployment(
            initial_dap="abd", num_servers=5, num_writers=3, num_readers=3,
            num_reconfigurers=0, latency=UniformLatency(1.0, 4.0), seed=seed,
            record_dap=True)
        operations = execute_schedule(deployment, schedule)
        assert_safe(deployment, operations)


class TestRandomSchedulesAres:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(schedule=schedules, seed=st.integers(0, 1000),
           reconfig_delay=st.floats(0.0, 15.0),
           target_dap=st.sampled_from(["treas", "abd"]))
    def test_ares_with_one_random_reconfiguration(self, schedule, seed,
                                                  reconfig_delay, target_dap):
        deployment = AresDeployment(DeploymentSpec(
            num_servers=5, initial_dap="treas", delta=12, num_writers=3,
            num_readers=3, num_reconfigurers=1,
            latency=UniformLatency(1.0, 3.0), seed=seed, record_dap=True))
        reconfigurer = deployment.reconfigurers[0]
        fresh = 5 if target_dap == "treas" else 3
        configuration = deployment.make_configuration(dap=target_dap, fresh_servers=fresh)

        def delayed_reconfig():
            yield reconfigurer.sleep(reconfig_delay)
            result = yield from reconfigurer.reconfig(configuration)
            return result

        operations = [reconfigurer.spawn(delayed_reconfig())]
        operations += execute_schedule(deployment, schedule)
        assert_safe(deployment, operations)

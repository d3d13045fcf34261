"""Determinism goldens: the hot-path overhaul must not move a single byte.

``tests/data/golden_signatures.json`` pins a SHA-256 of every registered
chaos scenario's ``ChaosRunResult.signature()`` (operation history plus
chaos log), captured on the pre-overhaul implementation.  Any change to
event ordering, RNG draw sequencing, latency sampling or label bookkeeping
shows up here as a hash mismatch.

When a future PR *intentionally* changes executions (new fault kinds, new
scenario entries), regenerate the fixture with::

    PYTHONPATH=src python - <<'EOF'
    import json, hashlib
    from repro.workloads.scenarios import scenario_names, run_scenario
    golden = {n: hashlib.sha256(repr(run_scenario(n, seed=0).signature()).encode()).hexdigest()
              for n in scenario_names()}
    json.dump(golden, open("tests/data/golden_signatures.json", "w"), indent=1, sort_keys=True)
    EOF
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.spec.linearizability import (check_linearizability,
                                        check_linearizability_per_key)
from repro.workloads.scenarios import run_scenario, scenario_names

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_signatures.json"


def _signature_hash(result) -> str:
    return hashlib.sha256(repr(result.signature()).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_registered_scenario(golden):
    assert sorted(golden) == sorted(scenario_names())


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_signature_matches_golden(name, golden):
    result = run_scenario(name, seed=0)
    assert _signature_hash(result) == golden[name], (
        f"scenario {name!r} diverged from its pre-overhaul execution -- "
        "a hot-path change altered event ordering or RNG sequencing")


#: Run in a child interpreter: prints ``name hash`` per scenario named in argv.
_SIGNATURE_PROBE = """
import hashlib, sys
from repro.workloads.scenarios import run_scenario
for name in sys.argv[1:]:
    signature = repr(run_scenario(name, seed=0).signature())
    print(name, hashlib.sha256(signature.encode()).hexdigest())
"""


@pytest.mark.parametrize("hash_seed", ["1", "4242"])
def test_goldens_do_not_depend_on_hash_values(hash_seed, golden, run_in_child):
    """No execution may depend on the numeric hash of anything.

    Identifiers hash by address and ``str`` hashes are seeded per process, so
    a set iterated in hash order on a protocol path would show up here: the
    store, reconfiguration + retirement and all three DAPs under two fixed
    ``PYTHONHASHSEED`` values must reproduce the committed signatures.
    """
    names = ["store_mixed_dap_storm", "store_migration_gc"]
    output = run_in_child(_SIGNATURE_PROBE, *names, PYTHONHASHSEED=hash_seed)
    assert dict(line.split() for line in output.splitlines()) == {
        name: golden[name] for name in names}


def test_scenario_histories_are_decided_by_the_fast_checker():
    """The registered scenarios' histories must not hit the DFS fallback.

    If one does, chaos verification silently reverts to the exponential
    reference search, which is exactly the cost PR 2 removed.  Keyed store
    scenarios are checked per key; every per-key sub-history must likewise
    be decided by the fast checker.
    """
    for name in scenario_names():
        result = run_scenario(name, seed=0)
        if result.history.is_keyed():
            verdict = check_linearizability_per_key(result.history)
            expected_method = "per-key(fast)"
        else:
            verdict = check_linearizability(result.history)
            expected_method = "fast"
        assert verdict.ok, f"{name}: {verdict.reason}"
        assert verdict.method == expected_method, (
            f"{name} fell back to the reference search")

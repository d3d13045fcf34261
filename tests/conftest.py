"""Shared fixtures for the test-suite."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.common.ids import server_id
from repro.erasure.rs import ReedSolomonCode
from repro.net.latency import FixedLatency, UniformLatency
from repro.net.network import Network
from repro.sim.core import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=42)


@pytest.fixture
def network(sim: Simulator) -> Network:
    """A network with unit fixed latency over the ``sim`` fixture."""
    return Network(sim, latency=FixedLatency(1.0))


@pytest.fixture
def uniform_network(sim: Simulator) -> Network:
    """A network with uniform latency in [1, 3]."""
    return Network(sim, latency=UniformLatency(1.0, 3.0))


@pytest.fixture
def server_ids():
    """Five server process ids."""
    return [server_id(i) for i in range(5)]


@pytest.fixture
def run_in_child():
    """Run a script in a fresh interpreter with ``src`` importable.

    ``run_in_child(script, *argv, **env)`` returns the child's stdout and
    fails the test, showing stderr, unless it exits 0.  For what cannot be
    observed in the test process itself: what an import loads, behaviour
    under another ``PYTHONHASHSEED``.
    """
    source = str(pathlib.Path(__file__).resolve().parents[1] / "src")

    def run(script: str, *argv: str, **env: str) -> str:
        child = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env={**os.environ, "PYTHONPATH": source, **env},
            capture_output=True, text=True, timeout=300, check=False)
        assert child.returncode == 0, child.stderr
        return child.stdout

    return run


@pytest.fixture
def encode_calls(monkeypatch):
    """``[(code, indices of the known elements, result)]`` per Reed-Solomon encode."""
    calls = []
    inner = ReedSolomonCode.encode

    def recording(self, value, known=()):
        known = list(known)
        result = inner(self, value, known)
        calls.append((self, sorted(element.index for element in known), result))
        return result

    monkeypatch.setattr(ReedSolomonCode, "encode", recording)
    return calls

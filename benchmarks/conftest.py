"""Shared helpers for the paper-experiment scripts.

Every ``bench_*.py`` module except ``bench_scale.py`` reproduces one
numbered experiment (E1-E10) of the "Paper claims" table in
``docs/PERFORMANCE.md``: it prints the paper-style table it reproduces,
asserts the claim, and registers one representative configuration with
pytest-benchmark so wall-clock regressions are tracked too.

Run with::

    pytest benchmarks/ --benchmark-only

Every module is also directly executable (exits non-zero on failure) and
accepts ``--quick`` for CI smoke runs::

    PYTHONPATH=src python benchmarks/bench_erasure.py --quick
"""

from __future__ import annotations

import sys

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--quick", action="store_true", default=False,
        help="shrink payloads and parameter sweeps so a smoke run finishes in seconds",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "experiment(id): paper experiment id (E1-E10)")


@pytest.fixture
def quick(request) -> bool:
    """Whether the benchmark should run its reduced CI smoke variant."""
    return request.config.getoption("--quick")


def main(module_file: str, argv=None) -> int:
    """Script entry point shared by every ``bench_*.py`` module.

    Runs the module under pytest so the ``benchmark`` fixture and markers
    work, returns pytest's exit code (non-zero on any failure) and maps
    ``--quick`` to the reduced-parameters mode with timing disabled.
    """
    argv = sys.argv[1:] if argv is None else argv
    # -s: the paper-style tables the modules print ARE the benchmark output.
    pytest_args = [module_file, "-x", "-q", "-s"]
    if "--quick" in argv:
        pytest_args += ["--quick", "--benchmark-disable"]
    extra = [a for a in argv if a != "--quick"]
    return pytest.main(pytest_args + extra)

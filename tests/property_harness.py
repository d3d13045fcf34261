"""Seed selection and failure dumps shared by the property harnesses.

Each harness (``test_store_reconfig_property.py``,
``test_reconfig_contention_property.py``) reads its seeds from an
environment variable and, when a run fails, writes the run's plan as JSON
with the command that re-runs its seed.
"""

from __future__ import annotations

import json
import pathlib
from typing import List


def parse_seeds(text: str, variable: str) -> List[int]:
    """Seeds named by ``text``: ``lo..hi`` ranges and single seeds, comma-separated.

    ``variable`` names the environment variable ``text`` came from, for the
    error an empty selection raises.
    """
    seeds: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    if not seeds:
        # An empty CI matrix value must fail loudly, not go green having
        # verified zero seeds.
        raise ValueError(f"{variable} selected no seeds: {text!r}")
    return seeds


def dump_repro(path: pathlib.Path, harness: str, variable: str, seed: int,
               plan: dict, failure: str) -> None:
    """Write a failing run's ``plan`` and ``failure`` to ``path`` as JSON.

    ``harness`` is the harness's test file; the payload's ``rerun`` is the
    command that re-runs ``seed`` through it.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    name = pathlib.Path(harness).name
    payload = {"scenario": pathlib.Path(harness).stem[len("test_"):], "plan": plan,
               "failure": failure,
               "rerun": f"{variable}={seed} python -m pytest tests/{name}"}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))

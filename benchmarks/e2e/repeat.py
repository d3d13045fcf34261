"""Child process of ``run.py``: one timed repeat, set up from nothing.

    python benchmarks/e2e/repeat.py WORKLOAD OPS SEED SPAWNED_AT

Starts the host clock first and imports the program under it, so that
``setup_s`` covers interpreter start (``SPAWNED_AT`` is the parent's
``time.time()`` at spawn), imports, GF(256) tables and the warm-up run.
Prints the run as one JSON line.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import hostclock


def main(argv) -> int:
    name, ops, seed, spawned_at = argv[0], int(argv[1]), int(argv[2]), float(argv[3])
    clock = hostclock.HostClock()
    boot_s = clock.scale(time.time() - spawned_at)
    clock.start()
    # Imported here, not at the top: their cost is the set-up being timed.
    sys.path.insert(1, str(pathlib.Path(__file__).resolve().parents[2] / "src"))
    import measure
    from workloads import WORKLOADS

    print(json.dumps(measure.timed_repeat(WORKLOADS[name], ops, seed, clock, boot_s)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

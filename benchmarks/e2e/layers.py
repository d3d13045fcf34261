"""Host time per layer, from a profile taken outside the program.

The traced run wraps the same ``run_scenario_instance`` + ``check()`` call
in :mod:`cProfile` and buckets every function's self time into a *layer* by
its source path: the packages under ``src/repro``, with ``sim`` split by
module.  Self time of everything that is not ``repro`` code -- native
callables (numpy, ``heapq``, ``random``, ``zlib``) and standard-library
Python -- is charged to the layer of the ``repro`` function that called it,
through the profile's caller edges (transitively, when library code calls
library code).  What reaches no ``repro`` caller (the harness itself) stays
unattributed.

cProfile charges per call but not for work inside native code, so shares
lean towards call-heavy layers; the isolated speeds in :mod:`isolated` are
the profiler-free cross-check.
"""

from __future__ import annotations

import cProfile
import os
from typing import Dict, List, Optional, Tuple

import repro

#: Layers reported by name; other ``repro`` packages count as unattributed.
LAYERS = ("sim.core", "sim.process", "sim.futures", "net", "dap", "erasure",
          "consensus", "config", "core", "store", "spec", "chaos", "obs",
          "common", "workloads")

_PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Functions listed per layer in the trace file.
TOP_FUNCTIONS = 20


def layer_of(code) -> Optional[str]:
    """The layer owning ``code`` (a code object, or a str for a native)."""
    filename = getattr(code, "co_filename", None)
    if filename is None or not filename.startswith(_PACKAGE_ROOT):
        return None
    parts = filename[len(_PACKAGE_ROOT):].split(os.sep)
    if parts[0] == "sim":
        return "sim." + parts[1][:-3]
    return parts[0]


def _describe(code) -> str:
    if isinstance(code, str):
        return code
    relative = code.co_filename
    if relative.startswith(_PACKAGE_ROOT):
        relative = relative[len(_PACKAGE_ROOT):]
    return f"{relative}:{code.co_firstlineno}:{code.co_name}"


def attribute(profiler: cProfile.Profile) -> dict:
    """Bucket a finished profile into layers.

    Returns ``{"total_s", "layers": {layer: {"self_s", "calls", "top"}},
    "unattributed_s"}`` where ``top`` lists the layer's costliest functions
    as ``[description, self_s, calls]`` (own time plus the outside time
    charged to them).
    """
    entries = profiler.getstats()
    # callers[callee] = [(caller, self time of callee under that caller,
    #                     total time of callee under that caller)]
    callers: Dict[object, List[Tuple[object, float, float]]] = {}
    for entry in entries:
        for sub in entry.calls or ():
            callers.setdefault(sub.code, []).append(
                (entry.code, sub.inlinetime, sub.totaltime))

    shares: Dict[object, Dict[object, float]] = {}

    def owners(code, visiting: frozenset) -> Dict[object, float]:
        """Which ``repro`` functions ``code`` works for.

        ``{code: 1.0}`` for a ``repro`` function itself; for anything else
        a distribution over the ``repro`` functions that (transitively)
        called it, weighted by the time spent under each caller, with
        ``None`` for the part nobody in ``repro`` asked for.
        """
        if layer_of(code) is not None:
            return {code: 1.0}
        if code in visiting:
            return {None: 1.0}
        if code not in shares:
            edges = callers.get(code, ())
            weight = sum(total for _, _, total in edges)
            distribution: Dict[object, float] = {}
            for caller, _, total in edges:
                part = total / weight if weight > 0 else 1.0 / len(edges)
                for owner, share in owners(caller, visiting | {code}).items():
                    distribution[owner] = distribution.get(owner, 0.0) + part * share
            shares[code] = distribution or {None: 1.0}
        return shares[code]

    self_s: Dict[object, float] = {}
    calls: Dict[object, int] = {}
    total = 0.0
    unattributed = 0.0

    def charge(owner, seconds: float) -> None:
        nonlocal unattributed
        if owner is not None and layer_of(owner) in LAYERS:
            self_s[owner] = self_s.get(owner, 0.0) + seconds
        else:
            unattributed += seconds

    for entry in entries:
        total += entry.inlinetime
        if layer_of(entry.code) is not None:
            charge(entry.code, entry.inlinetime)
            calls[entry.code] = entry.callcount
        elif entry.code not in callers:
            unattributed += entry.inlinetime
        else:
            # Not repro code: its self time under each caller goes to the
            # repro function(s) that caller works for.
            for caller, inline, _ in callers[entry.code]:
                for owner, share in owners(caller, frozenset({entry.code})).items():
                    charge(owner, inline * share)

    layers = {layer: {"self_s": 0.0, "calls": 0, "top": []} for layer in LAYERS}
    for code, seconds in self_s.items():
        bucket = layers[layer_of(code)]
        bucket["self_s"] += seconds
        bucket["calls"] += calls.get(code, 0)
        bucket["top"].append([_describe(code), seconds, calls.get(code, 0)])
    for bucket in layers.values():
        bucket["top"].sort(key=lambda row: -row[1])
        del bucket["top"][TOP_FUNCTIONS:]
    return {"total_s": total, "layers": layers, "unattributed_s": unattributed}

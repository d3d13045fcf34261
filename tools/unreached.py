"""List the ``src/`` functions that no system entry point calls.

Runs the system's own callers in this process, under ``sys.setprofile``:

* the import of the scenario registry and the CLIs, so that functions that
  run while a module loads (the registered scenarios' fault constructors)
  count as called;
* every registered scenario at seeds 0-2 (``--quick``: seed 0 only), plus a
  streaming run and a metrics run (with its SLO verdicts) at seed 0;
* every script in ``examples/``;
* ``python -m repro.sweep`` with each option set the CI workflows pass it,
  on small grids, and ``python -m repro.workloads --list-scenarios
  --markdown``.  Grids run at ``--jobs 1`` so the cells execute under the
  profiler; one runs at ``--jobs 2`` to reach the pool path;
* every ``benchmarks/bench_*.py --quick`` and ``benchmarks/e2e/run.py
  --quick`` (``--quick`` skips ``bench_scale.py``, the slowest by far).

It then prints every function defined under ``src/repro`` that none of them
called, one per line, with how often its name occurs in ``src/``,
``tests/``, ``benchmarks/``, ``examples/`` and ``tools/`` (``def`` lines
excluded; a name count, so methods sharing a name share a count), and the
total number of source lines those functions span.  Lambdas and
comprehensions are not listed.  It is a report, not a gate: the exit
status is 1 only when an entry point fails.

    python tools/unreached.py [--quick]
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import pathlib
import re
import runpy
import sys
import tempfile
import traceback
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
AREAS = (("src", SRC), ("tests", ROOT / "tests"), ("bench", ROOT / "benchmarks"),
         ("examples", ROOT / "examples"), ("tools", ROOT / "tools"))

#: ``python -m repro.sweep`` argument lists: the option sets CI uses.
SWEEPS = (
    ["--grid", "scenarios=abd_crash_minority,store_mixed_dap_storm;seeds=0..1",
     "--streaming", "--check-serial"],
    ["--grid", "scenarios=*_gray_degradation;seeds=0;fault_rate=0.0,0.09375",
     "--check-serial"],
    ["--grid", "scenarios=*_gray_degradation;seeds=0;fault_rate=0.0,0.0625",
     "--metrics", "--report", "campaign.html"],
    ["--grid", "scenarios=store_migration_gc;seeds=0;gc=0,1", "--check-serial"],
    ["--grid", "scenarios=store_mixed_dap_storm;seeds=0",
     "--bisect", "max_events=500..60000"],
    ["--grid", "scenarios=abd_gray_degradation;seeds=0",
     "--bisect", "fault_rate=0.0..0.5"],
    ["--grid", "scenarios=all;seeds=0", "--jobs", "2", "--quiet"],
)


def _run_script(path: pathlib.Path, *args: str) -> int:
    """Run ``path`` as ``__main__`` with ``args``; returns its exit status."""
    saved_argv, saved_path = sys.argv, list(sys.path)
    sys.argv = [str(path), *args]
    sys.path.insert(0, str(path.parent))
    try:
        runpy.run_path(str(path), run_name="__main__")
        return 0
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else int(stop.code is not None)
    finally:
        sys.argv, sys.path[:] = saved_argv, saved_path


def _import_entry_modules() -> int:
    """Import the scenario registry and the CLIs (an entry point)."""
    import repro.sweep.__main__  # noqa: F401
    import repro.workloads.__main__  # noqa: F401
    import repro.workloads.scenarios  # noqa: F401
    return 0


def entry_points(quick: bool):
    """Yield ``(label, thunk)`` pairs; a thunk returns an exit status.

    The first thunk imports the modules the others need, so that it runs
    under the profiler and the imports below it find them loaded.
    """
    yield "import repro.workloads.scenarios and the CLIs", _import_entry_modules
    from repro.sweep.__main__ import main as sweep_main
    from repro.workloads.__main__ import main as workloads_main
    from repro.workloads.scenarios import run_scenario, scenario_names

    def scenario(name, seed, **flags):
        result = run_scenario(name, seed, **flags)
        failure, _ = result.check()
        if flags.get("metrics"):
            result.slo_verdicts()
        return int(failure is not None)

    for name in scenario_names():
        for seed in range(1 if quick else 3):
            yield f"scenario {name} seed {seed}", lambda n=name, s=seed: scenario(n, s)
        yield f"scenario {name} streaming", lambda n=name: scenario(n, 0, streaming=True)
        yield f"scenario {name} metrics", lambda n=name: scenario(n, 0, metrics=True)
    for script in sorted((ROOT / "examples").glob("*.py")):
        yield f"example {script.name}", lambda p=script: _run_script(p)
    for index, argv in enumerate(SWEEPS):
        yield (f"repro.sweep {' '.join(argv)}",
               lambda a=argv, i=index: sweep_main([*a, "--output", f"sweep-{i}.json"]))
    yield ("repro.workloads --list-scenarios --markdown",
           lambda: workloads_main(["--list-scenarios", "--markdown"]))
    for script in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        if quick and script.name == "bench_scale.py":
            continue
        yield f"{script.name} --quick", lambda p=script: _run_script(p, "--quick")
    yield "e2e/run.py --quick", lambda: _run_script(ROOT / "benchmarks" / "e2e" / "run.py",
                                                    "--quick")


def called_code(quick: bool):
    """Run every entry point under the profiler; returns (code objects, failures)."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    failures = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)   # CLI outputs land here
        for label, thunk in entry_points(quick):
            print(f"running {label}", file=sys.stderr)
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = thunk()
            except Exception:  # report it, keep covering the rest
                status = traceback.format_exc()
            finally:
                sys.setprofile(None)
            if status:
                failures.append(f"{label}: {status}")
        os.chdir(home)
    return called, failures


def _functions(code: types.CodeType):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                yield const
            yield from _functions(const)


def defined_functions():
    """Every function code object compiled from ``src/repro``."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        yield from _functions(compile(path.read_text(), str(path), "exec"))


def _key(code: types.CodeType) -> tuple:
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name


def reference_counts(name: str, texts) -> list:
    """Occurrences of ``name`` per area, minus its ``def`` lines."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"\bdef {re.escape(name)}\b")
    return [sum(len(word.findall(text)) - len(definition.findall(text))
                for text in area_texts)
            for area_texts in texts]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--quick"]):
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    called, failures = called_code(quick=argv == ["--quick"])
    seen = {_key(code) for code in called}
    defined = list(defined_functions())
    unreached = [code for code in defined if _key(code) not in seen]

    texts = [[path.read_text() for path in sorted(root.rglob("*.py"))]
             for _, root in AREAS]
    spanned = set()
    rows = []
    for code in unreached:
        last = max(line for _, _, line in code.co_lines() if line is not None)
        spanned.update((code.co_filename, line)
                       for line in range(code.co_firstlineno, last + 1))
        where = pathlib.Path(code.co_filename).relative_to(SRC)
        rows.append((str(where), code.co_firstlineno,
                     getattr(code, "co_qualname", code.co_name),
                     reference_counts(code.co_name, texts)))

    print(f"never called: {len(unreached)} of {len(defined)} src/ functions, "
          f"{len(spanned)} lines")
    print(" ".join(f"{area:>8}" for area, _ in AREAS) + "  function")
    for where, line, qualname, counts in sorted(rows):
        print(" ".join(f"{count:>8}" for count in counts) + f"  {where}:{line} {qualname}")
    for failure in failures:
        print(f"entry point failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

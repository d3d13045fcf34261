"""Documentation gates: catalog sync, link integrity, README docs index.

The scenario catalog at ``docs/SCENARIOS.md`` is generated from the chaos
scenario registry; this suite fails whenever the committed file drifts from
the code (regenerate with ``python -m repro.workloads --list-scenarios
--markdown --output docs/SCENARIOS.md``).  The offline Markdown link
checker from ``tools/check_links.py`` also runs here so broken
cross-references fail the tier-1 matrix, not just the CI docs job.  The
paper-claims table of ``docs/PERFORMANCE.md`` must list exactly the
``benchmarks/bench_*.py`` scripts on disk, and the fault tables of
``docs/CHAOS.md`` exactly the faults ``repro.chaos`` exports.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.workloads.catalog import scenario_catalog_markdown, scenario_listing
from repro.workloads.scenarios import SCENARIOS

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS_MD = REPO_ROOT / "docs" / "SCENARIOS.md"
CHAOS_MD = REPO_ROOT / "docs" / "CHAOS.md"


def _load_check_links():
    spec = importlib.util.spec_from_file_location(
        "check_links", REPO_ROOT / "tools" / "check_links.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScenarioCatalog:
    def test_committed_catalog_matches_registry(self):
        """docs/SCENARIOS.md must be the registry's current rendering."""
        assert SCENARIOS_MD.exists(), "docs/SCENARIOS.md is missing"
        committed = SCENARIOS_MD.read_text(encoding="utf-8")
        assert committed == scenario_catalog_markdown(), (
            "docs/SCENARIOS.md is out of sync with the scenario registry; "
            "regenerate with: PYTHONPATH=src python -m repro.workloads "
            "--list-scenarios --markdown --output docs/SCENARIOS.md")

    def test_catalog_names_every_scenario(self):
        text = scenario_catalog_markdown()
        for name in SCENARIOS:
            assert f"`{name}`" in text

    def test_listing_names_every_scenario(self):
        listing = scenario_listing()
        for name, scenario in SCENARIOS.items():
            assert name in listing
            assert scenario.description in listing

    def test_cli_emits_the_catalog(self, capsys):
        from repro.workloads.__main__ import main

        assert main(["--list-scenarios", "--markdown"]) == 0
        assert capsys.readouterr().out == scenario_catalog_markdown()

    def test_cli_requires_list_flag(self, capsys):
        from repro.workloads.__main__ import main

        assert main([]) == 2
        capsys.readouterr()

    def test_cli_writes_output_file(self, tmp_path, capsys):
        from repro.workloads.__main__ import main

        target = tmp_path / "catalog.md"
        assert main(["--list-scenarios", "--markdown",
                     "--output", str(target)]) == 0
        capsys.readouterr()
        assert target.read_text() == scenario_catalog_markdown()


class TestBenchmarkScripts:
    """The paper-claims table lists exactly the scripts that exist."""

    def test_table_names_every_benchmark_script(self):
        import re

        text = (REPO_ROOT / "docs" / "PERFORMANCE.md").read_text(encoding="utf-8")
        section = text.split("\n## Paper claims")[1].split("\n## ")[0]
        table = [line for line in section.splitlines() if line.startswith("|")]
        named = set(re.findall(r"`(bench_\w+\.py)`", "\n".join(table)))
        on_disk = {path.name for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")}
        assert named == on_disk

    def test_documents_name_only_existing_scripts_and_no_baseline(self):
        """A deleted script or a ``BENCH_*.json`` baseline stays deleted."""
        import re

        scripts = {path.name for path in REPO_ROOT.rglob("*.py")}
        documents = [REPO_ROOT / "README.md"]
        for directory in ("docs", ".github", ".claude"):
            documents.extend(path for path in (REPO_ROOT / directory).rglob("*")
                             if path.is_file())
        stale = []
        for path in documents:
            text = path.read_text(encoding="utf-8")
            stale.extend((str(path.relative_to(REPO_ROOT)), name)
                         for name in set(re.findall(r"\b\w+\.py\b", text))
                         if name not in scripts)
            stale.extend((str(path.relative_to(REPO_ROOT)), name)
                         for name in set(re.findall(r"\bBENCH_\w+\.json\b", text)))
        assert stale == []


class TestChaosDoc:
    """``docs/CHAOS.md`` describes the chaos package as it is."""

    def test_fault_tables_name_exactly_the_exported_faults(self):
        """Every fault class and constructor ``repro.chaos`` exports has a row."""
        import inspect
        import re

        import repro.chaos as chaos
        from repro.chaos.faults import Fault

        exported = set()
        for name in chaos.__all__:
            obj = getattr(chaos, name)
            if inspect.isclass(obj) and issubclass(obj, Fault) and obj is not Fault:
                exported.add(name)
            elif inspect.isfunction(obj) and obj.__module__ == "repro.chaos.faults":
                exported.add(name)
        text = CHAOS_MD.read_text(encoding="utf-8")
        section = text.split("\n## The fault vocabulary")[1].split("\n## ")[0]
        named = set(re.findall(r"^\| `(\w+)\(", section, re.M))
        assert named == exported

    def test_schedule_snippet_executes_and_prints_its_log(self, capsys):
        """The schedule-DSL snippet is real code: run it verbatim.

        Extracts the fenced Python block under "The schedule DSL" and
        executes it; the snippet's own asserts check every read and the
        history's linearizability, and the chaos log it prints must be the
        one the document shows below it.
        """
        import re

        text = CHAOS_MD.read_text(encoding="utf-8")
        section = text.split("\n## The schedule DSL")[1].split("\n## ")[0]
        code = re.search(r"```python\n(.*?)```", section, re.S)
        shown = re.search(r"```text\n(.*?)```", section, re.S)
        assert code and shown, "schedule section needs a python and a text block"
        exec(compile(code.group(1), "CHAOS:schedule-dsl", "exec"), {})
        assert capsys.readouterr().out == shown.group(1)


class TestMarkdownLinks:
    @pytest.fixture(scope="class")
    def checker(self):
        return _load_check_links()

    def test_all_documentation_links_resolve(self, checker):
        broken = []
        for path in checker.markdown_files():
            broken.extend((str(path), target, problem)
                          for target, problem in checker.check_file(path))
        assert broken == [], f"broken documentation links: {broken}"

    def test_checker_flags_broken_links(self, tmp_path):
        """The gate must actually bite: a fabricated bad link is reported.

        Uses a *fresh* checker instance rooted at ``tmp_path`` so the probe
        file never touches the real ``docs/`` directory (where a parallel
        test or an aborted run would see it as a genuine broken link).
        """
        checker = _load_check_links()
        checker.REPO_ROOT = tmp_path
        (tmp_path / "ARCHITECTURE.md").write_text("# Real heading\n")
        probe = tmp_path / "probe.md"
        probe.write_text("[x](no-such-file.md) "
                         "[y](ARCHITECTURE.md#no-such-heading) "
                         "[ok](ARCHITECTURE.md#real-heading)\n")
        problems = checker.check_file(probe)
        assert len(problems) == 2

    def test_github_slugs(self, checker):
        assert checker.github_slug("## The layer stack".lstrip("# ")) == "the-layer-stack"
        assert checker.github_slug("Tests and benchmarks") == "tests-and-benchmarks"


class TestReadme:
    def test_readme_indexes_the_docs(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for doc in ("docs/ARCHITECTURE.md", "docs/CHAOS.md",
                    "docs/SCENARIOS.md", "docs/OBSERVABILITY.md",
                    "docs/PERFORMANCE.md"):
            assert doc in readme, f"README does not link {doc}"

    def test_readme_reconfig_quickstart_executes(self, capsys):
        """The live-reconfiguration snippet is real code: run it verbatim.

        Extracts the fenced Python block under the "Live reconfiguration &
        rebalancing" heading and executes it; the snippet's own assert
        checks the data survived the migration chain and the final print
        reports the epoch the prose promises.
        """
        import re

        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "### Live reconfiguration & rebalancing" in readme
        section = readme.split("### Live reconfiguration & rebalancing")[1]
        section = section.split("\n## ")[0]
        match = re.search(r"```python\n(.*?)```", section, re.S)
        assert match, "reconfig quickstart has no python code block"
        exec(compile(match.group(1), "README:reconfig-quickstart", "exec"), {})
        assert capsys.readouterr().out.strip() == "2"

    def test_readme_gc_quickstart_executes(self, capsys):
        """The configuration-retirement snippet is real code: run it verbatim.

        Extracts the fenced Python block under the "Retiring old
        configurations (GC)" heading and executes it; the snippet's own
        assert checks the value survived retirement, and the final print
        reports the retired-config and reclaimed-byte counts the prose
        promises.
        """
        import re

        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "### Retiring old configurations (GC)" in readme
        section = readme.split("### Retiring old configurations (GC)")[1]
        section = section.split("\n## ")[0]
        match = re.search(r"```python\n(.*?)```", section, re.S)
        assert match, "gc quickstart has no python code block"
        exec(compile(match.group(1), "README:gc-quickstart", "exec"), {})
        assert capsys.readouterr().out.strip() == "4 1024"

    def test_readme_gray_failure_quickstart_executes(self, capsys):
        """The gray-failure snippet is real code: run it verbatim.

        Extracts the fenced Python block under the "Gray failures &
        retries" heading and executes it; the snippet's own assert checks
        the client really retried through NACKs, and the final print reads
        the written value back as the prose promises.
        """
        import re

        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "### Gray failures & retries" in readme
        section = readme.split("### Gray failures & retries")[1]
        section = section.split("\n## ")[0]
        match = re.search(r"```python\n(.*?)```", section, re.S)
        assert match, "gray-failure quickstart has no python code block"
        exec(compile(match.group(1), "README:gray-failure-quickstart", "exec"), {})
        assert capsys.readouterr().out.strip() == "v1"

    def test_readme_streaming_quickstart_executes(self, capsys):
        """The streaming-verification snippet is real code: run it verbatim.

        Extracts the fenced Python block under the "Streaming verification
        at scale" heading and executes it; the snippet's own asserts check
        the verdict and that every record folded, and the final print
        reports the checker method the prose promises.
        """
        import re

        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "### Streaming verification at scale" in readme
        section = readme.split("### Streaming verification at scale")[1]
        section = section.split("\n## ")[0]
        match = re.search(r"```python\n(.*?)```", section, re.S)
        assert match, "streaming quickstart has no python code block"
        exec(compile(match.group(1), "README:streaming-quickstart", "exec"), {})
        assert capsys.readouterr().out.strip() == "per-key(streaming)"

    def test_readme_observability_quickstart_executes(self, capsys):
        """The observability snippet is real code: run it verbatim.

        Extracts the fenced Python block under the "Observability:
        virtual-time metrics & SLOs" heading and executes it; the snippet's
        own asserts check the calibrated SLOs hold and the recovery query
        returns a bounded value, and the final print confirms the message
        counter recorded traffic.
        """
        import re

        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        heading = "### Observability: virtual-time metrics & SLOs"
        assert heading in readme
        section = readme.split(heading)[1].split("\n## ")[0]
        match = re.search(r"```python\n(.*?)```", section, re.S)
        assert match, "observability quickstart has no python code block"
        exec(compile(match.group(1), "README:observability-quickstart",
                     "exec"), {})
        assert capsys.readouterr().out.strip() == "True"

    def test_readme_sweep_example_matches_cli_flags(self):
        """The documented sweep invocation must use real CLI flags."""
        import re

        from repro.sweep.__main__ import main as sweep_main  # noqa: F401 (import check)

        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        flags = set(re.findall(r"--[a-z-]+", readme.split("## Scale-out sweeps")[1]
                               .split("## Tests")[0]))
        known = {"--grid", "--jobs", "--check-serial", "--streaming",
                 "--bisect", "--output", "--quiet", "--metrics", "--report"}
        assert flags <= known, f"README documents unknown sweep flags: {flags - known}"
        assert {"--grid", "--jobs", "--check-serial", "--streaming",
                "--bisect", "--metrics", "--report"} <= flags

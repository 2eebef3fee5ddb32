"""Import layering: each command imports only what it runs.

Every check runs in a fresh interpreter, so modules other tests
already imported cannot hide an eager import.  Modules the
interpreter's own start-up loaded (site hooks) are not counted.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.cli import main

SRC = Path(repro.__file__).resolve().parent.parent

#: Loaded only by the service and sharded-profiling commands.
HEAVY = ("asyncio", "ssl", "multiprocessing", "repro.profiler.supervisor")

LAZY_PACKAGES = ("repro", "repro.lang", "repro.vm", "repro.profiler",
                 "repro.analyses", "repro.observability", "repro.service")

PROGRAM = """
class Entry {
    int a;
    Entry(int x) { a = x * 7; }
}
class Main {
    static void main() {
        Entry e = new Entry(3);
        Sys.printInt(e.a);
    }
}
"""


def loaded_by(code: str, *args) -> set:
    """Modules that ``code`` (run in a fresh interpreter) adds to
    ``sys.modules``; ``code`` may also assert."""
    script = ("import sys\n_before = set(sys.modules)\n"
              + textwrap.dedent(code)
              + "\nimport json\n"
              "print(json.dumps(sorted(set(sys.modules) - _before)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", script, *args],
                            capture_output=True, text=True, env=env,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_build_parser_loads_no_heavy_module():
    loaded = loaded_by("""
        import repro.cli
        repro.cli.build_parser()
    """)
    assert "repro.cli" in loaded
    assert loaded.isdisjoint(HEAVY), sorted(loaded & set(HEAVY))


def test_report_command_loads_only_what_it_runs(tmp_path):
    source = tmp_path / "demo.mj"
    source.write_text(PROGRAM)
    graph = tmp_path / "demo.gcost.json"
    assert main(["profile", str(source), "--no-stdlib", "--report",
                 "bloat", "--save-graph", str(graph)]) == 0
    out = tmp_path / "report.json"
    loaded = loaded_by("""
        import runpy
        sys.argv = ["repro"] + sys.argv[1:]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as exit_:
            assert not exit_.code, exit_.code
    """, "report", str(graph), str(source), "--no-stdlib", "--format",
        "json", "--out", str(out))
    assert json.loads(out.read_text())
    assert "repro.observability.bloatreport" in loaded
    unwanted = set(HEAVY) | {"repro.service.daemon",
                             "repro.service.registry",
                             "repro.profiler.tracker"}
    assert loaded.isdisjoint(unwanted), sorted(loaded & unwanted)


@pytest.mark.parametrize("command", [
    ["report", "--format", "json"], ["analyze"]],
    ids=["report", "analyze"])
def test_reading_a_named_profile_loads_no_frontend(command, tmp_path):
    """A profile that carries its own names is read without compiling:
    ``report`` and ``analyze`` load no frontend, stdlib or
    sharded-profiling module, with or without the program argument,
    and no ``dataclasses`` (which brings ``inspect`` and ``ast``)."""
    source = tmp_path / "demo.mj"
    source.write_text(PROGRAM)
    graph = tmp_path / "demo.gcost.json"
    assert main(["profile", str(source), "--no-stdlib", "--report",
                 "bloat", "--save-graph", str(graph)]) == 0
    for program in ([], [str(source)]):
        loaded = loaded_by("""
            import runpy
            sys.argv = ["repro"] + sys.argv[1:]
            try:
                runpy.run_module("repro", run_name="__main__",
                                 alter_sys=True)
            except SystemExit as exit_:
                assert not exit_.code, exit_.code
        """, command[0], str(graph), *program, *command[1:])
        assert "repro.analyses.costbenefit" in loaded
        frontend = sorted(name for name in loaded if name.startswith(
            ("repro.lang", "repro.stdlib", "repro.profiler.parallel")))
        assert not frontend, frontend
        assert "dataclasses" not in loaded


def test_importing_a_package_runs_no_submodule():
    loaded = loaded_by(f"import {', '.join(LAZY_PACKAGES)}")
    assert {name for name in loaded
            if name.startswith("repro.")} == set(LAZY_PACKAGES[1:])


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_public_names_resolve_lazily(package):
    loaded_by(f"""
        import importlib
        package = importlib.import_module({package!r})
        listed = dir(package)
        for name in package.__all__:
            assert name in listed, name
            getattr(package, name)
        exec("from {package} import *", {{}})
    """)


def test_submodules_resolve_as_attributes():
    loaded = loaded_by("""
        import repro
        assert repro.profiler.supervisor.SupervisedProfiler
        assert repro.service.protocol.QUERY_KINDS
        try:
            repro.profiler.no_such_module
        except AttributeError:
            pass
        else:
            raise AssertionError("unknown attribute resolved")
    """)
    assert "repro.profiler.supervisor" in loaded


def test_top_level_profile_and_run():
    loaded_by(f"""
        import repro
        program = repro.compile_source({PROGRAM!r})
        result = repro.profile(program)
        assert result.output == "21", result.output
        assert result.graph.num_nodes > 0
        assert repro.run(program).stdout() == "21"
    """)

"""The perf-gate runner (``tools/gates.py``) judges readings against
its table correctly.  Every test swaps in fake measurements, so
nothing is timed here."""

import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def gates():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import gates
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return gates


def _reading(value):
    return value


@pytest.fixture
def fake_table(gates, monkeypatch):
    def row(name, better, bound, value):
        return gates.Gate(name, _reading, {"value": value}, better, bound)

    monkeypatch.setattr(gates, "GATES", (
        row("lower_at_bound", "lower", 0.4, 0.4),
        row("lower_past_bound", "lower", 0.4, 0.41),
        row("higher_at_bound", "higher", 3.0, 3.0),
        row("higher_past_bound", "higher", 3.0, 2.99),
    ))
    return gates


@pytest.mark.parametrize("name", ["lower_at_bound", "higher_at_bound"])
def test_reading_at_its_bound_passes(fake_table, capsys, name):
    assert fake_table.main([name]) == 0
    assert f"{name}: " in capsys.readouterr().out


@pytest.mark.parametrize("name", ["lower_past_bound", "higher_past_bound"])
def test_reading_past_its_bound_fails(fake_table, capsys, name):
    assert fake_table.main([name]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert name in captured.err


def test_no_names_runs_every_gate(fake_table, capsys):
    assert fake_table.main([]) == 1
    out = capsys.readouterr().out
    assert out.count(" ok") == 2
    assert out.count("FAIL") == 2


def test_unknown_name_exits_nonzero_and_lists_the_table(fake_table,
                                                        capsys):
    assert fake_table.main(["lower_at_bound", "no_such_gate"]) != 0
    captured = capsys.readouterr()
    assert captured.out == ""           # nothing was measured
    assert "no_such_gate" in captured.err
    for gate in fake_table.GATES:
        assert gate.name in captured.err


def test_every_gate_ci_runs_is_in_the_table(gates):
    """CI's ``python tools/gates.py NAME…`` steps (one shell command,
    continued with backslashes) name only rows of the table."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    commands = re.findall(r"python tools/gates\.py((?:[^\n]*\\\n)*[^\n]*)",
                          ci)
    assert len(commands) == 2
    names = [name for command in commands
             for name in command.replace("\\", " ").split()]
    table = {gate.name for gate in gates.GATES}
    assert names and set(names) <= table, set(names) - table

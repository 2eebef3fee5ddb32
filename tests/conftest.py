"""Shared test helpers."""

from __future__ import annotations

import copy
import os
import shutil
import subprocess

import pytest

from repro.lang import compile_source
from repro.vm import VM


def run_source(source: str, tracer=None, max_steps: int = 50_000_000):
    """Compile + run MiniJ source; return the finished VM."""
    program = compile_source(source)
    vm = VM(program, tracer=tracer, max_steps=max_steps)
    vm.run()
    return vm


def run_main(body: str, extra: str = "", tracer=None):
    """Run a main() whose body is ``body``; return the VM."""
    source = f"""
{extra}
class Main {{
    static void main() {{
{body}
    }}
}}
"""
    return run_source(source, tracer=tracer)


def out_of(body: str, extra: str = "") -> str:
    """The program output of a main() body."""
    return run_main(body, extra).stdout()


@pytest.fixture
def compile_run():
    return run_source


#: The sections a v3 profile document stores as flat int columns.
PAIR_SECTIONS = ("nodes", "edges", "ref_edges")


def as_v2_rows(doc: dict) -> dict:
    """A copy of the v3 profile document ``doc`` in the v2 layout: its
    flat ``nodes``/``edges``/``ref_edges`` columns cut into ``[a, b]``
    rows, every other section copied as it is.  Damage planted in the
    columns lands in the matching rows, so a test can check that both
    layouts are refused (or salvaged) the same way.  A ``checksum`` is
    dropped: the caller re-stamps the rendering if it wants one."""
    rows = copy.deepcopy(doc)
    rows.pop("checksum", None)
    rows["version"] = 2
    for section in PAIR_SECTIONS:
        values = iter(doc[section])
        rows[section] = [list(pair) for pair in zip(values, values)]
    return rows


def in_layout(doc: dict, layout: str) -> dict:
    """``doc`` as it is (``"v3"``) or rendered by :func:`as_v2_rows`
    (``"v2rows"``)."""
    return doc if layout == "v3" else as_v2_rows(doc)


def layout_params(names) -> list:
    """``(name, layout)`` pairs as parameters over both layouts: a v3
    case keeps the id ``name``, its v2-rows twin is ``v2rows-<name>``."""
    return ([pytest.param((name, "v3"), id=name) for name in names]
            + [pytest.param((name, "v2rows"), id=f"v2rows-{name}")
               for name in names])


def _checkout_status():
    """``git status`` of the checkout holding this suite, or None when
    git or the work tree is absent."""
    if shutil.which("git") is None:
        return None
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    result = subprocess.run(
        ["git", "-C", root, "status", "--porcelain",
         "--untracked-files=all"],
        capture_output=True, text=True)
    return result.stdout if result.returncode == 0 else None


@pytest.fixture(scope="session", autouse=True)
def checkout_unchanged():
    """Fail the session if running the suite created, modified or
    deleted any file in the checkout (ignored files excepted)."""
    before = _checkout_status()
    yield
    if before is None:
        return
    after = _checkout_status()
    if after != before:
        pytest.fail("the test suite changed the checkout:\n"
                    f"before:\n{before}after:\n{after}", pytrace=False)

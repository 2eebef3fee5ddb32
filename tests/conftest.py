"""Shared test helpers."""

from __future__ import annotations

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

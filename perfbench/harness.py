"""Process, timing and bookkeeping helpers shared by every workload.

Everything the benchmark launches runs from a private work directory
under ``.bench_build/perfbench`` in the checkout, with its byte-code
cache there too (``PYTHONPYCACHEPREFIX``), so a run leaves the checkout
exactly as it found it; :class:`CheckoutGuard` proves that after the
run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent

#: Where runs keep their work directories and trace files (ignored by git).
OUT_DIR = ROOT / ".bench_build" / "perfbench"

#: Directories of the checkout the guard does not compare.
_UNGUARDED = {".bench_build", ".git"}


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values)


def nearest_rank(values, q: float) -> float:
    """The ``q``-quantile by nearest rank (an observed sample)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


#: Quantile of each request class that the gated timings are built from.
FLOOR_QUANTILE = 0.1


def class_floors(walls_by_class: dict) -> dict:
    """class -> the 10th percentile (nearest rank) of its walls: the
    fastest request of a class with fewer than ten.

    The gated timings use these floors, not medians of pooled requests,
    because a small shared host alternates between two speeds about 1.6x
    apart several times a second, in a ratio that itself wanders over
    tens of seconds.  A median of pooled requests then jumps between the
    two modes from run to run; a per-class floor stays in the fast mode,
    which is where the program's own cost shows.
    """
    return {key: nearest_rank(walls, FLOOR_QUANTILE)
            for key, walls in walls_by_class.items()}


def digest(data) -> str:
    """SHA-256 of a JSON-able value in canonical key order."""
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


# -- host record ---------------------------------------------------------------


def host_record() -> dict:
    return {"cpus": len(os.sched_getaffinity(0)),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "python": platform.python_version(),
            "machine": platform.machine()}


# -- the work directory ---------------------------------------------------------


class WorkDir:
    """A private directory for one run's files and subprocesses."""

    def __init__(self, workload: str, seed: int):
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.path = OUT_DIR / f"work-{workload}-{seed}-{os.getpid()}"
        if self.path.exists():
            shutil.rmtree(self.path)
        self.path.mkdir()
        self._caches = 0
        self.pycache = self.fresh_pycache()

    def fresh_pycache(self) -> Path:
        """A new, empty byte-code cache; later subprocesses use it."""
        self._caches += 1
        self.pycache = self.path / f"pycache{self._caches}"
        return self.pycache

    def file(self, name: str) -> Path:
        return self.path / name

    def rel(self, name: str) -> str:
        """``name`` relative to the benchmark's own cwd (short enough for
        a unix socket address whatever the checkout path)."""
        return os.path.relpath(self.path / name)

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONPYCACHEPREFIX"] = str(self.pycache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        return env

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def repro_argv(*args) -> list:
    return [sys.executable, "-m", "repro", *map(str, args)]


class Finished:
    """Outcome of one program invocation."""

    __slots__ = ("wall_s", "exit_code", "stdout", "peak_rss_mb")

    def __init__(self, wall_s, exit_code, stdout, peak_rss_mb):
        self.wall_s = wall_s
        self.exit_code = exit_code
        self.stdout = stdout
        self.peak_rss_mb = peak_rss_mb


def run_program(work: WorkDir, *args, timeout: float = 120.0) -> Finished:
    """Run ``python -m repro ARGS`` in the work directory; wall time is
    launch to exit, peak RSS the process tree's ``wait4`` maximum."""
    out_path = work.file("stdout.txt")
    with open(out_path, "wb") as out, open(work.file("stderr.txt"),
                                           "wb") as err:
        start = time.perf_counter()
        # A session of its own, so a hung request is killed together
        # with its shard workers.
        proc = subprocess.Popen(repro_argv(*args), cwd=work.path,
                                env=work.env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL,
                                start_new_session=True)
        deadline = start + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(wall, proc.returncode,
                    out_path.read_text(errors="replace"),
                    usage.ru_maxrss / 1024.0)


# -- the checkout guard ----------------------------------------------------------


def _snapshot() -> dict:
    state = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        if dirpath == str(ROOT):
            dirnames[:] = [d for d in dirnames if d not in _UNGUARDED]
        for name in filenames:
            path = os.path.join(dirpath, name)
            try:
                info = os.lstat(path)
            except FileNotFoundError:
                continue
            state[os.path.relpath(path, ROOT)] = (info.st_size,
                                                  info.st_mtime_ns)
        for name in dirnames:
            state[os.path.relpath(os.path.join(dirpath, name), ROOT)
                  + "/"] = None
    return state


class CheckoutGuard:
    """Fails a run that created, changed or removed a checkout file."""

    def __init__(self):
        self.before = _snapshot()

    def changes(self) -> list:
        after = _snapshot()
        keys = set(self.before) | set(after)
        return sorted(key for key in keys
                      if self.before.get(key, "-") != after.get(key, "-"))

"""Always-on flight recorder: a bounded ring of recent telemetry events.

Offline telemetry answers "what happened?" only when ``--telemetry``
was enabled *before* the incident.  The flight recorder closes that
gap the way "Dynamic Slicing by On-demand Re-execution" recovers
detail after the fact: keep only a cheap bounded record at runtime —
a :class:`collections.deque` ring of the most recent schema-v2 events,
**no I/O on the hot path** — and materialize it as a JSONL file only
when something goes wrong (a :class:`~repro.vm.errors.VMError`, a
crashed or fault-killed worker attempt, ``SIGUSR1``, daemon shutdown).

The dump is a valid telemetry stream: each hub's leading ``meta``
event is *pinned* outside the ring (a long run would otherwise rotate
it out, orphaning the trace/clock context), so ``python -m repro
trace flight.jsonl`` renders a dump with the ordinary trace reader.
Dumps are written atomically (tmp + ``os.replace``) — a crash during
the dump itself can never leave a half-written file in place.

Wiring (see ``docs/OBSERVABILITY.md``): ``repro profile`` and ``repro
serve`` install a recorder by default (``--flight-record PATH`` to
move it, ``--no-flight-record`` to opt out).  With ``--telemetry``
the recorder taps the JSONL sink via :class:`RecorderSink`; without
it, a hub is created whose *only* sink is the ring, which is what
makes the recorder "always on" — worker-process events relayed
through the supervisor's result pipe land in the ring too, so a
killed worker's last spans survive in the dump.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import threading
from collections import deque

#: Events retained in the ring (per recorder).
DEFAULT_CAPACITY = 4096


def default_dump_path() -> str:
    """The default dump file: ``repro-flight-<pid>.jsonl`` in the
    system temp directory, so a dump never lands in the working
    directory and concurrent processes never overwrite each other."""
    return os.path.join(tempfile.gettempdir(),
                        f"repro-flight-{os.getpid()}.jsonl")


class FlightRecorder:
    """A bounded in-memory ring of telemetry events, dumpable on demand.

    ``record`` is the hot path: one deque append (O(1), drops the
    oldest event beyond ``capacity``) plus a dict insert for ``meta``
    events.  Nothing touches the filesystem until :meth:`dump`.
    """

    def __init__(self, path: str = None,
                 capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.path = path or default_dump_path()
        self.capacity = capacity
        self._ring = deque(maxlen=capacity)
        #: hub id -> that hub's ``meta`` event, pinned so a dump always
        #: carries the clock/trace context the trace reader needs.
        self._meta = {}
        self.recorded = 0
        self.dropped = 0
        self.dumps = 0

    def record(self, event: dict) -> None:
        if event.get("ev") == "meta":
            self._meta[event.get("hub", "")] = event
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)
        self.recorded += 1

    def __len__(self) -> int:
        return len(self._ring)

    def dump(self, reason: str, path: str = None) -> str:
        """Write the ring to ``path`` (default: the configured path)
        atomically; returns the path written.

        The pinned ``meta`` events lead the file (skipping any still
        present in the ring), followed by the ring in arrival order
        and a trailing ``flight.dump`` marker recording why and how
        much was dropped.
        """
        target = path or self.path
        ring = list(self._ring)
        ring_ids = {id(event) for event in ring}
        lines = [event for _hub, event in sorted(self._meta.items())
                 if id(event) not in ring_ids]
        lines.extend(ring)
        marker = {"ev": "flight.dump", "t": 0.0, "pid": os.getpid(),
                  "hub": "flight", "reason": reason,
                  "events": len(lines), "recorded": self.recorded,
                  "dropped": self.dropped, "capacity": self.capacity}
        tmp = f"{target}.tmp"
        with open(tmp, "w") as handle:
            for event in lines:
                handle.write(json.dumps(event, sort_keys=True))
                handle.write("\n")
            handle.write(json.dumps(marker, sort_keys=True))
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        self.dumps += 1
        return target


class RecorderSink:
    """A telemetry sink that records into a ring and forwards.

    With ``inner`` (e.g. the ``--telemetry`` :class:`JsonlSink`) every
    event goes both to the ring and onward; without it the ring is the
    only destination — the always-on configuration, which costs no I/O.
    """

    def __init__(self, recorder: FlightRecorder, inner=None):
        self.recorder = recorder
        self.inner = inner

    def emit(self, event: dict) -> None:
        self.recorder.record(event)
        if self.inner is not None:
            self.inner.emit(event)

    def close(self) -> None:
        if self.inner is not None:
            self.inner.close()


# -- the process-wide recorder ------------------------------------------------

_installed = None
_lock = threading.Lock()


def install(recorder: FlightRecorder):
    """Make ``recorder`` the process-wide recorder; returns the
    previous one (or None)."""
    global _installed
    with _lock:
        previous = _installed
        _installed = recorder
    return previous


def current_recorder():
    """The process-wide recorder, or None when none is installed."""
    return _installed


def dump_current(reason: str):
    """Dump the installed recorder, if any; returns the path written
    or None.  Never raises: a failed postmortem write must not mask
    the fault being recorded."""
    recorder = _installed
    if recorder is None:
        return None
    try:
        return recorder.dump(reason)
    except OSError:
        return None


def arm_signal(signum=getattr(signal, "SIGUSR1", None),
               reason: str = "sigusr1") -> bool:
    """Dump the installed recorder when ``signum`` arrives.

    Returns True when the handler was installed (main thread of a
    platform that has the signal), False otherwise.
    """
    if signum is None:
        return False

    def _handler(_signum, _frame):
        dump_current(reason)

    try:
        signal.signal(signum, _handler)
    except (ValueError, OSError):  # not the main thread / unsupported
        return False
    return True

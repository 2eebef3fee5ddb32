"""Structured run telemetry: counters, gauges, timers, latency
histograms, span tracing.

The paper's tool ran inside a production JVM where per-phase overhead,
context-register health, and shadow-memory footprint were operational
concerns (Table 1 reports instrumentation overheads next to the
analysis results).  This module is the reproduction's analogue: a
:class:`Telemetry` hub that the VM, the cost tracker, the batched
slicing engine, the shard supervisor, and the service daemon report
into, with a JSONL event sink for offline inspection
(``docs/OBSERVABILITY.md`` documents the schema).  The daemon's
``stats`` query serves the hub's counters, gauges, and histograms
(:func:`~repro.observability.metrics.snapshot`).

Zero-cost-when-disabled is a hard requirement — profiling overhead is
the subject being measured, so the measurement must not perturb it:

* the default hub is :data:`NULL` (a :class:`NullTelemetry`), whose
  every method is a no-op and whose ``enabled`` attribute is False;
* hot paths guard on that one attribute.  The VM dispatch loop folds
  its sampling checkpoint into the instruction-budget comparison it
  already performs, so the disabled-mode loop is *instruction-for-
  instruction identical* to the un-instrumented interpreter
  (``tests/test_telemetry.py`` asserts this structurally);
* per-opcode-class instruction counters are derived from the Gcost
  node frequencies *after* the run instead of being counted in the
  dispatch loop.

Events are plain dicts; every event carries ``ev`` (its kind), ``t``
(seconds since the hub was created), ``pid``, a per-hub monotonic
``seq``, and ``hub`` (the emitting stream's id).  Sinks receive events
as they are emitted; :class:`JsonlSink` writes one JSON object per
line.

Schema v2 adds *distributed tracing*: every hub belongs to a trace
(``trace_id``), spans carry ``span_id``/``parent_id`` and emit a
``span.start`` event on entry (so attempts that crash mid-span still
appear in the stream), and a worker process can run a *child hub*
(:func:`child_hub`) whose events are relayed back into the parent's
sink through the supervisor's result pipe (:class:`PipeSink`), so
one stream holds the whole run as a single stitched trace.
``repro.observability.trace`` rebuilds the span tree and ``python -m
repro trace run.jsonl`` renders the report.  Child
hubs only ever exist when the parent's hub is enabled, preserving the
zero-cost contract end to end.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import time
from contextlib import contextmanager
from typing import NamedTuple

from .metrics import Histogram

#: Schema version stamped into the leading ``meta`` event of a stream.
SCHEMA_VERSION = 2

#: Default instructions-between-samples for the VM growth samples.
DEFAULT_SAMPLE_INTERVAL = 65_536


# -- sinks -------------------------------------------------------------------


class MemorySink:
    """Accumulates events in a list (tests, in-process inspection)."""

    def __init__(self):
        self.events = []

    def emit(self, event: dict):
        self.events.append(event)

    def close(self):
        pass


class JsonlSink:
    """Appends one JSON object per event to a file.

    Crash-safe by construction: the handle is flushed after every
    ``flush_every`` events (default: every event, i.e. every batch the
    hub emits) and registered with ``atexit``, so events written
    before a worker crash or an un-closed interpreter exit survive as
    complete, parseable lines rather than dying in the buffer.
    ``close`` is idempotent, and events emitted after close (e.g. a
    hub flushed after the atexit pass) are dropped rather than raised.
    """

    def __init__(self, path, flush_every: int = 1):
        self.path = path
        self.flush_every = max(1, int(flush_every))
        self._pending = 0
        self._handle = open(path, "w")
        atexit.register(self.close)

    def emit(self, event: dict):
        handle = self._handle
        if handle.closed:
            return
        handle.write(json.dumps(event, sort_keys=True))
        handle.write("\n")
        self._pending += 1
        if self._pending >= self.flush_every:
            handle.flush()
            self._pending = 0

    def close(self):
        if self._handle.closed:
            return
        self._handle.flush()
        self._handle.close()
        atexit.unregister(self.close)


class PipeSink:
    """Relays events through a ``multiprocessing`` connection.

    The supervisor's worker-side sink: each event is sent immediately
    as an ``("ev", event)`` message on the result pipe, so the parent
    receives intra-shard telemetry *while the attempt runs* — events
    emitted before a crash, hang, or kill survive in the parent's
    stream even though the attempt never completes.  A broken pipe
    (parent already gave up on this attempt) drops events silently.
    """

    def __init__(self, conn):
        self.conn = conn
        self._broken = False

    def emit(self, event: dict):
        if self._broken:
            return
        try:
            self.conn.send(("ev", event))
        except (BrokenPipeError, OSError):
            self._broken = True

    def close(self):
        # The connection belongs to the worker body, which still has
        # its final result message to send.
        pass


def read_jsonl(path):
    """Parse a :class:`JsonlSink` file back into a list of events.

    Crash-safe readback: a stream cut mid-line by a dying writer keeps
    every complete line — an undecodable *trailing* line is skipped
    rather than raised.  Corruption anywhere earlier (a bad line with
    valid lines after it) is still an error: that is damage, not
    truncation.
    """
    with open(path) as handle:
        lines = [line.strip() for line in handle]
    lines = [(number, line) for number, line in enumerate(lines, 1)
             if line]
    events = []
    for position, (number, line) in enumerate(lines):
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if position == len(lines) - 1:
                break  # truncated trailing line: the writer died mid-write
            raise
    return events


# -- the disabled hub --------------------------------------------------------


class _NullSpan:
    """Reusable no-op context manager returned by ``NullTelemetry.span``."""

    __slots__ = ()

    #: Mirrors :class:`SpanHandle` so callers can read the id
    #: unconditionally (it is ``None``: no span was recorded).
    span_id = None
    parent_id = None
    name = ""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled hub: every operation is a no-op.

    Kept method-compatible with :class:`Telemetry` so cold paths can
    call it unconditionally; hot paths must still guard on
    ``enabled`` and skip the call entirely.
    """

    enabled = False

    def inc(self, name, delta=1):
        pass

    def gauge(self, name, value):
        pass

    def timer_add(self, name, seconds, count=1):
        pass

    def observe(self, name, seconds):
        pass

    def event(self, kind, **fields):
        pass

    def span(self, name, **meta):
        return _NULL_SPAN

    def relay(self, event):
        pass

    def trace_context(self):
        """Disabled hubs propagate nothing: child processes of a run
        with telemetry off must not build hubs of their own."""
        return None

    def vm_sample(self, vm, stack, count, shadow=None):  # pragma: no cover
        return count + DEFAULT_SAMPLE_INTERVAL

    def vm_finish(self, vm):
        pass

    def flush(self):
        pass

    def close(self):
        pass


NULL = NullTelemetry()

_current = NULL


def current():
    """The process-wide active hub (:data:`NULL` unless installed)."""
    return _current


def set_current(hub):
    """Install ``hub`` as the active hub; returns the previous one."""
    global _current
    previous = _current
    _current = hub if hub is not None else NULL
    return previous


@contextmanager
def use(hub):
    """Scope ``hub`` as the active hub for a ``with`` block."""
    previous = set_current(hub)
    try:
        yield hub
    finally:
        set_current(previous)


# -- trace context -----------------------------------------------------------


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (random; telemetry-only, so the
    randomness never touches the deterministic profiling paths)."""
    return os.urandom(8).hex()


#: Per-process hub ordinal: with the pid it makes hub/stream ids unique
#: even when several hubs live in one process (in-process relay).
_hub_ordinal = itertools.count(1)


class TraceContext(NamedTuple):
    """What a parent hub ships into a worker process.

    ``trace_id`` names the whole run; ``parent_span`` is the span the
    child's root span hangs under (the supervisor's map span);
    ``sample_interval`` keeps child VM sampling at the parent's
    cadence.  ``shard``/``attempt``/``label`` are stamped per attempt
    by the launcher (:func:`for_shard`).  A plain named tuple —
    picklable across any start method.
    """

    trace_id: str
    parent_span: str = None
    sample_interval: int = DEFAULT_SAMPLE_INTERVAL
    shard: int = None
    attempt: int = 0
    label: str = ""

    def for_shard(self, shard: int, attempt: int = 0,
                  label: str = "") -> "TraceContext":
        return self._replace(shard=shard, attempt=attempt, label=label)


class SpanHandle:
    """What :meth:`Telemetry.span` yields: the span's identity."""

    __slots__ = ("span_id", "parent_id", "name")

    def __init__(self, span_id, parent_id, name):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name


def child_hub(context: TraceContext, sink) -> "Telemetry":
    """The worker-side hub of a relayed trace.

    Joins the parent's trace (same ``trace_id``; root spans hang under
    ``context.parent_span``) and inherits its sampling cadence.  Only
    ever called when the parent's hub was enabled — a disabled parent
    propagates no :class:`TraceContext` at all.
    """
    return Telemetry(sink=sink, sample_interval=context.sample_interval,
                     trace_id=context.trace_id,
                     parent_span=context.parent_span)


def bound_shadows(shadow) -> int:
    """Shadow locations bound in one frame's ``shadow``: its register
    map, or the entry tuple its caller left, whose ``None`` entries
    have no producer (:mod:`repro.profiler.base`)."""
    if type(shadow) is tuple:
        return len(shadow) - shadow.count(None)
    return len(shadow) if shadow else 0


# -- the live hub ------------------------------------------------------------


class Telemetry:
    """Counter/gauge/timer/histogram hub with span tracing and an
    event sink.

    Parameters
    ----------
    sink:
        Event consumer (:class:`JsonlSink`, :class:`MemorySink`, or
        anything with ``emit(dict)``/``close()``).  Defaults to an
        in-memory sink.
    sample_interval:
        Instructions between VM growth samples (node/edge counts,
        shadow-location population, heap allocations).
    trace_id / parent_span:
        Trace membership (schema v2).  By default every hub starts a
        fresh trace; worker-side hubs join the parent's via
        :func:`child_hub`.
    """

    enabled = True

    def __init__(self, sink=None, sample_interval=DEFAULT_SAMPLE_INTERVAL,
                 clock=time.perf_counter, trace_id=None, parent_span=None):
        self.sink = sink if sink is not None else MemorySink()
        self.sample_interval = sample_interval
        self.counters = {}
        self.gauges = {}
        #: span/timer name -> [invocations, total seconds]
        self.timers = {}
        #: latency name -> fixed-bucket :class:`Histogram` (the
        #: daemon's ``stats`` latencies)
        self.histograms = {}
        self._clock = clock
        self._t0 = clock()
        self.trace_id = trace_id if trace_id else new_trace_id()
        self.parent_span = parent_span
        self.pid = os.getpid()
        #: Stream id: unique per hub even within one process, so span
        #: ids never collide between a parent hub and an in-process
        #: child hub, and the trace loader can group events per stream.
        self.hub_id = f"{self.pid:x}.{next(_hub_ordinal)}"
        self._seq = 0
        self._spans = 0
        #: Open-span stack; the top is the enclosing span of every
        #: event emitted right now (``sp`` field).
        self._span_stack = []
        self.event("meta", schema=SCHEMA_VERSION,
                   sample_interval=sample_interval,
                   trace=self.trace_id, parent_span=parent_span,
                   t0_unix=round(time.time(), 6))

    # -- primitives ----------------------------------------------------------

    def _now(self) -> float:
        return self._clock() - self._t0

    def inc(self, name: str, delta=1):
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value):
        self.gauges[name] = value

    def timer_add(self, name: str, seconds: float, count: int = 1):
        timer = self.timers.get(name)
        if timer is None:
            self.timers[name] = [count, seconds]
        else:
            timer[0] += count
            timer[1] += seconds

    def observe(self, name: str, seconds: float):
        """Add one latency sample to the histogram ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(seconds)

    def event(self, kind: str, **fields):
        self._seq += 1
        record = {"ev": kind, "t": round(self._now(), 6),
                  "pid": self.pid, "seq": self._seq, "hub": self.hub_id}
        if self._span_stack:
            record["sp"] = self._span_stack[-1]
        record.update(fields)
        self.sink.emit(record)

    def relay(self, event: dict):
        """Append an already-formed event from another stream verbatim.

        The cross-process stitch: child-hub events (carrying their own
        ``t``/``pid``/``seq``/``hub`` and span ids) land in this hub's
        sink untouched, so one JSONL file holds the whole trace.
        """
        self.inc("telemetry.relayed")
        self.sink.emit(event)

    def _enter_span(self, name, meta):
        parent = (self._span_stack[-1] if self._span_stack
                  else self.parent_span)
        self._spans += 1
        span_id = f"{self.hub_id}.{self._spans}"
        self.event("span.start", name=name, span_id=span_id,
                   parent_id=parent, **meta)
        self._span_stack.append(span_id)
        return SpanHandle(span_id, parent, name)

    @contextmanager
    def span(self, name: str, **meta):
        """Phase trace: times the block, emits paired ``span.start`` /
        ``span`` events (start survives even if the process dies inside
        the block), and yields the :class:`SpanHandle`."""
        handle = self._enter_span(name, meta)
        start = self._now()
        try:
            yield handle
        finally:
            duration = self._now() - start
            self._span_stack.pop()
            self.timer_add(name, duration)
            self.event("span", name=name, span_id=handle.span_id,
                       parent_id=handle.parent_id,
                       dur=round(duration, 6), **meta)

    def trace_context(self) -> TraceContext:
        """The context a worker launched *right now* should inherit:
        this hub's trace, with the currently open span (if any) as the
        child's parent."""
        parent = (self._span_stack[-1] if self._span_stack
                  else self.parent_span)
        return TraceContext(trace_id=self.trace_id, parent_span=parent,
                            sample_interval=self.sample_interval)

    # -- VM integration ------------------------------------------------------

    def vm_sample(self, vm, stack, count: int, shadow=None) -> int:
        """Growth sample at an instruction checkpoint; returns the next
        checkpoint.

        Reports executed instructions, heap allocations, live
        shadow-location population (each frame's
        :func:`bound_shadows`, or ``shadow`` when the caller counted
        them itself, plus the
        tracker's static shadow), and — when the tracer builds a
        dependence graph — Gcost node/edge counts, so node/edge growth
        and shadow-memory footprint are visible *over time*, not just
        at exit.
        """
        if shadow is None:
            shadow = sum(bound_shadows(frame.shadow) for frame in stack)
        fields = {"i": count, "heap": vm.heap.total_allocated,
                  "shadow": shadow, "frames": len(stack)}
        tracer = vm.tracer
        if tracer is not None:
            graph = getattr(tracer, "graph", None)
            if graph is not None:
                fields["nodes"] = graph.num_nodes
                fields["edges"] = graph.num_edges
            static_shadow = getattr(tracer, "_static_shadow", None)
            if static_shadow:
                fields["shadow"] += len(static_shadow)
        self.event("sample", **fields)
        return count + self.sample_interval

    def vm_finish(self, vm):
        """Run summary: totals plus per-opcode-class counters.

        The opcode-class counts are derived from the tracker's Gcost
        node frequencies (each traced instruction execution bumps its
        node exactly once), so the dispatch loop never counts opcodes
        itself.  Control/glue instructions that create no Gcost node
        (jumps, calls, returns, untracked phases) land in the
        ``control/untracked`` remainder.
        """
        counts = opcode_class_counts(vm)
        for name, value in counts.items():
            self.inc(f"vm.instr[{name}]", value)
        self.event("vm.run", instructions=vm.instr_count,
                   heap=vm.heap.total_allocated,
                   phases=dict(vm.phase_counts))

    # -- lifecycle -----------------------------------------------------------

    def flush(self):
        """Emit accumulated counters/gauges/timers as summary events."""
        if self.counters:
            self.event("counters",
                       counters=dict(sorted(self.counters.items())))
        if self.gauges:
            self.event("gauges", gauges=dict(sorted(self.gauges.items())))
        if self.timers:
            self.event("timers",
                       timers={name: {"n": n, "total": round(total, 6)}
                               for name, (n, total)
                               in sorted(self.timers.items())})

    def close(self):
        self.flush()
        self.sink.close()


# -- derived statistics ------------------------------------------------------

#: opcode value -> human-readable opcode class (report/counter labels).
OPCODE_CLASSES = {}


def _init_opcode_classes():
    from ..ir import instructions as ins
    OPCODE_CLASSES.update({
        ins.OP_CONST: "const",
        ins.OP_MOVE: "move",
        ins.OP_BINOP: "binop",
        ins.OP_UNOP: "unop",
        ins.OP_INTRINSIC: "intrinsic",
        ins.OP_BRANCH: "branch",
        ins.OP_JUMP: "jump",
        ins.OP_NEW_OBJECT: "alloc",
        ins.OP_NEW_ARRAY: "alloc",
        ins.OP_LOAD_FIELD: "heap_read",
        ins.OP_ARRAY_LOAD: "heap_read",
        ins.OP_LOAD_STATIC: "heap_read",
        ins.OP_STORE_FIELD: "heap_write",
        ins.OP_ARRAY_STORE: "heap_write",
        ins.OP_STORE_STATIC: "heap_write",
        ins.OP_ARRAY_LEN: "array_len",
        ins.OP_CALL: "call",
        ins.OP_RETURN: "return",
        ins.OP_CALL_NATIVE: "native",
    })


def opcode_class_counts(vm) -> dict:
    """Executed-instruction counts per opcode class, derived post-run.

    Sums the Gcost node frequencies per static instruction (every
    traced execution bumps its ``(iid, d)`` node once; summing over
    ``d`` recovers the per-instruction count) and buckets them by
    opcode class.  Instructions the tracker does not materialize as
    nodes — jumps, calls, returns — plus anything executed while
    tracking was disabled are reported as ``control/untracked``.
    Returns an empty dict for untracked runs (no graph to derive
    from).
    """
    tracer = vm.tracer
    graph = getattr(tracer, "graph", None) if tracer is not None else None
    if graph is None:
        return {}
    if not OPCODE_CLASSES:
        _init_opcode_classes()
    class_of = {instr.iid: OPCODE_CLASSES.get(instr.op, "other")
                for instr in vm.program.instructions}
    counts = {}
    traced = 0
    for node, (iid, _d) in enumerate(graph.node_keys):
        name = class_of.get(iid, "other")
        freq = graph.freq[node]
        counts[name] = counts.get(name, 0) + freq
        traced += freq
    remainder = vm.instr_count - traced
    if remainder > 0:
        counts["control/untracked"] = remainder
    return counts


def slot_collision_counts(tracker) -> dict:
    """Context-slot collision counts: slot ``d`` -> extra contexts.

    A collision happens when several distinct encoded contexts of one
    static instruction hash to the same context slot (the conflation
    the conflict ratio of §2.3 averages).  For every graph node with a
    recorded context set, ``len(set) - 1`` contexts beyond the first
    are conflated into its slot; summing per slot shows which of the
    ``s`` slots absorb the conflation.
    """
    collisions = {}
    node_keys = tracker.graph.node_keys
    for node, gs in enumerate(tracker._node_gs):
        if not gs or len(gs) <= 1:
            continue
        slot = node_keys[node][1]
        collisions[slot] = collisions.get(slot, 0) + len(gs) - 1
    return collisions


def emit_tracker_stats(telemetry, tracker) -> None:
    """Flush tracker-side health statistics into the hub.

    Emits a ``tracker`` event (graph size, memory estimate, CR,
    per-slot collision counts) and mirrors the headline numbers as
    gauges.  Cold path — call once per run, after execution.
    """
    if not telemetry.enabled:
        return
    graph = tracker.graph
    cr = tracker.conflict_ratio()
    collisions = slot_collision_counts(tracker)
    telemetry.gauge("tracker.nodes", graph.num_nodes)
    telemetry.gauge("tracker.edges", graph.num_edges)
    telemetry.gauge("tracker.memory_bytes", graph.memory_bytes())
    telemetry.gauge("tracker.cr", round(cr, 6))
    telemetry.event("tracker", slots=tracker.slots,
                    nodes=graph.num_nodes, edges=graph.num_edges,
                    ref_edges=len(graph.ref_edges),
                    memory_bytes=graph.memory_bytes(),
                    cr=round(cr, 6),
                    slot_collisions={str(slot): n for slot, n
                                     in sorted(collisions.items())})

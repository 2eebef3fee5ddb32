"""Trace model: rebuild a run's span tree from a telemetry stream.

The shard supervisor executes shards in child processes, and schema
v2 relays their telemetry back into the parent's JSONL stream (see
:mod:`repro.observability.telemetry`): one file ends up holding events
from every process of the run, each stamped with ``pid``/``seq``/``hub``
and — for spans — ``span_id``/``parent_id`` pairs that cross process
boundaries (a worker's root ``shard.run`` span hangs under the
parent's ``supervisor.map`` span).  This module turns that flat stream
back into a tree and answers the question a single-process hub could
not: *where did the wall time of an 8-shard supervised run actually
go?*

* :func:`load_trace` / :func:`trace_from_events` — parse a stream,
  align per-process clocks (every hub's ``meta`` event carries
  ``t0_unix``), pair ``span.start``/``span`` events, and stitch the
  cross-process tree.  Spans whose process died before closing them
  (crashed or killed attempts) are kept as *unfinished*, ending at the
  last event their stream produced — failed attempts stay visible.
* :meth:`Trace.critical_path` — the chain of spans that bounds the
  run's wall: walking backward from the end of the trace, always
  through the span that finishes last, recursing into children.  Its
  duration is by construction ≤ the run wall; the gap between the two
  is time no recorded span accounts for.
* :func:`format_trace_report` — the ``python -m repro trace`` report:
  per-phase wall attribution, the shard table (every attempt,
  including failed ones), the critical path, retry waste, and the
  telemetry stream's own footprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .telemetry import read_jsonl


@dataclass
class Span:
    """One reconstructed span (a ``span.start``/``span`` event pair)."""

    span_id: str
    name: str
    parent_id: str = None
    pid: int = 0
    hub: str = ""
    #: Trace-relative seconds (0 = the earliest hub's creation).
    start: float = 0.0
    end: float = 0.0
    #: False when the stream holds the start but no close — the
    #: process died (or was killed) inside the span.
    finished: bool = True
    meta: dict = field(default_factory=dict)
    children: list = field(default_factory=list)
    #: Non-span events emitted while this span was innermost.
    events: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def label(self) -> str:
        """Human-readable one-liner: name plus identifying metadata."""
        parts = [self.name]
        if "shard" in self.meta and self.meta["shard"] is not None:
            parts.append(f"shard={self.meta['shard']}")
        if self.meta.get("attempt"):
            parts.append(f"attempt={self.meta['attempt']}")
        if self.meta.get("label"):
            parts.append(f"[{self.meta['label']}]")
        if not self.finished:
            parts.append("(unfinished)")
        return " ".join(parts)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class PathStep:
    """One segment of the critical path.

    ``start``/``end`` are the segment's window — a span re-entered
    behind a later sibling contributes only the part of its duration
    the chain actually passes through, so summing top-level segment
    windows never exceeds the trace wall.
    """

    span: Span
    depth: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


#: Meta-event fields that describe the stream itself, not a span.
_META_KEYS = ("schema", "sample_interval", "trace", "parent_span",
              "t0_unix")


class Trace:
    """A run's reconstructed cross-process trace."""

    def __init__(self, events):
        self.events = list(events)
        self.spans = {}          # span_id -> Span
        self.roots = []
        self.processes = {}      # hub id -> {"pid", "t0_unix", "events"}
        self.trace_ids = []
        self.schema = None
        self._build()

    # -- construction --------------------------------------------------------

    def _build(self):
        events = self.events
        # Pass 1: one clock origin per hub/stream.  Pre-v2 streams
        # have no hub stamps; treat the whole file as one stream.
        for event in events:
            hub = event.get("hub", "")
            proc = self.processes.setdefault(
                hub, {"pid": event.get("pid"), "t0_unix": None,
                      "events": 0, "last_t": 0.0})
            proc["events"] += 1
            proc["last_t"] = max(proc["last_t"], event.get("t", 0.0))
            if event.get("ev") == "meta":
                if event.get("t0_unix") is not None:
                    proc["t0_unix"] = event["t0_unix"]
                if event.get("trace") and event["trace"] not in self.trace_ids:
                    self.trace_ids.append(event["trace"])
                if self.schema is None:
                    self.schema = event.get("schema")
        known = [p["t0_unix"] for p in self.processes.values()
                 if p["t0_unix"] is not None]
        origin = min(known) if known else 0.0

        def at(event):
            t0 = self.processes[event.get("hub", "")]["t0_unix"]
            base = (t0 - origin) if t0 is not None else 0.0
            return base + event.get("t", 0.0)

        # Pass 2: pair span.start / span events into Span objects.
        open_spans = {}
        for event in events:
            kind = event.get("ev")
            if kind == "span.start":
                meta = {key: value for key, value in event.items()
                        if key not in ("ev", "t", "pid", "seq", "hub",
                                       "sp", "name", "span_id",
                                       "parent_id")}
                span = Span(span_id=event["span_id"], name=event["name"],
                            parent_id=event.get("parent_id"),
                            pid=event.get("pid", 0),
                            hub=event.get("hub", ""),
                            start=at(event), end=at(event),
                            finished=False, meta=meta)
                self.spans[span.span_id] = span
                open_spans[span.span_id] = span
            elif kind == "span":
                span = self.spans.get(event.get("span_id"))
                if span is None:
                    # Pre-v2 stream (or lost start): synthesize from
                    # the close alone so old files still render.
                    dur = event.get("dur", 0.0)
                    span = Span(span_id=event.get("span_id")
                                or f"synth.{len(self.spans)}",
                                name=event.get("name", "?"),
                                parent_id=event.get("parent_id"),
                                pid=event.get("pid", 0),
                                hub=event.get("hub", ""),
                                start=at(event) - dur, end=at(event))
                    self.spans[span.span_id] = span
                else:
                    span.end = at(event)
                    span.finished = True
                    open_spans.pop(span.span_id, None)

        # Unfinished spans end at their stream's last recorded event.
        for span in open_spans.values():
            proc = self.processes.get(span.hub)
            if proc is not None:
                t0 = proc["t0_unix"]
                base = (t0 - origin) if t0 is not None else 0.0
                span.end = max(span.start, base + proc["last_t"])

        # Pass 3: the tree, plus event attachment.
        for span in self.spans.values():
            parent = self.spans.get(span.parent_id)
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)
        for span in self.spans.values():
            span.children.sort(key=lambda s: (s.start, s.span_id))
        self.roots.sort(key=lambda s: (s.start, s.span_id))
        for event in events:
            span = self.spans.get(event.get("sp"))
            if span is not None and event.get("ev") not in ("span.start",
                                                            "span"):
                span.events.append(event)

        ends = [span.end for span in self.spans.values()]
        ends.extend(at(e) for e in events)
        starts = [span.start for span in self.spans.values()]
        self.wall = (max(ends) - min(min(starts), 0.0)) if ends else 0.0

    # -- queries -------------------------------------------------------------

    @property
    def trace_id(self):
        return self.trace_ids[0] if self.trace_ids else None

    def spans_named(self, name: str):
        return sorted((span for span in self.spans.values()
                       if span.name == name),
                      key=lambda s: (s.start, s.span_id))

    def shard_attempts(self):
        """Every ``shard.run`` span — one per shard *attempt*, failed
        and killed attempts included (their spans are unfinished)."""
        return sorted(self.spans_named("shard.run"),
                      key=lambda s: (s.meta.get("shard", -1),
                                     s.meta.get("attempt", 0)))

    def phase_walls(self) -> dict:
        """name -> total seconds over the trace's *root* spans (the
        parent process's top-level phases: compile/map/merge/...)."""
        walls = {}
        for span in self.roots:
            walls[span.name] = walls.get(span.name, 0.0) + span.duration
        return walls

    def retry_waste(self):
        """(seconds lost to non-final attempts, backoff seconds, count).

        A shard's final attempt is the work the merge kept; every
        earlier attempt's span is wall the run burned re-doing it, and
        the supervisor's ``supervisor.retry`` events record the
        backoff sleeps in between.
        """
        last_attempt = {}
        for span in self.shard_attempts():
            shard = span.meta.get("shard")
            attempt = span.meta.get("attempt", 0)
            if shard is None:
                continue
            known = last_attempt.get(shard, -1)
            last_attempt[shard] = max(known, attempt)
        wasted = 0.0
        count = 0
        for span in self.shard_attempts():
            shard = span.meta.get("shard")
            if shard is None:
                continue
            if span.meta.get("attempt", 0) < last_attempt[shard]:
                wasted += span.duration
                count += 1
        backoff = sum(event.get("delay_s", 0.0) for event in self.events
                      if event.get("ev") == "supervisor.retry")
        return wasted, backoff, count

    def telemetry_footprint(self) -> dict:
        """The stream's own cost: events per stream plus relay count."""
        relayed = 0
        for event in self.events:
            if event.get("ev") == "counters":
                relayed = max(relayed, event.get("counters", {})
                              .get("telemetry.relayed", 0))
        return {"events": len(self.events),
                "streams": len(self.processes),
                "relayed": relayed}

    # -- critical path -------------------------------------------------------

    def critical_path(self):
        """The span chain bounding the run's wall, as :class:`PathStep`\\ s.

        Walks backward from the latest end: at each level the step is
        the span that *ends last* before the cursor (the span the
        window's completion had to wait for — with parallel shards,
        the slowest one), clamped to the unclaimed window; then the
        walk continues from that span's start.  Children refine each
        step recursively.  Top-level steps never overlap, so
        :meth:`critical_path_duration` ≤ the trace wall.
        """
        steps = []

        def chain(spans, window_start, window_end, depth):
            out = []
            cursor = window_end
            remaining = [span for span in spans
                         if span.end > window_start
                         and span.start < window_end]
            while remaining and cursor > window_start:
                active = [span for span in remaining
                          if span.start < cursor]
                if not active:
                    break
                pick = max(active,
                           key=lambda s: (min(s.end, cursor), -s.start))
                seg_start = max(pick.start, window_start)
                seg_end = min(pick.end, cursor)
                if seg_end <= seg_start:
                    remaining.remove(pick)
                    continue
                step = PathStep(pick, depth, seg_start, seg_end)
                sub = chain(pick.children, seg_start, seg_end, depth + 1)
                out.append((step, sub))
                cursor = seg_start
                remaining.remove(pick)
            out.reverse()
            flat = []
            for step, sub in out:
                flat.append(step)
                flat.extend(sub)
            return flat

        if self.roots:
            window_end = max(span.end for span in self.roots)
            window_start = min(span.start for span in self.roots)
            steps = chain(self.roots, window_start, window_end, 0)
        return steps

    def critical_path_duration(self) -> float:
        return sum(step.duration for step in self.critical_path()
                   if step.depth == 0)


def trace_from_events(events) -> Trace:
    """Build a :class:`Trace` from an in-memory event list."""
    return Trace(events)


def load_trace(path) -> Trace:
    """Build a :class:`Trace` from a ``--telemetry`` JSONL file
    (crash-safe readback: a truncated trailing line is skipped)."""
    return Trace(read_jsonl(path))


# -- the report --------------------------------------------------------------


def _fmt_s(seconds: float) -> str:
    return f"{seconds:.3f}s"


def format_trace_report(trace: Trace, top: int = 10) -> str:
    """The ``python -m repro trace`` text report."""
    out = []
    ident = trace.trace_id or "(untraced stream)"
    out.append(f"trace {ident}: {len(trace.events)} events from "
               f"{len(trace.processes)} stream(s), "
               f"{len(trace.spans)} spans, wall {_fmt_s(trace.wall)}")
    if trace.schema is not None and trace.schema < 2:
        out.append("  (schema v1 stream: no cross-process relay; "
                   "re-profile with this version for the full trace)")
    out.append("")

    # Phase attribution over root spans.
    walls = trace.phase_walls()
    if walls:
        out.append("phases (top-level spans):")
        total = trace.wall or 1.0
        for name, wall in sorted(walls.items(), key=lambda kv: -kv[1]):
            out.append(f"  {name:<24} {_fmt_s(wall):>10}  "
                       f"{100.0 * wall / total:5.1f}%")
        unattributed = trace.wall - sum(walls.values())
        if unattributed > 0:
            out.append(f"  {'(unattributed)':<24} "
                       f"{_fmt_s(unattributed):>10}  "
                       f"{100.0 * unattributed / total:5.1f}%")
        out.append("")

    # Shard attempts, slowest first — every attempt, failed included.
    attempts = trace.shard_attempts()
    if attempts:
        out.append(f"shard attempts ({len(attempts)}, slowest first):")
        final = {}
        for span in attempts:
            shard = span.meta.get("shard")
            final[shard] = max(final.get(shard, 0),
                               span.meta.get("attempt", 0))
        ranked = sorted(attempts, key=lambda s: -s.duration)
        for span in ranked[:top]:
            status = "ok" if span.finished else "died"
            if (status == "ok" and span.meta.get("attempt", 0)
                    < final.get(span.meta.get("shard"), 0)):
                status = "superseded"
            if span.meta.get("partial"):
                status = "partial"
            out.append(f"  shard {span.meta.get('shard', '?')!s:>3} "
                       f"attempt {span.meta.get('attempt', 0)} "
                       f"pid {span.pid:<8} {_fmt_s(span.duration):>10}  "
                       f"{status}"
                       + (f"  [{span.meta['label']}]"
                          if span.meta.get("label") else ""))
        if len(attempts) > top:
            out.append(f"  ... {len(attempts) - top} more")
        out.append("")

    # Critical path.
    path = trace.critical_path()
    if path:
        duration = trace.critical_path_duration()
        out.append(f"critical path ({_fmt_s(duration)} of "
                   f"{_fmt_s(trace.wall)} wall):")
        for step in path:
            indent = "  " + "  " * step.depth
            out.append(f"{indent}{step.span.label():<40} "
                       f"{_fmt_s(step.duration):>10}")
        out.append("")

    # Retry waste.
    wasted, backoff, count = trace.retry_waste()
    if count or backoff:
        out.append(f"retry waste: {_fmt_s(wasted)} across {count} "
                   f"superseded attempt(s), plus {_fmt_s(backoff)} "
                   f"backoff")
        out.append("")

    # The stream's own footprint.
    footprint = trace.telemetry_footprint()
    out.append(f"telemetry footprint: {footprint['events']} events, "
               f"{footprint['relayed']} relayed from workers, "
               f"{footprint['streams']} stream(s)")
    return "\n".join(out)


def trace_to_dict(trace: Trace, top: int = 10) -> dict:
    """Machine-readable form of the trace report (``--format json``)."""

    def span_dict(span):
        return {"span_id": span.span_id, "name": span.name,
                "parent_id": span.parent_id, "pid": span.pid,
                "start": round(span.start, 6), "end": round(span.end, 6),
                "duration": round(span.duration, 6),
                "finished": span.finished, "meta": span.meta,
                "children": [span_dict(child) for child in span.children]}

    wasted, backoff, count = trace.retry_waste()
    return {
        "trace_id": trace.trace_id,
        "schema": trace.schema,
        "wall_s": round(trace.wall, 6),
        "events": len(trace.events),
        "streams": len(trace.processes),
        "phases": {name: round(wall, 6)
                   for name, wall in sorted(trace.phase_walls().items())},
        "span_tree": [span_dict(span) for span in trace.roots],
        "shard_attempts": [
            {"shard": span.meta.get("shard"),
             "attempt": span.meta.get("attempt", 0),
             "label": span.meta.get("label", ""),
             "pid": span.pid,
             "duration": round(span.duration, 6),
             "finished": span.finished}
            for span in trace.shard_attempts()],
        "critical_path": [
            {"name": step.span.name, "depth": step.depth,
             "span_id": step.span.span_id,
             "duration": round(step.duration, 6)}
            for step in trace.critical_path()],
        "critical_path_s": round(trace.critical_path_duration(), 6),
        "retry_waste_s": round(wasted, 6),
        "retry_backoff_s": round(backoff, 6),
        "superseded_attempts": count,
        "telemetry": trace.telemetry_footprint(),
    }

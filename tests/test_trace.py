"""Trace model tests: span stitching, critical path, end-to-end relay.

Unit tests drive :mod:`repro.observability.trace` over hand-built
schema-v2 event streams (multiple hubs, skewed clocks, crashed spans);
the end-to-end tests run real supervised profiles with
telemetry enabled and check the acceptance criterion: one JSONL file
parses into one trace whose span tree holds *every* shard attempt —
failed ones included — with intact parentage, and whose critical path
never exceeds the measured run wall.
"""

import time

import pytest

from repro.observability import (JsonlSink, Telemetry, load_trace,
                                 format_trace_report, trace_from_events,
                                 trace_to_dict, use)
from repro.profiler import (ProfileJob, ShardPolicy, SupervisedProfiler)
from repro.testing.faults import FaultPlan, FaultSpec

TRACE = "cafe0123deadbeef"


def _meta(hub, pid, t0_unix, parent_span=None):
    return {"ev": "meta", "t": 0.0, "pid": pid, "seq": 1, "hub": hub,
            "schema": 2, "sample_interval": 10000, "trace": TRACE,
            "parent_span": parent_span, "t0_unix": t0_unix}


def _start(hub, pid, span_id, name, t, parent_id=None, **meta):
    return {"ev": "span.start", "t": t, "pid": pid, "seq": 0,
            "hub": hub, "name": name, "span_id": span_id,
            "parent_id": parent_id, **meta}


def _close(hub, pid, span_id, name, t, dur, parent_id=None, **meta):
    return {"ev": "span", "t": t, "pid": pid, "seq": 0, "hub": hub,
            "name": name, "span_id": span_id, "parent_id": parent_id,
            "dur": dur, **meta}


def _two_process_stream():
    """A parent hub (t0=100.0) plus one worker hub (t0=100.2) whose
    shard.run hangs under the parent's supervisor.map span."""
    return [
        _meta("1.1", 1, 100.0),
        _start("1.1", 1, "1.1.1", "supervisor.map", 0.0),
        _meta("2.1", 2, 100.2, parent_span="1.1.1"),
        _start("2.1", 2, "2.1.1", "shard.run", 0.0,
               parent_id="1.1.1", shard=0, attempt=0, label="s0"),
        {"ev": "vm.run", "t": 0.4, "pid": 2, "seq": 3, "hub": "2.1",
         "sp": "2.1.1", "instructions": 99},
        _close("2.1", 2, "2.1.1", "shard.run", 0.5, 0.5,
               parent_id="1.1.1", shard=0, attempt=0, label="s0"),
        _close("1.1", 1, "1.1.1", "supervisor.map", 1.0, 1.0),
    ]


class TestTraceModel:
    def test_cross_process_tree_and_clock_alignment(self):
        trace = trace_from_events(_two_process_stream())
        assert trace.trace_id == TRACE
        assert trace.schema == 2
        assert len(trace.processes) == 2
        [root] = trace.roots
        assert root.name == "supervisor.map"
        [run] = root.children
        assert run.name == "shard.run"
        assert run.parent_id == root.span_id
        # Worker clock is 0.2s behind the parent's origin.
        assert run.start == pytest.approx(0.2)
        assert run.end == pytest.approx(0.7)
        assert trace.wall == pytest.approx(1.0)
        # The vm.run event attached to its innermost span.
        assert [e["ev"] for e in run.events] == ["vm.run"]

    def test_unfinished_span_ends_at_streams_last_event(self):
        events = [
            _meta("1.1", 1, 100.0),
            _start("1.1", 1, "1.1.1", "supervisor.map", 0.0),
            _meta("3.1", 3, 100.1, parent_span="1.1.1"),
            _start("3.1", 3, "3.1.1", "shard.run", 0.0,
                   parent_id="1.1.1", shard=1, attempt=0),
            {"ev": "sample", "t": 0.25, "pid": 3, "seq": 3,
             "hub": "3.1", "sp": "3.1.1"},
            # No close: the worker crashed here.
            _close("1.1", 1, "1.1.1", "supervisor.map", 1.0, 1.0),
        ]
        trace = trace_from_events(events)
        [run] = trace.shard_attempts()
        assert not run.finished
        assert run.start == pytest.approx(0.1)
        assert run.end == pytest.approx(0.35)   # last stream event
        assert "(unfinished)" in run.label()

    def test_critical_path_picks_last_ending_chain(self):
        events = [
            _meta("1.1", 1, 100.0),
            _start("1.1", 1, "1.1.1", "supervisor.map", 0.0),
            _start("1.1", 1, "1.1.2", "fast", 0.05, parent_id="1.1.1"),
            _close("1.1", 1, "1.1.2", "fast", 0.3, 0.25,
                   parent_id="1.1.1"),
            _start("1.1", 1, "1.1.3", "slow", 0.1, parent_id="1.1.1"),
            _close("1.1", 1, "1.1.3", "slow", 0.9, 0.8,
                   parent_id="1.1.1"),
            _close("1.1", 1, "1.1.1", "supervisor.map", 1.0, 1.0),
            _start("1.1", 1, "1.1.4", "merge", 1.0),
            _close("1.1", 1, "1.1.4", "merge", 1.2, 0.2),
        ]
        trace = trace_from_events(events)
        path = trace.critical_path()
        names = [(step.span.name, step.depth) for step in path]
        assert ("slow", 1) in names
        assert names[-1] == ("merge", 0)
        by_name = {step.span.name: step for step in path}
        # The chain waits on the last-ending child for the bulk of the
        # window; the earlier sibling contributes only the clamped
        # stretch before "slow" starts.
        assert by_name["slow"].duration == pytest.approx(0.8)
        assert by_name["fast"].duration == pytest.approx(0.05)
        assert trace.critical_path_duration() <= trace.wall + 1e-9
        # Top-level segments never overlap.
        top = [s for s in path if s.depth == 0]
        for first, second in zip(top, top[1:]):
            assert first.end <= second.start + 1e-9

    def test_retry_waste_counts_superseded_attempts(self):
        events = [
            _meta("1.1", 1, 100.0),
            _start("1.1", 1, "1.1.1", "supervisor.map", 0.0),
            _start("1.1", 1, "1.1.2", "shard.run", 0.0,
                   parent_id="1.1.1", shard=0, attempt=0),
            _close("1.1", 1, "1.1.2", "shard.run", 0.3, 0.3,
                   parent_id="1.1.1", shard=0, attempt=0),
            {"ev": "supervisor.retry", "t": 0.3, "pid": 1, "seq": 9,
             "hub": "1.1", "sp": "1.1.1", "shard": 0, "attempt": 0,
             "delay_s": 0.05},
            _start("1.1", 1, "1.1.3", "shard.run", 0.4,
                   parent_id="1.1.1", shard=0, attempt=1),
            _close("1.1", 1, "1.1.3", "shard.run", 0.8, 0.4,
                   parent_id="1.1.1", shard=0, attempt=1),
            _close("1.1", 1, "1.1.1", "supervisor.map", 1.0, 1.0),
        ]
        trace = trace_from_events(events)
        wasted, backoff, count = trace.retry_waste()
        assert count == 1
        assert wasted == pytest.approx(0.3)
        assert backoff == pytest.approx(0.05)

    def test_pre_v2_close_only_stream_still_renders(self):
        # A v1-era file: bare span events, no ids, no hub stamps.
        events = [
            {"ev": "meta", "t": 0.0, "schema": 1,
             "sample_interval": 10000},
            {"ev": "span", "t": 0.5, "name": "supervisor.map",
             "dur": 0.5},
        ]
        trace = trace_from_events(events)
        assert len(trace.spans) == 1
        [span] = trace.roots
        assert span.name == "supervisor.map"
        assert span.duration == pytest.approx(0.5)
        report = format_trace_report(trace)
        assert "schema v1" in report

    def test_report_and_dict_forms(self):
        trace = trace_from_events(_two_process_stream())
        report = format_trace_report(trace)
        assert f"trace {TRACE}" in report
        assert "supervisor.map" in report
        assert "shard   0" in report
        assert "critical path" in report
        data = trace_to_dict(trace)
        assert data["trace_id"] == TRACE
        assert data["critical_path_s"] <= data["wall_s"] + 1e-9
        assert data["span_tree"][0]["children"][0]["name"] == "shard.run"
        assert data["shard_attempts"][0]["finished"] is True


class TestEndToEnd:
    def _jobs(self, n=4):
        return [ProfileJob.stress(stages=6, chain=4, rounds=1, seed=s,
                                  label=f"shard{s}")
                for s in range(n)]

    def test_supervised_crash_retry_single_stitched_trace(self, tmp_path):
        # The acceptance criterion: 4 workers, a crash+retry plan, one
        # JSONL file -> one trace holding every attempt.
        path = str(tmp_path / "run.jsonl")
        plan = FaultPlan({(1, 0): FaultSpec("crash"),
                          (2, 0): FaultSpec("error")})
        hub = Telemetry(sink=JsonlSink(path))
        start = time.perf_counter()
        with use(hub):
            run = SupervisedProfiler(
                workers=4,
                policy=ShardPolicy(max_retries=2, backoff_base_s=0.01),
                fault_plan=plan).profile(self._jobs())
        hub.close()
        wall = time.perf_counter() - start
        assert run.report.ok and run.report.retries == 2

        trace = load_trace(path)
        assert trace.trace_ids == [hub.trace_id]
        attempts = {(s.meta.get("shard"), s.meta.get("attempt"))
                    for s in trace.shard_attempts()}
        assert attempts == {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1),
                            (3, 0)}
        crashed = next(s for s in trace.shard_attempts()
                       if (s.meta.get("shard"),
                           s.meta.get("attempt")) == (1, 0))
        assert not crashed.finished
        [map_span] = trace.spans_named("supervisor.map")
        for span in trace.shard_attempts():
            assert span.parent_id == map_span.span_id
        assert trace.critical_path_duration() <= trace.wall + 1e-6
        assert trace.wall <= wall + 0.5

    def test_shard_meta_carries_span_context(self, tmp_path):
        path = str(tmp_path / "ctx.jsonl")
        hub = Telemetry(sink=JsonlSink(path))
        with use(hub):
            run = SupervisedProfiler(workers=2).profile(self._jobs(2))
        hub.close()
        trace = load_trace(path)
        span_ids = {s.span_id for s in trace.shard_attempts()}
        for meta in run.profile.metas:
            record = meta["trace"]
            assert record["trace_id"] == hub.trace_id
            assert record["span_id"] in span_ids

    def test_trace_shape_independent_of_worker_count(self, tmp_path):
        jobs = self._jobs(2)
        shapes = []
        for workers in (1, 2):
            path = str(tmp_path / f"w{workers}.jsonl")
            hub = Telemetry(sink=JsonlSink(path))
            with use(hub):
                SupervisedProfiler(workers=workers).profile(jobs)
            hub.close()
            trace = load_trace(path)
            [map_span] = trace.spans_named("supervisor.map")
            assert all(s.parent_id == map_span.span_id
                       for s in trace.shard_attempts())
            shapes.append(sorted((s.meta.get("shard"), s.finished)
                                 for s in trace.shard_attempts()))
        assert shapes[0] == shapes[1] == [(0, True), (1, True)]

    def test_disabled_telemetry_builds_no_child_hubs(self):
        # Zero-cost contract end to end: without a parent hub, shard
        # metas carry no trace context (no child hub ever existed).
        run = SupervisedProfiler(workers=2).profile(self._jobs(2))
        for meta in run.profile.metas:
            assert "trace" not in meta

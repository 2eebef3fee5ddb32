"""Tests for the observability layer (telemetry, self-profiling,
bloat reports).

The load-bearing property is *non-interference*: turning telemetry on
must not change what the profiler computes.  The equivalence tests run
the same workload with the hub installed (and the sampler firing
aggressively) and with the default NULL hub, and require identical
Gcost graphs and instruction counts.  The disabled-mode guard is
structural — during a run with telemetry off, the VM must not call
into the hub at all — plus an interleaved wall-clock A/B as a bench
smoke test.
"""

import json

import pytest

from repro.lang import compile_source
from repro.observability import (NULL, SCHEMA_VERSION, JsonlSink,
                                 MemorySink, NullTelemetry, Telemetry,
                                 TraceContext, child_hub, current,
                                 emit_tracker_stats, measure_overhead,
                                 opcode_class_counts, read_jsonl,
                                 set_current, slot_collision_counts,
                                 use)
from repro.profiler import CostTracker
from repro.profiler.parallel import canonical_form
from repro.vm import VM
from repro.workloads import get_workload
from repro.workloads.stress import stress_source

WORKLOADS = ("bloat_like", "chart_like", "luindex_like")


def _stress_program(stages=3, chain=4, rounds=6):
    return compile_source(stress_source(stages=stages, chain=chain,
                                        rounds=rounds))


def _profile(program, hub=None, slots=8):
    """One tracked run, optionally under an installed hub."""
    tracker = CostTracker(slots=slots)
    if hub is None:
        vm = VM(program, tracer=tracker)
        vm.run()
    else:
        with use(hub):
            vm = VM(program, tracer=tracker)
            vm.run()
    return tracker, vm


# -- on/off equivalence ------------------------------------------------------


class TestEquivalence:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_workload_graphs_identical(self, name):
        spec = get_workload(name)
        program = spec.build("unopt", spec.small_scale)
        tr_off, vm_off = _profile(program)
        # sample_interval=64 forces many sampler checkpoints.
        hub = Telemetry(sink=MemorySink(), sample_interval=64)
        tr_on, vm_on = _profile(program, hub=hub)
        hub.close()
        assert vm_on.instr_count == vm_off.instr_count
        assert vm_on.stdout() == vm_off.stdout()
        assert canonical_form(tr_on.graph) == canonical_form(tr_off.graph)

    def test_stress_graphs_identical(self):
        program = _stress_program()
        tr_off, vm_off = _profile(program)
        hub = Telemetry(sink=MemorySink(), sample_interval=32)
        tr_on, vm_on = _profile(program, hub=hub)
        hub.close()
        assert vm_on.instr_count == vm_off.instr_count
        assert canonical_form(tr_on.graph) == canonical_form(tr_off.graph)

    def test_untracked_run_unaffected(self):
        program = _stress_program()
        vm_plain = VM(program)
        vm_plain.run()
        hub = Telemetry(sink=MemorySink(), sample_interval=64)
        with use(hub):
            vm_telem = VM(program)
            vm_telem.run()
        hub.close()
        assert vm_telem.instr_count == vm_plain.instr_count
        assert vm_telem.stdout() == vm_plain.stdout()


# -- hub mechanics -----------------------------------------------------------


class TestHub:
    def test_default_hub_is_null(self):
        assert current() is NULL
        assert not NULL.enabled

    def test_use_restores_previous(self):
        hub = Telemetry(sink=MemorySink())
        with use(hub):
            assert current() is hub
        assert current() is NULL
        hub.close()

    def test_set_current_returns_previous(self):
        hub = Telemetry(sink=MemorySink())
        previous = set_current(hub)
        try:
            assert previous is NULL
            assert current() is hub
        finally:
            set_current(previous)
        hub.close()

    def test_counters_gauges_timers(self):
        hub = Telemetry(sink=MemorySink())
        hub.inc("a")
        hub.inc("a", 4)
        hub.gauge("g", 7)
        hub.timer_add("t", 0.5)
        hub.timer_add("t", 0.25)
        assert hub.counters["a"] == 5
        assert hub.gauges["g"] == 7
        count, total = hub.timers["t"]
        assert count == 2 and total == pytest.approx(0.75)
        hub.close()

    def test_span_records_event_and_timer(self):
        sink = MemorySink()
        hub = Telemetry(sink=sink)
        with hub.span("phase.x", detail=1):
            pass
        hub.close()
        spans = [e for e in sink.events if e["ev"] == "span"]
        assert len(spans) == 1
        assert spans[0]["name"] == "phase.x"
        assert spans[0]["detail"] == 1
        assert "dur" in spans[0]
        assert "phase.x" in hub.timers

    def test_vm_run_event_and_opcode_counters(self):
        program = _stress_program()
        sink = MemorySink()
        hub = Telemetry(sink=sink)
        tracker, vm = _profile(program, hub=hub)
        hub.close()
        runs = [e for e in sink.events if e["ev"] == "vm.run"]
        assert len(runs) == 1
        assert runs[0]["instructions"] == vm.instr_count
        classes = {k for k in hub.counters if k.startswith("vm.instr[")}
        assert "vm.instr[alloc]" in classes
        assert "vm.instr[heap_write]" in classes
        # Per-class counts add up to the full instruction stream.
        total = sum(v for k, v in hub.counters.items()
                    if k.startswith("vm.instr["))
        assert total == vm.instr_count

    def test_sampler_fires(self):
        program = _stress_program()
        sink = MemorySink()
        hub = Telemetry(sink=sink, sample_interval=50)
        tracker, vm = _profile(program, hub=hub)
        hub.close()
        samples = [e for e in sink.events if e["ev"] == "sample"]
        assert len(samples) >= vm.instr_count // 50 - 1
        for sample in samples:
            assert sample["i"] <= vm.instr_count
            assert "heap" in sample and "shadow" in sample


# -- derived statistics ------------------------------------------------------


class TestDerivedStats:
    def test_opcode_class_counts_cover_stream(self):
        program = _stress_program()
        tracker, vm = _profile(program)
        counts = opcode_class_counts(vm)
        assert sum(counts.values()) == vm.instr_count
        assert counts.get("alloc", 0) >= 3          # the stress stages
        assert "control/untracked" in counts

    def test_opcode_class_counts_empty_without_tracer(self):
        program = _stress_program()
        vm = VM(program)
        vm.run()
        assert opcode_class_counts(vm) == {}

    def test_slot_collision_counts(self):
        program = _stress_program()
        tracker, _ = _profile(program, slots=8)
        collisions = slot_collision_counts(tracker)
        for slot, count in collisions.items():
            assert 0 <= slot < 8
            assert count >= 1

    def test_emit_tracker_stats(self):
        program = _stress_program()
        sink = MemorySink()
        hub = Telemetry(sink=sink)
        tracker, _ = _profile(program, hub=hub)
        emit_tracker_stats(hub, tracker)
        hub.close()
        events = [e for e in sink.events if e["ev"] == "tracker"]
        assert len(events) == 1
        ev = events[0]
        assert ev["nodes"] == tracker.graph.num_nodes
        assert ev["edges"] == tracker.graph.num_edges
        assert ev["cr"] == pytest.approx(tracker.conflict_ratio())

    def test_batch_engine_spans(self):
        from repro.analyses.batch import BatchSliceEngine
        program = _stress_program()
        tracker, _ = _profile(program)
        sink = MemorySink()
        hub = Telemetry(sink=sink)
        with use(hub):
            engine = BatchSliceEngine(tracker.graph)
            engine.field_racs()
            engine.field_rabs()
        hub.close()
        kinds = [e["ev"] for e in sink.events]
        assert kinds.count("batch.index") == 2      # hrac + hrab
        names = {e["index"] for e in sink.events
                 if e["ev"] == "batch.index"}
        assert names == {"hrac", "hrab"}
        spans = [e for e in sink.events if e["ev"] == "span"]
        assert any(s["name"] == "batch.freeze" for s in spans)
        assert "batch.scc[hrac]" in hub.timers
        assert "batch.propagation[hrab]" in hub.timers
        assert hub.counters["batch.condense[hrac]"] == 1
        assert hub.counters["batch.condense[hrab]"] == 1

    def test_freq_only_change_reweighs_without_condensing(self):
        from repro.analyses.batch import engine_for
        program = _stress_program()
        tracker, _ = _profile(program)
        graph = tracker.graph
        hub = Telemetry(sink=MemorySink())
        with use(hub):
            engine_for(graph).field_racs()
            engine_for(graph).field_rabs()
            graph.node(*graph.node_keys[0])     # bump one frequency
            engine_for(graph).field_racs()
        hub.close()
        for index in ("hrac", "hrab"):
            assert hub.counters[f"batch.condense[{index}]"] == 1
            assert hub.counters[f"batch.reweigh[{index}]"] == 1
            assert hub.timers[f"batch.reweigh[{index}]"][0] == 1


# -- JSONL sink --------------------------------------------------------------


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        program = _stress_program()
        hub = Telemetry(sink=JsonlSink(path), sample_interval=100)
        _profile(program, hub=hub)
        hub.close()
        events = read_jsonl(path)
        assert events, "no events written"
        for event in events:
            assert "ev" in event and "t" in event
        kinds = [e["ev"] for e in events]
        assert kinds[0] == "meta"
        assert events[0]["schema"] == SCHEMA_VERSION
        assert events[0]["trace"]
        assert "t0_unix" in events[0]
        assert "vm.run" in kinds
        assert "counters" in kinds
        # One JSON object per line, parseable independently.
        with open(path) as handle:
            for line in handle:
                json.loads(line)

    def test_timestamps_monotonic(self, tmp_path):
        path = str(tmp_path / "mono.jsonl")
        hub = Telemetry(sink=JsonlSink(path))
        hub.event("one")
        hub.event("two")
        hub.close()
        stamps = [e["t"] for e in read_jsonl(path)]
        assert stamps == sorted(stamps)

    def test_close_is_idempotent_and_drops_late_events(self, tmp_path):
        path = str(tmp_path / "closed.jsonl")
        sink = JsonlSink(path)
        sink.emit({"ev": "before"})
        sink.close()
        sink.close()                       # second close is a no-op
        sink.emit({"ev": "after"})         # dropped, not an error
        assert [e["ev"] for e in read_jsonl(path)] == ["before"]

    def test_crash_safety_emitted_events_survive_kill(self, tmp_path):
        # Regression (docs/RESILIENCE.md): a process killed mid-run
        # must leave every already-emitted event on disk as parseable
        # JSONL — the sink flushes per batch instead of buffering.
        import subprocess
        import sys
        path = str(tmp_path / "killed.jsonl")
        script = (
            "import os, sys\n"
            "from repro.observability import JsonlSink, Telemetry\n"
            "hub = Telemetry(sink=JsonlSink(sys.argv[1]))\n"
            "for i in range(5):\n"
            "    hub.event('tick', i=i)\n"
            "os._exit(1)\n"              # simulated kill: no cleanup
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, path],
            env={**__import__('os').environ,
                 "PYTHONPATH": "src"},
            cwd="/root/repo", timeout=60)
        assert proc.returncode == 1
        with open(path) as handle:
            lines = [json.loads(line) for line in handle]
        # meta header + the five ticks, each line independently valid.
        assert [e["ev"] for e in lines[1:]] == ["tick"] * 5
        assert [e["i"] for e in lines[1:]] == list(range(5))

    def test_batched_flush_still_crash_safe_per_batch(self, tmp_path):
        path = str(tmp_path / "batched.jsonl")
        sink = JsonlSink(path, flush_every=3)
        for i in range(7):
            sink.emit({"ev": "tick", "i": i})
        # 6 events span two full batches; the 7th may still be
        # buffered — crash-safety is per *batch* at this setting.
        with open(path) as handle:
            flushed = [json.loads(line) for line in handle]
        assert len(flushed) >= 6
        sink.close()
        assert len(read_jsonl(path)) == 7


# -- schema v2 tracing -------------------------------------------------------


class TestTracing:
    def test_events_stamped_with_pid_seq_hub(self):
        import os
        sink = MemorySink()
        hub = Telemetry(sink=sink)
        hub.event("one")
        hub.event("two")
        hub.close()
        for event in sink.events:
            assert event["pid"] == os.getpid()
            assert event["hub"] == hub.hub_id
        assert [e["seq"] for e in sink.events] == [1, 2, 3]

    def test_span_pairs_and_parentage(self):
        sink = MemorySink()
        hub = Telemetry(sink=sink)
        with hub.span("outer") as outer:
            with hub.span("inner") as inner:
                hub.event("leaf")
        hub.close()
        starts = {e["name"]: e for e in sink.events
                  if e["ev"] == "span.start"}
        ends = {e["name"]: e for e in sink.events if e["ev"] == "span"}
        assert set(starts) == set(ends) == {"outer", "inner"}
        assert starts["outer"]["span_id"] == outer.span_id
        assert starts["inner"]["parent_id"] == outer.span_id
        assert ends["inner"]["parent_id"] == outer.span_id
        assert inner.parent_id == outer.span_id
        # Non-span events carry the innermost enclosing span in "sp".
        leaf = next(e for e in sink.events if e["ev"] == "leaf")
        assert leaf["sp"] == inner.span_id

    def test_trace_context_propagates_current_span(self):
        hub = Telemetry(sink=MemorySink())
        root = hub.trace_context()
        assert root.trace_id == hub.trace_id
        assert root.parent_span is None
        with hub.span("phase") as span:
            ctx = hub.trace_context()
        hub.close()
        assert ctx.parent_span == span.span_id
        stamped = ctx.for_shard(3, attempt=1, label="x")
        assert stamped.shard == 3 and stamped.attempt == 1
        assert stamped.trace_id == hub.trace_id

    def test_child_hub_joins_parent_trace(self):
        parent = Telemetry(sink=MemorySink())
        with parent.span("supervisor.map") as span:
            ctx = parent.trace_context()
        sink = MemorySink()
        child = child_hub(ctx, sink)
        with child.span("shard.run"):
            pass
        child.close()
        parent.close()
        meta = sink.events[0]
        assert meta["trace"] == parent.trace_id
        assert meta["parent_span"] == span.span_id
        run = next(e for e in sink.events if e["ev"] == "span")
        assert run["parent_id"] == span.span_id
        # Two hubs, even in one process, get distinct stream ids.
        assert child.hub_id != parent.hub_id

    def test_null_hub_has_no_trace_context(self):
        assert NULL.trace_context() is None
        NULL.relay({"ev": "x"})            # no-op, no error

    def test_relay_appends_foreign_event(self):
        sink = MemorySink()
        hub = Telemetry(sink=sink)
        foreign = {"ev": "tick", "t": 0.5, "pid": 1234, "seq": 1,
                   "hub": "4d2.1"}
        hub.relay(foreign)
        hub.close()
        assert foreign in sink.events
        assert hub.counters["telemetry.relayed"] == 1

    def test_read_jsonl_skips_truncated_trailing_line(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        path.write_text('{"ev": "a", "t": 1}\n{"ev": "b", "t"')
        events = read_jsonl(str(path))
        assert [e["ev"] for e in events] == ["a"]

    def test_read_jsonl_still_raises_on_interior_damage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ev": "a"}\nnot json\n{"ev": "b"}\n')
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(str(path))


# -- self-profiling ----------------------------------------------------------


class TestOverhead:
    def test_measure_overhead_sane(self):
        program = _stress_program()
        report = measure_overhead(program, slots=8, repeats=2)
        assert report.untracked_wall > 0
        assert report.tracked_wall > 0
        # Tracking costs something but not absurdly much; keep the
        # bounds loose — this is a sanity check, not a benchmark.
        assert 0.2 < report.overhead < 1000
        assert report.instructions > 0
        assert report.nodes > 0 and report.edges > 0
        data = report.as_dict()
        assert set(data) == {"untracked_wall_s", "tracked_wall_s",
                             "overhead", "instructions", "nodes",
                             "edges", "repeats"}
        from repro.observability import overhead_from_dict
        # as_dict rounds walls/ratio for JSON, so allow a loose match.
        again = overhead_from_dict(data)
        assert again.overhead == pytest.approx(report.overhead,
                                               rel=0.05)
        assert "tracker overhead" in report.format()

    def test_overhead_event_emitted(self):
        program = _stress_program()
        sink = MemorySink()
        hub = Telemetry(sink=sink)
        measure_overhead(program, slots=8, telemetry=hub)
        hub.close()
        assert any(e["ev"] == "overhead" for e in sink.events)


# -- disabled-mode bench guard ----------------------------------------------


class _CountingNull(NullTelemetry):
    """A disabled hub that records every call the VM makes into it."""

    def __init__(self):
        self.calls = 0

    def vm_sample(self, vm, stack, count):
        self.calls += 1
        return super().vm_sample(vm, stack, count)

    def vm_finish(self, vm):
        self.calls += 1

    def event(self, kind, **fields):
        self.calls += 1

    def inc(self, name, delta=1):
        self.calls += 1


class TestDisabledMode:
    def test_no_calls_when_disabled(self):
        """With telemetry off the VM dispatch loop never calls into
        the hub: the sampler checkpoint is folded into the existing
        instruction-budget comparison."""
        program = _stress_program()
        counting = _CountingNull()
        tracker = CostTracker(slots=8)
        vm = VM(program, tracer=tracker, telemetry=counting)
        vm.run()
        assert counting.calls == 0

    def test_disabled_wallclock_overhead_small(self):
        """Bench guard: the disabled-telemetry loop must stay within a
        few percent of the seed loop.  Interleaved min-of-N on a
        larger stress workload; retried to ride out scheduler noise."""
        import time

        program = compile_source(stress_source(stages=4, chain=6,
                                               rounds=40))

        def best_of(n):
            base = telem = None
            for _ in range(n):
                vm = VM(program)
                start = time.perf_counter()
                vm.run()
                wall = time.perf_counter() - start
                base = wall if base is None else min(base, wall)

                vm = VM(program, telemetry=NULL)
                start = time.perf_counter()
                vm.run()
                wall = time.perf_counter() - start
                telem = wall if telem is None else min(telem, wall)
            return telem / base

        # The two paths are instruction-identical, so the ratio should
        # hover around 1.0; accept the first attempt within 3%.
        ratios = [best_of(7) for _ in range(3)]
        assert min(ratios) <= 1.03, ratios

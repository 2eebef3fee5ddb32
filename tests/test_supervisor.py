"""Fault-tolerant shard supervision: recovery, degradation, resume.

The resilience claim (docs/RESILIENCE.md) is that supervision never
changes the *answer*, only the failure behavior: a supervised run that
recovers from injected crashes/hangs/errors produces a Gcost
``canonical_form``-identical — and, merging in order, bit-for-bit
node-numbering-identical — to the sequential oracle, and a degraded
run merges exactly the surviving shards.  Every failure path here is
driven by the deterministic harness in ``repro.testing.faults``.
"""

import importlib
import os

import pytest

from repro.observability import MemorySink, Telemetry, set_current
from repro.profiler import (CheckpointError, ProfileInputError,
                            ProfileJob, ShardFailedError, ShardPolicy,
                            SupervisedProfiler, backoff_delay,
                            canonical_form, content_checksum,
                            jobs_fingerprint,
                            load_checkpoint, profile_jobs_sequential,
                            validate_shard, write_checkpoint)
from repro.testing.faults import FaultPlan, FaultSpec, SimulatedKill
from repro.workloads import get_workload

#: Fast policy for fault tests: tight backoff, no surprise timeouts.
FAST = ShardPolicy(backoff_base_s=0.01, backoff_max_s=0.05)


def make_jobs(n=3, name="chart_like"):
    spec = get_workload(name)
    return [ProfileJob.workload(name, "unopt" if i % 2 == 0 else "opt",
                                spec.small_scale, label=f"s{i}")
            for i in range(n)]


def supervised(jobs, workers=2, policy=FAST, **kwargs):
    profiler = SupervisedProfiler(workers=workers, policy=policy,
                                  **kwargs)
    return profiler.profile(jobs)


def assert_matches_oracle(run, jobs):
    oracle = profile_jobs_sequential(jobs)
    assert canonical_form(run.profile.graph, run.profile.state) == \
        canonical_form(oracle.graph, oracle.state)
    # The in-order merge reproduces the oracle's node numbering
    # bit for bit, not merely up to isomorphism.
    assert run.profile.graph.node_keys == oracle.graph.node_keys


class TestCleanPath:

    def test_matches_sequential_oracle(self):
        jobs = make_jobs(4)
        run = supervised(jobs)
        assert run.report.ok and not run.degraded
        assert [s.status for s in run.report.shards] == ["ok"] * 4
        assert_matches_oracle(run, jobs)

    def test_empty_jobs_rejected(self):
        with pytest.raises(ProfileInputError, match="at least one"):
            SupervisedProfiler(workers=2).profile([])


class TestRecovery:

    def test_crash_then_succeed_bitwise_identical(self):
        # Acceptance criterion: a crash-then-succeed plan recovers a
        # Gcost bit-for-bit identical to the sequential oracle.
        jobs = make_jobs(3)
        run = supervised(jobs,
                         fault_plan=FaultPlan.single(1, "crash"))
        assert run.report.retries == 1
        assert run.report.shards[1].status == "ok"
        assert run.report.shards[1].attempts == 2
        assert run.report.shards[1].error_kind == ""
        assert_matches_oracle(run, jobs)

    def test_injected_error_retried(self):
        jobs = make_jobs(3)
        run = supervised(jobs, fault_plan=FaultPlan.single(2, "error"))
        assert run.report.ok and run.report.retries == 1
        assert_matches_oracle(run, jobs)

    def test_corrupt_output_rejected_and_retried(self):
        jobs = make_jobs(3)
        run = supervised(jobs,
                         fault_plan=FaultPlan.single(0, "corrupt"))
        assert run.report.ok and run.report.retries == 1
        assert_matches_oracle(run, jobs)

    def test_hang_timed_out_and_retried(self):
        jobs = make_jobs(2)
        policy = ShardPolicy(timeout_s=1.0, backoff_base_s=0.01)
        run = supervised(jobs, policy=policy,
                         fault_plan=FaultPlan.single(1, "hang",
                                                     hang_s=60.0))
        assert run.report.ok and run.report.retries == 1
        assert_matches_oracle(run, jobs)

    def test_slow_shard_is_not_a_failure(self):
        jobs = make_jobs(2)
        run = supervised(jobs, fault_plan=FaultPlan.single(0, "slow",
                                                           delay_s=0.05))
        assert run.report.retries == 0
        assert_matches_oracle(run, jobs)

    def test_seeded_plan_recovers(self):
        jobs = make_jobs(5)
        plan = FaultPlan.seeded(seed=7, shards=5, rate=0.6)
        run = supervised(jobs, fault_plan=plan)
        assert run.report.ok
        # Only crash/error faults fail the attempt; "slow" just delays.
        failing = sum(1 for spec in plan.faults.values()
                      if spec.kind in ("crash", "error"))
        assert run.report.retries == failing
        assert_matches_oracle(run, jobs)


class TestDegradation:

    def test_unrecoverable_shard_degrades(self):
        # Acceptance criterion: an unrecoverable failure still
        # completes, reporting the failed shard and merging survivors.
        jobs = make_jobs(3)
        run = supervised(
            jobs, policy=ShardPolicy(max_retries=1,
                                     backoff_base_s=0.01),
            fault_plan=FaultPlan.single(1, "crash", attempts=(0, 1)))
        assert run.degraded
        assert [s.index for s in run.report.failed] == [1]
        failed = run.report.shards[1]
        assert failed.status == "failed"
        assert failed.attempts == 2
        assert failed.error_kind == "crash"
        assert "exitcode" in failed.error
        # Survivors merge exactly as an oracle over the same subset.
        survivors = [jobs[0], jobs[2]]
        oracle = profile_jobs_sequential(survivors)
        assert canonical_form(run.profile.graph, run.profile.state) == \
            canonical_form(oracle.graph, oracle.state)

    def test_all_shards_failed_returns_no_profile(self):
        jobs = make_jobs(2)
        plan = FaultPlan({(s, a): FaultSpec("crash")
                          for s in range(2) for a in range(3)})
        run = supervised(jobs, fault_plan=plan)
        assert run.profile is None
        assert run.degraded
        assert len(run.report.failed) == 2

    def test_strict_mode_raises(self):
        jobs = make_jobs(2)
        with pytest.raises(ShardFailedError, match="shard 0"):
            supervised(jobs,
                       policy=ShardPolicy(max_retries=0, strict=True),
                       fault_plan=FaultPlan.single(0, "crash"))

    def test_vm_limit_salvaged_as_partial(self):
        jobs = make_jobs(3)
        run = supervised(jobs,
                         fault_plan=FaultPlan.single(1, "vmlimit"))
        assert run.report.ok          # salvaged shards are not failures
        shard = run.report.shards[1]
        assert shard.status == "salvaged"
        assert shard.error_kind == "vm"
        meta = run.profile.metas[1]
        assert meta["partial"] is True
        assert meta["error_type"] == "VMLimitError"
        # The budget-blowing instruction itself is counted.
        assert 0 < meta["instructions"] <= 51

    def test_report_round_trips_and_formats(self):
        jobs = make_jobs(2)
        run = supervised(
            jobs, policy=ShardPolicy(max_retries=0),
            fault_plan=FaultPlan.single(1, "error"))
        doc = run.report.as_dict()
        assert doc["degraded"] is True
        assert doc["shards"][1]["error_kind"] == "error"
        text = run.report.format()
        assert "2 shard(s)" in text
        assert "shard 1 [s1]: failed" in text


class TestTelemetry:

    def run_with_hub(self, jobs, **kwargs):
        sink = MemorySink()
        previous = set_current(Telemetry(sink=sink))
        try:
            run = supervised(jobs, **kwargs)
        finally:
            set_current(previous)
        return run, [e["ev"] for e in sink.events], sink.events

    def test_retry_and_merge_events(self):
        jobs = make_jobs(2)
        run, kinds, events = self.run_with_hub(
            jobs, fault_plan=FaultPlan.single(0, "error"))
        assert run.report.ok
        assert "supervisor.retry" in kinds
        retry = next(e for e in events if e["ev"] == "supervisor.retry")
        assert retry["shard"] == 0 and retry["cause"] == "error"
        assert "span" in kinds       # supervisor.map / supervisor.merge

    def test_degraded_and_failed_events(self):
        jobs = make_jobs(2)
        run, kinds, events = self.run_with_hub(
            jobs, policy=ShardPolicy(max_retries=0),
            fault_plan=FaultPlan.single(1, "crash"))
        assert run.degraded
        assert "supervisor.shard_failed" in kinds
        assert "supervisor.degraded" in kinds
        degraded = next(e for e in events
                        if e["ev"] == "supervisor.degraded")
        assert degraded["failed"] == [1] and degraded["merged"] == 1


class TestTraceRelay:
    """Child-hub relay through the result pipe, under seeded faults."""

    def run_with_hub(self, jobs, **kwargs):
        sink = MemorySink()
        hub = Telemetry(sink=sink)
        previous = set_current(hub)
        try:
            run = supervised(jobs, **kwargs)
        finally:
            set_current(previous)
        hub.close()
        return run, hub, sink.events

    def test_clean_run_relays_worker_streams(self):
        jobs = make_jobs(2)
        run, hub, events = self.run_with_hub(jobs)
        assert run.report.ok
        relayed = [e for e in events if e.get("pid") != hub.pid]
        assert relayed, "no worker events were relayed"
        # Worker streams join the parent's trace, with intact
        # parentage and per-stream monotonic sequence numbers.
        map_start = next(e for e in events
                         if e.get("ev") == "span.start"
                         and e.get("name") == "supervisor.map")
        by_hub = {}
        for event in relayed:
            by_hub.setdefault(event["hub"], []).append(event)
        assert len(by_hub) == 2
        for stream in by_hub.values():
            meta = stream[0]
            assert meta["ev"] == "meta"
            assert meta["trace"] == hub.trace_id
            assert meta["parent_span"] == map_start["span_id"]
            seqs = [e["seq"] for e in stream]
            assert seqs == sorted(seqs)
            run_start = next(e for e in stream
                             if e["ev"] == "span.start"
                             and e["name"] == "shard.run")
            assert run_start["parent_id"] == map_start["span_id"]

    def test_crashed_attempts_events_survive(self):
        jobs = make_jobs(2)
        run, hub, events = self.run_with_hub(
            jobs, fault_plan=FaultPlan.single(1, "crash"))
        assert run.report.ok and run.report.retries == 1
        starts = [e for e in events if e.get("ev") == "span.start"
                  and e.get("name") == "shard.run"
                  and e.get("shard") == 1]
        # Both attempts opened a span; only the retry closed one.
        assert {e.get("attempt") for e in starts} == {0, 1}
        closes = [e for e in events if e.get("ev") == "span"
                  and e.get("name") == "shard.run"
                  and e.get("shard") == 1]
        assert [e.get("attempt") for e in closes] == [1]
        assert hub.counters["telemetry.relayed"] > 0

    def test_killed_hung_attempt_leaves_span_start(self):
        jobs = make_jobs(1)
        run, hub, events = self.run_with_hub(
            jobs,
            policy=ShardPolicy(timeout_s=1.0, max_retries=1,
                               backoff_base_s=0.01),
            fault_plan=FaultPlan.single(0, "hang"))
        assert run.report.ok
        assert run.report.shards[0].attempts == 2
        starts = [e for e in events if e.get("ev") == "span.start"
                  and e.get("name") == "shard.run"]
        # The killed attempt's start was salvaged off the pipe before
        # termination, so the trace still shows it.
        assert {e.get("attempt") for e in starts} == {0, 1}

    def test_seeded_plan_trace_parentage_intact(self):
        from repro.observability import trace_from_events
        jobs = make_jobs(4)
        run, hub, events = self.run_with_hub(
            jobs, workers=4,
            fault_plan=FaultPlan.seeded(7, shards=4, rate=0.9,
                                        kinds=("crash", "error")))
        assert run.report.ok
        trace = trace_from_events(events)
        assert trace.trace_ids == [hub.trace_id]
        [map_span] = trace.spans_named("supervisor.map")
        attempts = trace.shard_attempts()
        assert len(attempts) == 4 + run.report.retries
        for span in attempts:
            assert span.parent_id == map_span.span_id
        assert trace.critical_path_duration() <= trace.wall + 1e-6

    def test_no_relay_without_parent_hub(self):
        run = supervised(make_jobs(2))
        assert run.report.ok
        for meta in run.profile.metas:
            assert "trace" not in meta


class TestBackoff:

    def test_deterministic_and_bounded(self):
        policy = ShardPolicy(backoff_base_s=0.05, backoff_factor=2.0,
                             backoff_max_s=2.0, jitter=0.1, seed=3)
        delays = [backoff_delay(policy, shard=1, attempt=a)
                  for a in range(8)]
        assert delays == [backoff_delay(policy, 1, a) for a in range(8)]
        for attempt, delay in enumerate(delays):
            base = min(0.05 * 2.0 ** attempt, 2.0)
            assert base <= delay <= base * 1.1
        assert max(delays) <= 2.0 * 1.1

    def test_jitter_desynchronizes_shards(self):
        policy = ShardPolicy()
        assert backoff_delay(policy, 0, 0) != backoff_delay(policy, 1, 0)


class TestCheckpointResume:

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path):
        # Acceptance criterion: checkpoint, die (SimulatedKill), resume
        # with the same job list — identical to an uninterrupted run.
        jobs = make_jobs(4)
        ckpt = str(tmp_path / "ckpt.json")
        with pytest.raises(SimulatedKill):
            supervised(jobs, workers=1, checkpoint=ckpt,
                       fault_plan=FaultPlan(abort_after=2))
        saved = load_checkpoint(ckpt)
        assert 0 < len(saved) < 4
        run = supervised(jobs, checkpoint=ckpt)
        resumed = [s for s in run.report.shards if s.status == "resumed"]
        assert len(resumed) == len(saved)
        assert run.report.ok
        assert_matches_oracle(run, jobs)

    def test_resume_everything_runs_nothing(self, tmp_path):
        jobs = make_jobs(2)
        ckpt = str(tmp_path / "ckpt.json")
        supervised(jobs, checkpoint=ckpt)
        run = supervised(jobs, checkpoint=ckpt)
        assert all(s.status == "resumed" for s in run.report.shards)
        assert_matches_oracle(run, jobs)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        ckpt = str(tmp_path / "ckpt.json")
        supervised(make_jobs(2), checkpoint=ckpt)
        with pytest.raises(CheckpointError, match="different job"):
            supervised(make_jobs(2, name="trade_like"), checkpoint=ckpt)

    def test_tampered_checkpoint_refused(self, tmp_path):
        ckpt = str(tmp_path / "ckpt.json")
        supervised(make_jobs(2), checkpoint=ckpt)
        text = open(ckpt).read()
        with open(ckpt, "w") as handle:
            handle.write(text.replace('"slots": 16', '"slots": 12', 1))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(ckpt)

    def test_truncated_checkpoint_refused(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text('{"version": 1, "shards"')
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(ckpt))

    def test_write_is_atomic(self, tmp_path):
        ckpt = str(tmp_path / "ckpt.json")
        fp = jobs_fingerprint(make_jobs(1), 16, None, True, False)
        write_checkpoint(ckpt, fp, 16, 1, {0: {"fake": True}})
        assert load_checkpoint(ckpt, fp) == {0: {"fake": True}}
        leftovers = [name for name in os.listdir(tmp_path)
                     if name.startswith("ckpt.json.tmp")]
        assert leftovers == []


class TestShardValidation:

    def test_rejects_non_dict_and_missing_keys(self):
        assert "not dict" in validate_shard([1, 2, 3])
        assert "missing" in validate_shard({"version": 2})

    def test_rejects_misaligned_arrays(self):
        shard = {"version": 2, "meta": {}, "slots": 16,
                 "nodes": [[1, 0]], "freq": [], "flags": [0],
                 "edges": []}
        assert "misaligned" in validate_shard(shard)

    def test_accepts_coherent_shard(self):
        shard = {"version": 2, "meta": {}, "slots": 16,
                 "nodes": [[1, 0]], "freq": [2], "flags": [0],
                 "edges": []}
        assert validate_shard(shard) is None

    @pytest.mark.parametrize("module", ["repro.profiler.serialize",
                                        "repro.profiler.supervisor"])
    def test_rejects_checksum_mismatch(self, module):
        check = importlib.import_module(module).validate_shard
        shard = {"version": 2, "meta": {}, "slots": 16,
                 "nodes": [[1, 0]], "freq": [2], "flags": [0],
                 "edges": []}
        shard["checksum"] = content_checksum(shard)
        assert check(shard) is None
        shard["freq"] = [3]
        assert "checksum" in check(shard)

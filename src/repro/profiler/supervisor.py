"""Fault-tolerant shard supervision: the map phase of the profiling
runtime.

A fair-weather fan-out (one ``pool.map`` over the jobs) lets one
crashed, hung, or budget-blown worker take the whole map down and
every finished shard with it.  The paper's tool could not afford that
inside a production JVM, and the bounded abstract domain makes the
fix cheap here: shard profiles are *idempotent* (a :class:`ProfileJob`
re-runs deterministically) and the merge is *exact*, so any shard can
simply be run again — supervision reduces to bookkeeping.

:class:`SupervisedProfiler` runs each shard attempt in its own child
process with a result pipe, which buys:

* **crash detection** — a worker that dies (nonzero exitcode, closed
  pipe: the raw-``Process`` analogue of ``BrokenProcessPool``) fails
  only its own shard;
* **timeouts** — a hung worker is terminated when its per-shard
  deadline (:attr:`ShardPolicy.timeout_s`) passes;
* **bounded retries** — failed attempts are re-queued with exponential
  backoff plus deterministic jitter (:func:`backoff_delay`);
* **degraded-mode completion** — shards that exhaust their retry
  budget are recorded in a structured :class:`RunReport` and the
  surviving shards still merge (``strict=True`` restores today's
  fail-fast behavior by raising
  :class:`~repro.profiler.errors.ShardFailedError`);
* **VM fault containment** — a shard whose program dies with
  :class:`~repro.vm.errors.VMError` / ``VMLimitError`` ships its
  partial graph back (flagged ``partial`` in the shard meta) instead
  of poisoning the run;
* **checkpoint-resume** — with a checkpoint path configured, every
  completed shard is persisted atomically
  (:mod:`repro.profiler.checkpoint`) and a later run skips it.

Every retry/degradation decision is emitted through the telemetry hub
(``supervisor.*`` / ``checkpoint.*`` events; see
``docs/OBSERVABILITY.md``), and the deterministic fault-injection
harness (:mod:`repro.testing.faults`) drives the failure paths in
tests and CI.  ``docs/RESILIENCE.md`` is the operator-facing guide.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from multiprocessing import connection as _mpconn

from ..observability.telemetry import (NULL, PipeSink, child_hub,
                                       set_current)
from ..observability.telemetry import current as _current_telemetry
# The VM tiers every shard worker runs, imported before any fork so
# that workers inherit them instead of each importing them again.
from ..vm import compiled, interpreter  # noqa: F401
from ..vm.errors import VMError
from .checkpoint import jobs_fingerprint, load_checkpoint, write_checkpoint
from .errors import ProfileInputError, ShardFailedError
from .parallel import AggregateProfile, merge_graphs
from .serialize import (graph_from_dict, graph_to_dict,
                        tracker_state_from_dict, validate_shard)
from .tracker import CostTracker

#: Process context of every shard attempt: ``fork`` where available
#: (cheap on Linux; workers inherit ``sys.path``), else the platform's
#: default start method.
try:
    _CONTEXT = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - platforms without fork
    _CONTEXT = multiprocessing.get_context()

#: Longest single sleep of the supervision loop (keeps deadline checks
#: and backoff wake-ups responsive even when no pipe becomes ready).
_POLL_S = 0.25


@dataclass(frozen=True)
class ShardPolicy:
    """Retry / timeout / degradation policy for one supervised run.

    ``timeout_s`` is per *attempt* (``None`` disables timeouts);
    ``max_retries`` bounds re-runs beyond the first attempt, so a
    shard runs at most ``1 + max_retries`` times.  Backoff before
    retry *n* (0-based) is ``base * factor**n`` capped at ``max``,
    stretched by a deterministic jitter in ``[0, jitter]`` drawn from
    ``(seed, shard, attempt)`` — reproducible, but de-synchronized
    across shards.  ``strict=True`` restores fail-fast: the first
    shard to exhaust its budget aborts the run.
    """

    timeout_s: float = None
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.1
    strict: bool = False
    seed: int = 0


def backoff_delay(policy: ShardPolicy, shard: int, attempt: int) -> float:
    """Deterministic backoff before re-running ``shard`` (attempt is
    the 0-based attempt that just failed)."""
    base = min(policy.backoff_base_s * (policy.backoff_factor ** attempt),
               policy.backoff_max_s)
    rng = random.Random(f"{policy.seed}:{shard}:{attempt}")
    return base * (1.0 + policy.jitter * rng.random())


@dataclass
class ShardResult:
    """Supervision outcome of one shard (one row of the RunReport)."""

    index: int
    label: str
    #: "ok" | "salvaged" (partial VM run) | "resumed" (from checkpoint)
    #: | "failed" (budget exhausted) | "skipped" (strict abort before
    #: the shard ever completed)
    status: str
    attempts: int = 0
    #: Failure classification of the *last* failed attempt:
    #: "crash" | "timeout" | "error" | "corrupt" (empty when clean).
    error_kind: str = ""
    error: str = ""
    wall_s: float = 0.0

    def as_dict(self) -> dict:
        return {"index": self.index, "label": self.label,
                "status": self.status, "attempts": self.attempts,
                "error_kind": self.error_kind, "error": self.error,
                "wall_s": round(self.wall_s, 6)}


@dataclass
class RunReport:
    """Structured account of a supervised run, shard by shard."""

    shards: list = field(default_factory=list)
    retries: int = 0

    def by_status(self, *statuses):
        return [shard for shard in self.shards
                if shard.status in statuses]

    @property
    def failed(self):
        return self.by_status("failed", "skipped")

    @property
    def degraded(self) -> bool:
        """True when the merge is missing at least one shard."""
        return bool(self.failed)

    @property
    def ok(self) -> bool:
        return not self.failed

    def as_dict(self) -> dict:
        return {"retries": self.retries, "degraded": self.degraded,
                "shards": [shard.as_dict() for shard in self.shards]}

    def format(self) -> str:
        counts = {}
        for shard in self.shards:
            counts[shard.status] = counts.get(shard.status, 0) + 1
        summary = ", ".join(f"{count} {status}" for status, count
                            in sorted(counts.items()))
        lines = [f"supervised run: {len(self.shards)} shard(s) — "
                 f"{summary} ({self.retries} retr"
                 f"{'y' if self.retries == 1 else 'ies'})"]
        for shard in self.shards:
            if shard.status in ("failed", "skipped", "salvaged"):
                detail = (f"{shard.error_kind}: {shard.error}"
                          if shard.error else shard.error_kind)
                lines.append(f"  shard {shard.index} [{shard.label}]: "
                             f"{shard.status} after {shard.attempts} "
                             f"attempt(s) ({detail})")
        return "\n".join(lines)


@dataclass
class SupervisedRun:
    """What :meth:`SupervisedProfiler.profile` returns.

    ``profile`` is the merged :class:`AggregateProfile` of every shard
    that produced a graph, or ``None`` when no shard survived (the
    report then explains why).
    """

    profile: AggregateProfile
    report: RunReport

    @property
    def degraded(self) -> bool:
        return self.report.degraded


# -- worker body -------------------------------------------------------------


def _run_job_salvaging(job, slots, phases, track_cr, track_control,
                       trace=None) -> dict:
    """Build + run one shard, salvaging VM faults into a partial profile.

    The VM's containment contract (``instr_count`` and phase windows
    stay coherent when a :class:`VMError` escapes) means the tracker's
    graph-so-far is a valid — merely incomplete — profile; it ships
    back flagged ``partial`` with the error recorded, so one
    budget-blown shard degrades the run instead of failing it.
    The meta records two walls: ``wall_s`` (build + run; the build is
    free when the worker inherited its parent's compile) and
    ``run_wall_s`` (the tracked ``vm.run()`` alone, the number the
    ``--self-profile`` overhead ratio compares against an untracked
    run; it includes the compiled tier's first-call compilation of
    the methods the run executes).  ``trace`` (the worker's span
    context) travels in the shard meta so saved profiles can be joined
    back to their telemetry stream.
    """
    start = time.perf_counter()
    program = job.build()
    tracker = CostTracker(slots=slots, phases=phases, track_cr=track_cr,
                          track_control=track_control)
    vm = job.make_vm(program, tracker)
    meta = {"label": job.label}
    run_start = time.perf_counter()
    try:
        vm.run()
    except VMError as error:
        meta["partial"] = True
        meta["error"] = str(error)
        meta["error_type"] = type(error).__name__
    meta.update(instructions=vm.instr_count, output=vm.stdout(),
                exec_mode=vm.exec_tier or vm.exec_mode,
                run_wall_s=round(time.perf_counter() - run_start, 6),
                wall_s=round(time.perf_counter() - start, 6))
    # The window schedule is a pure function of the instruction count,
    # so even a salvaged (fault-contained) shard's accounting is exact
    # up to the recorded instr_count — a retry replays it identically.
    stats = vm.sampling_stats()
    if stats is not None:
        meta["sampling"] = stats
    return graph_to_dict(tracker.graph, meta=meta, tracker=tracker,
                         trace=trace)


def _shard_entry(payload, fault, ctx, conn):
    """Child-process entry: install the child-side hub, run the shard,
    stream telemetry back, send ("ok"|"error", data).

    ``ctx`` is the parent hub's :class:`TraceContext` (``None`` when
    the parent's telemetry is disabled — the zero-cost contract means
    no child hub is ever built then; the global hub is reset to NULL
    so a forked worker cannot leak events into the parent's inherited
    sink).  With a context, a hub relaying through the result pipe
    (:class:`PipeSink`) is installed and the whole attempt runs inside
    a ``shard.run`` root span whose parent is the supervisor's map
    span; the ``span.start`` is on the wire *before* any fault fires,
    so crashed and hung attempts still appear in the parent's trace.
    """
    job, slots, phases, track_cr, track_control = payload
    hub = child_hub(ctx, PipeSink(conn)) if ctx is not None else NULL
    set_current(hub)
    try:
        with hub.span("shard.run",
                      shard=ctx.shard if ctx else None,
                      attempt=ctx.attempt if ctx else 0,
                      label=job.label) as span:
            trace = None
            if span.span_id is not None:
                trace = {"trace_id": ctx.trace_id,
                         "span_id": span.span_id, "pid": os.getpid(),
                         "shard": ctx.shard, "attempt": ctx.attempt}
            if fault is not None:
                from ..testing.faults import VMLIMIT_BUDGET, apply_fault
                apply_fault(fault)  # crash / hang / slow / error kinds
                if fault.kind == "vmlimit":
                    from dataclasses import replace
                    job = replace(job,
                                  max_steps=min(job.max_steps,
                                                VMLIMIT_BUDGET))
            shard = _run_job_salvaging(job, slots, phases, track_cr,
                                       track_control, trace=trace)
            if fault is not None and fault.kind == "corrupt":
                from ..testing.faults import corrupt_shard
                corrupt_shard(shard)
        hub.flush()
        conn.send(("ok", shard))
    except BaseException as error:  # ship *any* failure to the parent
        try:
            conn.send(("error", {"type": type(error).__name__,
                                 "message": str(error)}))
        except (BrokenPipeError, OSError):
            pass
    finally:
        set_current(NULL)
        conn.close()


# -- the supervisor ----------------------------------------------------------


class _Attempt:
    """One scheduled (or running) attempt of one shard."""

    __slots__ = ("index", "job", "attempt", "ready_at", "proc", "conn",
                 "deadline", "started")

    def __init__(self, index, job, attempt=0, ready_at=0.0):
        self.index = index
        self.job = job
        self.attempt = attempt
        self.ready_at = ready_at
        self.proc = None
        self.conn = None
        self.deadline = None
        self.started = 0.0


class SupervisedProfiler:
    """Shard supervisor: the one runner of the profiling map phase.

    Each shard attempt runs in a fresh child process, at most
    ``workers`` at a time.  Takes the profiling parameters
    (``slots``, ``phases``, ``track_cr``, ``track_control``), a
    :class:`ShardPolicy`, an optional checkpoint path, and an optional
    :class:`~repro.testing.faults.FaultPlan` (tests/CI only).  On the
    clean path the merged profile is identical — including node
    numbering — to the sequential oracle's
    (:func:`~repro.profiler.parallel.profile_jobs_sequential`).
    """

    def __init__(self, workers: int = None, slots: int = 16,
                 phases=None, track_cr: bool = True,
                 track_control: bool = False,
                 policy: ShardPolicy = None, checkpoint=None,
                 fault_plan=None, on_shard=None):
        self.workers = workers
        self.slots = slots
        self.phases = frozenset(phases) if phases is not None else None
        self.track_cr = track_cr
        self.track_control = track_control
        self.policy = policy if policy is not None else ShardPolicy()
        self.checkpoint = checkpoint
        self.fault_plan = fault_plan
        #: ``callback(index, shard_dict)`` fired as each shard is
        #: accepted — streaming, the moment the supervision loop takes
        #: a worker's result (so a service push overlaps the remaining
        #: map work), and once per resumed checkpoint shard up front.
        #: Failed shards never fire; a degraded run pushes survivors
        #: only.  Exceptions from the callback abort the run.
        self.on_shard = on_shard

    # -- lifecycle of one run ------------------------------------------------

    def profile(self, jobs) -> SupervisedRun:
        """Run every job under supervision; merge whatever survives.

        Raises :class:`~repro.profiler.errors.ProfileInputError` for
        an empty job list, and — in strict mode only —
        :class:`~repro.profiler.errors.ShardFailedError` when a shard
        exhausts its retry budget.  Otherwise always returns a
        :class:`SupervisedRun`, degraded or not.
        """
        jobs = list(jobs)
        if not jobs:
            raise ProfileInputError(
                "no profile jobs given: profile() requires at least "
                "one ProfileJob")
        telemetry = _current_telemetry()
        policy = self.policy
        results = {index: ShardResult(index, job.label, "skipped")
                   for index, job in enumerate(jobs)}
        done = {}
        fingerprint = None
        if self.checkpoint:
            fingerprint = jobs_fingerprint(jobs, self.slots, self.phases,
                                           self.track_cr,
                                           self.track_control)
            if os.path.exists(self.checkpoint):
                done = load_checkpoint(self.checkpoint, fingerprint)
                done = {index: shard for index, shard in done.items()
                        if index < len(jobs)}
                for index, shard in done.items():
                    results[index] = ShardResult(
                        index, jobs[index].label, "resumed",
                        attempts=0)
                telemetry.event("checkpoint.resume",
                                path=str(self.checkpoint),
                                shards=len(done))
                if self.on_shard is not None:
                    for index in sorted(done):
                        self.on_shard(index, done[index])
        report = RunReport()
        workers = self.workers
        if workers is None:
            workers = min(len(jobs), os.cpu_count() or 1)
        workers = max(1, workers)
        pending = [_Attempt(index, job)
                   for index, job in enumerate(jobs) if index not in done]
        running = []
        abort_after = (self.fault_plan.abort_after
                       if self.fault_plan is not None else None)
        completed_this_run = 0
        try:
            with telemetry.span("supervisor.map", jobs=len(jobs),
                                workers=workers,
                                resumed=len(done)):
                # Child hubs hang their shard.run spans under the map
                # span; a disabled hub propagates None and no child
                # hub is ever built (zero-cost contract).
                trace_ctx = telemetry.trace_context()
                while pending or running:
                    now = time.monotonic()
                    self._launch_ready(trace_ctx, pending, running,
                                       workers, now)
                    if not running:
                        # Everything schedulable is backing off.
                        time.sleep(max(0.0, min(
                            task.ready_at for task in pending) - now))
                        continue
                    ready = _mpconn.wait(
                        [task.conn for task in running],
                        timeout=self._wait_timeout(pending, running,
                                                   workers))
                    now = time.monotonic()
                    for task in [t for t in running
                                 if t.conn in ready]:
                        if self._finish(task, pending, results, done,
                                        report, policy, telemetry, now):
                            running.remove(task)
                    for task in [t for t in running
                                 if t.deadline is not None
                                 and now > t.deadline]:
                        running.remove(task)
                        self._kill(task, telemetry)
                        self._failure(task, "timeout",
                                      f"no result within "
                                      f"{policy.timeout_s}s", pending,
                                      results, report, policy, telemetry)
                    if self.checkpoint and done:
                        newly = sum(
                            1 for index in done
                            if results[index].status != "resumed")
                        if newly > completed_this_run:
                            completed_this_run = newly
                            write_checkpoint(self.checkpoint, fingerprint,
                                             self.slots, len(jobs), done)
                            telemetry.event("checkpoint.write",
                                            path=str(self.checkpoint),
                                            shards=len(done))
                            if (abort_after is not None
                                    and completed_this_run >= abort_after):
                                from ..testing.faults import SimulatedKill
                                raise SimulatedKill(
                                    f"fault plan aborted the run after "
                                    f"{completed_this_run} checkpointed "
                                    f"shard(s)")
        finally:
            for task in running:
                self._kill(task, telemetry)
        return self._merge(jobs, done, results, report, telemetry)

    # -- scheduling ----------------------------------------------------------

    def _launch_ready(self, trace_ctx, pending, running, workers, now):
        for task in [t for t in pending if t.ready_at <= now]:
            if len(running) >= workers:
                break
            pending.remove(task)
            fault = (self.fault_plan.get(task.index, task.attempt)
                     if self.fault_plan is not None else None)
            payload = (task.job, self.slots, self.phases, self.track_cr,
                       self.track_control)
            attempt_ctx = (trace_ctx.for_shard(task.index, task.attempt,
                                               task.job.label)
                           if trace_ctx is not None else None)
            recv_conn, send_conn = _CONTEXT.Pipe(duplex=False)
            proc = _CONTEXT.Process(target=_shard_entry,
                                    args=(payload, fault, attempt_ctx,
                                          send_conn),
                                    daemon=True)
            proc.start()
            send_conn.close()  # parent's copy; EOF now tracks the child
            task.proc = proc
            task.conn = recv_conn
            task.started = time.monotonic()
            task.deadline = (task.started + self.policy.timeout_s
                             if self.policy.timeout_s else None)
            running.append(task)

    def _wait_timeout(self, pending, running, workers):
        deadlines = [task.deadline for task in running
                     if task.deadline is not None]
        if pending and len(running) < workers:
            deadlines.append(min(task.ready_at for task in pending))
        if not deadlines:
            return _POLL_S
        return max(0.0, min(min(deadlines) - time.monotonic(), _POLL_S))

    def _kill(self, task, telemetry=None):
        # Salvage telemetry the worker already streamed (a hung
        # attempt's span.start is what proves it existed).
        if telemetry is not None:
            try:
                while task.conn.poll():
                    message = task.conn.recv()
                    if message[0] == "ev":
                        telemetry.relay(message[1])
            except (EOFError, OSError):
                pass
        try:
            task.proc.terminate()
            task.proc.join(5)
            if task.proc.is_alive():  # pragma: no cover - defensive
                task.proc.kill()
                task.proc.join(5)
        finally:
            task.conn.close()

    # -- attempt outcomes ----------------------------------------------------

    def _finish(self, task, pending, results, done, report, policy,
                telemetry, now):
        """A worker's pipe became readable: relayed telemetry, the
        final result/error, or EOF (crash).

        Relayed ``("ev", event)`` messages are appended verbatim to
        the parent's stream; they always precede the final message, so
        draining in arrival order keeps the trace coherent even for
        attempts that crash mid-run.  Returns ``True`` when the
        attempt is over (the caller then retires it from ``running``),
        ``False`` when only telemetry was drained and the worker is
        still going.
        """
        while True:
            try:
                message = task.conn.recv()
            except (EOFError, OSError):
                task.proc.join(5)
                task.conn.close()
                self._failure(task, "crash",
                              f"worker died (exitcode "
                              f"{task.proc.exitcode})", pending, results,
                              report, policy, telemetry)
                return True
            if message[0] == "ev":
                telemetry.relay(message[1])
                if task.conn.poll():
                    continue
                return False
            status, payload = message
            break
        task.proc.join(5)
        task.conn.close()
        if status == "error":
            self._failure(task, "error",
                          f"{payload.get('type')}: "
                          f"{payload.get('message')}", pending, results,
                          report, policy, telemetry)
            return True
        problem = validate_shard(payload)
        if problem is not None:
            self._failure(task, "corrupt", problem, pending, results,
                          report, policy, telemetry)
            return True
        meta = payload["meta"]
        partial = bool(meta.get("partial"))
        done[task.index] = payload
        if self.on_shard is not None:
            self.on_shard(task.index, payload)
        results[task.index] = ShardResult(
            task.index, task.job.label,
            "salvaged" if partial else "ok",
            attempts=task.attempt + 1,
            error_kind="vm" if partial else "",
            error=meta.get("error", "") if partial else "",
            wall_s=now - task.started)
        if partial:
            telemetry.event("supervisor.salvaged", shard=task.index,
                            error_type=meta.get("error_type", ""),
                            instructions=meta.get("instructions", 0))
        return True

    def _failure(self, task, kind, message, pending, results, report,
                 policy, telemetry):
        """Classify a failed attempt; retry with backoff or give up."""
        # Postmortem first: the ring holds the attempt's relayed
        # events (its span.start, its last samples), which is exactly
        # what a crash/timeout investigation needs.  No-op without an
        # installed recorder; never raises.
        from ..observability.flightrecorder import dump_current
        dump_current(f"shard {task.index} {kind}")
        if task.attempt < policy.max_retries:
            delay = backoff_delay(policy, task.index, task.attempt)
            telemetry.event("supervisor.retry", shard=task.index,
                            attempt=task.attempt, cause=kind,
                            error=message, delay_s=round(delay, 4))
            report.retries += 1
            pending.append(_Attempt(task.index, task.job,
                                    attempt=task.attempt + 1,
                                    ready_at=time.monotonic() + delay))
            return
        result = ShardResult(task.index, task.job.label, "failed",
                             attempts=task.attempt + 1,
                             error_kind=kind, error=message)
        results[task.index] = result
        telemetry.event("supervisor.shard_failed", shard=task.index,
                        attempts=result.attempts, cause=kind,
                        error=message)
        if policy.strict:
            raise ShardFailedError(
                f"shard {task.index} [{task.job.label}] failed after "
                f"{result.attempts} attempt(s): {kind}: {message}",
                shard=result)

    # -- reduce --------------------------------------------------------------

    def _merge(self, jobs, done, results, report, telemetry):
        report.shards = [results[index] for index in range(len(jobs))]
        if report.degraded:
            telemetry.event("supervisor.degraded",
                            failed=[shard.index
                                    for shard in report.failed],
                            merged=len(done))
        if not done:
            return SupervisedRun(profile=None, report=report)
        indices = sorted(done)
        with telemetry.span("supervisor.merge", shards=len(indices)):
            graphs = [graph_from_dict(done[index]) for index in indices]
            states = [tracker_state_from_dict(done[index])
                      for index in indices]
            graph, state = merge_graphs(graphs, states)
        profile = AggregateProfile(
            graph=graph, state=state,
            metas=[done[index]["meta"] for index in indices])
        return SupervisedRun(profile=profile, report=report)

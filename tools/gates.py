#!/usr/bin/env python
"""The repository's perf gates: one table of named bounds, one runner.

Each gate times two cases of one workload and reads their ratio; it
passes when the reading is on the better side of its bound, the bound
itself included.  :data:`GATES` is the only home of a perf bound in
this repository: CI's ``exec-tier-smoke`` and ``service-smoke`` jobs
name the rows they run, and ``make gates`` runs every row.

Usage::

    PYTHONPATH=src python tools/gates.py [NAME ...]

Runs the named gates, or all of them, prints each reading against its
bound, and exits 1 when any gate fails (2 for an unknown name).
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# Appended, not prepended: they hold modules named like common ones
# (``run``, ``inputs``), and only the service rows import from them.
sys.path.append(str(ROOT / "tests"))
sys.path.append(str(ROOT / "perfbench"))

from repro.lang import compile_source                      # noqa: E402
from repro.profiler import CostTracker, graph_to_dict      # noqa: E402
from repro.vm import VM                                    # noqa: E402
from repro.workloads.stress import stress_source           # noqa: E402

#: Timed calls per case; the minimum is the case's wall.
REPEATS = 5


def best_walls(cases: dict, repeats: int = REPEATS,
               before: Callable[[], object] = None) -> dict:
    """The minimum wall, in seconds, of each zero-argument case.

    Every case runs once untimed first, so template compiles and
    allocator warm-up stay out of the numbers.  The timed calls
    interleave the cases, so a slow patch of the host slows all of
    them in the same round, and each starts from a fresh
    ``gc.collect()`` with the collector off while it runs, so no
    collection lands inside one case's wall.  ``before``, when given,
    runs untimed ahead of every call of every case.
    """
    for step in cases.values():
        if before:
            before()
        step()
    walls = {name: [] for name in cases}
    for _ in range(repeats):
        for name, step in cases.items():
            if before:
                before()
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                step()
                walls[name].append(time.perf_counter() - start)
            finally:
                gc.enable()
    return {name: min(runs) for name, runs in walls.items()}


def _run(program, exec_mode="compiled", **kwargs):
    vm = VM(program, exec_mode=exec_mode, **kwargs)
    vm.run()
    if vm.exec_tier != exec_mode:
        raise RuntimeError(f"asked for the {exec_mode} tier, "
                           f"ran on {vm.exec_tier}")
    return vm


@functools.cache
def wide_shard(seed: int) -> dict:
    """Service-mix's wide shard: its 64-stage stress program for
    ``seed``, run once per process on the interpreter under
    ``CostTracker(slots=16)`` and written as a v4 document."""
    from inputs import SERVICE_WIDE_SHAPE
    source = stress_source(seed=seed, **SERVICE_WIDE_SHAPE)
    vm = _run(compile_source(source), exec_mode="interp",
              tracer=CostTracker(slots=16))
    return graph_to_dict(vm.tracer.graph, tracker=vm.tracer,
                         meta={"instructions": vm.instr_count})


def _framed_push(shard: dict) -> dict:
    """``shard`` through one push frame's encode and decode."""
    from repro.service.protocol import (HEADER_SIZE, decode_payload,
                                        encode_frame, parse_header)
    frame = encode_frame({"type": "push", "tenant": "t", "shard": shard})
    _, digest = parse_header(frame[:HEADER_SIZE])
    return decode_payload(frame[HEADER_SIZE:], digest)["shard"]


# -- measurements ------------------------------------------------------------


def tracker_overhead(workload: str) -> float:
    """Tracked (``CostTracker(slots=16)``) over untraced wall of a
    suite program at its small scale, both on the compiled tier."""
    from repro.workloads import get_workload
    spec = get_workload(workload)
    program = spec.build("unopt", spec.small_scale)
    best = best_walls({
        "untraced": lambda: _run(program),
        "tracked": lambda: _run(program, tracer=CostTracker(slots=16)),
    })
    return best["tracked"] / best["untraced"]


def codec_v3_over_v2(seed: int) -> float:
    """``json.loads`` + ``fold_document`` of the wide shard as v3
    columns, over the same as v2 rows."""
    import json
    from conftest import as_v2_rows, as_v3_columns
    from repro.profiler import DependenceGraph, TrackerState, fold_document
    texts = {"v3": json.dumps(as_v3_columns(wide_shard(seed))),
             "v2": json.dumps(as_v2_rows(wide_shard(seed)))}
    best = best_walls({
        layout: lambda text=text: fold_document(
            DependenceGraph(slots=16), TrackerState(), json.loads(text))
        for layout, text in texts.items()})
    return best["v3"] / best["v2"]


def codec_v4_over_v3(seed: int) -> float:
    """A push's ``encode_frame`` + ``decode_payload`` +
    ``fold_document`` of the wide shard as v4, over the same as v3."""
    from conftest import as_v3_columns
    from repro.profiler import DependenceGraph, TrackerState, fold_document
    shards = {"v4": wide_shard(seed), "v3": as_v3_columns(wide_shard(seed))}
    best = best_walls({
        layout: lambda shard=shard: fold_document(
            DependenceGraph(slots=16), TrackerState(), _framed_push(shard))
        for layout, shard in shards.items()})
    return best["v4"] / best["v3"]


def shape_memo(seed: int) -> float:
    """A framed push of the wide shard into a tenant that already holds
    it: as v4, whose repeated shape columns fold only the weights, over
    its v3 rendering, which takes the whole fold."""
    from conftest import as_v3_columns
    from repro.service import TenantRegistry
    registry = TenantRegistry()
    registry.ingest("wide", wide_shard(seed))
    shards = {"v4": wide_shard(seed), "v3": as_v3_columns(wide_shard(seed))}
    best = best_walls({
        layout: lambda shard=shard: registry.ingest(
            "wide", _framed_push(shard))
        for layout, shard in shards.items()})
    return best["v4"] / best["v3"]


def cr_one_pass(seeds: tuple) -> float:
    """The reference conflict ratio (every node regrouped) over
    ``TrackerState.one_pass_conflict_ratio``, the pass
    ``conflict_ratio`` holds the result of, on the wide tenant's
    shards folded into one graph."""
    from conftest import reference_conflict_ratio
    from repro.profiler import DependenceGraph, TrackerState, fold_document
    graph, state = DependenceGraph(slots=16), TrackerState()
    for seed in seeds:
        fold_document(graph, state, wide_shard(seed))
    best = best_walls({
        "one pass": lambda: state.one_pass_conflict_ratio(graph),
        "reference": lambda: reference_conflict_ratio(graph, state),
    })
    return best["reference"] / best["one pass"]


def served_repeat_summary(seed: int) -> float:
    """A daemon's ``summary`` of the wide tenant straight after a push
    of the shard it already holds, over one uncached conflict-ratio
    pass (``TrackerState.one_pass_conflict_ratio``) on the tenant's
    state.  The push keeps the graph's CSR snapshot and its context
    sets, so the summary may reuse the ratio its last read took.  The
    tenant is sent one ``report`` first, as service-mix's clients
    send one after every push, which freezes its graph.  Min of 20:
    the summary takes well under a millisecond."""
    from inputs import SERVICE_WIDE_SHAPE
    from repro.service import AnalysisDaemon, TenantRegistry
    daemon = AnalysisDaemon(TenantRegistry())
    push = {"type": "push", "tenant": "wide", "shard": wide_shard(seed)}
    program = {"source": stress_source(seed=seed, **SERVICE_WIDE_SHAPE),
               "use_stdlib": False}
    for message in (push, {"type": "query", "tenant": "wide",
                           "kind": "report", "program": program}):
        response = daemon._handle(message)
        if response["type"] != "ok":
            raise RuntimeError(f"gate set-up failed: {response}")
    tenant = daemon.registry.tenant("wide")
    summary = {"type": "query", "tenant": "wide", "kind": "summary"}
    best = best_walls({
        "summary": lambda: daemon._handle(summary),
        "one pass": lambda: tenant.state.one_pass_conflict_ratio(
            tenant.graph),
    }, repeats=20, before=lambda: daemon._handle(push))
    return best["summary"] / best["one pass"]


def compiled_vs_interp(stages: int, chain: int, rounds: int) -> float:
    """Untraced stress program: interpreter wall over compiled wall."""
    program = compile_source(stress_source(stages, chain, rounds))
    best = best_walls({
        "interp": lambda: _run(program, exec_mode="interp"),
        "compiled": lambda: _run(program),
    })
    return best["interp"] / best["compiled"]


def tracked_vs_untraced(stages: int, chain: int, rounds: int) -> float:
    """Stress program on the compiled tier: untraced wall over exact
    ``CostTracker(slots=16)`` wall, the inverse of the tracking
    overhead."""
    program = compile_source(stress_source(stages, chain, rounds))
    best = best_walls({
        "untraced": lambda: _run(program),
        "tracked": lambda: _run(program, tracer=CostTracker(slots=16)),
    })
    return best["untraced"] / best["tracked"]


def sampled_vs_untraced(stages: int, chain: int, rounds: int) -> float:
    """Stress program on the compiled tier: untraced wall over
    ``CostTracker(slots=16)`` under the default adaptive burst
    schedule (``--sample on``)."""
    from repro.profiler import parse_sample_spec
    program = compile_source(stress_source(stages, chain, rounds))
    schedule = parse_sample_spec("on")
    best = best_walls({
        "untraced": lambda: _run(program),
        "sampled": lambda: _run(program, tracer=CostTracker(slots=16),
                                sampling=schedule),
    })
    return best["untraced"] / best["sampled"]


def hub_overhead(pushes: int, queries: int) -> float:
    """One daemon on a unix socket, fed ``pushes`` pushes of a small
    stress shard then ``queries`` summary queries by a blocking
    client: request-loop wall under ``serve``'s default hub (telemetry
    into a flight-recorder ring) over the same under the ``NULL`` hub,
    minus one.  The daemon reads the process's hub per request, so
    both cases share the daemon, its tenant and the connection."""
    import asyncio
    import os
    import tempfile
    import threading
    from repro.observability import (NULL, FlightRecorder, RecorderSink,
                                     Telemetry, use)
    from repro.service import AnalysisDaemon, ServiceClient, TenantRegistry
    tracker = CostTracker(slots=16)
    vm = _run(compile_source(stress_source(stages=8, chain=4, rounds=2)),
              tracer=tracker)
    shard = graph_to_dict(tracker.graph, tracker=tracker,
                          meta={"instructions": vm.instr_count})
    with tempfile.TemporaryDirectory() as tmp:
        addr = os.path.join(tmp, "gate.sock")
        daemon = AnalysisDaemon(TenantRegistry(), socket_path=addr)
        thread = threading.Thread(target=lambda: asyncio.run(daemon.run()),
                                  daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 10.0
            while True:
                try:
                    with ServiceClient(addr, timeout=2.0) as client:
                        client.ping()
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
            with ServiceClient(addr, timeout=30.0) as client:
                def session(hub):
                    with use(hub):
                        for _ in range(pushes):
                            client.push("gate", shard)
                        for _ in range(queries):
                            client.query("gate", "summary")
                serve_hub = Telemetry(sink=RecorderSink(FlightRecorder()))
                best = best_walls({"on": lambda: session(serve_hub),
                                   "off": lambda: session(NULL)})
        finally:
            daemon.request_shutdown()
            thread.join(timeout=10.0)
    return best["on"] / best["off"] - 1.0


# -- the table ---------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """One bound: ``measure(**size)`` must read at or better than
    ``bound``, where better is ``"lower"`` or ``"higher"``."""

    name: str
    measure: Callable[..., float]
    size: dict
    better: str
    bound: float

    def passes(self, reading: float) -> bool:
        if self.better == "lower":
            return reading <= self.bound
        return reading >= self.bound

    def rule(self) -> str:
        return f"{'<=' if self.better == 'lower' else '>='} {self.bound}"


_WIDE = {"seed": 3}
_QUICK_TIER = {"stages": 96, "chain": 24, "rounds": 60}

#: Every enforced perf bound.  The three ``quick_`` rows keep 90 % of
#: the quick-size ratios recorded in BENCH_PR7.json (3.67, 1 / 15.33
#: and 0.739).  ``served_repeat_summary`` read 0.48-0.60 over 25 runs
#: on a 2-vCPU host (Python 3.11), against 0.79-1.35 (12 runs) when
#: every summary recomputed the ratio.  CI runs neither the two
#: full-size tier rows nor ``hub_overhead``, whose run-to-run spread is
#: wider than its 5 %.
GATES = (
    Gate("tracker_overhead", tracker_overhead,
         {"workload": "bloat_like"}, "lower", 3.8),
    Gate("codec_v3_over_v2", codec_v3_over_v2, _WIDE, "lower", 0.9),
    Gate("codec_v4_over_v3", codec_v4_over_v3, _WIDE, "lower", 0.75),
    Gate("shape_memo", shape_memo, _WIDE, "lower", 0.4),
    Gate("cr_one_pass", cr_one_pass, {"seeds": (3, 4)}, "higher", 3.0),
    Gate("served_repeat_summary", served_repeat_summary, _WIDE, "lower",
         0.8),
    Gate("quick_compiled_vs_interp", compiled_vs_interp, _QUICK_TIER,
         "higher", 3.303),
    Gate("quick_tracked_vs_untraced", tracked_vs_untraced, _QUICK_TIER,
         "higher", 0.05871),
    Gate("quick_sampled_vs_untraced", sampled_vs_untraced,
         {"stages": 96, "chain": 24, "rounds": 600}, "higher", 0.6651),
    Gate("compiled_vs_interp", compiled_vs_interp,
         {"stages": 96, "chain": 24, "rounds": 300}, "higher", 1.5),
    Gate("sampled_vs_untraced", sampled_vs_untraced,
         {"stages": 96, "chain": 24, "rounds": 3000}, "higher", 0.8),
    Gate("hub_overhead", hub_overhead, {"pushes": 240, "queries": 40},
         "lower", 0.05),
)


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    table = {gate.name: gate for gate in GATES}
    unknown = [name for name in names if name not in table]
    if unknown:
        print(f"unknown gate(s): {', '.join(unknown)}; the table:",
              file=sys.stderr)
        for gate in GATES:
            print(f"  {gate.name}: {gate.measure.__name__}({gate.size}) "
                  f"{gate.rule()}", file=sys.stderr)
        return 2
    failed = []
    for gate in [table[name] for name in names] or GATES:
        reading = gate.measure(**gate.size)
        verdict = "ok" if gate.passes(reading) else "FAIL"
        print(f"{gate.name}: {reading:.4g} (bound {gate.rule()}) "
              f"{verdict}", flush=True)
        if verdict == "FAIL":
            failed.append(gate.name)
    if failed:
        print(f"{len(failed)} gate(s) failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

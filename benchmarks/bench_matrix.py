"""Write the exec-mode / sampling benchmark matrix (``make bench-json``).

Produces ``BENCH_PR7.json`` at the repo root with the numbers the
compiled dispatch tier and adaptive burst sampling (PR 7) are
accountable for:

* **exec-tier matrix** — untraced ops/sec for the interpreter vs the
  compiled closure tier on the analysis-stress workload, plus the
  exact cost-tracked s16 throughput in both tiers.  Gate:
  ``compiled untraced >= 1.5x interp untraced``.
* **sampled gate** — tracked s16 with the default adaptive burst
  schedule vs untraced compiled throughput on a long stress run
  (``rounds=3000``), where the growing inter-window gap reaches its
  steady state.  Gate: ``tracked sampled >= 0.8x untraced``.
* **estimation accuracy** — sampled-and-scaled Gcost frequencies vs
  an exact run of the same seeded program: per-site relative error
  over the hottest sites, and the *IPD bias* stated explicitly —
  reachability-derived metrics (IPD/IPP) are not estimable from
  sampled graphs because untracked bursts sever the shadow heap, so
  the record shows the (large) bias instead of hiding it.
* **metrics overhead** (PR 10, ``make bench-json-pr10`` →
  ``BENCH_PR10.json``) — daemon ingest throughput under ``serve``'s
  default telemetry hub (a :class:`~repro.observability.Telemetry`
  over a flight-recorder :class:`~repro.observability.RecorderSink`,
  which also serves the ``stats`` metrics) vs the disabled ``NULL``
  hub, over a real unix-socket push/query session.  Gate: ``<= 5%``
  overhead.  (The *disabled* side must cost exactly zero extra work
  — that contract is structural and enforced by
  ``tests/test_service.py``, not timed here.)

All timing on this host is noisy (single core, 30%+ run-to-run
spread), so every ratio is computed from *interleaved best-of-N*
measurements: each repeat times every configuration back to back,
and the best wall time per configuration wins.  The recorded gates
are ratios, not absolute ops/sec, so they transfer across hosts;
``tools/check_bench_regression.py`` consumes them.

Runs standalone: ``python benchmarks/bench_matrix.py [output.json]``
(add ``--quick`` for the reduced matrix the CI regression guard
re-measures).
"""

import json
import os
import platform
import sys
import time
from datetime import datetime, timezone

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.analyses.deadvalues import measure_bloat        # noqa: E402
from repro.profiler import (CostTracker, apply_sampling_scale,  # noqa: E402
                            canonical_form, parse_sample_spec)
from repro.vm import EXEC_COMPILED, EXEC_INTERP, VM        # noqa: E402
from repro.workloads.stress import build_stress            # noqa: E402

#: Mid-size stress run for the tier matrix and exact tracked numbers.
TIER_STRESS = {"stages": 96, "chain": 24, "rounds": 300}
#: Long run for the sampled gate: the adaptive schedule's growing
#: inter-window gap only reaches steady state after tens of millions
#: of instructions, and short runs overstate warmup duty.
GATE_STRESS = {"stages": 96, "chain": 24, "rounds": 3000}
#: Small seeded run for exact-vs-estimated accuracy (exact tracked
#: runs are ~15x slower than untraced, so keep this modest).
ACCURACY_STRESS = {"stages": 96, "chain": 24, "rounds": 40, "seed": 7}
ACCURACY_SPEC = "1024:8192:1024:1.0"
REPEATS = 3
TOP_SITES = 20

QUICK = {"tier": {"stages": 96, "chain": 24, "rounds": 60},
         "gate": {"stages": 96, "chain": 24, "rounds": 600}}

#: Requests per metrics-overhead session (push-heavy, the ingest mix
#: the ≤5% gate is about) and the gate itself.
METRICS_PUSHES = 240
METRICS_QUERIES = 40
METRICS_QUICK = {"pushes": 60, "queries": 10}
METRICS_THRESHOLD = 0.05


def _interleaved(configs, repeats=REPEATS):
    """Best-of-N wall times, interleaving every config inside one rep.

    ``configs`` maps name -> zero-arg callable.  Interleaving means a
    slow patch of the host (GC, frequency scaling, a neighbour VM)
    degrades all configurations of one repeat together instead of
    biasing whichever config it happened to land on; best-of then
    discards the degraded repeats.  Each callable runs once untimed
    first so tier compilation and allocator warmup stay out of the
    numbers.
    """
    values = {name: fn() for name, fn in configs.items()}
    best = {name: float("inf") for name in configs}
    for _ in range(repeats):
        for name, fn in configs.items():
            start = time.perf_counter()
            values[name] = fn()
            elapsed = time.perf_counter() - start
            best[name] = min(best[name], elapsed)
    return best, values


def _run(program, **kwargs):
    vm = VM(program, **kwargs)
    vm.run()
    return vm


def exec_tier_matrix(stress):
    program = build_stress(**stress)

    configs = {
        "interp_untraced": lambda: _run(program, exec_mode=EXEC_INTERP),
        "compiled_untraced": lambda: _run(program,
                                          exec_mode=EXEC_COMPILED),
        "interp_tracked_s16": lambda: _run(
            program, exec_mode=EXEC_INTERP, tracer=CostTracker(slots=16)),
        "compiled_tracked_s16": lambda: _run(
            program, exec_mode=EXEC_COMPILED,
            tracer=CostTracker(slots=16)),
    }
    best, vms = _interleaved(configs)
    if vms["compiled_untraced"].exec_tier != EXEC_COMPILED:
        raise AssertionError("compiled tier fell back to the interpreter")
    exact_interp = canonical_form(vms["interp_tracked_s16"].tracer.graph)
    exact_compiled = canonical_form(
        vms["compiled_tracked_s16"].tracer.graph)
    if exact_interp != exact_compiled:
        raise AssertionError("compiled-tier Gcost diverged from the "
                             "interpreter (sampling off)")

    instrs = vms["interp_untraced"].instr_count
    ops = {name: instrs / seconds for name, seconds in best.items()}
    return {
        "workload": "stress",
        "scale": dict(stress),
        "instructions": instrs,
        "ops_per_sec": {name: round(v) for name, v in ops.items()},
        "compiled_vs_interp_untraced":
            round(ops["compiled_untraced"] / ops["interp_untraced"], 2),
        "compiled_vs_interp_tracked_s16":
            round(ops["compiled_tracked_s16"] / ops["interp_tracked_s16"],
                  2),
        "tracking_overhead_compiled":
            round(ops["compiled_untraced"] / ops["compiled_tracked_s16"],
                  2),
        "gcost_equivalent": True,
    }


def sampled_gate(stress):
    program = build_stress(**stress)
    schedule = parse_sample_spec("on")

    state = {}

    def sampled():
        vm = _run(program, exec_mode=EXEC_COMPILED,
                  tracer=CostTracker(slots=16), sampling=schedule)
        state["stats"] = vm.sampling_stats()
        return vm

    configs = {
        "untraced": lambda: _run(program, exec_mode=EXEC_COMPILED),
        "tracked_s16_sampled": sampled,
    }
    # The gate ratio needs extra repeats: both sides run near the
    # host's memory-bandwidth noise floor, and CPython keeps
    # specializing the generated closures for a few runs.
    best, vms = _interleaved(configs, repeats=5)
    instrs = vms["untraced"].instr_count
    untraced_ops = instrs / best["untraced"]
    sampled_ops = instrs / best["tracked_s16_sampled"]
    stats = state["stats"]
    return {
        "workload": "stress",
        "scale": dict(stress),
        "instructions": instrs,
        "schedule": schedule.spec(),
        "untraced_ops_per_sec": round(untraced_ops),
        "tracked_s16_sampled_ops_per_sec": round(sampled_ops),
        "tracked_sampled_vs_untraced":
            round(sampled_ops / untraced_ops, 3),
        "duty_cycle": round(stats["tracked_instructions"]
                            / stats["total_instructions"], 5),
        "sampling_factor": round(stats["factor"], 2),
        "window_toggles": stats["toggles"],
    }


def estimation_accuracy(stress, spec):
    program = build_stress(**stress)
    schedule = parse_sample_spec(spec)

    exact_vm = _run(program, exec_mode=EXEC_COMPILED,
                    tracer=CostTracker(slots=16))
    sampled_vm = _run(program, exec_mode=EXEC_COMPILED,
                      tracer=CostTracker(slots=16), sampling=schedule)
    stats = sampled_vm.sampling_stats()

    exact = exact_vm.tracer.graph
    estimated = sampled_vm.tracer.graph
    apply_sampling_scale(estimated, stats["factor"])

    def site_freqs(graph):
        sites = {}
        for (iid, _), freq in zip(graph.node_keys, graph.freq):
            sites[iid] = sites.get(iid, 0) + freq
        return sites

    exact_sites = site_freqs(exact)
    est_sites = site_freqs(estimated)
    hottest = sorted(exact_sites, key=exact_sites.get,
                     reverse=True)[:TOP_SITES]
    errors = [abs(est_sites.get(iid, 0) - exact_sites[iid])
              / exact_sites[iid] for iid in hottest]

    exact_bloat = measure_bloat(exact, exact_vm.instr_count)
    est_bloat = measure_bloat(estimated, sampled_vm.instr_count)
    return {
        "workload": "stress",
        "scale": dict(stress),
        "schedule": schedule.spec(),
        "duty_cycle": round(stats["tracked_instructions"]
                            / stats["total_instructions"], 5),
        "sampling_factor": round(stats["factor"], 2),
        "top_sites": TOP_SITES,
        "mean_site_freq_error": round(sum(errors) / len(errors), 4),
        "max_site_freq_error": round(max(errors), 4),
        "ipd_exact": round(exact_bloat.ipd, 6),
        "ipd_estimated": round(est_bloat.ipd, 6),
        "note": ("frequency estimates are unbiased; IPD/IPP are "
                 "reachability-derived and NOT estimable from sampled "
                 "graphs (untracked bursts sever the shadow heap, so "
                 "the estimate over-approximates deadness regardless "
                 "of window size) — bloat classification requires an "
                 "exact run"),
    }


def metrics_overhead(pushes=METRICS_PUSHES, queries=METRICS_QUERIES,
                     repeats=5):
    """Daemon request throughput with metrics on vs off (best-of-N).

    Each measured session is a real daemon on a unix socket fed the
    same push/query mix by a blocking client; only the request loop is
    timed (daemon startup/teardown excluded).  "On" is the hub ``serve``
    builds by default — telemetry into a flight-recorder ring — and
    "off" the disabled ``NULL`` hub.  On/off sessions are interleaved
    per repeat so host noise degrades both sides together.
    """
    import asyncio
    import tempfile
    import threading

    from repro.observability import (NULL, FlightRecorder, RecorderSink,
                                     Telemetry, use)
    from repro.profiler import graph_to_dict
    from repro.service import (AnalysisDaemon, ServiceClient,
                               TenantRegistry)

    program = build_stress(stages=8, chain=4, rounds=2)
    tracker = CostTracker(slots=16)
    vm = _run(program, exec_mode=EXEC_COMPILED, tracer=tracker)
    shard = graph_to_dict(tracker.graph,
                          meta={"label": "bench",
                                "instructions": vm.instr_count,
                                "output": vm.stdout(),
                                "exec_mode": vm.exec_tier},
                          tracker=tracker)

    def serve_hub():
        return Telemetry(sink=RecorderSink(FlightRecorder()))

    def session(hub):
        with tempfile.TemporaryDirectory() as tmp, use(hub):
            addr = os.path.join(tmp, "svc.sock")
            daemon = AnalysisDaemon(TenantRegistry(), socket_path=addr)
            thread = threading.Thread(
                target=lambda: asyncio.run(daemon.run()), daemon=True)
            thread.start()
            deadline = time.time() + 10.0
            while True:
                try:
                    with ServiceClient(addr, timeout=2.0) as client:
                        client.ping()
                    break
                except (ConnectionError, OSError):
                    if time.time() > deadline:
                        raise RuntimeError("bench daemon never came up")
                    time.sleep(0.01)
            try:
                with ServiceClient(addr, timeout=30.0) as client:
                    start = time.perf_counter()
                    for _ in range(pushes):
                        client.push("bench", shard)
                    for _ in range(queries):
                        client.query("bench", "summary")
                    elapsed = time.perf_counter() - start
            finally:
                daemon.request_shutdown()
                thread.join(timeout=10.0)
            return elapsed

    session(serve_hub())                # warmup (tiers, allocator)
    best = {"metrics_on": float("inf"), "metrics_off": float("inf")}
    for _ in range(repeats):
        best["metrics_on"] = min(best["metrics_on"],
                                 session(serve_hub()))
        best["metrics_off"] = min(best["metrics_off"], session(NULL))
    requests = pushes + queries
    rps = {name: requests / seconds for name, seconds in best.items()}
    overhead = best["metrics_on"] / best["metrics_off"] - 1.0
    return {
        "pushes": pushes,
        "queries": queries,
        "repeats": repeats,
        "requests_per_sec": {name: round(v) for name, v in rps.items()},
        "overhead": round(overhead, 4),
        "threshold": METRICS_THRESHOLD,
        "pass": overhead <= METRICS_THRESHOLD,
        "note": ("overhead of serve's default telemetry hub (flight-"
                 "recorder ring; it also serves the stats metrics) on "
                 "the daemon request loop; the disabled NULL hub does "
                 "exactly zero metrics work by the structural guard in "
                 "tests/test_service.py"),
    }


def build_record(quick=False):
    tier = QUICK["tier"] if quick else TIER_STRESS
    gate = QUICK["gate"] if quick else GATE_STRESS
    record = {
        "generated": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "quick": quick,
        "exec_tiers": exec_tier_matrix(tier),
        "sampled_gate": sampled_gate(gate),
        "estimation_accuracy": estimation_accuracy(ACCURACY_STRESS,
                                                   ACCURACY_SPEC),
        "metrics_overhead":
            metrics_overhead(**(METRICS_QUICK if quick else {})),
    }
    if not quick:
        # Re-measure the two timing sections at the quick sizes too:
        # the CI regression guard re-runs only the quick matrix (CI
        # minutes), and comparing its ratios against full-size ones
        # would mix schedule-warmup regimes — this keeps the committed
        # baseline and the guard's fresh measurement apples-to-apples.
        record["quick_baseline"] = {
            "exec_tiers": exec_tier_matrix(QUICK["tier"]),
            "sampled_gate": sampled_gate(QUICK["gate"]),
        }
    record["gates"] = {
        # Thresholds are calibrated for the full-size matrix; the
        # quick matrix records the same ratios for trend comparison
        # but is too short for the adaptive schedule's steady state,
        # so gate enforcement (exit code) is full-size only.
        "compiled_vs_interp_untraced": {
            "value": record["exec_tiers"]["compiled_vs_interp_untraced"],
            "threshold": 1.5,
            "pass": record["exec_tiers"]["compiled_vs_interp_untraced"]
            >= 1.5,
        },
        "tracked_sampled_vs_untraced": {
            "value": record["sampled_gate"]["tracked_sampled_vs_untraced"],
            "threshold": 0.8,
            "pass": record["sampled_gate"]["tracked_sampled_vs_untraced"]
            >= 0.8,
        },
        "metrics_overhead": {
            "value": record["metrics_overhead"]["overhead"],
            "threshold": METRICS_THRESHOLD,
            "pass": record["metrics_overhead"]["pass"],
        },
    }
    return record


def build_metrics_record():
    """The standalone PR-10 record (``BENCH_PR10.json``): just the
    service metrics-overhead guard, cheap enough for every push."""
    record = {
        "generated": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "metrics_overhead": metrics_overhead(),
    }
    record["gates"] = {
        "metrics_overhead": {
            "value": record["metrics_overhead"]["overhead"],
            "threshold": METRICS_THRESHOLD,
            "pass": record["metrics_overhead"]["pass"],
        },
    }
    return record


def main(argv):
    flags = {a for a in argv[1:] if a.startswith("--")}
    args = [a for a in argv[1:] if not a.startswith("--")]
    quick = "--quick" in flags
    if "--metrics" in flags:
        out_path = args[0] if args else os.path.join(_ROOT,
                                                     "BENCH_PR10.json")
        record = build_metrics_record()
    else:
        out_path = args[0] if args else os.path.join(_ROOT,
                                                     "BENCH_PR7.json")
        record = build_record(quick=quick)
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {out_path}")
    if quick:
        return 0
    return 0 if all(g["pass"] for g in record["gates"].values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

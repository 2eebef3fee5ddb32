"""Command-line interface.

::

    python -m repro run program.mj            # execute
    python -m repro disasm program.mj         # show the TAC
    python -m repro profile program.mj        # all reports
    python -m repro profile program.mj --report cost-benefit --top 5
    python -m repro profile program.mj --save-graph gcost.json
    python -m repro profile program.mj --jobs 4 --runs 8   # sharded
    python -m repro profile program.mj --jobs 4 --runs 8 \\
        --resume ckpt.json --shard-timeout 30 --max-retries 3
    python -m repro profile program.mj --telemetry run.jsonl
    python -m repro profile program.mj --self-profile
    python -m repro analyze gcost.json program.mj   # offline analysis
    python -m repro report gcost.json program.mj    # Markdown bloat report
    python -m repro report gcost.json program.mj --format json
    python -m repro trace run.jsonl                 # critical-path report
    python -m repro serve --socket /tmp/repro.sock  # resident daemon
    python -m repro profile program.mj --jobs 2 --runs 4 \\
        --push /tmp/repro.sock --tenant app         # stream shards to it
    python -m repro client query report program.mj \\
        --addr /tmp/repro.sock --tenant app         # query merged state
    python -m repro client status --addr /tmp/repro.sock
    python -m repro client stats --addr /tmp/repro.sock   # live metrics
    python -m repro client health --addr /tmp/repro.sock
    python -m repro workloads --list
    python -m repro workloads bloat_like --small
    python -m repro table1 --small
    python -m repro casestudies --small

MiniJ programs get the full standard library unless ``--no-stdlib``.

Exit codes (see ``docs/RESILIENCE.md``): 0 success; 1 runtime failure
(VM errors, strict-mode shard failure, no shard survived); 2 bad input
(missing/unparseable files, compile errors, corrupt or truncated
profiles, unusable checkpoints); 3 degraded run (sharded profiling
completed but at least one shard was lost — reports still printed).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from .lang.errors import CompileError
from .vm.errors import VMError

REPORT_CHOICES = ("cost-benefit", "bloat", "dead", "methods",
                  "returns", "writes", "predicates", "caches", "all")

#: Exit-code contract: scripts and CI distinguish *what went wrong*.
EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_BAD_INPUT = 2
EXIT_DEGRADED = 3


def _bad_input_error(error) -> bool:
    """Errors that mean the *input* was bad (exit code 2), not that
    execution faulted — they trigger no flight-recorder dump."""
    from .profiler.errors import CheckpointError, ProfileFormatError
    return isinstance(error, (CompileError, FileNotFoundError,
                              ProfileFormatError, CheckpointError))


def _flight_path(args):
    """The flight-recorder dump path of a command, or None when the
    recorder is disabled (``--no-flight-record``)."""
    if getattr(args, "no_flight_record", False):
        return None
    configured = getattr(args, "flight_record", None)
    if configured:
        return configured
    from .observability.flightrecorder import default_dump_path
    return default_dump_path()


@contextmanager
def _telemetry_scope(path, flight=None):
    """Install a telemetry hub for the duration of one command.

    ``path`` (``--telemetry PATH``) adds a JSONL sink; ``flight`` (a
    dump path) adds the always-on flight recorder, recording the same
    schema-v2 events into a bounded in-memory ring that is dumped to
    ``flight`` only on a fault, ``SIGUSR1``, or daemon shutdown — so
    a clean run with the recorder alone writes no file at all.  With
    both falsy this is a no-op and the command keeps the zero-cost
    :data:`~repro.observability.NULL` hub.
    """
    if not path and not flight:
        yield None
        return
    from .observability import (FlightRecorder, JsonlSink, RecorderSink,
                                Telemetry, arm_signal, dump_current,
                                install, set_current)
    sink = JsonlSink(path) if path else None
    recorder = previous_recorder = None
    if flight:
        recorder = FlightRecorder(flight)
        sink = RecorderSink(recorder, sink)
        previous_recorder = install(recorder)
        arm_signal()
    hub = Telemetry(sink=sink)
    previous = set_current(hub)
    try:
        yield hub
    except BaseException as error:
        # Postmortem: anything escaping the command (VM errors, strict
        # shard failures, fault-injected kills, ^C) dumps the ring
        # before the hub is torn down.  Bad *input* (unparseable
        # files, compile errors) is not a fault worth a dump.
        if recorder is not None and not _bad_input_error(error):
            dumped = dump_current(f"error:{type(error).__name__}")
            if dumped:
                print(f"flight recorder dumped to {dumped}",
                      file=sys.stderr)
        raise
    finally:
        set_current(previous)
        hub.close()
        if recorder is not None:
            install(previous_recorder)
        if path:
            print(f"telemetry written to {path}", file=sys.stderr)


def _load_program(path: str, use_stdlib: bool):
    from .profiler.parallel import compile_program
    with open(path) as handle:
        source = handle.read()
    return compile_program(source, use_stdlib, origin=path)


def _print_reports(program, graph, which: str, top: int, *,
                   heap=None, instr_count: int = 0,
                   branch_outcomes=None, return_nodes=None):
    from .observability import current
    with current().span("analyze", report=which):
        _print_reports_body(
            program, graph, which, top, heap=heap,
            instr_count=instr_count, branch_outcomes=branch_outcomes,
            return_nodes=return_nodes)


def _print_reports_body(program, graph, which, top, *, heap,
                        instr_count, branch_outcomes, return_nodes):
    from .analyses import (analyze_caches, analyze_cost_benefit,
                           constant_predicates, dead_lines,
                           format_bloat_metrics, format_cache_report,
                           format_cost_benefit_report,
                           format_method_costs,
                           format_write_read_report, measure_bloat,
                           method_costs, return_costs,
                           write_read_imbalances)

    if which in ("cost-benefit", "all"):
        print("== object cost-benefit (n-RAC / n-RAB) ==")
        reports = analyze_cost_benefit(graph, program, heap=heap)
        print(format_cost_benefit_report(reports, top=top))
        print()
    if which in ("bloat", "all"):
        print("== ultimately-dead values ==")
        print(format_bloat_metrics("program",
                                   measure_bloat(graph, instr_count)))
        print()
    if which in ("dead", "all"):
        print("== ultimately-dead work by source line ==")
        for entry in dead_lines(graph, program, top=top):
            print(f"  {entry.method}:{entry.line}  "
                  f"dead-freq={entry.dead_frequency}")
        print()
    if which in ("methods", "all"):
        print("== method-level costs ==")
        print(format_method_costs(method_costs(graph, program),
                                  top=top))
        print()
    if which in ("returns", "all"):
        print("== return-value costs ==")
        for entry in return_costs(graph, return_nodes or {},
                                  program, top=top):
            print(f"  {entry.method:<40} "
                  f"x{entry.returns_observed:<6} "
                  f"cost={entry.relative_cost:.1f}")
        print()
    if which in ("writes", "all"):
        print("== write/read imbalances ==")
        print(format_write_read_report(write_read_imbalances(graph),
                                       top=top))
        print()
    if which in ("predicates", "all"):
        print("== always-true/false predicates ==")
        for entry in constant_predicates(graph,
                                         branch_outcomes or {},
                                         program)[:top]:
            print(f"  line {entry.line}: always-{entry.always} "
                  f"x{entry.executions} cost="
                  f"{entry.condition_cost:.0f}")
        print()
    if which in ("caches", "all"):
        print("== cache effectiveness ==")
        print(format_cache_report(analyze_caches(graph),
                                  program=program, top=top))
        print()


def cmd_run(args):
    from .vm import VM
    program = _load_program(args.file, not args.no_stdlib)
    vm = VM(program, max_steps=args.max_steps, exec_mode=args.exec_mode)
    vm.run()
    sys.stdout.write(vm.stdout())
    if not vm.stdout().endswith("\n"):
        print()
    print(f"[{vm.instr_count} instructions, "
          f"{vm.heap.total_allocated} allocations, "
          f"{vm.exec_tier} tier]", file=sys.stderr)
    return 0


def cmd_disasm(args):
    from .ir import format_program
    program = _load_program(args.file, not args.no_stdlib)
    print(format_program(program))
    return 0


def cmd_profile(args):
    with _telemetry_scope(args.telemetry, _flight_path(args)):
        return _cmd_profile(args)


def _sampling_banner(stats) -> float:
    """Print the estimate disclaimer for a sampled profile; return the
    frequency scale factor."""
    factor = stats.get("factor") or 1.0
    tracked = stats["tracked_instructions"]
    total = stats["total_instructions"]
    duty = tracked / total if total else 0.0
    print(f"sampling: tracked {tracked}/{total} instructions "
          f"({duty:.2%} duty, {stats['toggles']} toggles); "
          f"frequencies scaled x{factor:.1f}")
    print("sampling: frequencies below are estimates; dead/bloat "
          "classification requires an exact (unsampled) run")
    return factor


def _cmd_profile(args):
    import time
    runs = args.runs if args.runs is not None else max(args.jobs, 1)
    if args.jobs > 1 or runs > 1 or args.resume:
        return _profile_parallel(args, runs)
    from .profiler import CostTracker, parse_sample_spec, save_graph
    from .vm import VM
    program = _load_program(args.file, not args.no_stdlib)
    tracker = CostTracker(slots=args.slots,
                          phases=set(args.phases) if args.phases
                          else None)
    vm = VM(program, tracer=tracker, max_steps=args.max_steps,
            exec_mode=args.exec_mode,
            sampling=parse_sample_spec(args.sample))
    start = time.perf_counter()
    vm.run()
    tracked_wall = time.perf_counter() - start
    print(f"output: {vm.stdout()!r}")
    print(f"instructions: {vm.instr_count}; graph: "
          f"{tracker.graph.num_nodes} nodes / "
          f"{tracker.graph.num_edges} edges; "
          f"CR: {tracker.conflict_ratio():.3f}; "
          f"tier: {vm.exec_tier}")
    sampling_stats = vm.sampling_stats()
    raw_freq = None
    if sampling_stats is not None:
        from .profiler import apply_sampling_scale
        factor = _sampling_banner(sampling_stats)
        # Reports read estimated (scaled) frequencies; the graph is
        # restored to raw sampled counts before it is saved, so the
        # file stays mergeable with other shards.
        raw_freq = apply_sampling_scale(tracker.graph, factor)
    print()
    overhead = None
    if args.self_profile:
        from .observability import (OverheadReport, current,
                                    time_untracked)
        overhead = OverheadReport(
            untracked_wall=time_untracked(program,
                                          max_steps=args.max_steps),
            tracked_wall=tracked_wall,
            instructions=vm.instr_count,
            nodes=tracker.graph.num_nodes,
            edges=tracker.graph.num_edges)
        hub = current()
        if hub.enabled:
            hub.event("overhead", **overhead.as_dict())
        print(overhead.format())
        print()
    if args.telemetry:
        from .observability import current, emit_tracker_stats
        emit_tracker_stats(current(), tracker)
    if args.explain is not None:
        from .analyses import explain_site
        print(explain_site(tracker.graph, program, args.explain))
        print()
    _print_reports(program, tracker.graph, args.report, args.top,
                   heap=vm.heap, instr_count=vm.instr_count,
                   branch_outcomes=tracker.branch_outcomes,
                   return_nodes=tracker.return_nodes)
    if raw_freq is not None and (args.save_graph or args.push):
        # Saved/pushed profiles always carry raw sampled counts so
        # they stay mergeable with other shards.
        tracker.graph.freq = raw_freq
    if args.push:
        from .profiler.serialize import graph_to_dict
        meta = {"label": "run0",
                "instructions": vm.instr_count,
                "output": vm.stdout(),
                "exec_mode": vm.exec_tier}
        if sampling_stats is not None:
            meta["sampling"] = sampling_stats
        shard = graph_to_dict(tracker.graph, meta=meta, tracker=tracker)
        _push_shards(args.push, args.tenant, [(0, shard)])
    if args.save_graph:
        meta = {"instructions": vm.instr_count,
                "slots": args.slots,
                "output": vm.stdout(),
                "exec_mode": vm.exec_tier}
        if sampling_stats is not None:
            meta["sampling"] = sampling_stats
        if overhead is not None:
            meta["overhead"] = overhead.as_dict()
        save_graph(tracker.graph, args.save_graph, meta=meta,
                   tracker=tracker)
        print(f"graph written to {args.save_graph}")
    return 0


def _push_shards(addr, tenant, indexed_shards) -> None:
    """Stream already-serialized shards to a resident daemon.

    Push failures warn and stop pushing; they never fail the profile
    run that produced the shards (the local reports already printed).
    """
    from .service import ServiceClient, ShardPusher
    try:
        client = ServiceClient(addr)
    except (ConnectionError, OSError) as error:
        print(f"repro: warning: cannot reach daemon at {addr!r} "
              f"({error}); shards stay local", file=sys.stderr)
        return
    try:
        pusher = ShardPusher(client, tenant)
        for index, shard in indexed_shards:
            pusher(index, shard)
        pusher.flush()
    finally:
        client.close()
    if pusher.error is None:
        print(f"push: {pusher.pushed} shard(s) -> {addr} "
              f"(tenant {tenant!r})")


def _profile_parallel(args, runs: int):
    """Sharded profiling: ``runs`` executions over ``--jobs`` workers,
    supervised (retries / timeouts / checkpoints; docs/RESILIENCE.md)
    and merged into one Gcost before reporting."""
    from .profiler import (ProfileJob, ShardPolicy, SupervisedProfiler,
                           parse_sample_spec, save_graph)
    from .testing.faults import FaultPlan
    program = _load_program(args.file, not args.no_stdlib)
    sampling = parse_sample_spec(args.sample)
    jobs = [ProfileJob.from_file(args.file,
                                 use_stdlib=not args.no_stdlib,
                                 label=f"run{i}",
                                 max_steps=args.max_steps,
                                 exec_mode=args.exec_mode,
                                 sampling=sampling)
            for i in range(runs)]
    policy = ShardPolicy(timeout_s=args.shard_timeout,
                         max_retries=args.max_retries,
                         strict=args.strict)
    pusher = push_client = None
    if args.push:
        from .service import ServiceClient, ShardPusher
        try:
            push_client = ServiceClient(args.push)
            pusher = ShardPusher(push_client, args.tenant)
        except (ConnectionError, OSError) as error:
            print(f"repro: warning: cannot reach daemon at "
                  f"{args.push!r} ({error}); shards stay local",
                  file=sys.stderr)
    profiler = SupervisedProfiler(workers=args.jobs, slots=args.slots,
                                  phases=set(args.phases) if args.phases
                                  else None,
                                  policy=policy,
                                  checkpoint=args.resume,
                                  fault_plan=FaultPlan.from_env(),
                                  on_shard=pusher)
    try:
        run = profiler.profile(jobs)
    finally:
        if pusher is not None:
            pusher.flush()
            push_client.close()
    if pusher is not None and pusher.error is None:
        print(f"push: {pusher.pushed} shard(s) -> {args.push} "
              f"(tenant {args.tenant!r})")
    report = run.report
    if run.profile is None:
        print("no shard survived; nothing to report:", file=sys.stderr)
        print(report.format(), file=sys.stderr)
        return EXIT_RUNTIME
    result = run.profile
    graph = result.graph
    print(f"shards: {runs} runs over {args.jobs} worker(s)")
    resumed = len(report.by_status("resumed"))
    if resumed or report.retries or report.degraded:
        print(report.format())
    print(f"output: {result.outputs[0]!r}")
    print(f"instructions: {result.instructions}; merged graph: "
          f"{graph.num_nodes} nodes / {graph.num_edges} edges; "
          f"CR: {result.conflict_ratio():.3f}; "
          f"tier: {result.metas[0].get('exec_mode', 'interp')}")
    raw_freq = None
    if result.sampled:
        from .profiler import apply_sampling_scale
        shard_stats = [meta.get("sampling") for meta in result.metas]
        totals = {
            "tracked_instructions": sum(
                s["tracked_instructions"] for s in shard_stats if s),
            "total_instructions": result.instructions,
            "toggles": sum(s["toggles"] for s in shard_stats if s),
            "factor": result.sampling_factor,
        }
        _sampling_banner(totals)
        raw_freq = apply_sampling_scale(graph, result.sampling_factor)
    print()
    overhead = None
    if args.self_profile:
        # Parallel analogue: per-shard tracked execution wall (mean
        # over shards) against one untracked run of the same program.
        from .observability import OverheadReport, current, time_untracked
        walls = [meta.get("run_wall_s", meta.get("wall_s", 0.0))
                 for meta in result.metas]
        overhead = OverheadReport(
            untracked_wall=time_untracked(program,
                                          max_steps=args.max_steps),
            tracked_wall=sum(walls) / len(walls) if walls else 0.0,
            instructions=result.instructions // max(runs, 1),
            nodes=graph.num_nodes, edges=graph.num_edges,
            repeats=runs)
        hub = current()
        if hub.enabled:
            hub.event("overhead", **overhead.as_dict())
        print(overhead.format())
        print()
    if args.explain is not None:
        from .analyses import explain_site
        print(explain_site(graph, program, args.explain))
        print()
    _print_reports(program, graph, args.report, args.top,
                   instr_count=result.instructions,
                   branch_outcomes=result.state.branch_outcomes,
                   return_nodes=result.state.return_nodes)
    if args.save_graph:
        if raw_freq is not None:
            graph.freq = raw_freq
        meta = {"instructions": result.instructions,
                "slots": args.slots,
                "runs": runs,
                "output": result.outputs[0],
                "exec_mode": result.metas[0].get("exec_mode")}
        if result.sampled:
            meta["sampling_factor"] = result.sampling_factor
            meta["shard_sampling"] = [m.get("sampling")
                                      for m in result.metas]
        if overhead is not None:
            meta["overhead"] = overhead.as_dict()
        if report.degraded:
            meta["degraded"] = report.as_dict()
        save_graph(graph, args.save_graph, meta=meta,
                   tracker=result.state)
        print(f"merged graph written to {args.save_graph}")
    return EXIT_DEGRADED if report.degraded else EXIT_OK


def cmd_analyze(args):
    with _telemetry_scope(args.telemetry):
        return _cmd_analyze(args)


def _cmd_analyze(args):
    """Offline analysis of a previously saved Gcost."""
    from .analyses import (analyze_cost_benefit, format_bloat_metrics,
                           format_cost_benefit_report, measure_bloat)
    graph, meta, state = _load_profile_maybe_salvaging(args)
    program = _load_program(args.file, not args.no_stdlib)
    line = (f"loaded graph: {graph.num_nodes} nodes / "
            f"{graph.num_edges} edges")
    if state is not None:
        # v2+ profiles carry the tracker state, so the conflict ratio
        # (and the predicate / return-cost clients) work offline.
        line += f"; CR: {state.conflict_ratio(graph):.3f}"
    print(line)
    reports = analyze_cost_benefit(graph, program)
    print(format_cost_benefit_report(reports, top=args.top))
    instructions = meta.get("instructions")
    if instructions:
        print()
        print(format_bloat_metrics(
            "offline", measure_bloat(graph, instructions)))
    if state is not None:
        from .analyses import constant_predicates, return_costs
        print()
        print("== always-true/false predicates (offline) ==")
        for entry in constant_predicates(graph, state.branch_outcomes,
                                         program)[:args.top]:
            print(f"  line {entry.line}: always-{entry.always} "
                  f"x{entry.executions}")
        print()
        print("== return-value costs (offline) ==")
        for entry in return_costs(graph, state.return_nodes, program,
                                  top=args.top):
            print(f"  {entry.method:<40} "
                  f"x{entry.returns_observed:<6} "
                  f"cost={entry.relative_cost:.1f}")
    return 0


def _load_profile_maybe_salvaging(args):
    """``load_profile``, or the best-effort salvage path under
    ``--salvage`` (truncated/corrupt files recover a subset)."""
    from .profiler import load_profile, salvage_profile
    if getattr(args, "salvage", False):
        graph, meta, state, report = salvage_profile(args.graph)
        print(f"salvage: {report.format()}", file=sys.stderr)
        return graph, meta, state
    return load_profile(args.graph)


def cmd_report(args):
    """Render the bloat report (Markdown or JSON) from a saved v2
    profile."""
    graph, meta, state = _load_profile_maybe_salvaging(args)
    program = _load_program(args.file, not args.no_stdlib)
    if args.format == "json":
        import json

        from .observability import bloat_report_data
        text = json.dumps(bloat_report_data(graph, meta, state, program,
                                            top=args.top), indent=2)
    else:
        from .observability import render_bloat_report
        text = render_bloat_report(graph, meta, state, program,
                                   top=args.top)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def cmd_trace(args):
    """Timeline / critical-path report over a telemetry JSONL stream."""
    from .observability import (format_trace_report, load_trace,
                                trace_to_dict)
    try:
        trace = load_trace(args.events)
    except ValueError as error:
        print(f"repro: cannot parse {args.events!r}: {error}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    if not trace.events:
        print(f"repro: {args.events!r} holds no telemetry events",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.format == "json":
        import json
        text = json.dumps(trace_to_dict(trace, top=args.top), indent=2)
    else:
        text = format_trace_report(trace, top=args.top)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"trace report written to {args.out}")
    else:
        print(text)
    return 0


def cmd_workloads(args):
    from .workloads import all_workloads, get_workload
    if args.name is None:
        print(f"{'name':<15} {'paper analogue':<42} pattern")
        print("-" * 100)
        for spec in all_workloads():
            print(f"{spec.name:<15} {spec.paper_analogue:<42} "
                  f"{spec.pattern}")
        return 0
    from .vm import VM
    spec = get_workload(args.name)
    scale = spec.small_scale if args.small else None
    for variant in ("unopt", "opt"):
        vm = VM(spec.build(variant, scale))
        vm.run()
        print(f"{variant:<6} output={vm.stdout()!r} "
              f"I={vm.instr_count} allocs={vm.heap.total_allocated}")
    return 0


def cmd_table1(args):
    from .metrics import format_table1, generate_table1
    scale = _small_scale() if args.small else None
    rows = generate_table1(slots_values=tuple(args.slots), scale=scale)
    print(format_table1(rows))
    return 0


def cmd_casestudies(args):
    from .metrics import format_case_studies, run_all_case_studies
    scale = _small_scale() if args.small else None
    print(format_case_studies(run_all_case_studies(scale=scale)))
    return 0


def _small_scale():
    from .workloads import all_workloads
    merged = {}
    for spec in all_workloads():
        merged.update(spec.small_scale)
    return merged


def cmd_serve(args):
    with _telemetry_scope(args.telemetry, _flight_path(args)):
        return _cmd_serve(args)


async def _serve_until_shutdown(daemon):
    import asyncio
    import signal
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, daemon.request_shutdown)
        except (NotImplementedError, RuntimeError):
            break
    await daemon.run()


def _cmd_serve(args):
    """Run the resident analysis daemon (docs/SERVICE.md)."""
    import asyncio
    import tempfile

    from .service import AnalysisDaemon, TenantRegistry
    if not args.socket and not args.tcp:
        print("repro: serve needs --socket PATH and/or --tcp HOST:PORT",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    tcp = None
    if args.tcp:
        host, sep, port = args.tcp.rpartition(":")
        if not sep or not port.isdigit():
            print(f"repro: bad --tcp {args.tcp!r} (want HOST:PORT)",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
        tcp = (host or "127.0.0.1", int(port))
    spill_dir = args.spill_dir or tempfile.mkdtemp(prefix="repro-serve-")
    registry = TenantRegistry(max_resident=args.max_tenants,
                              spill_dir=spill_dir)
    daemon = AnalysisDaemon(registry, socket_path=args.socket, tcp=tcp,
                            max_frame=args.max_frame_mb * 1024 * 1024)
    endpoints = [f"unix:{args.socket}"] if args.socket else []
    if tcp:
        endpoints.append(f"tcp:{tcp[0]}:{tcp[1]}")
    print(f"serving on {' and '.join(endpoints)} "
          f"(max {args.max_tenants} resident tenants, "
          f"spill dir {spill_dir})", file=sys.stderr)
    try:
        asyncio.run(_serve_until_shutdown(daemon))
    except KeyboardInterrupt:
        pass
    except OSError as error:
        print(f"repro: cannot serve on "
              f"{' and '.join(endpoints)}: {error}", file=sys.stderr)
        return EXIT_RUNTIME
    status = registry.status()
    print(f"daemon stopped: {status['pushes']} push(es), "
          f"{status['queries']} query(ies), "
          f"{status['evictions']} eviction(s); "
          f"tenant state spilled to {spill_dir}", file=sys.stderr)
    from .observability import dump_current
    dumped = dump_current("shutdown")
    if dumped:
        print(f"flight recorder dumped to {dumped}", file=sys.stderr)
    return EXIT_OK


def _format_stats(stats: dict, top: int = 10) -> str:
    """``repro client stats`` text rendering: a ``top``-style view of
    the daemon — headline counters, the busiest tenants by resident
    graph memory, and the request/query latency distributions."""
    daemon = stats["daemon"]
    registry = stats["registry"]
    out = [
        f"daemon: up {daemon['uptime_s']}s, "
        f"{daemon['connections']} connection(s), "
        f"{daemon['frame_errors']} frame error(s), "
        f"metrics {'on' if daemon['metrics_enabled'] else 'off'}",
        f"registry: {registry['resident']}/{registry['max_resident']} "
        f"tenants resident ({registry['spilled']} spilled), "
        f"{registry['pushes']} push(es), {registry['queries']} "
        f"query(ies), {registry['evictions']} eviction(s), "
        f"{registry['reloads']} reload(s)",
        "",
    ]
    tenants = sorted(stats["tenants"],
                     key=lambda t: (-t["memory_bytes"], t["tenant"]))
    if tenants:
        out.append(f"{'tenant':<20} {'mem':>10} {'nodes':>8} "
                   f"{'folds':>6} {'queries':>8} {'spills':>7} "
                   f"{'reloads':>8}")
        for tenant in tenants[:top]:
            out.append(f"{tenant['tenant']:<20} "
                       f"{tenant['memory_bytes']:>10} "
                       f"{tenant['nodes']:>8} {tenant['shards']:>6} "
                       f"{tenant['queries']:>8} {tenant['spills']:>7} "
                       f"{tenant['reloads']:>8}")
        if len(tenants) > top:
            out.append(f"... {len(tenants) - top} more tenant(s)")
        out.append("")
    histograms = stats["metrics"].get("histograms", {})
    if histograms:
        out.append(f"{'latency':<28} {'count':>7} {'p50':>10} "
                   f"{'p95':>10} {'p99':>10}")
        for name, hist in sorted(histograms.items()):
            out.append(f"{name:<28} {hist['count']:>7} "
                       f"{hist['p50_s'] * 1000:>9.3f}ms "
                       f"{hist['p95_s'] * 1000:>9.3f}ms "
                       f"{hist['p99_s'] * 1000:>9.3f}ms")
    elif not daemon["metrics_enabled"]:
        out.append("(no latency histograms: the daemon runs without a "
                   "telemetry hub)")
    return "\n".join(out)


def cmd_client(args):
    """One request against a running daemon (push/query/status/...)."""
    import json

    from .service import ServiceClient, ServiceError
    # Local inputs are read before connecting so their errors are not
    # confused with transport errors — connecting to a missing unix
    # socket also raises FileNotFoundError.
    shard = program = None
    try:
        if args.action == "push":
            from .profiler.serialize import read_document
            shard = read_document(args.graph)
        elif args.action == "query" and args.file is not None:
            with open(args.file) as handle:
                program = {"source": handle.read(),
                           "use_stdlib": not args.no_stdlib}
    except FileNotFoundError as error:
        print(f"repro: cannot open {error.filename!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
    exit_code = EXIT_OK
    try:
        with ServiceClient(args.addr, timeout=args.timeout) as client:
            if args.action == "push":
                ack = client.push(args.tenant, shard)
                print(f"pushed {args.graph} -> tenant "
                      f"{ack['tenant']!r}: {ack['shards']} shard(s) "
                      f"folded, {ack['nodes']} nodes / "
                      f"{ack['edges']} edges")
            elif args.action == "query":
                response = client.query(args.tenant, args.kind,
                                        program=program, top=args.top)
                text = json.dumps(response["result"], indent=2)
                if args.out:
                    with open(args.out, "w") as handle:
                        handle.write(text)
                    print(f"result written to {args.out}")
                else:
                    print(text)
            elif args.action == "status":
                response = client.status(args.tenant)
                print(json.dumps(response["status"], indent=2))
            elif args.action == "stats":
                stats = client.stats()["stats"]
                if args.format == "json":
                    print(json.dumps(stats, indent=2, sort_keys=True))
                else:
                    print(_format_stats(stats, top=args.top))
            elif args.action == "health":
                health = client.health()["health"]
                if args.format == "json":
                    print(json.dumps(health, indent=2, sort_keys=True))
                else:
                    age = health.get("last_ingest_age_s")
                    print(f"{health['status']}: daemon up "
                          f"{health['uptime_s']}s, "
                          f"{health['tenants_resident']} tenant(s) "
                          f"resident, {health['pushes']} push(es), "
                          f"{health['queries']} query(ies), "
                          f"{health['frame_errors']} frame error(s)"
                          + (f", last ingest {age}s ago"
                             if age is not None else ""))
                if health["status"] != "ok":
                    exit_code = EXIT_DEGRADED
            elif args.action == "ping":
                response = client.ping()
                print(f"ok: daemon up {response.get('uptime_s', 0.0)}s")
            else:  # shutdown
                client.shutdown()
                print("daemon shutting down")
    except ServiceError as error:
        print(f"repro: daemon refused: {error}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValueError as error:
        # parse_addr rejects malformed --addr values; that is bad
        # input, not a crash.
        print(f"repro: {error}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ConnectionError, OSError) as error:
        reason = type(error).__name__ \
            if isinstance(error, TimeoutError) else error
        print(f"repro: cannot reach daemon at {args.addr!r} ({reason}); "
              f"is it running? start one with `repro serve`",
              file=sys.stderr)
        return EXIT_RUNTIME
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Low-utility data structure finder "
                    "(PLDI 2010 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--no-stdlib", action="store_true",
                       help="compile without the MiniJ stdlib")
        p.add_argument("--max-steps", type=int, default=2_000_000_000)

    def add_exec_mode(p):
        from .vm import EXEC_MODES
        p.add_argument("--exec-mode", choices=sorted(EXEC_MODES),
                       default=None,
                       help="execution tier: 'compiled' (template-"
                            "compiled dispatch, the default) or "
                            "'interp' (reference interpreter loop)")

    def add_flight_record(p, disable_help="disable the always-on "
                                          "flight recorder"):
        p.add_argument("--flight-record", metavar="PATH",
                       help="flight-recorder dump file (default "
                            "repro-flight-PID.jsonl in the system temp "
                            "directory); the in-memory ring of recent "
                            "telemetry events is written there only on "
                            "a fault, SIGUSR1, or daemon shutdown, and "
                            "the path is printed to stderr")
        p.add_argument("--no-flight-record", action="store_true",
                       help=disable_help)

    p = sub.add_parser("run", help="execute a MiniJ program")
    p.add_argument("file")
    add_common(p)
    add_exec_mode(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("disasm", help="print the compiled TAC")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("profile",
                       help="run under the cost tracker and report")
    p.add_argument("file")
    add_common(p)
    add_exec_mode(p)
    p.add_argument("--sample", metavar="SPEC", default=None,
                   help="burst-sampled tracking: 'on' (default "
                        "schedule), 'off', or "
                        "'window:period[:warmup[:growth]]' in "
                        "instructions; Gcost frequencies are scaled "
                        "by the sampling factor and reported as "
                        "estimates")
    p.add_argument("--slots", type=int, default=16,
                   help="context slots s (default 16)")
    p.add_argument("--report", choices=REPORT_CHOICES, default="all")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--phases", nargs="*",
                   help="track only these Sys.phase names")
    p.add_argument("--save-graph", metavar="PATH",
                   help="write Gcost to a JSON file")
    p.add_argument("--explain", type=int, metavar="SITE_IID",
                   help="detailed explanation of one allocation site")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for sharded profiling "
                        "(merged Gcost; default 1 = in-process)")
    p.add_argument("--runs", type=int, default=None,
                   help="executions to aggregate across the workers "
                        "(default: one per job)")
    p.add_argument("--telemetry", metavar="PATH",
                   help="write run telemetry (JSONL events) to PATH")
    add_flight_record(p)
    p.add_argument("--self-profile", action="store_true",
                   help="also time an untracked run and report the "
                        "tracker overhead ratio")
    p.add_argument("--resume", metavar="PATH",
                   help="checkpoint file for the sharded run: written "
                        "after every merged shard, and shards already "
                        "recorded there are skipped on restart")
    p.add_argument("--strict", action="store_true",
                   help="fail fast: abort the sharded run on the first "
                        "shard that exhausts its retry budget "
                        "(default: degrade and report)")
    p.add_argument("--shard-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-attempt wall-clock limit for one shard; "
                        "a hung worker is terminated and retried")
    p.add_argument("--max-retries", type=int, default=2,
                   help="re-runs allowed per shard beyond the first "
                        "attempt (default 2)")
    p.add_argument("--push", metavar="ADDR",
                   help="stream completed shards to a resident "
                        "analysis daemon (unix:PATH, tcp:HOST:PORT, "
                        "or a bare socket path; see docs/SERVICE.md)")
    p.add_argument("--tenant", default="default",
                   help="daemon tenant the pushed shards fold into "
                        "(default 'default')")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("analyze",
                       help="offline analysis of a saved Gcost")
    p.add_argument("graph", help="JSON file from profile --save-graph")
    p.add_argument("file", help="the MiniJ source (for site names)")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--no-stdlib", action="store_true")
    p.add_argument("--telemetry", metavar="PATH",
                   help="write analysis telemetry (JSONL) to PATH")
    p.add_argument("--salvage", action="store_true",
                   help="best-effort recovery of a truncated or "
                        "corrupt profile (loads the decodable subset)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report",
                       help="render a Markdown bloat report from a "
                            "saved profile")
    p.add_argument("graph", help="JSON file from profile --save-graph")
    p.add_argument("file", help="the MiniJ source (for site names)")
    p.add_argument("--top", type=int, default=10,
                   help="rows per report section (default 10)")
    p.add_argument("--format", choices=("md", "json"), default="md",
                   help="output format: Markdown (default) or "
                        "machine-readable JSON")
    p.add_argument("--out", metavar="PATH",
                   help="write the report to PATH instead of stdout")
    p.add_argument("--no-stdlib", action="store_true")
    p.add_argument("--salvage", action="store_true",
                   help="best-effort recovery of a truncated or "
                        "corrupt profile (loads the decodable subset)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("trace",
                       help="timeline / critical-path report from a "
                            "telemetry JSONL stream")
    p.add_argument("events",
                   help="JSONL file from profile --telemetry")
    p.add_argument("--top", type=int, default=10,
                   help="shard attempts listed (default 10)")
    p.add_argument("--format", choices=("text", "json"),
                   default="text",
                   help="report format (default text)")
    p.add_argument("--out", metavar="PATH",
                   help="write the report to PATH instead of stdout")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("serve",
                       help="run the resident analysis daemon "
                            "(profiling-as-a-service)")
    p.add_argument("--socket", metavar="PATH",
                   help="unix socket to listen on")
    p.add_argument("--tcp", metavar="HOST:PORT",
                   help="TCP endpoint to listen on (may be combined "
                        "with --socket)")
    p.add_argument("--max-tenants", type=int, default=64,
                   help="tenants kept resident before LRU spill "
                        "(default 64)")
    p.add_argument("--spill-dir", metavar="DIR",
                   help="directory for evicted-tenant spill files "
                        "(default: a fresh temp dir; a fixed dir "
                        "makes tenant state survive clean restarts)")
    p.add_argument("--max-frame-mb", type=int, default=64,
                   help="largest accepted wire frame in MiB "
                        "(default 64)")
    p.add_argument("--telemetry", metavar="PATH",
                   help="write service telemetry (JSONL events) to "
                        "PATH")
    add_flight_record(p, "disable the always-on flight recorder; "
                         "without --telemetry this also turns the "
                         "daemon's stats metrics off (no telemetry "
                         "hub, zero per-request overhead)")
    p.set_defaults(func=cmd_serve)

    from .service.protocol import QUERY_KINDS

    p = sub.add_parser("client",
                       help="talk to a running analysis daemon")
    csub = p.add_subparsers(dest="action", required=True)

    def add_addr(cp):
        cp.add_argument("--addr", required=True, metavar="ADDR",
                        help="daemon address: unix:PATH, "
                             "tcp:HOST:PORT, or a bare socket path")
        cp.add_argument("--timeout", type=float, default=30.0,
                        metavar="SECONDS",
                        help="socket timeout for the request "
                             "(default 30)")

    cp = csub.add_parser("push",
                         help="push a saved profile as one shard")
    cp.add_argument("graph", help="JSON file from profile --save-graph")
    add_addr(cp)
    cp.add_argument("--tenant", default="default",
                    help="tenant to fold the shard into "
                         "(default 'default')")
    cp.set_defaults(func=cmd_client)

    cp = csub.add_parser("query",
                         help="query a tenant's merged profile")
    cp.add_argument("kind", choices=QUERY_KINDS,
                    help="what to compute from the merged graph")
    cp.add_argument("file", nargs="?",
                    help="MiniJ source, required by report/rac/rab "
                         "(site names)")
    add_addr(cp)
    cp.add_argument("--tenant", default="default",
                    help="tenant to query (default 'default')")
    cp.add_argument("--top", type=int, default=10,
                    help="rows per ranked section (default 10)")
    cp.add_argument("--no-stdlib", action="store_true",
                    help="the profiled program was compiled without "
                         "the MiniJ stdlib")
    cp.add_argument("--out", metavar="PATH",
                    help="write the JSON result to PATH instead of "
                         "stdout")
    cp.set_defaults(func=cmd_client)

    cp = csub.add_parser("status", help="daemon or tenant status")
    add_addr(cp)
    cp.add_argument("--tenant", default=None,
                    help="show one tenant instead of the whole "
                         "daemon")
    cp.set_defaults(func=cmd_client)

    cp = csub.add_parser("stats",
                         help="live daemon metrics: busiest tenants, "
                              "request/query latency histograms")
    add_addr(cp)
    cp.add_argument("--format", choices=("text", "json"),
                    default="text",
                    help="text (top-style tables, the default) or "
                         "the raw JSON snapshot")
    cp.add_argument("--top", type=int, default=10,
                    help="tenants listed in the text rendering "
                         "(default 10)")
    cp.set_defaults(func=cmd_client)

    cp = csub.add_parser("health",
                         help="one-line daemon health summary")
    add_addr(cp)
    cp.add_argument("--format", choices=("text", "json"),
                    default="text",
                    help="one-line summary (default) or JSON")
    cp.set_defaults(func=cmd_client)

    cp = csub.add_parser("ping", help="liveness check")
    add_addr(cp)
    cp.set_defaults(func=cmd_client)

    cp = csub.add_parser("shutdown",
                         help="stop the daemon (spills all tenants)")
    add_addr(cp)
    cp.set_defaults(func=cmd_client)

    p = sub.add_parser("workloads", help="list or run suite workloads")
    p.add_argument("name", nargs="?")
    p.add_argument("--small", action="store_true")
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser("table1", help="regenerate Table 1")
    p.add_argument("--small", action="store_true")
    p.add_argument("--slots", type=int, nargs="+", default=[8, 16])
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("casestudies",
                       help="regenerate the case-study table")
    p.add_argument("--small", action="store_true")
    p.set_defaults(func=cmd_casestudies)

    return parser


def main(argv=None) -> int:
    from .profiler.errors import (CheckpointError, ProfileFormatError,
                                  ShardFailedError)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a consumer that closed early (e.g. head).
        return EXIT_OK
    except FileNotFoundError as error:
        print(f"repro: cannot open {error.filename!r}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    except CompileError as error:
        print(f"repro: {error}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ProfileFormatError, CheckpointError) as error:
        # Unreadable profile/checkpoint files are bad input, not a
        # crash; `analyze --salvage` may still recover a subset.
        print(f"repro: {error}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ShardFailedError as error:
        print(f"repro: strict run aborted: {error}", file=sys.stderr)
        return EXIT_RUNTIME
    except VMError as error:
        where = f" at {error.where}" if error.instr is not None else ""
        print(f"repro: runtime error{where}: {error}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyError as error:
        # Registry lookups (workloads, stdlib modules) raise KeyError
        # with a user-facing "unknown ..." message; anything else is a
        # genuine bug and must keep its traceback.
        message = error.args[0] if error.args else ""
        if isinstance(message, str) and message.startswith("unknown"):
            print(f"repro: {message}", file=sys.stderr)
            return EXIT_BAD_INPUT
        raise


if __name__ == "__main__":
    sys.exit(main())

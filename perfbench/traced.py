"""The traced run: one request per workload, replayed layer by layer.

The request is replayed in this process through the program's public
functions, each call wrapped in a span on a private
:class:`~repro.observability.Telemetry` hub.  The hub is never installed
as the process-wide hub, so the program's own spans stay off and only
the benchmark's layer boundaries are recorded.  The same replay runs
once untraced first; ``trace.overhead_x`` compares the two walls.

* suite-profile replays the CLI pair ``profile --jobs 2 --runs 2 FILE
  --save-graph G`` then ``report G FILE --format json``: start-up,
  compile, supervised shards, the ``--report all`` clients and the
  save, then the load, compile, freeze, slicing engine and report.
* service-mix replays one round of its large-shard tenant as the daemon
  serves it: push frame, decode, registry fold; then ``report``,
  ``rac`` and ``summary`` queries with their frames.  An in-process
  :class:`~repro.service.AnalysisDaemon` answers each request through
  its own dispatch, so the replay serves exactly what the daemon does.

Layers the request does not pass through are timed by probes on the
workload's own program and shards after the request, outside its root
span, so every workload reports every per-layer metric.
``trace.coverage`` is the summed self time of the layer spans inside the
request divided by the request's wall time.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.analyses import (analyze_caches, analyze_cost_benefit,
                            constant_predicates, dead_lines, engine_for,
                            format_bloat_metrics, format_cache_report,
                            format_cost_benefit_report,
                            format_method_costs, format_write_read_report,
                            measure_bloat, method_costs, return_costs,
                            write_read_imbalances)
from repro.lang import build_class_table, check, compile_source
from repro.lang.parser import Parser
from repro.observability import NULL, Telemetry, bloat_report_data
from repro.profiler import (CostTracker, ProfileJob, ShardPolicy,
                            SupervisedProfiler, load_profile, save_graph)
from repro.profiler.parallel import fold_graph, merge_graphs
from repro.profiler.serialize import (content_checksum, graph_from_dict,
                                      graph_to_dict,
                                      tracker_state_from_dict)
from repro.profiler.supervisor import validate_shard
from repro.service import AnalysisDaemon, TenantRegistry
from repro.service.protocol import (HEADER_SIZE, decode_payload,
                                    encode_frame, parse_header)
from repro.stdlib import ALL_MODULES, compile_with_stdlib, stdlib_source
from repro.vm import VM
from repro.vm.compiled import precompile

import inputs
import service_mix
from harness import OUT_DIR, median, repro_argv

#: Span-name prefixes of the program's layers (what coverage counts).
LAYERS = ("cli.", "lang.", "vm.", "profiler.", "analyses.",
          "observability.", "service.")

#: Daemon rounds of the live session behind the ``service.daemon``
#: metrics.
SESSION_ROUNDS = 10


class Tracer:
    """Spans on a private hub, plus each span's wall under a key."""

    def __init__(self, enabled: bool):
        self.hub = Telemetry() if enabled else NULL
        self.walls = defaultdict(list)
        #: Per-layer size figures (bytes) met along the way.
        self.sizes = {}

    @contextmanager
    def span(self, name: str, key: str = None, **meta):
        with self.hub.span(name, **meta) as handle:
            start = time.perf_counter()
            yield handle
            self.walls[key or name].append(time.perf_counter() - start)

    def events(self) -> list:
        return self.hub.sink.events


class Subject:
    """The workload's representative program and where it lives."""

    def __init__(self, work, name, source, use_stdlib):
        self.work = work
        self.name = name
        self.source = source
        self.use_stdlib = use_stdlib
        self.path = work.file(f"{name}.mj")
        self.path.write_text(source)

    @property
    def full_source(self) -> str:
        if self.use_stdlib:
            return self.source + "\n" + stdlib_source(*ALL_MODULES)
        return self.source

    def compile(self):
        if self.use_stdlib:
            return compile_with_stdlib(self.source)
        return compile_source(self.source)

    def jobs(self):
        return [ProfileJob.from_file(str(self.path),
                                     use_stdlib=self.use_stdlib,
                                     label=f"run{i}")
                for i in range(inputs.RUNS)]


def cli_startup(work) -> None:
    subprocess.run(repro_argv("--help"), cwd=work.path, env=work.env(),
                   stdout=subprocess.DEVNULL, check=True)


# -- the --report all clients ------------------------------------------------------


def report_all(tracer, program, graph, state, instructions, top=10) -> str:
    """What ``profile --report all`` prints, client by client."""
    out = []
    with tracer.span("analyses.cost_benefit"):
        out.append(format_cost_benefit_report(
            analyze_cost_benefit(graph, program), top=top))
    with tracer.span("analyses.bloat"):
        out.append(format_bloat_metrics(
            "program", measure_bloat(graph, instructions)))
    with tracer.span("analyses.dead_lines"):
        out.extend(f"{entry.method}:{entry.line} "
                   f"dead-freq={entry.dead_frequency}"
                   for entry in dead_lines(graph, program, top=top))
    with tracer.span("analyses.method_costs"):
        out.append(format_method_costs(method_costs(graph, program),
                                       top=top))
    with tracer.span("analyses.return_costs"):
        out.extend(f"{entry.method} x{entry.returns_observed} "
                   f"cost={entry.relative_cost:.1f}"
                   for entry in return_costs(graph, state.return_nodes,
                                             program, top=top))
    with tracer.span("analyses.write_read"):
        out.append(format_write_read_report(write_read_imbalances(graph),
                                            top=top))
    with tracer.span("analyses.predicates"):
        out.extend(f"line {entry.line}: always-{entry.always} "
                   f"x{entry.executions}"
                   for entry in constant_predicates(
                       graph, state.branch_outcomes, program)[:top])
    with tracer.span("analyses.caches"):
        out.append(format_cache_report(analyze_caches(graph),
                                       program=program, top=top))
    return "\n".join(out)


def build_engine(graph):
    """The slicing engine with its three reachability indexes."""
    engine = engine_for(graph)
    engine.cost_index()
    engine.hrac_index()
    engine.hrab_index()
    return engine


# -- request replays ---------------------------------------------------------------


def replay_cli(tracer, subject) -> dict:
    """``profile --jobs 2 --runs 2 FILE --save-graph G`` then
    ``report G FILE --format json``, call by call."""
    work = subject.work
    saved = work.file(f"{subject.name}.gcost.json")
    shards = {}
    with tracer.span("request", workload="cli"):
        with tracer.span("request.profile"):
            with tracer.span("cli.startup"):
                cli_startup(work)
            with tracer.span("lang.compile"):
                program = subject.compile()
            profiler = SupervisedProfiler(
                workers=2, slots=16, policy=ShardPolicy(max_retries=2),
                on_shard=shards.__setitem__)
            with tracer.span("profiler.supervisor.profile"):
                run = profiler.profile(subject.jobs())
            merged = run.profile
            with tracer.span("analyses.report_all"):
                report_all(tracer, program, merged.graph, merged.state,
                           merged.instructions)
            meta = {"instructions": merged.instructions, "slots": 16,
                    "runs": inputs.RUNS, "output": merged.outputs[0],
                    "exec_mode": merged.metas[0].get("exec_mode")}
            with tracer.span("profiler.serialize.save"):
                save_graph(merged.graph, saved, meta=meta,
                           tracker=merged.state)
        with tracer.span("request.report"):
            with tracer.span("cli.startup"):
                cli_startup(work)
            with tracer.span("profiler.serialize.load"):
                graph, meta, state = load_profile(saved)
            with tracer.span("lang.compile"):
                program = subject.compile()
            with tracer.span("profiler.graph.freeze"):
                graph.freeze()
            with tracer.span("analyses.batch.engine"):
                build_engine(graph)
            with tracer.span("observability.bloatreport.data"):
                data = bloat_report_data(graph, meta, state, program,
                                         top=10)
            work.file(f"{subject.name}.report.json").write_text(
                json.dumps(data, indent=2))
    return {"run": run, "shards": [shards[i] for i in sorted(shards)],
            "graph": graph, "state": state, "report": data}


def frame_round_trip(tracer, message: dict, kind: str) -> dict:
    """Encode a message as the sender does and decode it as the
    receiver does."""
    push = kind == "push"
    with tracer.span("service.protocol.encode", message=kind,
                     key=None if push else f"frame.encode.{kind}"):
        frame = encode_frame(message)
    with tracer.span("service.protocol.decode", message=kind,
                     key=None if push else f"frame.decode.{kind}"):
        length, checksum = parse_header(frame[:HEADER_SIZE])
        decoded = decode_payload(frame[HEADER_SIZE:HEADER_SIZE + length],
                                 checksum)
    if push:
        tracer.sizes["service.protocol.frame_bytes"] = len(frame)
    return decoded


def replay_service(tracer, tenant) -> dict:
    """One round of ``tenant`` as the daemon serves it: a push folded
    into a tenant already holding one shard, then report, rac and
    summary queries.  An untimed round of queries first puts the daemon
    where the closed loop has it: program compiled and cached."""
    registry = TenantRegistry(max_resident=64)
    daemon = AnalysisDaemon(registry)
    registry.ingest(tenant.name, tenant.shards[0])
    queries = {kind: {"type": "query", "tenant": tenant.name, "kind": kind,
                      "top": 10, "program": tenant.program_spec}
               for kind in service_mix.QUERIES}
    answers = [daemon._handle(message) for message in queries.values()]
    with tracer.span("request", workload="service-mix"):
        with tracer.span("request.push"):
            message = frame_round_trip(
                tracer, {"type": "push", "tenant": tenant.name,
                         "shard": tenant.shards[1]}, "push")
            with tracer.span("service.registry.ingest"):
                answer = daemon._handle(message)
            frame_round_trip(tracer, answer, "push-ack")
            answers.append(answer)
        for kind in service_mix.QUERIES:
            with tracer.span(f"request.{kind}"):
                message = frame_round_trip(tracer, queries[kind], "query")
                if kind == "report":
                    graph = registry.tenant(tenant.name).graph
                    with tracer.span("profiler.graph.freeze"):
                        graph.freeze()
                    with tracer.span("analyses.batch.engine"):
                        build_engine(graph)
                    with tracer.span("observability.bloatreport.data"):
                        answer = daemon._handle(message)
                elif kind == "rac":
                    with tracer.span("analyses.batch.field_racs",
                                     key="query.rac"):
                        answer = daemon._handle(message)
                else:
                    with tracer.span("service.registry.summary",
                                     key="query.summary"):
                        answer = daemon._handle(message)
                frame_round_trip(tracer, answer, f"{kind}-answer")
                answers.append(answer)
    return {"tenant": registry.tenant(tenant.name),
            "errors": sum(answer["type"] != "ok" for answer in answers)}


# -- probes of the layers the request does not cover --------------------------------


def probe_frontend(tracer, subject) -> tuple:
    source = subject.full_source
    with tracer.span("lang.tokenize"):
        parser = Parser(source)
    with tracer.span("lang.parse"):
        decl = parser.parse_program()
    with tracer.span("lang.typecheck"):
        check(decl, build_class_table(decl))
    with tracer.span("lang.compile"):
        program = subject.compile()
    return {"lang.source_bytes": (len(source.encode("utf-8")), "bytes"),
            "lang.ir_instrs": (len(program.instructions), "count")}, program


def probe_vm(tracer, program) -> dict:
    with tracer.span("vm.specialize"):
        precompile(program, tracer=True)
    precompile(program)
    with tracer.span("vm.untraced"):
        vm = VM(program)
        vm.run()
    tracker = CostTracker(slots=16)
    with tracer.span("profiler.tracker.run"):
        VM(program, tracer=tracker).run()
    untraced = tracer.walls["vm.untraced"][-1]
    tracked = tracer.walls["profiler.tracker.run"][-1]
    return {
        "vm.instructions": (vm.instr_count, "count"),
        "vm.untraced_instr_per_s": (vm.instr_count / untraced, "instr/s"),
        "profiler.tracker.instr_per_s": (vm.instr_count / tracked,
                                         "instr/s"),
        "profiler.tracker.overhead_x": (tracked / untraced, "x"),
        "profiler.tracker.nodes": (tracker.graph.num_nodes, "count"),
        "profiler.tracker.edges": (tracker.graph.num_edges, "count"),
    }


def probe_supervisor(tracer, subject, run=None) -> tuple:
    """Supervisor bookkeeping of ``run`` (the request's two-worker run,
    or a probe's when None) and the one-worker run it is compared with."""
    if run is None:
        with tracer.span("profiler.supervisor.profile"):
            run = SupervisedProfiler(workers=2, slots=16).profile(
                subject.jobs())
    with tracer.span("profiler.supervisor.profile", workers=1,
                     key="supervisor.one_worker"):
        SupervisedProfiler(workers=1, slots=16).profile(subject.jobs())
    two = tracer.walls["profiler.supervisor.profile"][-1]
    one = tracer.walls["supervisor.one_worker"][-1]
    longest = max(meta["wall_s"] for meta in run.profile.metas)
    return run, {
        "profiler.supervisor.overhead_s": (two - longest, "s"),
        "profiler.supervisor.speedup_2w": (one / two, "x"),
        "profiler.supervisor.retries": (run.report.retries, "count"),
        "profiler.supervisor.failed_shards": (len(run.report.failed),
                                              "count"),
    }


def probe_serialization(tracer, shards, merged) -> dict:
    with tracer.span("profiler.serialize.to_dict"):
        graph_to_dict(merged.graph, meta=merged.metas[0],
                      tracker=merged.state)
    with tracer.span("profiler.serialize.from_dict"):
        graph_from_dict(shards[0])
        tracker_state_from_dict(shards[0])
    decoded = [(graph_from_dict(shard), tracker_state_from_dict(shard))
               for shard in shards]
    with tracer.span("profiler.parallel.merge"):
        graph, state = merge_graphs([g for g, _ in decoded],
                                    [s for _, s in decoded])
    with tracer.span("profiler.parallel.fold"):
        fold_graph(graph, decoded[0][0], state, decoded[0][1])
    return {"profiler.serialize.shard_bytes":
            (len(json.dumps(shards[0])), "bytes")}


def probe_save_load(tracer, merged, work) -> None:
    path = work.file("probe.gcost.json")
    with tracer.span("profiler.serialize.save"):
        save_graph(merged.graph, path, meta=merged.metas[0],
                   tracker=merged.state)
    with tracer.span("profiler.serialize.load"):
        load_profile(path)


def probe_registry(tracer, tenant_name, shards):
    frame_round_trip(tracer, {"type": "push", "tenant": tenant_name,
                              "shard": shards[-1]}, "push")
    registry = TenantRegistry(max_resident=64)
    registry.ingest(tenant_name, shards[0])
    with tracer.span("service.registry.ingest"):
        registry.ingest(tenant_name, shards[-1])
    return registry.tenant(tenant_name)


def probe_registry_parts(tracer, shard) -> None:
    with tracer.span("service.registry.validate"):
        validate_shard(shard)
        content_checksum(shard)
    with tracer.span("service.registry.deserialize"):
        graph_from_dict(shard)
        tracker_state_from_dict(shard)


def probe_daemon(tracer, work, tenants) -> tuple:
    """A live daemon session: push/query rounds, then its ``stats``."""
    for tenant in tenants:
        tenant.pushed = 0
    daemon = service_mix.Daemon(work)
    try:
        with tracer.span("service.daemon.session", key="daemon.session"):
            loop = service_mix.closed_loop(daemon, tenants, 0.0,
                                           min_rounds=SESSION_ROUNDS)
        stats = daemon.client.stats()["stats"]
    finally:
        daemon.stop()
    histograms = stats["metrics"]["histograms"]
    push_handle = histograms["service.request[push]"]["p50_s"]
    query_handle = histograms["service.request[query]"]["p50_s"]
    failed = loop["errors"] + service_mix.check_reports(tenants,
                                                        loop["served"])
    client_push = median(service_mix.pooled(loop["walls"], "push"))
    return {
        "service.daemon.push_handle_p50_ms": (push_handle * 1000, "ms"),
        "service.daemon.query_handle_p50_ms": (query_handle * 1000, "ms"),
        "service.daemon.wire_ms": ((client_push - push_handle)
                                   * 1000, "ms"),
    }, loop["attempted"], failed


# -- span arithmetic ---------------------------------------------------------------


def coverage(events) -> float:
    """Self time of the layer spans inside the request root over the
    root's wall time."""
    spans = [event for event in events if event["ev"] == "span"]
    children = defaultdict(float)
    for span in spans:
        children[span["parent_id"]] += span["dur"]
    root = next(span for span in spans if span["name"] == "request")
    parent = {span["span_id"]: span["parent_id"] for span in spans}

    def inside(span_id):
        while span_id is not None:
            if span_id == root["span_id"]:
                return True
            span_id = parent.get(span_id)
        return False

    covered = sum(span["dur"] - children[span["span_id"]]
                  for span in spans
                  if span["name"].startswith(LAYERS)
                  and inside(span["parent_id"]))
    return covered / root["dur"]


# -- the run ---------------------------------------------------------------------


def run(workload: str, seed: int, work) -> dict:
    per_layer = {}
    attempted = failed = 0
    if workload == "service-mix":
        tenants = service_mix.make_tenants(seed)
        wide = next(t for t in tenants if t.name == "wide")
        subject = Subject(work, "wide", wide.program_spec["source"], False)
        replay = lambda tracer: replay_service(tracer, wide)
    else:
        subject = Subject(work, "bloat_like",
                          inputs.suite_sources()["bloat_like"], True)
        replay = lambda tracer: replay_cli(tracer, subject)

    # A first replay warms the byte-code cache and this process's heap,
    # so the untraced and traced replays compared below start alike.
    replay(Tracer(enabled=False))
    untraced = Tracer(enabled=False)
    gc.collect()
    replay(untraced)
    tracer = Tracer(enabled=True)
    gc.collect()
    result = replay(tracer)
    request_wall = tracer.walls["request"][0]

    with tracer.span("probes"):
        figures, program = probe_frontend(tracer, subject)
        per_layer.update(figures)
        per_layer.update(probe_vm(tracer, program))
        if workload == "service-mix":
            with tracer.span("cli.startup"):
                cli_startup(work)
            supervised, figures = probe_supervisor(tracer, subject)
            merged = supervised.profile
            shards = wide.shards
            probe_save_load(tracer, merged, work)
            tenant_state = result["tenant"]
            attempted += 1 + len(service_mix.QUERIES)
            failed += result["errors"]
            with tracer.span("analyses.report_all"):
                report_all(tracer, program, tenant_state.graph,
                           tenant_state.state, tenant_state.instructions)
            session = tenants
        else:
            supervised, figures = probe_supervisor(tracer, subject,
                                                   result["run"])
            merged = supervised.profile
            shards = result["shards"]
            tenant_state = probe_registry(tracer, subject.name, shards)
            session = [service_mix.Tenant(subject.name, subject.source,
                                          subject.use_stdlib, shards)]
            reference = inputs.suite_references(work, {
                subject.name: subject.source})[subject.name]
            attempted += 2
            failed += (merged.outputs[0] != reference["output"]
                       or inputs.canonical_digest(merged.graph, merged.state)
                       != reference["canonical"])
            failed += (inputs.report_digest(result["report"])
                       != reference["report"])
        per_layer.update(figures)
        per_layer.update(probe_serialization(tracer, shards, merged))
        probe_registry_parts(tracer, shards[-1])
        graph = (tenant_state.graph if workload == "service-mix"
                 else result["graph"])
        graph.freeze()
        engine = build_engine(graph)
        with tracer.span("analyses.batch.field_racs"):
            engine.field_racs()
        with tracer.span("analyses.batch.field_rabs"):
            engine.field_rabs()
        figures, session_attempted, session_failed = probe_daemon(
            tracer, work, session)
        per_layer.update(figures)
        attempted += session_attempted
        failed += session_failed

    for name, walls in tracer.walls.items():
        if name.startswith(LAYERS):
            per_layer[f"{name}_s"] = (statistics.fmean(walls), "s")
    per_layer.update((name, (size, "bytes"))
                     for name, size in tracer.sizes.items())
    per_layer["profiler.graph.memory_bytes"] = (graph.memory_bytes(),
                                                "bytes")
    per_layer["profiler.graph.bytes_per_node"] = (
        graph.memory_bytes() / graph.num_nodes, "bytes")
    per_layer["service.registry.memory_bytes"] = (
        tenant_state.graph.memory_bytes(), "bytes")
    per_layer["trace.coverage"] = (coverage(tracer.events()), "ratio")
    per_layer["trace.overhead_x"] = (
        request_wall / untraced.walls["request"][0], "x")

    tracer.hub.flush()
    trace_path = OUT_DIR / f"trace-{workload}-{seed}.jsonl"
    with open(trace_path, "w") as handle:
        for event in tracer.events():
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    notes = [f"span trace written to {trace_path} "
             f"(render with: python -m repro trace FILE)"]
    if len(os.sched_getaffinity(0)) < 2:
        notes.append("profiler.supervisor.speedup_2w: "
                     "scaling_not_measured (fewer than 2 CPUs)")
    named = [(name, value, unit, "traced run")
             for name, (value, unit) in sorted(per_layer.items())]
    return {"per_layer": per_layer, "named": named, "notes": notes,
            "attempted": attempted, "failed": failed}

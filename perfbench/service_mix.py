"""service-mix: one resident daemon, one closed-loop client connection.

Two suite-program tenants push small shards and one stress-pipeline
tenant pushes large ones.  Per round that is 2 small and 1 large push,
and 6 small and 3 large queries, which sort as small summaries, small
racs, small reports, then the large tenant's three.  So the push p50 sits
three quarters into the small pushes and the push p95 85 % into the large
ones; the query p50 sits a quarter into the small reports and the query
p95 55 % into the large reports: no reported percentile falls on a
boundary between two groups.  (With three small tenants the query p50
falls exactly between the small racs and the small reports.)  Those
percentiles are printed; the gated ``record_ms`` and ``read_ms`` are
means of per-tenant, per-kind floors (``harness.class_floors``).

Every served ``report`` is checked against ``bloat_report_data`` over
the batch merge of the shards pushed so far.  The first reports of the
suite tenants, whose shards do not depend on the seed, are also checked
against digests of what the seed code served (``refs.json``), so a wrong
fold or report path cannot pass by agreeing with itself.
"""

from __future__ import annotations

import json
import subprocess
import time
from statistics import mean

from repro.observability import bloat_report_data
from repro.profiler import ProfileJob
from repro.profiler.parallel import (fold_graph, merge_graphs,
                                     profile_jobs_sequential)
from repro.profiler.serialize import (graph_from_dict, graph_to_dict,
                                      tracker_state_from_dict)
from repro.service import ServiceClient, ServiceError
from repro.stdlib import compile_with_stdlib
from repro.lang import compile_source
from repro.workloads.stress import stress_source

import inputs
from harness import (class_floors, digest, median, nearest_rank,
                     repro_argv, run_program)

#: Fewest timed rounds a run makes: 3 tenants x 67 rounds = 201 pushes,
#: so each p95 has ten samples beyond it.
MIN_ROUNDS = 67

SETUP_REPEATS = 3

QUERIES = ("report", "rac", "summary")


class Tenant:
    """A tenant's program and the shards it cycles through."""

    def __init__(self, name, source, use_stdlib, shards, pinned=()):
        self.name = name
        self.program_spec = {"source": source, "use_stdlib": use_stdlib}
        self.shards = shards
        #: Digests of the reports served after the first pushes.
        self.pinned = list(pinned)
        self.pushed = 0

    def next_shard(self) -> dict:
        shard = self.shards[self.pushed % len(self.shards)]
        self.pushed += 1
        return shard

    def compile(self):
        if self.program_spec["use_stdlib"]:
            return compile_with_stdlib(self.program_spec["source"])
        return compile_source(self.program_spec["source"])


def make_shard(source: str, use_stdlib: bool, label: str) -> dict:
    """One serialized shard, as a single profiled run produces it."""
    job = ProfileJob.from_source(source, use_stdlib=use_stdlib,
                                 label=label, exec_mode="interp")
    profile = profile_jobs_sequential([job], slots=16)
    return graph_to_dict(profile.graph, meta=profile.metas[0],
                         tracker=profile.state)


def suite_tenants() -> list:
    """The small-shard tenants, with their stored report pins."""
    sources = inputs.suite_sources()
    stored = inputs.stored_refs("service")
    tenants = []
    for name in inputs.SERVICE_PROGRAMS:
        entry = stored.get(name, {})
        pinned = (entry["reports"]
                  if entry.get("source") == digest(sources[name]) else ())
        tenants.append(Tenant(name, sources[name], True,
                              [make_shard(sources[name], True,
                                          f"{name}/run0")], pinned))
    return tenants


def make_tenants(seed: int) -> list:
    shape = inputs.SERVICE_WIDE_SHAPE
    sources = [stress_source(seed=seed * 2 + k, **shape) for k in (1, 2)]
    # Both seeds share one instruction layout; the tenant's program is
    # the first, whose site names the reports read.
    return suite_tenants() + [Tenant(
        "wide", sources[0], False,
        [make_shard(source, False, f"wide/run{k}")
         for k, source in enumerate(sources)])]


# -- the daemon process -----------------------------------------------------------


class Daemon:
    """``repro serve`` in its own process, on a socket in the work dir."""

    def __init__(self, work):
        self.work = work
        self.addr = "unix:" + work.rel("daemon.sock")
        start = time.perf_counter()
        with open(work.file("daemon.stderr"), "wb") as stderr:
            self.proc = subprocess.Popen(
                repro_argv("serve", "--socket", "daemon.sock",
                           "--spill-dir", "spill", "--flight-record",
                           "flight.jsonl"),
                cwd=work.path, env=work.env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr)
        try:
            self.client = self._connect(deadline=start + 60)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.ready_s = time.perf_counter() - start

    def _connect(self, deadline) -> ServiceClient:
        while True:
            try:
                client = ServiceClient(self.addr, timeout=60)
                client.ping()
                return client
            except (ConnectionError, FileNotFoundError, OSError):
                if self.proc.poll() is not None or \
                        time.perf_counter() > deadline:
                    raise RuntimeError("repro serve did not come up")
                time.sleep(0.005)

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        try:
            self.client.shutdown()
            self.client.close()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def cold_setup(work) -> tuple:
    """Launch-until-first-ping, each from an empty byte-code cache; the
    last daemon keeps serving the timed loop.  An untimed start first
    brings the sources into the page cache and the CPUs out of idle."""
    run_program(work, "--help")
    walls = []
    for repeat in range(SETUP_REPEATS):
        work.fresh_pycache()
        daemon = Daemon(work)
        walls.append(daemon.ready_s)
        if repeat < SETUP_REPEATS - 1:
            daemon.stop()
    return walls, daemon


# -- the closed loop ------------------------------------------------------------


def closed_loop(daemon, tenants, seconds: float,
                min_rounds: int = MIN_ROUNDS) -> dict:
    """An untimed first round (its pushes create the tenants, its
    queries fill the daemon's compiled-program cache), then timed rounds
    until ``seconds`` have passed and ``min_rounds`` were made."""
    client = daemon.client
    walls = {f"{tenant.name}/{kind}": [] for tenant in tenants
             for kind in ("push",) + QUERIES}
    served = {tenant.name: [] for tenant in tenants}
    counts = {"attempted": 0, "errors": 0}

    def one_round(timed: bool) -> None:
        for tenant in tenants:
            shard = tenant.next_shard()
            for kind in ("push",) + QUERIES:
                counts["attempted"] += 1
                began = time.perf_counter()
                try:
                    if kind == "push":
                        response = client.push(tenant.name, shard)
                    else:
                        response = client.query(
                            tenant.name, kind,
                            program=tenant.program_spec, top=10)
                except ServiceError:
                    counts["errors"] += 1
                    response = None
                wall = time.perf_counter() - began
                if timed:
                    walls[f"{tenant.name}/{kind}"].append(wall)
                if kind == "report":
                    served[tenant.name].append(
                        None if response is None else json.dumps(
                            response["result"], sort_keys=True))

    one_round(timed=False)
    rounds = 0
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        one_round(timed=True)
        rounds += 1
    return {"walls": walls, "served": served, "rounds": rounds,
            "wall_s": time.perf_counter() - start, **counts}


def pooled(walls: dict, side: str) -> list:
    """Every tenant's ``push`` walls, or every tenant's query walls."""
    return [wall for key, values in walls.items()
            if key.endswith("/push") == (side == "push")
            for wall in values]


def expected_reports(tenant, count: int):
    """The reports after each of the tenant's first ``count`` pushes, as
    JSON text: ``merge_graphs`` over the first shard, then
    ``fold_graph`` per further shard, which is how ``merge_graphs``
    continues."""
    program = tenant.compile()
    # Folding never mutates its source, so each shard decodes once.
    decoded = [(graph_from_dict(shard), tracker_state_from_dict(shard))
               for shard in tenant.shards]
    graph = state = None
    meta = {"instructions": 0, "slots": 16}
    for pushed in range(1, count + 1):
        shard = tenant.shards[(pushed - 1) % len(tenant.shards)]
        shard_graph, shard_state = decoded[(pushed - 1)
                                           % len(tenant.shards)]
        if graph is None:
            graph, state = merge_graphs([shard_graph], [shard_state])
            meta["output"] = shard["meta"]["output"]
            meta["exec_mode"] = shard["meta"]["exec_mode"]
        else:
            fold_graph(graph, shard_graph, state, shard_state)
            meta["runs"] = pushed
        meta["instructions"] += shard["meta"]["instructions"]
        yield json.dumps(json.loads(json.dumps(
            bloat_report_data(graph, meta, state, program, top=10))),
            sort_keys=True)


def check_reports(tenants, served) -> int:
    """Served reports that differ from the batch merge of the same
    shards, or from a tenant's pinned digests."""
    failed = 0
    for tenant in tenants:
        reports = served[tenant.name]
        for index, (report, expected) in enumerate(
                zip(reports, expected_reports(tenant, len(reports)))):
            failed += (report != expected
                       or (index < len(tenant.pinned)
                           and inputs.report_digest(report)
                           != tenant.pinned[index]))
    return failed


def run(seed: int, seconds: float, work) -> dict:
    tenants = make_tenants(seed)
    setup_walls, daemon = cold_setup(work)
    try:
        loop = closed_loop(daemon, tenants, seconds)
        peak_mb = daemon.vm_hwm_mb()
    finally:
        daemon.stop()
    failed = loop["errors"] + check_reports(tenants, loop["served"])
    walls = loop["walls"]
    push, query = pooled(walls, "push"), pooled(walls, "query")
    floors = class_floors(walls)
    push_floors = [floors[key] for key in floors if key.endswith("/push")]
    query_floors = [floors[key] for key in floors
                    if not key.endswith("/push")]
    ops_per_s = (len(push) + len(query)) / loop["wall_s"]
    end_to_end = {
        "setup_s": (median(setup_walls), "s"),
        "record_ms": (mean(push_floors) * 1000, "ms"),
        "read_ms": (mean(query_floors) * 1000, "ms"),
        "ops_per_s": (len(floors) / sum(floors.values()), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    per_class = f"{len(push) // len(push_floors)} requests per class"
    named = [
        ("setup_s", median(setup_walls), "s",
         f"median of {len(setup_walls)} launches until first ping"),
        ("push_p50_ms", median(push) * 1000, "ms", f"n={len(push)}"),
        ("push_floor_ms", mean(push_floors) * 1000, "ms",
         f"record_ms: mean over {len(push_floors)} tenants of their "
         f"push p10; {per_class}"),
        ("push_p95_ms", nearest_rank(push, 0.95) * 1000, "ms",
         f"n={len(push)}"),
        ("query_p50_ms", median(query) * 1000, "ms", f"n={len(query)}"),
        ("query_p95_ms", nearest_rank(query, 0.95) * 1000, "ms",
         f"n={len(query)}"),
        ("query_floor_ms", mean(query_floors) * 1000, "ms",
         f"read_ms: mean over {len(query_floors)} tenant x query kinds "
         f"of their p10; {per_class}"),
        ("floor_ops_per_s", len(floors) / sum(floors.values()), "ops/s",
         f"ops_per_s: {len(floors)} request classes over the sum of "
         f"their p10s"),
        ("service_ops_per_s", ops_per_s, "ops/s",
         f"{len(push) + len(query)} timed requests in {loop['rounds']} "
         f"rounds, 1 connection"),
        ("peak_rss_mb", peak_mb, "MB", "daemon VmHWM at end of run"),
        ("error_ratio", failed / loop["attempted"], "ratio",
         f"{failed}/{loop['attempted']}"),
    ]
    return {"end_to_end": end_to_end, "named": named,
            "attempted": loop["attempted"], "failed": failed}

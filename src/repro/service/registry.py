"""Per-tenant Gcost registries: resident merged state, LRU spill.

A *tenant* is one stream of profile shards that fold into one merged
graph/state pair — one application under continuous profiling, one
campaign, one CI pipeline.  :class:`TenantRegistry` holds many of
them resident at once (the abstract ``(iid, d)`` domain keeps each
graph small — the premise the service layer is built on) and answers
queries from the live merged state, so no graph is ever re-loaded per
request.

Ingest is the exact reduce operator of the parallel runtime, applied
straight to the pushed document: each accepted shard is folded by
:func:`~repro.profiler.serialize.fold_document`, so a tenant that
received a sharded run's shards in job order holds a graph
bit-for-bit identical — node numbering included — to the batch
:func:`~repro.profiler.parallel.merge_graphs` over the same list.
Every section of a shard is checked *before* any tenant state is
touched; a bad shard (or a client that dies mid-frame, which never
reaches the registry at all) leaves the tenant exactly as it was.

Memory is bounded: at most ``max_resident`` tenants stay in RAM.  The
least-recently-used tenant is *spilled* — written as a single-shard
checkpoint document by :func:`~repro.profiler.serialize.write_document`
— and transparently reloaded on its next touch (a damaged spill file
answers ``E_SPILL``).  The spill round-trip preserves node numbering, so
spill/reload is invisible to query results.  Spill files are also how
state survives a clean daemon restart (:meth:`TenantRegistry.spill_all`
runs at shutdown); a crash loses only the folds since the last spill.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import time

from ..observability.telemetry import current as _current_telemetry
from ..profiler.checkpoint import (CheckpointError, load_checkpoint,
                                   write_checkpoint)
from ..profiler.errors import ProfileFormatError, ProfileInputError
from ..profiler.graph import DependenceGraph
from ..profiler.serialize import (fold_document, graph_to_dict,
                                  validate_shard)
from ..profiler.state import TrackerState
from .protocol import (E_BAD_MESSAGE, E_BAD_SHARD, E_NO_TENANT,
                       E_SLOTS_MISMATCH, E_SPILL, ServiceError)

#: Longest tenant name the service accepts (sanity bound; names are
#: client-chosen identifiers, not payloads).
MAX_TENANT_NAME = 128

#: Shard trace records kept per tenant (oldest dropped beyond this).
MAX_TRACES = 256


def check_tenant_name(name) -> str:
    """Validate a client-supplied tenant name; returns it."""
    if not isinstance(name, str) or not name:
        raise ServiceError(E_BAD_MESSAGE,
                           "tenant name must be a non-empty string")
    if len(name) > MAX_TENANT_NAME:
        raise ServiceError(E_BAD_MESSAGE,
                           f"tenant name longer than "
                           f"{MAX_TENANT_NAME} characters")
    return name


def spill_filename(name: str) -> str:
    """Deterministic spill-file name for a tenant.

    A sanitized prefix keeps the directory human-readable; the hash
    suffix makes distinct tenants collision-free regardless of what
    characters their names share.
    """
    digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:12]
    stem = re.sub(r"[^A-Za-z0-9._-]", "_", name)[:48] or "tenant"
    return f"{stem}-{digest}.tenant.json"


def _tenant_fingerprint(name: str) -> str:
    """Checkpoint fingerprint binding a spill file to its tenant."""
    return hashlib.sha256(
        json.dumps({"service_tenant": name}).encode()).hexdigest()


class TenantState:
    """One tenant's merged profile plus its service-side aggregates.

    ``graph``/``state`` are the live merged
    :class:`~repro.profiler.graph.DependenceGraph` /
    :class:`~repro.profiler.state.TrackerState`;
    the rest mirrors what batch mode records in the merged profile's
    ``meta`` so served reports read the same numbers:

    * ``instructions`` — summed over pushed shards;
    * ``runs`` — summed ``meta["runs"]`` (a pushed pre-merged profile
      counts its runs), defaulting to 1 per shard;
    * ``output`` / ``exec_mode`` — the first shard's, matching the
      merged-profile meta the batch CLI writes;
    * ``traces`` — the span contexts pushed with the shards, for the
      ``trace`` query.
    """

    __slots__ = ("name", "slots", "graph", "state", "shards", "runs",
                 "instructions", "output", "exec_mode", "traces",
                 "queries", "last_used", "spills", "reloads",
                 "last_ingest_unix")

    def __init__(self, name: str):
        self.name = name
        self.slots = None
        self.graph = None
        self.state = None
        self.shards = 0
        self.runs = 0
        self.instructions = 0
        self.output = None
        self.exec_mode = None
        self.traces = []
        self.queries = 0
        self.last_used = 0
        self.spills = 0
        self.reloads = 0
        self.last_ingest_unix = None

    # -- ingest --------------------------------------------------------------

    def fold(self, shard: dict) -> bool:
        """Validate and fold one serialized shard into the tenant;
        True when the fold reused the shape of the tenant's graph.

        All-or-nothing: :func:`~repro.profiler.serialize.fold_document`
        checks every section of the shard before it touches the
        tenant, and the meta fields the tenant records are read before
        the fold, so every :class:`~repro.service.protocol.ServiceError`
        path leaves the tenant untouched.  The first shard folds into a
        fresh graph/state the tenant then adopts.
        """
        problem = validate_shard(shard)
        if problem is not None:
            raise ServiceError(E_BAD_SHARD, problem)
        if self.slots is not None and shard["slots"] != self.slots:
            raise ServiceError(
                E_SLOTS_MISMATCH,
                f"shard has slots={shard['slots']} but tenant "
                f"{self.name!r} was built at slots={self.slots}")
        try:
            meta = shard["meta"] or {}
            runs = int(meta.get("runs") or 1)
            instructions = int(meta.get("instructions") or 0)
        except (AttributeError, TypeError, ValueError,
                OverflowError) as error:
            raise ServiceError(E_BAD_SHARD,
                               f"shard meta is malformed: {error}") \
                from error
        if self.graph is None:
            graph = DependenceGraph(slots=shard["slots"])
            state = TrackerState()
        else:
            graph, state = self.graph, self.state
        try:
            reused = fold_document(graph, state, shard)
        except (ProfileFormatError, ProfileInputError) as error:
            raise ServiceError(E_BAD_SHARD,
                               f"shard does not deserialize: {error}") \
                from error
        if self.graph is None:
            self.slots = shard["slots"]
            self.graph, self.state = graph, state
        self.shards += 1
        self.last_ingest_unix = round(time.time(), 6)
        self.runs += runs
        self.instructions += instructions
        if self.output is None:
            self.output = meta.get("output")
        if self.exec_mode is None:
            self.exec_mode = meta.get("exec_mode")
        trace = meta.get("trace")
        if isinstance(trace, dict) and len(self.traces) < MAX_TRACES:
            record = {"label": meta.get("label", "")}
            record.update(trace)
            self.traces.append(record)
        return reused

    # -- query-side views ----------------------------------------------------

    def report_meta(self) -> dict:
        """The meta dict served reports are rendered with.

        Mirrors the merged-profile meta batch mode writes: pushing a
        sharded run's shards and querying ``report`` is bit-for-bit
        the batch ``report --format json`` on the saved merge.
        """
        meta = {"instructions": self.instructions, "slots": self.slots,
                "output": self.output, "exec_mode": self.exec_mode}
        if self.runs > 1:
            meta["runs"] = self.runs
        return meta

    def describe(self) -> dict:
        """The per-tenant ``status``/``stats`` payload.

        ``memory_bytes`` is the CSR-aware graph estimate of
        :meth:`~repro.profiler.graph.DependenceGraph.memory_bytes` —
        the same accounting the ``summary`` query serves; ``shards``
        is the tenant's fold count (one fold per accepted shard).
        """
        graph = self.graph
        return {
            "tenant": self.name,
            "slots": self.slots,
            "shards": self.shards,
            "runs": self.runs,
            "instructions": self.instructions,
            "nodes": graph.num_nodes if graph is not None else 0,
            "edges": graph.num_edges if graph is not None else 0,
            "memory_bytes": (graph.memory_bytes()
                             if graph is not None else 0),
            "queries": self.queries,
            "traces": len(self.traces),
            "spills": self.spills,
            "reloads": self.reloads,
            "last_ingest_unix": self.last_ingest_unix,
        }

    # -- spill round-trip ----------------------------------------------------

    def to_profile_dict(self) -> dict:
        """The tenant as one profile document (the spill payload)."""
        meta = self.report_meta()
        meta["service"] = {"tenant": self.name, "shards": self.shards,
                           "runs": self.runs, "queries": self.queries,
                           "traces": self.traces,
                           "spills": self.spills,
                           "reloads": self.reloads,
                           "last_ingest_unix": self.last_ingest_unix}
        return graph_to_dict(self.graph, meta=meta, tracker=self.state)

    @classmethod
    def from_profile_dict(cls, name: str, doc: dict) -> "TenantState":
        """The tenant a spill document holds; raises what
        :func:`~repro.profiler.serialize.fold_document` raises."""
        tenant = cls(name)
        tenant.graph = DependenceGraph(slots=doc.get("slots", 16))
        tenant.state = TrackerState()
        fold_document(tenant.graph, tenant.state, doc)
        meta = doc.get("meta") or {}
        service = meta.get("service") or {}
        tenant.slots = doc.get("slots")
        tenant.shards = int(service.get("shards") or 0)
        tenant.runs = int(service.get("runs") or meta.get("runs") or 0)
        tenant.instructions = int(meta.get("instructions") or 0)
        tenant.output = meta.get("output")
        tenant.exec_mode = meta.get("exec_mode")
        tenant.traces = list(service.get("traces") or [])
        tenant.queries = int(service.get("queries") or 0)
        tenant.spills = int(service.get("spills") or 0)
        tenant.reloads = int(service.get("reloads") or 0)
        tenant.last_ingest_unix = service.get("last_ingest_unix")
        return tenant


class TenantRegistry:
    """All tenants the daemon knows, resident or spilled.

    ``max_resident`` bounds how many merged graphs stay in memory;
    with ``spill_dir`` unset, eviction is disabled and the registry
    grows unbounded (the in-process/testing configuration).  The
    registry is synchronous and single-threaded by design — the
    daemon's event loop serializes every mutation, which is what makes
    a fold atomic with respect to concurrent connections.
    """

    def __init__(self, max_resident: int = 64, spill_dir=None):
        if max_resident < 1:
            raise ValueError("max_resident must be >= 1")
        self.max_resident = max_resident
        self.spill_dir = spill_dir
        if spill_dir:
            os.makedirs(spill_dir, exist_ok=True)
        self._resident = {}
        self._clock = itertools.count(1)
        self.pushes = 0
        self.queries = 0
        self.evictions = 0
        self.reloads = 0
        self.last_ingest_unix = None

    # -- lookup --------------------------------------------------------------

    def _touch(self, tenant: TenantState) -> TenantState:
        tenant.last_used = next(self._clock)
        return tenant

    def _spill_path(self, name: str):
        if not self.spill_dir:
            return None
        return os.path.join(self.spill_dir, spill_filename(name))

    def tenant(self, name: str) -> TenantState:
        """The named tenant, reloading a spilled one transparently.

        Raises :class:`~repro.service.protocol.ServiceError`
        (``E_NO_TENANT``) when the name is unknown both in memory and
        on the spill disk.
        """
        check_tenant_name(name)
        tenant = self._resident.get(name)
        if tenant is not None:
            return self._touch(tenant)
        path = self._spill_path(name)
        if path and os.path.exists(path):
            tenant = self._reload(name, path)
            self._resident[name] = tenant
            self._enforce_budget(keep=name)
            return self._touch(tenant)
        raise ServiceError(E_NO_TENANT,
                           f"unknown tenant {name!r} (no shards pushed, "
                           f"no spill file)")

    def ingest(self, name: str, shard: dict) -> TenantState:
        """Fold one shard into the named tenant, creating it on first
        push (or reloading its spilled state)."""
        check_tenant_name(name)
        try:
            tenant = self.tenant(name)
        except ServiceError as error:
            if error.code != E_NO_TENANT:
                raise
            tenant = self._resident[name] = self._touch(TenantState(name))
        try:
            reused = tenant.fold(shard)
        except ServiceError:
            if tenant.shards == 0:
                # A rejected *first* push must not leave an empty
                # tenant behind — the name stays unknown.
                self._resident.pop(name, None)
            raise
        self.pushes += 1
        self.last_ingest_unix = tenant.last_ingest_unix
        hub = _current_telemetry()
        hub.inc("service.push")
        hub.inc(f"service.push[{name}]")
        if reused and hub.enabled:
            hub.inc("service.fold.shape_reused")
        self._enforce_budget(keep=name)
        return tenant

    # -- eviction ------------------------------------------------------------

    def _enforce_budget(self, keep: str) -> None:
        if not self.spill_dir:
            return
        while len(self._resident) > self.max_resident:
            victim = min(
                (tenant for tenant in self._resident.values()
                 if tenant.name != keep),
                key=lambda tenant: tenant.last_used, default=None)
            if victim is None:
                return
            self._evict(victim)

    def _evict(self, tenant: TenantState) -> None:
        path = self._spill_path(tenant.name)
        # Counted before the write so the spill document carries the
        # spill that produced it.
        tenant.spills += 1
        try:
            write_checkpoint(path, _tenant_fingerprint(tenant.name),
                             tenant.slots, 1,
                             {0: tenant.to_profile_dict()})
        except OSError as error:
            tenant.spills -= 1
            raise ServiceError(E_SPILL,
                               f"cannot spill tenant {tenant.name!r} "
                               f"to {path!r}: {error}") from error
        del self._resident[tenant.name]
        self.evictions += 1
        _current_telemetry().event(
            "service.evict", tenant=tenant.name,
            nodes=tenant.graph.num_nodes if tenant.graph else 0,
            path=path)

    def _reload(self, name: str, path: str) -> TenantState:
        try:
            shards = load_checkpoint(path, _tenant_fingerprint(name))
            tenant = TenantState.from_profile_dict(name, shards[0])
        except (CheckpointError, KeyError, OSError, AttributeError,
                TypeError, ValueError) as error:
            # ValueError covers ProfileFormatError and ProfileInputError.
            raise ServiceError(E_SPILL,
                               f"cannot reload tenant {name!r} from "
                               f"{path!r}: {error}") from error
        tenant.reloads += 1
        self.reloads += 1
        _current_telemetry().event("service.reload", tenant=name,
                                   nodes=tenant.graph.num_nodes,
                                   path=path)
        return tenant

    def spill_all(self) -> int:
        """Spill every resident tenant (clean-shutdown durability)."""
        if not self.spill_dir:
            return 0
        count = 0
        for tenant in list(self._resident.values()):
            self._evict(tenant)
            count += 1
        return count

    # -- status --------------------------------------------------------------

    def resident_count(self) -> int:
        """Tenants currently held in memory."""
        return len(self._resident)

    def count_query(self, tenant: TenantState) -> None:
        tenant.queries += 1
        self.queries += 1
        hub = _current_telemetry()
        hub.inc("service.query")
        hub.inc(f"service.query[{tenant.name}]")

    def status(self) -> dict:
        """The registry-wide ``status`` payload."""
        resident = sorted(self._resident.values(),
                          key=lambda tenant: tenant.name)
        spilled = []
        if self.spill_dir:
            resident_files = {spill_filename(name)
                              for name in self._resident}
            try:
                spilled = sorted(
                    filename for filename in os.listdir(self.spill_dir)
                    if filename.endswith(".tenant.json")
                    and filename not in resident_files)
            except OSError:
                spilled = []
        return {
            "tenants": [tenant.describe() for tenant in resident],
            "resident": len(resident),
            "spilled_files": spilled,
            "max_resident": self.max_resident,
            "spill_dir": self.spill_dir,
            "pushes": self.pushes,
            "queries": self.queries,
            "evictions": self.evictions,
            "reloads": self.reloads,
        }

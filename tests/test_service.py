"""Profiling-as-a-service: protocol, registry, daemon, client tests.

The correctness claims of `repro.service` (docs/SERVICE.md):

* *Exactness* — a tenant fed a run's shards in job order holds a
  graph bit-for-bit identical to the batch `merge_graphs` over the
  same list, and a served `report` query is byte-identical to the
  batch JSON bloat report on the saved merge.
* *Integrity* — malformed frames and shards are rejected without
  touching tenant state; a client that dies mid-frame leaves the
  tenant exactly as it was.
* *Durability* — the LRU spill/reload round-trip (including across a
  simulated daemon restart) preserves node numbering and counters.

No pytest-asyncio: daemon tests host `asyncio.run(daemon.run())` in a
background thread and talk to it with the blocking client, exactly
like a real operator process would.
"""

import asyncio
import hashlib
import json
import socket
import threading
import time

import pytest

from conftest import as_v3_columns, in_layout, layout_params
from repro import compile_source
from repro.profiler import (CostTracker, canonical_form, graph_from_dict,
                            graph_to_dict, merge_graphs,
                            tracker_state_from_dict)
from repro.service import (AnalysisDaemon, DEFAULT_MAX_FRAME, FrameError,
                           ServiceClient, ServiceError, ShardPusher,
                           TenantRegistry, encode_frame, parse_addr,
                           read_frame_sync, spill_filename)
from repro.service import protocol
from repro.observability import (METRICS_SCHEMA, MemorySink,
                                 NullTelemetry, Telemetry,
                                 normalize_snapshot, set_current,
                                 stable_json, use)
from repro.vm import VM

SOURCE = """
class Box {
    int v;
    Box(int x) { v = x * 3 + 1; }
}
class Main {
    static void main() {
        Box[] kept = new Box[8];
        int sum = 0;
        for (int i = 0; i < 8; i++) {
            kept[i] = new Box(i);
            sum = sum + kept[i].v;
        }
        Sys.printInt(sum);
    }
}
"""

#: A second program shape so multi-tenant tests fold distinct graphs.
SOURCE_B = """
class Pair {
    int a;
    int b;
    Pair(int x) { a = x; b = x + x; }
}
class Main {
    static void main() {
        Pair p = new Pair(0);
        for (int i = 0; i < 12; i++) { p = new Pair(i); }
        Sys.printInt(p.a + p.b);
    }
}
"""


def make_shard(label, source=SOURCE, slots=16):
    """One serialized shard: profile `source` under a fresh tracker."""
    program = compile_source(source)
    tracker = CostTracker(slots=slots)
    vm = VM(program, tracer=tracker)
    vm.run()
    meta = {"label": label, "instructions": vm.instr_count,
            "output": vm.stdout(), "exec_mode": vm.exec_tier}
    return graph_to_dict(tracker.graph, meta=meta, tracker=tracker)


def offline_merge(shards):
    """The batch oracle over the same serialized shards."""
    graphs = [graph_from_dict(shard) for shard in shards]
    states = [tracker_state_from_dict(shard) for shard in shards]
    return merge_graphs(graphs, states)


#: Damage a checksum cannot catch: the shard is re-stamped after it.
HOSTILE_SHARD_DEFECTS = ("edge-past-end", "negative-edge",
                         "effect-node-past-end", "negative-effect-node",
                         "ref-edge-past-end", "control-dep-past-end",
                         "return-node-past-end", "node-gs-past-end")


def hostile_shard(defect, layout="v3"):
    """A valid shard with one node reference out of range, in
    ``layout`` (``"v3"`` columns, ``"v2rows"`` or ``"v4"`` packed
    columns), checksummed after the damage."""
    from repro.profiler import content_checksum
    shard = as_v3_columns(make_shard("hostile"))
    n = len(shard["nodes"]) // 2
    if defect == "edge-past-end":
        shard["edges"][1] = n
    elif defect == "negative-edge":
        shard["edges"][0] = -1
    elif defect == "effect-node-past-end":
        shard["effects"][0][0] = n
    elif defect == "negative-effect-node":
        shard["effects"][0][0] = -1
    elif defect == "ref-edge-past-end":
        shard["ref_edges"][1] = n
    elif defect == "control-dep-past-end":
        shard["control_deps"].append([0, [n]])
    elif defect == "return-node-past-end":
        shard["tracker"]["return_nodes"].append([0, [n]])
    else:
        gs = shard["tracker"]["node_gs"]
        gs.extend([[0]] * (n + 1 - len(gs)))
    shard = in_layout(shard, layout)
    shard["checksum"] = content_checksum(shard)
    return shard


#: Faults outside the shape sections: a shard carrying them keeps its
#: program's packed shape text, so it reaches the shape memo's path.
MEMO_SHARD_DEFECTS = ("freq-length", "effects-row", "control-dep-past-end",
                      "slots", "branch-outcomes")


def memo_hostile_shard(defect):
    """``make_shard`` output with its ``nodes``/``edges``/``ref_edges``
    text untouched and one fault elsewhere, checksummed after it."""
    from repro.profiler import content_checksum
    from repro.profiler.serialize import pack_column, unpack_column
    shard = make_shard("hostile")
    n = len(unpack_column(shard["nodes"])) // 2
    if defect == "freq-length":
        shard["freq"] = pack_column(unpack_column(shard["freq"])[:-1])
    elif defect == "effects-row":
        shard["effects"][0] = shard["effects"][0][:3]
    elif defect == "control-dep-past-end":
        shard["control_deps"].append([0, [n]])
    elif defect == "slots":
        shard["slots"] = 8
    else:
        shard["tracker"]["branch_outcomes"].append([1, "taken", 0])
    shard["checksum"] = content_checksum(shard)
    return shard


# ---------------------------------------------------------------------------
# Wire protocol


class TestProtocol:
    def test_frame_round_trip(self):
        message = {"type": "ping", "payload": ["x", 1, None]}
        frame = encode_frame(message)
        length, digest = protocol.parse_header(
            frame[:protocol.HEADER_SIZE], DEFAULT_MAX_FRAME)
        payload = frame[protocol.HEADER_SIZE:]
        assert length == len(payload)
        assert protocol.decode_payload(payload, digest) == message

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame({"type": "ping"}))
        frame[:4] = b"XXXX"
        with pytest.raises(FrameError):
            protocol.parse_header(bytes(frame[:protocol.HEADER_SIZE]),
                                  DEFAULT_MAX_FRAME)

    def test_oversize_frame_rejected(self):
        frame = encode_frame({"type": "ping", "pad": "y" * 4096})
        with pytest.raises(FrameError):
            protocol.parse_header(frame[:protocol.HEADER_SIZE],
                                  max_frame=64)

    def test_checksum_mismatch_rejected(self):
        frame = encode_frame({"type": "ping"})
        _, digest = protocol.parse_header(frame[:protocol.HEADER_SIZE],
                                          DEFAULT_MAX_FRAME)
        tampered = frame[protocol.HEADER_SIZE:-1] + b"}"
        tampered = tampered[:-2] + b" }"
        with pytest.raises(FrameError):
            protocol.decode_payload(tampered, digest)

    def test_non_object_payload_rejected(self):
        payload = json.dumps([1, 2, 3]).encode()
        digest = hashlib.sha256(payload).digest()
        with pytest.raises(FrameError):
            protocol.decode_payload(payload, digest)

    def test_error_codes_are_unique_and_named(self):
        codes = list(protocol.ERROR_CODES.values())
        assert len(set(codes)) == len(codes)
        for name, code in protocol.ERROR_CODES.items():
            assert protocol.code_name(code) == name

    def test_parse_addr(self):
        assert parse_addr("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_addr("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_addr("tcp:127.0.0.1:7341") == \
            ("tcp", ("127.0.0.1", 7341))
        assert parse_addr("localhost:7341") == ("tcp", ("localhost", 7341))
        assert parse_addr("tcp::7341") == ("tcp", ("127.0.0.1", 7341))
        with pytest.raises(ValueError):
            parse_addr("tcp:no-port")


# ---------------------------------------------------------------------------
# Registry: exact folds, rejection atomicity


class TestRegistryFolds:
    def test_incremental_fold_matches_batch_merge(self):
        shards = [make_shard(f"s{i}") for i in range(4)]
        registry = TenantRegistry()
        for shard in shards:
            registry.ingest("app", shard)
        tenant = registry.tenant("app")
        graph, state = offline_merge(shards)
        # Bit-for-bit, numbering included — then canonically.
        assert tenant.graph.node_keys == graph.node_keys
        assert tenant.graph.freq == graph.freq
        assert tenant.graph.flags == graph.flags
        assert tenant.graph.succs == graph.succs
        assert tenant.graph.ref_edges == graph.ref_edges
        assert canonical_form(tenant.graph, tenant.state) == \
            canonical_form(graph, state)
        assert tenant.shards == 4
        assert tenant.runs == 4
        assert tenant.instructions == \
            sum(s["meta"]["instructions"] for s in shards)

    def test_single_shard_adoption_matches_merge(self):
        shard = make_shard("solo")
        registry = TenantRegistry()
        tenant = registry.ingest("solo", shard)
        graph, state = offline_merge([shard])
        assert canonical_form(tenant.graph, tenant.state) == \
            canonical_form(graph, state)

    def test_report_meta_matches_batch_shape(self):
        registry = TenantRegistry()
        registry.ingest("one", make_shard("a"))
        assert "runs" not in registry.tenant("one").report_meta()
        registry.ingest("one", make_shard("b"))
        assert registry.tenant("one").report_meta()["runs"] == 2

    def test_bad_shard_leaves_tenant_untouched(self):
        registry = TenantRegistry()
        registry.ingest("app", make_shard("ok"))
        before = canonical_form(registry.tenant("app").graph,
                                registry.tenant("app").state)
        with pytest.raises(ServiceError) as err:
            registry.ingest("app", {"not": "a shard"})
        assert err.value.code == protocol.E_BAD_SHARD
        tenant = registry.tenant("app")
        assert tenant.shards == 1
        assert canonical_form(tenant.graph, tenant.state) == before

    @pytest.mark.parametrize("defect", MEMO_SHARD_DEFECTS)
    def test_shape_memo_refuses_a_faulty_repeat(self, defect):
        """A shard whose shape text the tenant's graph remembers still
        has every other section checked: a fault is a typed error, from
        the registry and from ``fold_document`` itself, and the tenant
        stays as it was and keeps folding exactly."""
        from repro.profiler import (ProfileFormatError, ProfileInputError,
                                    fold_document)
        registry = TenantRegistry()
        first = make_shard("a")
        registry.ingest("app", first)
        tenant = registry.tenant("app")
        before = canonical_form(tenant.graph, tenant.state)
        shard = memo_hostile_shard(defect)
        assert shard["nodes"] == tenant.graph._shape_memo.nodes
        with pytest.raises(ServiceError) as err:
            registry.ingest("app", shard)
        assert err.value.code == (protocol.E_SLOTS_MISMATCH
                                  if defect == "slots"
                                  else protocol.E_BAD_SHARD)
        expected = ProfileInputError if defect == "slots" \
            else ProfileFormatError
        with pytest.raises(expected):
            fold_document(tenant.graph, tenant.state, shard)
        assert tenant.shards == 1
        assert canonical_form(tenant.graph, tenant.state) == before
        second = make_shard("b")
        assert tenant.fold(second) is True
        graph, state = offline_merge([first, second])
        assert canonical_form(tenant.graph, tenant.state) == \
            canonical_form(graph, state)

    def test_checksum_tampered_shard_rejected(self):
        from repro.profiler import content_checksum
        shard = make_shard("ok")
        shard["checksum"] = content_checksum(shard)
        shard["meta"]["instructions"] += 1
        registry = TenantRegistry()
        with pytest.raises(ServiceError) as err:
            registry.ingest("app", shard)
        assert err.value.code == protocol.E_BAD_SHARD
        with pytest.raises(ServiceError):
            registry.tenant("app")     # nothing was created

    def test_slots_mismatch_rejected(self):
        registry = TenantRegistry()
        registry.ingest("app", make_shard("a", slots=16))
        with pytest.raises(ServiceError) as err:
            registry.ingest("app", make_shard("b", slots=8))
        assert err.value.code == protocol.E_SLOTS_MISMATCH
        assert registry.tenant("app").shards == 1

    def test_graph_only_shard_rejected(self):
        shard = make_shard("a")
        program = compile_source(SOURCE)
        tracker = CostTracker(slots=16)
        VM(program, tracer=tracker).run()
        bare = graph_to_dict(tracker.graph, meta=shard["meta"])
        registry = TenantRegistry()
        with pytest.raises(ServiceError) as err:
            registry.ingest("app", bare)
        assert err.value.code == protocol.E_BAD_SHARD

    def test_unknown_tenant(self):
        with pytest.raises(ServiceError) as err:
            TenantRegistry().tenant("ghost")
        assert err.value.code == protocol.E_NO_TENANT

    def test_tenant_name_validation(self):
        registry = TenantRegistry()
        for bad in ("", 7, None, "x" * 200):
            with pytest.raises(ServiceError) as err:
                registry.ingest(bad, make_shard("a"))
            assert err.value.code == protocol.E_BAD_MESSAGE


class TestEvictionAndSpill:
    def test_lru_spill_and_transparent_reload(self, tmp_path):
        registry = TenantRegistry(max_resident=1,
                                  spill_dir=str(tmp_path))
        registry.ingest("alpha", make_shard("a0"))
        registry.ingest("alpha", make_shard("a1"))
        before = canonical_form(registry.tenant("alpha").graph,
                                registry.tenant("alpha").state)
        instructions = registry.tenant("alpha").instructions
        registry.ingest("beta", make_shard("b0", SOURCE_B))
        # alpha was evicted to disk...
        assert "alpha" not in registry._resident
        assert (tmp_path / spill_filename("alpha")).exists()
        assert registry.evictions == 1
        # ...and comes back identical, counters included.
        tenant = registry.tenant("alpha")
        assert registry.reloads == 1
        assert canonical_form(tenant.graph, tenant.state) == before
        assert tenant.shards == 2
        assert tenant.runs == 2
        assert tenant.instructions == instructions

    def test_reloaded_tenant_keeps_folding(self, tmp_path):
        registry = TenantRegistry(max_resident=1,
                                  spill_dir=str(tmp_path))
        shards = [make_shard(f"s{i}") for i in range(3)]
        registry.ingest("app", shards[0])
        registry.ingest("app", shards[1])
        registry.ingest("other", make_shard("o", SOURCE_B))  # evicts app
        registry.ingest("app", shards[2])                    # reload+fold
        graph, state = offline_merge(shards)
        tenant = registry.tenant("app")
        assert canonical_form(tenant.graph, tenant.state) == \
            canonical_form(graph, state)

    def test_push_after_reload_reuses_the_shape_exactly(self, tmp_path):
        """A reloaded tenant's graph remembers the shape of its spill
        document, which for repeats of one program is the shards'
        shape: the next push reuses it and still folds exactly."""
        registry = TenantRegistry(max_resident=1,
                                  spill_dir=str(tmp_path))
        shards = [make_shard(f"s{i}") for i in range(3)]
        hub = Telemetry()
        with use(hub):
            for shard in shards[:2]:
                registry.ingest("app", shard)
            registry.ingest("other", make_shard("o", SOURCE_B))
            registry.ingest("app", shards[2])       # reload + fold
        assert registry.reloads == 1
        assert hub.counters["service.fold.shape_reused"] == 2
        graph, state = offline_merge(shards)
        tenant = registry.tenant("app")
        assert tenant.graph.node_keys == graph.node_keys
        assert canonical_form(tenant.graph, tenant.state) == \
            canonical_form(graph, state)

    def test_state_survives_restart(self, tmp_path):
        first = TenantRegistry(max_resident=4, spill_dir=str(tmp_path))
        shards = [make_shard(f"s{i}") for i in range(2)]
        for shard in shards:
            first.ingest("app", shard)
        before = canonical_form(first.tenant("app").graph,
                                first.tenant("app").state)
        assert first.spill_all() == 1
        # A fresh registry on the same spill dir = daemon restart.
        second = TenantRegistry(max_resident=4, spill_dir=str(tmp_path))
        tenant = second.tenant("app")
        assert canonical_form(tenant.graph, tenant.state) == before
        assert tenant.shards == 2

    def test_status_lists_spilled_files(self, tmp_path):
        registry = TenantRegistry(max_resident=1,
                                  spill_dir=str(tmp_path))
        registry.ingest("alpha", make_shard("a"))
        registry.ingest("beta", make_shard("b", SOURCE_B))
        status = registry.status()
        assert status["resident"] == 1
        assert status["spilled_files"] == [spill_filename("alpha")]
        assert status["pushes"] == 2


# ---------------------------------------------------------------------------
# ShardPusher ordering


class _RecordingClient:
    addr = "test://"

    def __init__(self, fail_at=None):
        self.pushed = []
        self.fail_at = fail_at

    def push(self, tenant, shard):
        if self.fail_at is not None and len(self.pushed) == self.fail_at:
            raise ConnectionError("boom")
        self.pushed.append((tenant, shard["meta"]["label"]))


class TestShardPusher:
    def test_out_of_order_shards_released_in_job_order(self):
        client = _RecordingClient()
        pusher = ShardPusher(client, "app")
        shards = {i: make_shard(f"s{i}") for i in range(4)}
        for index in (2, 0, 3, 1):      # supervisor completion order
            pusher(index, shards[index])
        pusher.flush()
        assert [label for _, label in client.pushed] == \
            ["s0", "s1", "s2", "s3"]
        assert pusher.pushed == 4

    def test_flush_releases_past_gap_in_order(self):
        client = _RecordingClient()
        pusher = ShardPusher(client, "app")
        shards = {i: make_shard(f"s{i}") for i in (0, 2, 3)}
        for index in (3, 0, 2):         # shard 1 never completes
            pusher(index, shards[index])
        assert [label for _, label in client.pushed] == ["s0"]
        pusher.flush()
        assert [label for _, label in client.pushed] == \
            ["s0", "s2", "s3"]

    def test_push_failure_disables_without_raising(self, capsys):
        client = _RecordingClient(fail_at=1)
        pusher = ShardPusher(client, "app")
        for index in range(3):
            pusher(index, make_shard(f"s{index}"))
        pusher.flush()
        assert pusher.error is not None
        assert pusher.pushed == 1
        assert "remaining shards stay local" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The daemon, hosted on a background thread


class DaemonHarness:
    """asyncio daemon on a thread + blocking-client readiness probe.

    ``hub`` (a telemetry hub) is installed as the active hub for the
    daemon's lifetime; without one the daemon serves under whichever
    hub is current (the disabled ``NULL`` unless a test installs one).
    """

    def __init__(self, tmp_path, hub=None, **registry_kwargs):
        self.registry = TenantRegistry(**registry_kwargs)
        self.addr = str(tmp_path / "svc.sock")
        self.daemon = AnalysisDaemon(self.registry,
                                     socket_path=self.addr)
        self.hub = hub
        self._previous_hub = None
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.daemon.run()), daemon=True)

    def __enter__(self):
        if self.hub is not None:
            self._previous_hub = set_current(self.hub)
        self.thread.start()
        deadline = time.time() + 10.0
        while True:
            try:
                with ServiceClient(self.addr, timeout=2.0) as client:
                    client.ping()
                return self
            except (ConnectionError, OSError):
                if time.time() > deadline:      # pragma: no cover
                    raise RuntimeError("daemon never came up")
                time.sleep(0.02)

    def __exit__(self, *exc_info):
        self.daemon.request_shutdown()
        self.thread.join(timeout=10.0)
        if self.hub is not None:
            set_current(self._previous_hub)

    def client(self):
        return ServiceClient(self.addr, timeout=10.0)


class TestDaemon:
    def test_shutdown_with_open_connection_is_silent(self, tmp_path,
                                                     caplog, capfd):
        """Stopping the daemon while a client is still connected hangs
        the connection up: nothing is logged and no traceback reaches
        stderr."""
        with DaemonHarness(tmp_path) as harness:
            client = harness.client()
            client.ping()
        try:
            assert not harness.thread.is_alive()
            with pytest.raises(OSError):
                client.ping()
        finally:
            client.close()
        assert caplog.records == []
        assert "Traceback" not in capfd.readouterr().err

    def test_push_then_query_lifecycle(self, tmp_path):
        shards = [make_shard(f"s{i}") for i in range(3)]
        with DaemonHarness(tmp_path) as harness:
            with harness.client() as client:
                for shard in shards:
                    response = client.push("app", shard)
                assert response["shards"] == 3
                summary = client.query("app", "summary")["result"]
                assert summary["shards"] == 3
                assert summary["runs"] == 3
                assert summary["nodes"] == response["nodes"]
                assert "memory_bytes" in summary
                bloat = client.query("app", "bloat")["result"]
                assert bloat["instructions"] == \
                    sum(s["meta"]["instructions"] for s in shards)
                status = client.status()["status"]
                assert status["pushes"] == 3
                assert status["queries"] == 2
                per_tenant = client.status("app")["status"]
                assert per_tenant["tenant"] == "app"

    def test_served_report_bitwise_equals_batch(self, tmp_path):
        from repro.observability.bloatreport import bloat_report_data
        shards = [make_shard(f"s{i}") for i in range(3)]
        program_spec = {"source": SOURCE, "use_stdlib": False}
        with DaemonHarness(tmp_path) as harness:
            with harness.client() as client:
                for shard in shards:
                    client.push("app", shard)
                served = client.query("app", "report",
                                      program=program_spec,
                                      top=10)["result"]
                racs = client.query("app", "rac",
                                    program=program_spec)["result"]
        graph, state = offline_merge(shards)
        meta = {"instructions": sum(s["meta"]["instructions"]
                                    for s in shards),
                "slots": 16,
                "output": shards[0]["meta"]["output"],
                "exec_mode": shards[0]["meta"]["exec_mode"],
                "runs": 3}
        batch = bloat_report_data(graph, meta, state,
                                  compile_source(SOURCE), top=10)
        assert json.dumps(served, indent=2, sort_keys=True) == \
            json.dumps(batch, indent=2, sort_keys=True)
        assert racs                     # field table is non-empty

    def test_served_report_equals_batch_after_every_push(self, tmp_path):
        """Query between pushes: a repeated shard only moves ``freq``,
        so the tenant's cached engine is re-weighed, not rebuilt — and
        must still agree with a fresh offline merge of each prefix."""
        from repro.observability.bloatreport import bloat_report_data
        s0, s1 = make_shard("s0"), make_shard("s1")
        program_spec = {"source": SOURCE, "use_stdlib": False}
        program = compile_source(SOURCE)
        pushed = []
        with DaemonHarness(tmp_path) as harness:
            with harness.client() as client:
                for shard in (s0, s1, s0, s1):
                    client.push("app", shard)
                    pushed.append(shard)
                    served = client.query("app", "report",
                                          program=program_spec,
                                          top=10)["result"]
                    racs = client.query("app", "rac",
                                        program=program_spec,
                                        top=10)["result"]
                    graph, state = offline_merge(pushed)
                    meta = {"instructions": sum(s["meta"]["instructions"]
                                                for s in pushed),
                            "slots": 16,
                            "output": s0["meta"]["output"],
                            "exec_mode": s0["meta"]["exec_mode"]}
                    if len(pushed) > 1:     # as batch mode writes it
                        meta["runs"] = len(pushed)
                    batch = bloat_report_data(graph, meta, state,
                                              program, top=10)
                    assert json.dumps(served, sort_keys=True) == \
                        json.dumps(batch, sort_keys=True), len(pushed)
                    assert racs == batch["hrac"], len(pushed)

    def test_queries_share_one_site_map_per_program(self):
        """Allocation-site names are built once per compiled program:
        ``report``, ``rac`` and ``report`` again all read the map the
        first query kept on the daemon's cached program."""
        daemon = AnalysisDaemon(TenantRegistry())
        assert daemon._handle({"type": "push", "tenant": "app",
                               "shard": make_shard("s0")})["type"] == "ok"
        spec = {"source": SOURCE, "use_stdlib": False}
        maps = []
        for kind in ("report", "rac", "report"):
            response = daemon._handle({"type": "query", "tenant": "app",
                                       "kind": kind, "program": spec})
            assert response["type"] == "ok", response
            maps.append(daemon._program(kind, spec)._site_descriptions)
        assert maps[0]
        assert maps[0] is maps[1] is maps[2]

    def test_query_error_paths(self, tmp_path):
        with DaemonHarness(tmp_path) as harness:
            with harness.client() as client:
                client.push("app", make_shard("a"))
                with pytest.raises(ServiceError) as err:
                    client.query("ghost", "summary")
                assert err.value.code == protocol.E_NO_TENANT
                with pytest.raises(ServiceError) as err:
                    client.query("app", "nonsense")
                assert err.value.code == protocol.E_BAD_MESSAGE
                with pytest.raises(ServiceError) as err:
                    client.query("app", "report")   # no program
                assert err.value.code == protocol.E_NO_PROGRAM
                with pytest.raises(ServiceError) as err:
                    client.query("app", "report",
                                 program={"source": "class {",
                                          "use_stdlib": False})
                assert err.value.code == protocol.E_QUERY_FAILED
                # The connection survived every refusal.
                assert client.ping()["type"] == "ok"

    def test_killed_client_mid_push_leaves_tenant_coherent(self,
                                                           tmp_path):
        shard = make_shard("a")
        with DaemonHarness(tmp_path) as harness:
            with harness.client() as client:
                client.push("app", shard)
            frame = encode_frame({"type": "push", "tenant": "app",
                                  "shard": shard})
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(harness.addr)
            raw.sendall(frame[:len(frame) // 2])    # die mid-frame
            raw.close()
            with harness.client() as client:
                summary = client.query("app", "summary")["result"]
                assert summary["shards"] == 1       # nothing applied
                client.push("app", make_shard("b"))
                assert client.query("app",
                                    "summary")["result"]["shards"] == 2

    @pytest.mark.parametrize("case", layout_params(HOSTILE_SHARD_DEFECTS))
    def test_hostile_push_is_bad_shard_and_changes_nothing(self, tmp_path,
                                                           case):
        """A checksummed shard whose rows reference nodes it does not
        hold is refused as a whole, in either layout: the tenant keeps
        its graph, state and shard count, and still answers
        ``report``."""
        program = {"source": SOURCE, "use_stdlib": False}
        with DaemonHarness(tmp_path) as harness:
            with harness.client() as client:
                client.push("app", make_shard("ok"))
                tenant = harness.registry.tenant("app")
                before = canonical_form(tenant.graph, tenant.state)
                with pytest.raises(ServiceError) as err:
                    client.push("app", hostile_shard(*case))
                assert err.value.code == protocol.E_BAD_SHARD
                assert client.status("app")["status"]["shards"] == 1
                assert canonical_form(tenant.graph, tenant.state) == before
                report = client.query("app", "report", program=program,
                                      top=10)["result"]
                assert report["summary"]["nodes"] == \
                    tenant.graph.num_nodes

    def test_garbage_bytes_get_error_frame_and_close(self, tmp_path):
        with DaemonHarness(tmp_path) as harness:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(harness.addr)
            raw.settimeout(10.0)
            raw.sendall(b"GET / HTTP/1.1\r\n" + b"\0" * 64)
            response = read_frame_sync(raw)
            assert response["type"] == "error"
            assert response["code"] == protocol.E_BAD_FRAME
            assert raw.recv(1) == b""               # daemon hung up
            raw.close()
            assert harness.daemon.frame_errors == 1

    def test_concurrent_multi_tenant_ingest_is_exact(self, tmp_path):
        shards_a = [make_shard(f"a{i}") for i in range(3)]
        shards_b = [make_shard(f"b{i}", SOURCE_B) for i in range(3)]
        errors = []

        def feed(tenant, shards):
            try:
                with ServiceClient(addr, timeout=10.0) as client:
                    for shard in shards:
                        client.push(tenant, shard)
            except Exception as error:      # pragma: no cover
                errors.append(error)

        with DaemonHarness(tmp_path) as harness:
            addr = harness.addr
            threads = [
                threading.Thread(target=feed, args=("ta", shards_a)),
                threading.Thread(target=feed, args=("tb", shards_b))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            for name, shards in (("ta", shards_a), ("tb", shards_b)):
                tenant = harness.registry.tenant(name)
                graph, state = offline_merge(shards)
                assert canonical_form(tenant.graph, tenant.state) == \
                    canonical_form(graph, state)

    def test_telemetry_spans_and_counters(self, tmp_path):
        """Every handler path must work with a live telemetry hub
        (span metadata keys must not collide with `event()` params)."""
        sink = MemorySink()
        hub = Telemetry(sink=sink)
        with use(hub):
            with DaemonHarness(tmp_path) as harness:
                with harness.client() as client:
                    client.push("app", make_shard("a"))
                    client.query("app", "summary")
        assert hub.counters["service.push"] == 1
        assert hub.counters["service.push[app]"] == 1
        assert hub.counters["service.query"] == 1
        spans = {event["name"] for event in sink.events
                 if event["ev"] == "span"}
        assert {"service.ingest", "service.query"} <= spans

    def test_shutdown_message_stops_daemon_and_spills(self, tmp_path):
        spill_dir = tmp_path / "spill"
        harness = DaemonHarness(tmp_path, max_resident=8,
                                spill_dir=str(spill_dir))
        with harness:
            with harness.client() as client:
                client.push("app", make_shard("a"))
                assert client.shutdown()["spilled"] is True
            harness.thread.join(timeout=10.0)
            assert not harness.thread.is_alive()
        assert (spill_dir / spill_filename("app")).exists()

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_damaged_spill_file_answers_e_spill(self, tmp_path, damage):
        from repro.observability.bloatreport import bloat_report_data
        spill_dir = tmp_path / "spill"
        shard_a = make_shard("a")
        shard_b = make_shard("b", source=SOURCE_B)
        program_b = {"source": SOURCE_B, "use_stdlib": False}
        with DaemonHarness(tmp_path, max_resident=1,
                           spill_dir=str(spill_dir)) as harness:
            with harness.client() as client:
                client.push("a", shard_a)
                client.push("b", shard_b)       # evicts tenant a
                path = spill_dir / spill_filename("a")
                data = bytearray(path.read_bytes())
                if damage == "truncate":
                    del data[len(data) // 2:]
                else:
                    data[len(data) // 2] ^= 0xFF
                path.write_bytes(bytes(data))
                for request in (lambda: client.query("a", "summary"),
                                lambda: client.push("a", shard_a)):
                    with pytest.raises(ServiceError) as err:
                        request()
                    assert err.value.code == protocol.E_SPILL
                served = client.query("b", "report", program=program_b,
                                      top=10)["result"]
        graph, state = offline_merge([shard_b])
        meta = {"instructions": shard_b["meta"]["instructions"],
                "slots": 16, "output": shard_b["meta"]["output"],
                "exec_mode": shard_b["meta"]["exec_mode"]}
        batch = bloat_report_data(graph, meta, state,
                                  compile_source(SOURCE_B), top=10)
        assert json.dumps(served, indent=2, sort_keys=True) == \
            json.dumps(batch, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Live metrics: stats / health queries (docs/SERVICE.md)


class CountingNullTelemetry(NullTelemetry):
    """A disabled hub that counts metric updates: the structural guard
    — the daemon must not merely discard latency samples and gauges
    when the hub is off, it must never take them."""

    def __init__(self):
        self.calls = 0

    def gauge(self, name, value):
        self.calls += 1

    def observe(self, name, seconds):
        self.calls += 1


class TestStatsHealth:
    def _load(self, harness):
        """One deterministic request load over two tenants."""
        with harness.client() as client:
            for index in range(2):
                client.push("app", make_shard(f"a{index}"))
            client.push("ci", make_shard("b0", SOURCE_B))
            client.query("app", "summary")
            return client.stats()["stats"], client.health()["health"]

    def test_stats_reports_tenants_and_latencies(self, tmp_path):
        with DaemonHarness(tmp_path, hub=Telemetry()) as harness:
            stats, health = self._load(harness)
        assert stats["schema"] == METRICS_SCHEMA
        assert stats["daemon"]["metrics_enabled"] is True
        assert stats["daemon"]["uptime_s"] > 0
        assert stats["daemon"]["frame_errors"] == 0
        assert stats["registry"]["resident"] == 2
        assert stats["registry"]["pushes"] == 3
        assert stats["registry"]["queries"] == 1
        tenants = {tenant["tenant"]: tenant
                   for tenant in stats["tenants"]}
        assert set(tenants) == {"app", "ci"}
        assert tenants["app"]["shards"] == 2          # fold count
        assert tenants["app"]["memory_bytes"] > 0     # CSR accounting
        assert tenants["app"]["queries"] == 1
        assert tenants["ci"]["spills"] == 0
        assert tenants["ci"]["last_ingest_unix"] is not None
        metrics = stats["metrics"]
        assert metrics["histograms"]["service.request[push]"]["count"] \
            == 3
        assert metrics["histograms"]["service.query[summary]"]["count"] \
            == 1
        assert metrics["counters"]["service.requests"] >= 4
        # app's second shard repeats its first one's shape.
        assert metrics["counters"]["service.fold.shape_reused"] == 1
        assert metrics["gauges"]["service.tenants_resident"] == 2
        # Health: same daemon, one glance.
        assert health["status"] == "ok"
        assert health["tenants_resident"] == 2
        assert health["pushes"] == 3
        assert health["last_ingest_age_s"] is not None

    def test_identical_loads_snapshot_byte_for_byte(self, tmp_path):
        """The acceptance bar: two daemons fed the same request load
        return `stats` documents that are byte-identical after timing
        normalization."""
        docs = []
        for run in ("one", "two"):
            directory = tmp_path / run
            directory.mkdir()
            with DaemonHarness(directory, hub=Telemetry()) as harness:
                stats, _health = self._load(harness)
                docs.append(stats)
        first, second = (stable_json(normalize_snapshot(doc))
                         for doc in docs)
        assert first == second

    def test_stats_on_disabled_metrics_daemon(self, tmp_path):
        with DaemonHarness(tmp_path) as harness:       # the NULL hub
            with harness.client() as client:
                client.push("app", make_shard("a"))
                stats = client.stats()["stats"]
                health = client.health()["health"]
        assert stats["daemon"]["metrics_enabled"] is False
        assert stats["metrics"] == {"schema": METRICS_SCHEMA,
                                    "enabled": False}
        assert stats["tenants"][0]["memory_bytes"] > 0
        assert health["metrics_enabled"] is False
        assert health["status"] == "ok"

    def test_disabled_metrics_do_exactly_zero_work(self, tmp_path):
        """Structural zero-cost guard: a counting disabled hub must
        see zero observe/gauge calls across every request path."""
        counting = CountingNullTelemetry()
        with use(counting), DaemonHarness(tmp_path) as harness:
            with harness.client() as client:
                client.push("app", make_shard("a"))
                client.query("app", "summary")
                client.status()
                client.stats()
                client.health()
                with pytest.raises(ServiceError):
                    client.query("ghost", "summary")
        assert counting.calls == 0

    def test_frame_errors_degrade_health(self, tmp_path):
        with DaemonHarness(tmp_path, hub=Telemetry()) as harness:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(harness.addr)
            raw.settimeout(10.0)
            raw.sendall(b"NOPE" + b"\0" * 40)
            read_frame_sync(raw)                       # error frame
            raw.close()
            with harness.client() as client:
                health = client.health()["health"]
                stats = client.stats()["stats"]
        assert health["status"] == "degraded"
        assert health["frame_errors"] == 1
        assert stats["metrics"]["counters"]["service.frame_errors"] == 1

    def test_request_errors_are_counted_by_name(self, tmp_path):
        with DaemonHarness(tmp_path, hub=Telemetry()) as harness:
            with harness.client() as client:
                with pytest.raises(ServiceError):
                    client.query("ghost", "summary")
                counters = \
                    client.stats()["stats"]["metrics"]["counters"]
        assert counters["service.errors"] == 1
        assert counters["service.errors[E_NO_TENANT]"] == 1

    def test_stats_serve_the_hub_counters(self, tmp_path):
        """One surface: ``stats`` reports the hub's own counters —
        the registry's ``service.push`` included — and ``hub.flush()``
        writes the same value to the event stream."""
        sink = MemorySink()
        hub = Telemetry(sink=sink)
        pushes = 3
        with DaemonHarness(tmp_path, hub=hub) as harness:
            with harness.client() as client:
                for index in range(pushes):
                    client.push("app", make_shard(f"a{index}"))
                counters = \
                    client.stats()["stats"]["metrics"]["counters"]
            hub.flush()
        assert counters["service.push"] == pushes
        assert counters["service.push[app]"] == pushes
        flushed = [event["counters"] for event in sink.events
                   if event["ev"] == "counters"][0]
        assert flushed["service.push"] == counters["service.push"]

    def test_shutdown_flushes_telemetry_summaries(self, tmp_path):
        """Satellite contract: the daemon flushes the telemetry hub
        before its event loop exits, so counter summaries are in the
        sink without any atexit / hub.close() help."""
        sink = MemorySink()
        hub = Telemetry(sink=sink)
        with use(hub):
            with DaemonHarness(tmp_path) as harness:
                with harness.client() as client:
                    client.push("app", make_shard("a"))
            # __exit__ returned: the daemon thread is done.
            kinds = [event["ev"] for event in sink.events]
        assert "counters" in kinds
        summaries = [event for event in sink.events
                     if event["ev"] == "counters"]
        assert summaries[0]["counters"]["service.push"] == 1


# ---------------------------------------------------------------------------
# CLI surface (client subcommand against a live daemon)


class TestClientCli:
    def test_client_push_query_status_ping(self, tmp_path, capsys):
        from repro.cli import main
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps(make_shard("cli")))
        source_path = tmp_path / "prog.mj"
        source_path.write_text(SOURCE)
        out_path = tmp_path / "report.json"
        with DaemonHarness(tmp_path) as harness:
            addr = harness.addr
            assert main(["client", "ping", "--addr", addr]) == 0
            assert main(["client", "push", str(profile_path),
                         "--addr", addr, "--tenant", "cli"]) == 0
            assert "1 shard(s) folded" in capsys.readouterr().out
            assert main(["client", "query", "summary",
                         "--addr", addr, "--tenant", "cli"]) == 0
            assert json.loads(capsys.readouterr().out)["shards"] == 1
            assert main(["client", "query", "report", str(source_path),
                         "--no-stdlib", "--addr", addr,
                         "--tenant", "cli", "--out",
                         str(out_path)]) == 0
            capsys.readouterr()
            report = json.loads(out_path.read_text())
            assert report["summary"]["slots"] == 16
            assert main(["client", "status", "--addr", addr]) == 0
            assert json.loads(capsys.readouterr().out)["pushes"] == 1

    def test_client_errors_map_to_exit_codes(self, tmp_path, capsys):
        from repro.cli import EXIT_BAD_INPUT, EXIT_RUNTIME, main
        dead = str(tmp_path / "nobody-home.sock")
        assert main(["client", "ping", "--addr", dead]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "cannot reach daemon" in err
        assert "repro serve" in err          # actionable, single line
        assert "Traceback" not in err
        with DaemonHarness(tmp_path) as harness:
            assert main(["client", "query", "summary",
                         "--addr", harness.addr,
                         "--tenant", "ghost"]) == EXIT_BAD_INPUT
            assert "daemon refused" in capsys.readouterr().err

    def test_client_bad_addr_is_bad_input(self, capsys):
        from repro.cli import EXIT_BAD_INPUT, main
        assert main(["client", "ping",
                     "--addr", "tcp:nonsense"]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert "bad TCP address" in err
        assert "Traceback" not in err

    def test_client_stats_and_health(self, tmp_path, capsys):
        from repro.cli import EXIT_DEGRADED, main
        with DaemonHarness(tmp_path, hub=Telemetry()) as harness:
            addr = harness.addr
            with harness.client() as client:
                client.push("app", make_shard("a"))
                client.push("ci", make_shard("b", SOURCE_B))
                client.query("app", "summary")
            # Text rendering: busiest tenants + latency table.
            assert main(["client", "stats", "--addr", addr]) == 0
            out = capsys.readouterr().out
            assert "metrics on" in out
            assert "app" in out and "ci" in out
            assert "service.request[push]" in out
            # JSON rendering: the raw stable-schema document.
            assert main(["client", "stats", "--addr", addr,
                         "--format", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["schema"] == METRICS_SCHEMA
            assert {tenant["tenant"] for tenant in doc["tenants"]} \
                == {"app", "ci"}
            assert all(tenant["memory_bytes"] > 0
                       for tenant in doc["tenants"])
            # Health: ok one-liner, exit 0.
            assert main(["client", "health", "--addr", addr]) == 0
            assert capsys.readouterr().out.startswith("ok:")
            # Degrade it (garbage frame), health now exits 3.
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(addr)
            raw.settimeout(10.0)
            raw.sendall(b"NOPE" + b"\0" * 40)
            read_frame_sync(raw)
            raw.close()
            assert main(["client", "health",
                         "--addr", addr]) == EXIT_DEGRADED
            assert "degraded" in capsys.readouterr().out

    def test_profile_push_streams_sharded_run(self, tmp_path, capsys):
        from repro.cli import main
        source_path = tmp_path / "prog.mj"
        source_path.write_text(SOURCE)
        with DaemonHarness(tmp_path) as harness:
            assert main(["profile", str(source_path), "--no-stdlib",
                         "--jobs", "2", "--runs", "3",
                         "--push", harness.addr,
                         "--tenant", "app",
                         "--report", "bloat"]) == 0
            out = capsys.readouterr().out
            assert "push: 3 shard(s)" in out
            tenant = harness.registry.tenant("app")
            assert tenant.shards == 3
            assert tenant.runs == 3

    def test_profile_push_single_run(self, tmp_path, capsys):
        from repro.cli import main
        source_path = tmp_path / "prog.mj"
        source_path.write_text(SOURCE)
        with DaemonHarness(tmp_path) as harness:
            assert main(["profile", str(source_path), "--no-stdlib",
                         "--push", harness.addr, "--tenant", "one",
                         "--report", "bloat"]) == 0
            assert "push: 1 shard(s)" in capsys.readouterr().out
            assert harness.registry.tenant("one").shards == 1

    def test_profile_push_daemon_down_degrades_gracefully(
            self, tmp_path, capsys):
        from repro.cli import main
        source_path = tmp_path / "prog.mj"
        source_path.write_text(SOURCE)
        dead = str(tmp_path / "nobody-home.sock")
        assert main(["profile", str(source_path), "--no-stdlib",
                     "--push", dead, "--report", "bloat"]) == 0
        assert "warning" in capsys.readouterr().err

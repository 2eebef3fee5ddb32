"""Reports answer from one engine pass, with no per-node reference.

The per-node reference functions (``DependenceGraph.backward_reachable``/
``forward_reachable`` behind ``relative.hrac``/``hrab``, and the
per-root ``relative.object_cost_benefit``) are patched to raise, and
``BatchSliceEngine.field_racs``/``field_rabs`` are counted.  Every
report surface -- ``bloat_report_data``, ``render_bloat_report``, the
daemon's ``report``/``rac``/``summary`` answers -- and
``analyze_caches`` must still answer, and one report must compute the
field RACs and RABs exactly once.  A regression to a per-node or
per-root path, or a second RAC pass, fails here without timing
anything.
"""

import pytest

from conftest import reference_analyze_caches
from repro.analyses import analyze_caches, relative
from repro.analyses.batch import BatchSliceEngine
from repro.lang import compile_source
from repro.observability import bloat_report_data, render_bloat_report
from repro.profiler import CostTracker, graph_to_dict
from repro.profiler.graph import DependenceGraph
from repro.service import AnalysisDaemon, TenantRegistry
from repro.vm import VM

#: A cache-like array written once and read many times, and a small
#: linked structure, so every report section and the cache report
#: have rows.
SOURCE = """
class Node {
    int val;
    Node next;
    Node(int v) { val = v * 2 + 1; }
}
class Cache {
    int[] slots;
    Node head;
    Cache() { slots = new int[4]; }
}
class Main {
    static void main() {
        Cache c = new Cache();
        for (int i = 0; i < 4; i++) { c.slots[i] = i * i + 7; }
        int sum = 0;
        for (int r = 0; r < 12; r++) { sum = sum + c.slots[r % 4]; }
        Node n = new Node(1);
        n.next = new Node(sum);
        c.head = n;
        Sys.printInt(sum + c.head.next.val);
    }
}
"""


def _refuse(*args, **kwargs):
    raise AssertionError("a report took a per-node reference path")


@pytest.fixture
def profiled():
    """The program, its tracker and meta, and the per-node cache report
    (computed here, before :func:`passes` patches the references)."""
    program = compile_source(SOURCE)
    tracker = CostTracker(slots=8)
    vm = VM(program, tracer=tracker)
    vm.run()
    meta = {"instructions": vm.instr_count, "output": vm.stdout()}
    caches = reference_analyze_caches(tracker.graph)
    assert caches
    return program, tracker, meta, caches


@pytest.fixture
def passes(profiled, monkeypatch):
    """Patch the per-node paths to raise; count the field-map passes."""
    counts = {"field_racs": 0, "field_rabs": 0}
    for name in counts:
        original = getattr(BatchSliceEngine, name)

        def counted(self, *args, _name=name, _original=original,
                    **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(BatchSliceEngine, name, counted)
    monkeypatch.setattr(DependenceGraph, "backward_reachable", _refuse)
    monkeypatch.setattr(DependenceGraph, "forward_reachable", _refuse)
    monkeypatch.setattr(relative, "object_cost_benefit", _refuse)
    return counts


#: One report's field-map passes.
ONCE_EACH = {"field_racs": 1, "field_rabs": 1}


def _taken(counts):
    """The passes counted so far; the counts restart from zero."""
    taken = dict(counts)
    counts.update(field_racs=0, field_rabs=0)
    return taken


def test_batch_reports_take_one_engine_pass(profiled, passes):
    program, tracker, meta, caches = profiled
    graph, state = tracker.graph, tracker.state()
    data = bloat_report_data(graph, meta, state, program)
    assert _taken(passes) == ONCE_EACH
    assert data["cost_benefit"] and data["hrac"] and data["hrab"]
    assert data["dead_values"] is not None
    text = render_bloat_report(graph, meta, state, program)
    assert _taken(passes) == ONCE_EACH
    assert "## Top cost-benefit offenders" in text
    assert analyze_caches(graph) == caches


def test_daemon_answers_take_one_engine_pass(profiled, passes):
    _, tracker, meta, caches = profiled
    daemon = AnalysisDaemon(TenantRegistry())
    shard = graph_to_dict(tracker.graph, tracker=tracker, meta=meta)
    spec = {"source": SOURCE, "use_stdlib": False}
    for _ in range(2):          # a repeat re-weighs the cached engine
        assert daemon._handle({"type": "push", "tenant": "t",
                               "shard": shard})["type"] == "ok"
        for kind, racs, rabs in (("report", 1, 1), ("rac", 1, 0),
                                 ("rab", 0, 1), ("summary", 0, 0),
                                 ("bloat", 0, 0)):
            response = daemon._handle({"type": "query", "tenant": "t",
                                       "kind": kind, "program": spec})
            assert response["type"] == "ok", (kind, response)
            assert _taken(passes) == {"field_racs": racs,
                                      "field_rabs": rabs}, kind
    assert len(analyze_caches(daemon.registry.tenant("t").graph)) == \
        len(caches)

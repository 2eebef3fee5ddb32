"""Tests for the §3.2 auxiliary clients: method costs, write/read
imbalances, constant predicates, collection ranking, and reports."""

from conftest import run_main
from repro.analyses import (analyze_cost_benefit, constant_predicates,
                            format_bloat_metrics, format_copy_chains,
                            format_cost_benefit_report,
                            format_method_costs,
                            format_write_read_report, measure_bloat,
                            method_costs, rank_collections,
                            write_read_imbalances)
from repro.profiler import CostTracker


def traced(body, extra=""):
    tracker = CostTracker(slots=16)
    vm = run_main(body, extra=extra, tracer=tracker)
    return vm, tracker


class TestMethodCosts:
    EXTRA = """
class Heavy {
    static int crunch(int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) { acc = acc + i * i; }
        return acc;
    }
}
class Light {
    static int passthrough(int v) { return v; }
}
"""

    def test_hot_method_ranks_first(self):
        vm, tracker = traced(
            "int a = Heavy.crunch(200); int b = Light.passthrough(a); "
            "Sys.printInt(b);", extra=self.EXTRA)
        costs = method_costs(tracker.graph, vm.program)
        assert costs[0].method == "Heavy.crunch"
        assert costs[0].frequency > costs[-1].frequency

    def test_allocation_attribution(self):
        extra = "class Factory { static int[] make() "\
                "{ return new int[4]; } }"
        vm, tracker = traced(
            "for (int i = 0; i < 5; i++) { int[] a = Factory.make(); }"
            " Sys.printInt(0);", extra=extra)
        costs = {c.method: c for c in method_costs(tracker.graph,
                                                   vm.program)}
        assert costs["Factory.make"].allocations == 5

    def test_heap_traffic_attribution(self):
        extra = """
class Store {
    int v;
    void fill() { v = 1; }
    int read() { return v; }
}
"""
        vm, tracker = traced(
            "Store s = new Store(); s.fill(); Sys.printInt(s.read());",
            extra=extra)
        costs = {c.method: c for c in method_costs(tracker.graph,
                                                   vm.program)}
        assert costs["Store.fill"].heap_writes == 1
        assert costs["Store.read"].heap_reads == 1

    def test_top_parameter(self):
        vm, tracker = traced("Sys.printInt(1 + 2);")
        assert len(method_costs(tracker.graph, vm.program, top=1)) == 1


class TestWriteReadImbalances:
    def test_write_heavy_field_flagged(self):
        extra = "class C { int hot; int cold; }"
        body = """
C c = new C();
for (int i = 0; i < 50; i++) { c.hot = i; }
c.cold = 1;
int use = c.hot + c.cold;
Sys.printInt(use);
"""
        vm, tracker = traced(body, extra=extra)
        entries = write_read_imbalances(tracker.graph)
        assert entries
        top = entries[0]
        assert top.field == "hot"
        assert top.writes == 50
        assert top.reads == 1
        assert top.ratio == 50.0
        assert not top.never_read

    def test_never_read_marked(self):
        extra = "class C { int dead; }"
        body = """
C c = new C();
for (int i = 0; i < 10; i++) { c.dead = i; }
Sys.printInt(0);
"""
        vm, tracker = traced(body, extra=extra)
        entries = write_read_imbalances(tracker.graph)
        assert entries[0].never_read
        assert entries[0].ratio == float("inf")

    def test_min_writes_filter(self):
        extra = "class C { int once; }"
        vm, tracker = traced(
            "C c = new C(); c.once = 1; Sys.printInt(0);", extra=extra)
        assert write_read_imbalances(tracker.graph, min_writes=2) == []
        assert write_read_imbalances(tracker.graph, min_writes=1)

    def test_balanced_field_ranks_low(self):
        extra = "class C { int even; }"
        body = """
C c = new C();
int acc = 0;
for (int i = 0; i < 20; i++) { c.even = i; acc = acc + c.even; }
Sys.printInt(acc);
"""
        vm, tracker = traced(body, extra=extra)
        entries = write_read_imbalances(tracker.graph)
        assert all(e.ratio <= 1.5 for e in entries)


class TestConstantPredicates:
    def test_always_true_detected(self):
        body = """
int flag = 100;
for (int i = 0; i < 20; i++) {
    if (flag > 0) { }
}
Sys.printInt(flag);
"""
        vm, tracker = traced(body)
        reports = constant_predicates(tracker.graph,
                                      tracker.branch_outcomes,
                                      vm.program)
        always_true = [r for r in reports if r.always == "true"
                       and r.executions == 20]
        assert always_true

    def test_mixed_branch_not_reported(self):
        body = """
for (int i = 0; i < 10; i++) {
    if (i % 2 == 0) { }
}
Sys.printInt(0);
"""
        vm, tracker = traced(body)
        reports = constant_predicates(tracker.graph,
                                      tracker.branch_outcomes,
                                      vm.program)
        # The i%2 branch alternates; the loop condition is mixed too.
        assert all(r.executions < 10 or r.always in ("true", "false")
                   for r in reports)
        inner = [r for r in reports if r.executions == 10]
        assert not inner

    def test_min_executions_filter(self):
        vm, tracker = traced("if (1 < 2) { } Sys.printInt(0);")
        reports = constant_predicates(tracker.graph,
                                      tracker.branch_outcomes,
                                      vm.program, min_executions=2)
        assert reports == []

    def test_condition_cost_reported(self):
        body = """
int expensive = 0;
for (int i = 0; i < 30; i++) { expensive = expensive + i; }
for (int j = 0; j < 5; j++) {
    if (expensive > -1) { }
}
Sys.printInt(0);
"""
        vm, tracker = traced(body)
        reports = constant_predicates(tracker.graph,
                                      tracker.branch_outcomes,
                                      vm.program)
        assert any(r.condition_cost > 30 for r in reports)


class TestCollectionRanking:
    EXTRA = """
class WastedList {
    int[] items;
    int size;
    WastedList() { items = new int[16]; size = 0; }
    void add(int v) { items[size] = v; size = size + 1; }
}
class Plain { int v; }
"""

    def test_only_containers_ranked(self):
        body = """
WastedList list = new WastedList();
for (int i = 0; i < 10; i++) { list.add(i * 7); }
Plain p = new Plain();
p.v = 1;
Sys.printInt(p.v);
"""
        vm, tracker = traced(body, extra=self.EXTRA)
        reports = rank_collections(tracker.graph, vm.program)
        whats = {r.what for r in reports}
        assert "new WastedList" in whats
        assert "new Plain" not in whats

    def test_custom_hints(self):
        body = "Plain p = new Plain(); p.v = 1; Sys.printInt(p.v);"
        vm, tracker = traced(body, extra=self.EXTRA)
        reports = rank_collections(tracker.graph, vm.program,
                                   hints=("Plain",))
        assert {r.what for r in reports} == {"new Plain"}

    def test_top_limits(self):
        body = """
WastedList list = new WastedList();
list.add(1);
Sys.printInt(0);
"""
        vm, tracker = traced(body, extra=self.EXTRA)
        assert len(rank_collections(tracker.graph, vm.program,
                                    top=1)) <= 1


class TestReports:
    def test_cost_benefit_report_renders(self):
        extra = "class C { int v; }"
        vm, tracker = traced(
            "C c = new C(); c.v = 1 + 2; Sys.printInt(c.v);",
            extra=extra)
        reports = analyze_cost_benefit(tracker.graph, vm.program)
        text = format_cost_benefit_report(reports)
        assert "rank" in text
        assert "new C" in text

    def test_empty_report(self):
        text = format_cost_benefit_report([])
        assert "no data-structure activity" in text

    def test_bloat_metrics_format(self):
        vm, tracker = traced("Sys.printInt(1);")
        metrics = measure_bloat(tracker.graph, vm.instr_count)
        text = format_bloat_metrics("demo", metrics)
        assert "IPD=" in text and "demo" in text

    def test_method_costs_format(self):
        vm, tracker = traced("Sys.printInt(1 + 2);")
        text = format_method_costs(method_costs(tracker.graph,
                                                vm.program))
        assert "Main.main" in text

    def test_write_read_format(self):
        extra = "class C { int v; }"
        vm, tracker = traced("C c = new C(); c.v = 1; c.v = 2; "
                             "Sys.printInt(0);", extra=extra)
        text = format_write_read_report(
            write_read_imbalances(tracker.graph))
        assert "writes" in text

    def test_copy_chains_format_empty(self):
        assert "source field" in format_copy_chains([])

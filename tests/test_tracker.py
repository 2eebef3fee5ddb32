"""Tests for CostTracker — the Figure-4 rule implementation."""

import pytest

from conftest import reference_conflict_ratio, run_main
from repro.ir import instructions as ins
from repro.profiler import (CONTEXTLESS, ELM, EFFECT_LOAD,
                            EFFECT_STORE, F_ALLOC, F_HEAP_READ,
                            F_HEAP_WRITE, F_NATIVE, F_PREDICATE,
                            CostTracker, graph_to_dict,
                            parse_sample_spec)
from repro.vm import EXEC_COMPILED, EXEC_INTERP, VM
from repro.workloads import all_workloads, get_workload
from repro.workloads.stress import build_stress


def traced(body, extra=""):
    tracker = CostTracker(slots=16)
    vm = run_main(body, extra=extra, tracer=tracker)
    return vm, tracker


def nodes_of_kind(graph, flag):
    return [n for n in range(graph.num_nodes) if graph.flags[n] & flag]


class TestNodeCreation:
    def test_nodes_bounded_by_static_instructions(self):
        vm, tracker = traced(
            "int acc = 0; for (int i = 0; i < 200; i++) "
            "{ acc = acc + i * 2; } Sys.printInt(acc);")
        graph = tracker.graph
        assert graph.num_nodes < 40
        assert graph.total_frequency() > 1000

    def test_frequencies_sum_to_tracked_instances(self):
        vm, tracker = traced("int x = 1 + 2; Sys.printInt(x);")
        # Every node execution bumps exactly one frequency; calls,
        # returns and jumps create no node.
        assert tracker.graph.total_frequency() <= vm.instr_count

    def test_predicate_nodes_contextless(self):
        vm, tracker = traced("if (1 < 2) { Sys.print(\"y\"); }")
        graph = tracker.graph
        preds = nodes_of_kind(graph, F_PREDICATE)
        assert len(preds) == 1
        assert graph.node_keys[preds[0]][1] == CONTEXTLESS

    def test_native_nodes_are_consumers(self):
        vm, tracker = traced("Sys.printInt(7);")
        graph = tracker.graph
        natives = nodes_of_kind(graph, F_NATIVE)
        assert len(natives) == 1
        # The const node feeds the native.
        assert graph.preds[natives[0]]


class TestDefUseEdges:
    def test_straightline_dependences(self):
        vm, tracker = traced("int a = 2; int b = a + 3; "
                             "Sys.printInt(b);")
        graph = tracker.graph
        native = nodes_of_kind(graph, F_NATIVE)[0]
        # Backward from the native we reach the whole computation.
        reachable = graph.backward_reachable(native)
        assert len(reachable) >= 4

    def test_dependence_through_call_and_return(self):
        extra = """
class H {
    static int double2(int v) { return v + v; }
}
"""
        vm, tracker = traced(
            "int x = 21; int y = H.double2(x); Sys.printInt(y);",
            extra=extra)
        graph = tracker.graph
        native = nodes_of_kind(graph, F_NATIVE)[0]
        reachable = graph.backward_reachable(native)
        # The const 21 in main reaches the output through the call.
        const_nodes = [n for n in reachable
                       if not graph.preds[n] and n != native]
        assert const_nodes, "no root constant reached through the call"

    def test_thin_slicing_base_pointer_not_used(self):
        extra = "class Box { int v; }"
        body = """
Box box = new Box();
box.v = 5;
int got = box.v;
Sys.printInt(got);
"""
        vm, tracker = traced(body, extra=extra)
        graph = tracker.graph
        native = nodes_of_kind(graph, F_NATIVE)[0]
        reachable = graph.backward_reachable(native)
        # The allocation node must NOT be in the value slice: the load
        # box.v uses only the stored value, not the base pointer.
        allocs = nodes_of_kind(graph, F_ALLOC)
        assert allocs
        assert not (set(allocs) & reachable)

    def test_array_index_is_used(self):
        body = """
int[] a = new int[4];
a[2] = 7;
int idx = 1 + 1;
int got = a[idx];
Sys.printInt(got);
"""
        vm, tracker = traced(body)
        graph = tracker.graph
        native = nodes_of_kind(graph, F_NATIVE)[0]
        reachable = graph.backward_reachable(native)
        # The index computation (a BinOp producing idx) is part of the
        # slice ("the index used to locate the element is still
        # considered to be used").
        binop_iids = {i.iid for i in vm.program.instructions
                      if i.op == ins.OP_BINOP and i.binop == "+"}
        reachable_iids = {graph.node_keys[n][0] for n in reachable}
        assert binop_iids & reachable_iids

    def test_heap_dataflow_connects_store_to_load(self):
        extra = "class Box { int v; }"
        body = """
Box b = new Box();
b.v = 42;
Sys.printInt(b.v);
"""
        vm, tracker = traced(body, extra=extra)
        graph = tracker.graph
        loads = [n for n, e in graph.effects.items()
                 if e[0] == EFFECT_LOAD]
        stores = [n for n, e in graph.effects.items()
                  if e[0] == EFFECT_STORE]
        assert len(loads) == 1 and len(stores) == 1
        assert stores[0] in graph.preds[loads[0]]


class TestHeapEffectsAndTags:
    def test_alloc_effect_and_tag(self):
        extra = "class Box { int v; }"
        vm, tracker = traced("Box b = new Box(); b.v = 1; "
                             "Sys.printInt(b.v);", extra=extra)
        graph = tracker.graph
        allocs = graph.alloc_nodes()
        # One for Box (constructors allocate nothing else here).
        assert len(allocs) == 1
        ((alloc_iid, dctx),) = allocs.keys()
        store_keys = list(graph.field_stores())
        assert store_keys == [((alloc_iid, dctx), "v")]
        load_keys = list(graph.field_loads())
        assert load_keys == [((alloc_iid, dctx), "v")]

    def test_array_effects_use_elm(self):
        vm, tracker = traced("int[] a = new int[2]; a[0] = 1; "
                             "Sys.printInt(a[0]);")
        graph = tracker.graph
        assert any(field == ELM for (_, field) in graph.field_stores())
        assert any(field == ELM for (_, field) in graph.field_loads())

    def test_reference_edge_links_store_to_alloc(self):
        extra = "class Box { int v; }"
        vm, tracker = traced("Box b = new Box(); b.v = 1; "
                             "Sys.printInt(b.v);", extra=extra)
        graph = tracker.graph
        assert len(graph.ref_edges) >= 1
        for store, alloc in graph.ref_edges:
            assert graph.flags[store] & F_HEAP_WRITE
            assert graph.flags[alloc] & F_ALLOC

    def test_points_to_recorded_for_reference_stores(self):
        extra = """
class Inner { int v; }
class Outer { Inner inner; }
"""
        body = """
Outer o = new Outer();
o.inner = new Inner();
o.inner.v = 3;
Sys.printInt(o.inner.v);
"""
        vm, tracker = traced(body, extra=extra)
        graph = tracker.graph
        # Some alloc key points to another alloc key via "inner".
        assert any("inner" in fields
                   for fields in graph.points_to.values())

    def test_static_accesses_flagged_as_heap(self):
        extra = "class G { static int value; }"
        vm, tracker = traced("G.value = 3; Sys.printInt(G.value);",
                             extra=extra)
        graph = tracker.graph
        assert nodes_of_kind(graph, F_HEAP_WRITE)
        assert nodes_of_kind(graph, F_HEAP_READ)

    def test_static_dataflow_connected(self):
        extra = "class G { static int value; }"
        vm, tracker = traced(
            "int secret = 40 + 2; G.value = secret; "
            "Sys.printInt(G.value);", extra=extra)
        graph = tracker.graph
        native = nodes_of_kind(graph, F_NATIVE)[0]
        reachable = graph.backward_reachable(native)
        assert len(reachable) >= 5  # consts, binop, store, load, native


class TestContexts:
    CTX_EXTRA = """
class Worker {
    int go() { return 1 + 1; }
}
class Holder {
    Worker w;
    Holder() { w = new Worker(); }
    int run() { return w.go(); }
}
"""

    def test_distinct_receiver_chains_distinct_nodes(self):
        # Two Holders allocated at different sites -> the instructions
        # in Worker.go execute under different contexts... they share
        # the Worker site, so differentiate via Holder.run instead.
        body = """
Holder h1 = new Holder();
Holder h2 = new Holder();
int a = h1.run() + h2.run();
Sys.printInt(a);
"""
        # h1/h2 come from different allocation sites? No — same site
        # would merge; write them via two distinct news:
        vm, tracker = traced(body, extra=self.CTX_EXTRA)
        graph = tracker.graph
        # Instructions inside Worker.go appear under at least 1 context;
        # with 2 distinct Holder sites they split. Find go's binop.
        go_binops = [i.iid for i in vm.program.instructions
                     if i.op == ins.OP_BINOP and i.binop == "+"
                     and vm.program.method_of(i.iid).name == "go"]
        assert go_binops
        contexts = {d for (iid, d) in graph.node_keys
                    if iid == go_binops[0]}
        assert len(contexts) == 2

    def test_static_calls_keep_context(self):
        extra = """
class S {
    static int f() { return 7; }
}
"""
        vm, tracker = traced("Sys.printInt(S.f());", extra=extra)
        graph = tracker.graph
        # Everything ran under the entry context slot 0.
        assert all(d in (0, CONTEXTLESS)
                   for (_, d) in graph.node_keys)

    def test_conflict_ratio_in_range(self):
        vm, tracker = traced(
            "int a = 0; for (int i = 0; i < 10; i++) { a += i; } "
            "Sys.printInt(a);")
        assert 0.0 <= tracker.conflict_ratio() <= 1.0

    def test_cr_tracking_optional(self):
        tracker = CostTracker(slots=8, track_cr=False)
        run_main("int a = 1 + 2; Sys.printInt(a);", tracer=tracker)
        assert tracker.conflict_ratio() == 0.0

    def test_cr_cache_picks_up_a_second_run(self):
        """A CR taken between two runs sees the second run's new nodes
        and contexts: it is the reference regrouping of the grown
        state."""
        spec = get_workload("eclipse_like")
        program = spec.build("unopt", spec.small_scale)
        tracker = CostTracker(slots=4)
        VM(program, tracer=tracker,
           sampling=parse_sample_spec(REOPENING_SPEC)).run()
        first_nodes = tracker.graph.num_nodes
        first = tracker.conflict_ratio()
        tracker.begin_run()
        VM(program, tracer=tracker).run()
        assert tracker.graph.num_nodes > first_nodes
        state = tracker.state()
        assert state is tracker.state()
        second = tracker.conflict_ratio()
        assert second == reference_conflict_ratio(tracker.graph, state)
        assert second != first


class TestBranchOutcomes:
    def test_outcomes_recorded(self):
        vm, tracker = traced("""
for (int i = 0; i < 10; i++) {
    if (i < 100) { }
}
""")
        # The inner if is always true (10 times); the loop condition is
        # mixed (10 true, 1 false).
        outcomes = tracker.branch_outcomes.values()
        assert [10, 0] in [list(o) for o in outcomes]
        assert [10, 1] in [list(o) for o in outcomes]


class TestPhaseFiltering:
    BODY = """
int warm = 0;
for (int i = 0; i < 50; i++) { warm += i; }
Sys.phase("steady");
int acc = 0;
for (int i = 0; i < 50; i++) { acc += i; }
Sys.printInt(acc);
Sys.phase("end");
"""

    def test_phase_restricted_tracking_smaller(self):
        full = CostTracker(slots=16)
        run_main(self.BODY, tracer=full)
        steady = CostTracker(slots=16, phases={"steady"})
        run_main(self.BODY, tracer=steady)
        assert steady.graph.total_frequency() < \
            full.graph.total_frequency()
        assert steady.graph.num_nodes < full.graph.num_nodes

    def test_disabled_until_named_phase(self):
        tracker = CostTracker(slots=16, phases={"steady"})
        assert not tracker.enabled
        run_main(self.BODY, tracer=tracker)
        # Tracker got re-disabled at the "end" phase.
        assert not tracker.enabled
        assert tracker.graph.num_nodes > 0

    def test_main_phase_tracked_when_named(self):
        tracker = CostTracker(slots=16, phases={"main"})
        assert tracker.enabled
        run_main(self.BODY, tracer=tracker)
        assert tracker.graph.num_nodes > 0

    def test_objects_allocated_while_disabled_get_fallback_tags(self):
        extra = "class Box { int v; }"
        body = """
Box b = new Box();
Sys.phase("steady");
b.v = 4;
Sys.printInt(b.v);
"""
        tracker = CostTracker(slots=16, phases={"steady"})
        vm = run_main(body, extra=extra, tracer=tracker)
        graph = tracker.graph
        # The store was tracked; its alloc tag falls back to
        # (site, CONTEXTLESS) since the allocation went untracked.
        stores = list(graph.field_stores())
        assert len(stores) == 1
        (alloc_key, field), = stores
        assert field == "v"
        assert alloc_key[1] == CONTEXTLESS


class TestOutputUnchanged:
    def test_tracking_preserves_output_and_count(self):
        body = """
int acc = 0;
for (int i = 0; i < 30; i++) { acc = (acc * 7 + i) % 997; }
Sys.printInt(acc);
"""
        plain = run_main(body)
        vm, tracker = traced(body)
        assert plain.stdout() == vm.stdout()
        assert plain.instr_count == vm.instr_count


class ReferenceNodeTracker(CostTracker):
    """CostTracker with the node lookup it had before node rows: every
    context-annotated instruction goes through
    :meth:`DependenceGraph.node` by its ``(iid, slot)`` key."""

    def _node(self, iid, dctx, g, flag=0):
        node_id = self.graph.node(iid, dctx, flag)
        if self.track_cr:
            gs = self._node_gs
            if len(gs) <= node_id:
                gs.extend([None] * (node_id + 1 - len(gs)))
            if gs[node_id] is None:
                gs[node_id] = {g}
            else:
                gs[node_id].add(g)
        return node_id


DIFFERENTIAL_WORKLOADS = [spec.name for spec in all_workloads()] + ["stress"]

#: A sampling schedule that closes and reopens the tracking window
#: many times on a test-sized run, so window opens rebuild ``dctx``.
REOPENING_SPEC = "1024:8192:1024:1.0"


def _workload_program(name):
    if name == "stress":
        return build_stress(stages=24, chain=8, rounds=3)
    spec = get_workload(name)
    return spec.build("unopt", spec.small_scale)


def _shard(tracker_cls, program, tier, sampling=None, **params):
    """The serialized shard of one tracked run, and its VM."""
    tracker = tracker_cls(**params)
    vm = VM(program, tracer=tracker, exec_mode=tier, sampling=sampling)
    vm.run()
    assert vm.exec_tier == tier
    return graph_to_dict(tracker.graph, tracker=tracker), vm


def _assert_rows_match_graph(tracker):
    """Every row entry names the node the graph has for its key, and
    every context-annotated node has its row entry."""
    graph = tracker.graph
    indexed = {(iid, slot): node_id
               for iid, row in tracker._rows.items()
               for slot, node_id in enumerate(row) if node_id >= 0}
    assert indexed == {key: node_id for key, node_id in graph._ids.items()
                       if key[1] != CONTEXTLESS}


class TestNodeRows:
    """The dense ``(iid, slot)`` node rows change how a node is found,
    never which node it is: shards (node numbering, freq, flags, edges,
    ``node_gs``) are identical to the reference lookup's."""

    @pytest.mark.parametrize("tier", [EXEC_INTERP, EXEC_COMPILED])
    @pytest.mark.parametrize("name", DIFFERENTIAL_WORKLOADS)
    def test_shards_identical_to_reference_lookup(self, name, tier):
        program = _workload_program(name)
        for slots in (8, 16):
            for track_cr in (True, False):
                params = {"slots": slots, "track_cr": track_cr}
                expected, _ = _shard(ReferenceNodeTracker, program, tier,
                                     **params)
                actual, vm = _shard(CostTracker, program, tier, **params)
                assert actual == expected, (slots, track_cr)
                _assert_rows_match_graph(vm.tracer)

    def test_sampled_shard_identical_to_reference_lookup(self):
        program = _workload_program("bloat_like")
        schedule = parse_sample_spec(REOPENING_SPEC)
        expected, _ = _shard(ReferenceNodeTracker, program, EXEC_COMPILED,
                             sampling=schedule, slots=16)
        actual, vm = _shard(CostTracker, program, EXEC_COMPILED,
                            sampling=schedule, slots=16)
        assert vm.sampling_stats()["toggles"] > 2
        assert actual == expected
        _assert_rows_match_graph(vm.tracer)

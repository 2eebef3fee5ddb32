"""Equivalence suite: batched slicing engine vs per-node references.

The batched engine (``repro.analyses.batch``) must be bit-identical to
the per-node reference functions on every workload — these tests sweep
every registered workload at s=8 and s=16 and compare every node's
abstract cost (Definition 4), HRAC (Definition 5), and HRAB
(Definition 6, both benefit modes), plus the field RAC/RAB aggregates,
the per-site cost-benefit ratios, consumer reachability, and the
method-local return costs.  The sweep necessarily crosses the special
paths: stop-flagged query starts (heap reads/writes are themselves
valid slice criteria) and the infinite-benefit native bit.
"""

import pytest

from conftest import (reference_analyze_caches, reference_field_rabs,
                      reference_field_racs, run_main)
from repro.analyses import (INFINITE, abstract_cost, analyze_caches,
                            all_object_cost_benefits, hrab, hrac,
                            object_cost_benefit)
from repro.analyses.batch import (BatchSliceEngine, MethodLocalCostIndex,
                                  engine_for)
from repro.analyses.methodcost import _iid_to_method, _method_local_cost
from repro.profiler import (CostTracker, F_HEAP_READ, F_HEAP_WRITE,
                            F_NATIVE, F_PREDICATE)
from repro.profiler.graph import DependenceGraph
from repro.profiler.parallel import fold_graph, merge_graphs
from repro.vm import VM
from repro.workloads import all_workloads, get_workload
from repro.workloads.stress import build_stress


def _profiled(spec, slots):
    program = spec.build("unopt", spec.small_scale)
    tracker = CostTracker(slots=slots)
    VM(program, tracer=tracker).run()
    return program, tracker.graph


def _ref_consumer_reachability(graph):
    """Per-node forward DFS oracle for natives/predicates."""
    n = graph.num_nodes
    flags = graph.flags
    succs = graph.succs
    native = bytearray(n)
    pred = bytearray(n)
    for start in range(n):
        stack = [start]
        seen = {start}
        while stack:
            node = stack.pop()
            if flags[node] & F_NATIVE:
                native[start] = 1
            if flags[node] & F_PREDICATE:
                pred[start] = 1
            if native[start] and pred[start]:
                break
            for succ in succs[node]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
    return native, pred


_CASES = [(spec.name, slots)
          for spec in all_workloads() for slots in (8, 16)]


@pytest.mark.parametrize("name,slots", _CASES)
def test_engine_matches_references_on_workload(name, slots):
    spec = next(s for s in all_workloads() if s.name == name)
    program, graph = _profiled(spec, slots)
    engine = BatchSliceEngine(graph)
    n = graph.num_nodes

    assert engine.abstract_costs() == \
        [abstract_cost(graph, v) for v in range(n)]
    for v in range(n):
        assert engine.hrac(v) == hrac(graph, v)
        assert engine.hrab(v, "infinite") == hrab(graph, v, "infinite")
        assert engine.hrab(v, "count") == hrab(graph, v, "count")

    assert engine.field_racs() == reference_field_racs(graph)
    assert engine.field_rabs("infinite") == \
        reference_field_rabs(graph, "infinite")
    assert engine.field_rabs("count") == \
        reference_field_rabs(graph, "count")


@pytest.mark.parametrize("name", [spec.name for spec in all_workloads()])
def test_site_ratios_match_reference_aggregation(name):
    """n-RAC/n-RAB per site computed through the engine equal the same
    aggregation over per-node reference RACs/RABs."""
    spec = next(s for s in all_workloads() if s.name == name)
    program, graph = _profiled(spec, 8)
    racs = reference_field_racs(graph)
    rabs = reference_field_rabs(graph)
    expected = [object_cost_benefit(graph, key, racs=racs, rabs=rabs)
                for key in graph.alloc_nodes()]
    actual = all_object_cost_benefits(graph)
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.alloc_key == want.alloc_key
        assert got.n_rac == want.n_rac
        assert got.n_rab == want.n_rab


@pytest.mark.parametrize("name", [spec.name for spec in all_workloads()])
def test_cache_reports_match_reference(name):
    """``analyze_caches`` (one engine, a HRAC lookup per store) equals
    the per-node version (one HRAC BFS per store), field by field."""
    spec = next(s for s in all_workloads() if s.name == name)
    program, graph = _profiled(spec, 8)
    assert analyze_caches(graph) == reference_analyze_caches(graph)


@pytest.mark.parametrize("name", [spec.name for spec in all_workloads()])
def test_consumer_reachability_matches_oracle(name):
    spec = next(s for s in all_workloads() if s.name == name)
    program, graph = _profiled(spec, 8)
    engine = BatchSliceEngine(graph)
    assert tuple(engine.consumer_reachability()) == \
        tuple(_ref_consumer_reachability(graph))


@pytest.mark.parametrize("name", [spec.name for spec in all_workloads()])
def test_method_local_costs_match_reference(name):
    spec = next(s for s in all_workloads() if s.name == name)
    program, graph = _profiled(spec, 8)
    mapping = _iid_to_method(program)
    index = MethodLocalCostIndex(graph, mapping)
    methods = sorted(set(mapping.values()))
    keys = graph.node_keys
    for v in range(graph.num_nodes):
        # The node's own method plus two fixed foreign ones covers the
        # same-method, foreign-method, and masked-start branches.
        own = mapping.get(keys[v][0])
        probes = {own, methods[v % len(methods)],
                  methods[(v * 7 + 3) % len(methods)]}
        for method in probes:
            if method is None:
                continue
            assert index.cost(v, method) == \
                _method_local_cost(graph, v, method, mapping), (v, method)


def test_sweep_covers_stop_flag_and_infinite_paths():
    """The workload sweep exercises masked starts and infinite HRABs —
    otherwise the per-node loops above prove less than they claim."""
    masked_hrac_starts = 0
    masked_hrab_starts = 0
    infinite_rabs = 0
    for spec in all_workloads():
        program, graph = _profiled(spec, 8)
        flags = graph.flags
        masked_hrac_starts += sum(1 for f in flags if f & F_HEAP_READ)
        masked_hrab_starts += sum(1 for f in flags if f & F_HEAP_WRITE)
        engine = BatchSliceEngine(graph)
        infinite_rabs += sum(1 for value in engine.field_rabs().values()
                             if value == INFINITE)
    assert masked_hrac_starts > 0
    assert masked_hrab_starts > 0
    assert infinite_rabs > 0


class TestEngineCache:
    def _graph(self):
        tracker = CostTracker(slots=8)
        run_main("""
        int[] xs = new int[4];
        xs[0] = 7;
        int y = xs[0] + 1;
        Sys.printInt(y);
        """, tracer=tracker)
        return tracker.graph

    def test_engine_for_reuses_until_graph_moves(self):
        graph = self._graph()
        first = engine_for(graph)
        assert engine_for(graph) is first

    def test_engine_for_rebuilds_on_new_nodes(self):
        graph = self._graph()
        first = engine_for(graph)
        a = graph.node(900, 0)
        b = graph.node(901, 0)
        graph.add_edge(a, b)
        second = engine_for(graph)
        assert second is not first
        assert second.abstract_cost(b) == abstract_cost(graph, b)

    def test_engine_for_rebuilds_on_freq_bump(self):
        """Frequency changes don't add nodes or edges, but stale
        weights would return stale costs — the checksum catches it and
        the engine re-weighs its indexes without re-condensing them."""
        graph = self._graph()
        first = engine_for(graph)
        first.abstract_costs()
        first.hrac(0)
        first.hrab(0)
        indexes = [first.cost_index(), first.hrac_index(),
                   first.hrab_index()]
        comps = [index.comp for index in indexes]
        graph.node(graph.node_keys[0][0], graph.node_keys[0][1])
        second = engine_for(graph)
        assert second is first
        assert [second.cost_index(), second.hrac_index(),
                second.hrab_index()] == indexes
        for index, comp in zip(indexes, comps):
            assert index.comp is comp
        n = graph.num_nodes
        assert second.abstract_costs() == \
            [abstract_cost(graph, v) for v in range(n)]
        assert [second.hrac(v) for v in range(n)] == \
            [hrac(graph, v) for v in range(n)]
        assert [second.hrab(v) for v in range(n)] == \
            [hrab(graph, v) for v in range(n)]

    def test_engine_for_rebuilds_on_flag_change(self):
        graph = self._graph()
        first = engine_for(graph)
        iid, dctx = graph.node_keys[0]
        graph.node(iid, dctx, F_HEAP_READ)
        second = engine_for(graph)
        assert second is not first
        assert second.hrac(0) == hrac(graph, 0)


def _tracked_graph(program, slots=8):
    tracker = CostTracker(slots=slots)
    VM(program, tracer=tracker).run()
    return tracker.graph


def _fold_pair(name):
    """Two shards of one program whose second adds to the first.

    Suite workloads pair a half-scale run with a small-scale run; the
    stress pair differs in seed and round count.
    """
    if name == "stress":
        return (_tracked_graph(build_stress(4, 6, rounds=1, seed=0)),
                _tracked_graph(build_stress(4, 6, rounds=3, seed=1)))
    spec = get_workload(name)
    half = {key: max(1, value // 2)
            for key, value in spec.small_scale.items()}
    return (_tracked_graph(spec.build("unopt", half)),
            _tracked_graph(spec.build("unopt", spec.small_scale)))


def _shape(graph):
    return graph.num_nodes, graph.num_edges, sum(graph.flags)


#: antlr/bloat/pmd and the stress pair grow on the second fold; derby
#: keeps its shape from the first fold on.
@pytest.mark.parametrize("name", ["antlr_like", "bloat_like", "pmd_like",
                                  "derby_like", "stress"])
def test_cached_engine_matches_references_across_folds(name):
    """Fold A, B, A, B and query the cached engine after every fold:
    shape-changing folds rebuild it, weight-only folds re-weigh it,
    and both must stay bit-identical to the per-node references."""
    a, b = _fold_pair(name)
    merged = merge_graphs([a])
    engine = None
    for step, shard in enumerate((None, b, a, b)):
        before = _shape(merged)
        if shard is not None:
            fold_graph(merged, shard)
        previous = engine
        engine = engine_for(merged)
        if step >= 2:
            assert _shape(merged) == before
        if previous is not None:
            assert (engine is previous) == (_shape(merged) == before)
        n = merged.num_nodes
        assert engine.abstract_costs() == \
            [abstract_cost(merged, v) for v in range(n)], step
        for v in range(n):
            assert engine.hrac(v) == hrac(merged, v), (step, v)
            assert engine.hrab(v, "infinite") == \
                hrab(merged, v, "infinite"), (step, v)
            assert engine.hrab(v, "count") == \
                hrab(merged, v, "count"), (step, v)
        assert engine.field_racs() == reference_field_racs(merged), step
        assert engine.field_rabs() == reference_field_rabs(merged), step
        assert engine.field_rabs("count") == \
            reference_field_rabs(merged, "count"), step
        assert tuple(engine.consumer_reachability()) == \
            tuple(_ref_consumer_reachability(merged)), step


class TestSyntheticShapes:
    def test_scc_cycle_not_double_counted(self):
        graph = DependenceGraph()
        a = graph.node(0, 0)
        b = graph.node(1, 0)
        c = graph.node(2, 0)
        graph.add_edge(a, b)
        graph.add_edge(b, a)       # 2-cycle
        graph.add_edge(b, c)
        for _ in range(4):
            graph.node(0, 0)       # freq(a) = 5
        engine = BatchSliceEngine(graph)
        for v in (a, b, c):
            assert engine.abstract_cost(v) == abstract_cost(graph, v)

    def test_masked_start_expands_despite_own_stop_flag(self):
        """A heap-read *criterion* still slices past itself — the stop
        flag only halts expansion at interior nodes."""
        graph = DependenceGraph()
        producer = graph.node(0, 0)
        load = graph.node(1, 0, F_HEAP_READ)
        graph.node(1, 0)           # freq(load) = 2
        graph.add_edge(producer, load)
        engine = BatchSliceEngine(graph)
        assert engine.hrac(load) == hrac(graph, load) == 3

    def test_infinite_benefit_behind_stop_flag_boundary(self):
        """A load whose only native consumer sits beyond a heap write
        must NOT be infinite; one reached directly must be."""
        graph = DependenceGraph()
        load = graph.node(1, 0, F_HEAP_READ)
        store = graph.node(2, 0, F_HEAP_WRITE)
        native = graph.node(3, -1, F_NATIVE)
        graph.add_edge(load, store)
        graph.add_edge(store, native)
        direct = graph.node(4, 0, F_HEAP_READ)
        graph.add_edge(direct, native)
        engine = BatchSliceEngine(graph)
        assert engine.hrab(load) == hrab(graph, load) == 1
        assert engine.hrab(direct) == hrab(graph, direct) == INFINITE

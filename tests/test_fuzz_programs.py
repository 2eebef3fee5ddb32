"""Hypothesis-generated well-typed MiniJ programs exercised through the
whole pipeline: parse → typecheck → codegen → run (± tracking) →
format → reparse.

Two generators emit structured programs guaranteed to terminate
(bounded loop counters, bounded recursion), to raise no runtime error
(no division by a variable; indices reduced into range; null-guarded
reads) and to keep values small: every stored value is reduced modulo
``BOUND``.  MiniJ ints are unbounded, so without that a variable
multiplied by itself in nested loops grows doubly exponentially and
one program in a few thousand runs for minutes.

* :func:`program_source` -- ``static main`` over int locals with nested
  if/while/for control flow;
* :func:`heap_program_source` -- the same control flow over a heap:
  a class with int, reference and ``int[]`` fields, a base class with
  two or three subclasses overriding one method (virtual dispatch
  through an array of them), a static field, and recursion both static
  and virtual with a bounded depth.  It drives every Figure-4 rule --
  allocations, field and array loads and stores, reference edges,
  points-to, receiver contexts, calls and returns -- so the compiled
  tier's tracked template is checked against the interpreter on
  programs no one wrote by hand.  The same programs' shard documents
  check that :func:`~repro.profiler.serialize.fold_document` merges
  exactly as :func:`~repro.profiler.parallel.merge_graphs` does, and
  that a shard's v2-rows and v3 renderings fold exactly as its v4
  packed columns, that a fold reusing the graph's shape memo is exact,
  that the one-pass conflict ratio is the reference regrouping's, that
  the graph's ``memory_bytes`` does not depend on the fold grouping,
  that the batched cost-benefit, dead-value and cache clients equal
  their per-node references on a fresh fold and after a re-weigh, and
  that a daemon pushed the shards, repeats included, serves the batch
  report.
"""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (as_v2_rows, as_v3_columns, reference_analyze_caches,
                      reference_conflict_ratio, reference_field_rabs,
                      reference_field_racs, reference_measure_bloat)
from repro.analyses import (DEFAULT_TREE_DEPTH, all_object_cost_benefits,
                            analyze_caches, measure_bloat,
                            object_cost_benefit)
from repro.analyses.batch import engine_for
from repro.lang import compile_source, format_source
from repro.observability import bloat_report_data
from repro.profiler import (CostTracker, DependenceGraph, TrackerState,
                            canonical_form, fold_document, graph_to_dict,
                            merge_graphs)
from repro.service import AnalysisDaemon, TenantRegistry
from repro.vm import VM

N_VARS = 3

#: Stored values are reduced modulo this (see the module docstring).
BOUND = 10007


@st.composite
def statements(draw, depth):
    """A list of statements over variables v0..v{N_VARS-1}."""
    count = draw(st.integers(1, 3 if depth else 5))
    result = []
    for _ in range(count):
        result.append(draw(statement(depth)))
    return result


@st.composite
def int_expr(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        if draw(st.booleans()):
            return str(draw(st.integers(-30, 30)))
        return f"v{draw(st.integers(0, N_VARS - 1))}"
    op = draw(st.sampled_from(["+", "-", "*"]))
    return (f"({draw(int_expr(depth + 1))} {op} "
            f"{draw(int_expr(depth + 1))})")


@st.composite
def bool_expr(draw):
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    return f"{draw(int_expr(1))} {op} {draw(int_expr(1))}"


@st.composite
def statement(draw, depth):
    kind = draw(st.sampled_from(
        ["assign", "assign", "assign", "if", "loop"]
        if depth < 2 else ["assign"]))
    if kind == "assign":
        target = draw(st.integers(0, N_VARS - 1))
        return f"v{target} = ({draw(int_expr())}) % {BOUND};"
    if kind == "if":
        then_body = "\n".join(draw(statements(depth + 1)))
        if draw(st.booleans()):
            else_body = "\n".join(draw(statements(depth + 1)))
            return (f"if ({draw(bool_expr())}) {{ {then_body} }} "
                    f"else {{ {else_body} }}")
        return f"if ({draw(bool_expr())}) {{ {then_body} }}"
    # Bounded counting loop: always terminates.
    bound = draw(st.integers(1, 6))
    body = "\n".join(draw(statements(depth + 1)))
    counter = f"k{draw(st.integers(0, 9999))}"
    return (f"for (int {counter} = 0; {counter} < {bound}; "
            f"{counter}++) {{ {body} }}")


@st.composite
def program_source(draw):
    decls = "\n".join(f"int v{i} = {draw(st.integers(-10, 10))};"
                      for i in range(N_VARS))
    body = "\n".join(draw(statements(0)))
    prints = "\n".join(
        f'Sys.printInt(v{i}); Sys.print(" ");'
        for i in range(N_VARS))
    return (f"class Main {{ static void main() {{\n{decls}\n{body}\n"
            f"{prints}\n}} }}")


def run(source, tracer=None):
    vm = VM(compile_source(source), tracer=tracer,
            max_steps=5_000_000)
    vm.run()
    return vm


@given(program_source())
@settings(max_examples=25, deadline=None)
def test_pipeline_consistency(source):
    """Output is deterministic, unaffected by tracking, and preserved
    by the formatter round trip."""
    plain = run(source)
    tracker = CostTracker(slots=8)
    tracked = run(source, tracer=tracker)
    assert plain.stdout() == tracked.stdout()
    assert plain.instr_count == tracked.instr_count
    formatted = format_source(source)
    assert run(formatted).stdout() == plain.stdout()
    # Graph sanity on arbitrary control flow.
    graph = tracker.graph
    assert graph.total_frequency() <= tracked.instr_count
    assert all(f >= 1 for f in graph.freq)


@given(program_source())
@settings(max_examples=10, deadline=None)
def test_dead_value_metrics_bounded(source):
    from repro.analyses import measure_bloat
    tracker = CostTracker(slots=8)
    vm = run(source, tracer=tracker)
    metrics = measure_bloat(tracker.graph, vm.instr_count)
    assert 0 <= metrics.ipd <= 1
    assert 0 <= metrics.ipp <= 1
    assert metrics.ipd + metrics.ipp <= 1 + 1e-9


# -- heap-shaped programs -------------------------------------------------------

#: Shape subclasses (beyond the base class) a heap program may declare.
MAX_SUBCLASSES = 3


def _index(draw, size: int) -> str:
    """An int expression that always lands in ``[0, size)``."""
    return f"(((v{draw(st.integers(0, N_VARS - 1))}) % {size} + {size}) % {size})"


@st.composite
def heap_int_expr(draw, shapes: int, depth=0):
    if depth >= 2 or draw(st.booleans()):
        kind = draw(st.sampled_from(
            ["lit", "var", "var", "arr", "field", "data", "len", "static",
             "call", "rec", "sum"]))
        if kind == "lit":
            return str(draw(st.integers(-30, 30)))
        if kind == "var":
            return f"v{draw(st.integers(0, N_VARS - 1))}"
        if kind == "arr":
            return f"arr[{_index(draw, 4)}]"
        if kind == "field":
            return "head.val"
        if kind == "data":
            return f"head.data[{_index(draw, 3)}]"
        if kind == "len":
            return "arr.length"
        if kind == "static":
            return "Main.total"
        if kind == "call":
            arg = draw(heap_int_expr(shapes, depth + 1))
            return f"shapes[{_index(draw, shapes)}].area({arg})"
        if kind == "rec":
            arg = draw(heap_int_expr(shapes, depth + 1))
            return f"Main.rec({draw(st.integers(0, 4))}, {arg})"
        return f"head.sum({draw(st.integers(0, 3))})"
    op = draw(st.sampled_from(["+", "-", "*"]))
    return (f"({draw(heap_int_expr(shapes, depth + 1))} {op} "
            f"{draw(heap_int_expr(shapes, depth + 1))})")


@st.composite
def heap_statement(draw, shapes: int, depth: int):
    kind = draw(st.sampled_from(
        ["assign", "assign", "arr", "field", "data", "link", "read",
         "static", "shape"] + (["if", "loop"] if depth < 2 else [])))
    expr = heap_int_expr(shapes).map(lambda e: f"({e}) % {BOUND}")
    if kind == "assign":
        return f"v{draw(st.integers(0, N_VARS - 1))} = {draw(expr)};"
    if kind == "arr":
        return f"arr[{_index(draw, 4)}] = {draw(expr)};"
    if kind == "field":
        return f"head.val = {draw(expr)};"
    if kind == "data":
        return f"head.data[{_index(draw, 3)}] = {draw(expr)};"
    if kind == "link":
        return draw(st.sampled_from([
            "head.next = head;",
            f"head.next = new Node({draw(expr)});",
            f"head = new Node({draw(expr)});",
            "if (head.next != null) { head = head.next; }"]))
    if kind == "read":
        return (f"if (head.next != null) {{ "
                f"v{draw(st.integers(0, N_VARS - 1))} = head.next.val; }}")
    if kind == "static":
        return (f"Main.total = (Main.total + "
                f"{draw(heap_int_expr(shapes))}) % {BOUND};")
    if kind == "shape":
        sub = draw(st.integers(0, shapes - 1))
        cls = "Shape" if sub == 0 else f"Sub{sub}"
        return f"shapes[{_index(draw, shapes)}] = new {cls}({draw(expr)});"
    cond = (f"{draw(heap_int_expr(shapes, 1))} "
            f"{draw(st.sampled_from(['<', '<=', '>', '>=', '==', '!=']))} "
            f"{draw(heap_int_expr(shapes, 1))}")
    body = "\n".join(draw(st.lists(heap_statement(shapes, depth + 1),
                                   min_size=1, max_size=3)))
    if kind == "if":
        return f"if ({cond}) {{ {body} }}"
    counter = f"k{draw(st.integers(0, 9999))}"
    return (f"for (int {counter} = 0; {counter} < "
            f"{draw(st.integers(1, 5))}; {counter}++) {{ {body} }}")


@st.composite
def area_body(draw):
    """An ``area`` override's result over the receiver's ``k``, its own
    ``extra`` field and the argument ``x``."""
    a, b = draw(st.integers(-5, 5)), draw(st.integers(-9, 9))
    return draw(st.sampled_from([
        f"k * x + {b}", f"x - k * {a}", f"extra + x * {a}",
        f"(k + extra) * {a} - x"]))


@st.composite
def heap_program_source(draw):
    shapes = draw(st.integers(2, MAX_SUBCLASSES + 1))
    subclasses = "\n".join(
        f"class Sub{i} extends Shape {{ int extra; "
        f"Sub{i}(int k0) {{ super(k0); extra = k0 + {i}; }} "
        f"int area(int x) {{ return {draw(area_body())}; }} }}"
        for i in range(1, shapes))
    decls = "\n".join(f"int v{i} = {draw(st.integers(-10, 10))};"
                      for i in range(N_VARS))
    fill = "\n".join(f"shapes[{i}] = new {'Shape' if i == 0 else f'Sub{i}'}"
                     f"({draw(st.integers(-5, 5))});" for i in range(shapes))
    body = "\n".join(draw(st.lists(heap_statement(shapes, 0),
                                   min_size=1, max_size=6)))
    prints = "\n".join(
        f'Sys.printInt({value}); Sys.print(" ");'
        for value in [f"v{i}" for i in range(N_VARS)]
        + ["Main.total", "head.val", "head.sum(3)", "arr[0] + arr[3]"])
    return f"""
class Node {{
    int val;
    Node next;
    int[] data;
    Node(int v) {{ val = v; data = new int[3]; data[1] = v; }}
    int sum(int depth) {{
        if (depth <= 0 || next == null) {{ return val; }}
        return val + next.sum(depth - 1);
    }}
}}
class Shape {{
    int k;
    Shape(int k0) {{ k = k0; }}
    int area(int x) {{ return k + x; }}
}}
{subclasses}
class Main {{
    static int total;
    static int rec(int n, int acc) {{
        if (n <= 0) {{ return acc; }}
        return Main.rec(n - 1, acc * {draw(st.integers(-3, 3))} + n);
    }}
    static void main() {{
        {decls}
        int[] arr = new int[4];
        Node head = new Node(v0);
        Shape[] shapes = new Shape[{shapes}];
        {fill}
        {body}
        {prints}
    }}
}}
"""


#: Tracker configurations the heap property draws from.
_TRACKER_PARAMS = [{"slots": 8}, {"slots": 16},
                   {"slots": 8, "track_cr": False},
                   {"slots": 16, "track_control": True}]


def _tracked(source, exec_mode, params):
    vm = VM(compile_source(source), tracer=CostTracker(**params),
            exec_mode=exec_mode, max_steps=5_000_000)
    vm.run()
    return vm


@given(heap_program_source(), st.sampled_from(_TRACKER_PARAMS))
@settings(max_examples=40, deadline=None)
def test_compiled_tracked_equals_interpreted(source, params):
    """The compiled tier's tracked template builds exactly the profile
    the interpreter's tracker hooks build."""
    interp = _tracked(source, "interp", params)
    compiled = _tracked(source, "compiled", params)
    assert compiled.exec_tier == "compiled"
    assert compiled.stdout() == interp.stdout()
    assert compiled.instr_count == interp.instr_count
    assert canonical_form(compiled.tracer.graph, compiled.tracer.state()) \
        == canonical_form(interp.tracer.graph, interp.tracer.state())


def _shard(source, params):
    """A tracked run of ``source``: its in-memory graph and state, and
    the shard document a worker would ship."""
    tracker = _tracked(source, "compiled", params).tracer
    return (tracker.graph, tracker.state(),
            graph_to_dict(tracker.graph, tracker=tracker))


def _fold_all(docs, slots):
    graph, state = DependenceGraph(slots=slots), TrackerState()
    for doc in docs:
        fold_document(graph, state, doc)
    return graph, state


@given(st.lists(heap_program_source(), min_size=1, max_size=3),
       st.sampled_from(_TRACKER_PARAMS), st.data())
@settings(max_examples=15, deadline=None)
def test_document_fold_equals_merge_over_any_grouping(sources, params,
                                                      data):
    """Folding shard documents in job order, over any contiguous
    grouping, is ``merge_graphs`` over the runs' in-memory graphs:
    node numbering included.  Distinct programs share iids with
    different shapes, and the repeated first shard folds into nodes
    that already exist."""
    shards = [_shard(source, params) for source in sources]
    shards.append(shards[0])
    slots = params["slots"]
    oracle_graph, oracle_state = merge_graphs(
        [graph for graph, _, _ in shards],
        [state for _, state, _ in shards])
    docs = [doc for _, _, doc in shards]
    for doc in docs:            # into an empty graph: a round trip
        graph, state = _fold_all([doc], slots)
        assert graph_to_dict(graph, tracker=state) == doc
    cuts = sorted(data.draw(st.sets(st.integers(1, len(docs) - 1))))
    bounds = list(zip([0] + cuts, cuts + [len(docs)]))
    grouped = [graph_to_dict(graph, tracker=state) for graph, state
               in (_fold_all(docs[start:end], slots)
                   for start, end in bounds)]
    graph, state = _fold_all(grouped, slots)
    assert graph.node_keys == oracle_graph.node_keys
    assert canonical_form(graph, state) == \
        canonical_form(oracle_graph, oracle_state)


def _fold_grouped(docs, bounds, slots, render):
    """Fold each group of ``docs`` into its own graph, re-encode the
    groups, and fold those: every document read through ``render``."""
    grouped = [graph_to_dict(graph, tracker=state) for graph, state
               in (_fold_all(map(render, docs[start:end]), slots)
                   for start, end in bounds)]
    return _fold_all(map(render, grouped), slots)


@given(st.lists(heap_program_source(), min_size=1, max_size=3),
       st.sampled_from(_TRACKER_PARAMS), st.data())
@settings(max_examples=15, deadline=None)
def test_v2_rows_fold_equals_v3_over_any_grouping(sources, params, data):
    """Columns and v2 rows reach one fold: folding any contiguous
    grouping of shard documents as written (v4) and as their v2-rows
    renderings builds the same graph, node numbering included, and the
    same tracker state."""
    docs = [_shard(source, params)[2] for source in sources]
    docs.append(docs[0])
    cuts = sorted(data.draw(st.sets(st.integers(1, len(docs) - 1))))
    bounds = list(zip([0] + cuts, cuts + [len(docs)]))
    slots = params["slots"]
    graph, state = _fold_grouped(docs, bounds, slots, lambda doc: doc)
    rows_graph, rows_state = _fold_grouped(docs, bounds, slots,
                                           as_v2_rows)
    assert rows_graph.node_keys == graph.node_keys
    assert canonical_form(rows_graph, rows_state) == \
        canonical_form(graph, state)


@given(st.lists(heap_program_source(), min_size=1, max_size=3),
       st.sampled_from(_TRACKER_PARAMS), st.data())
@settings(max_examples=15, deadline=None)
def test_v4_fold_equals_v3_over_any_grouping(sources, params, data):
    """v4 packed columns and v3 JSON columns reach one fold: folding any
    contiguous grouping of shard documents as written (v4) and as their
    v3 renderings builds the same graph, node numbering included, and
    the same tracker state."""
    docs = [_shard(source, params)[2] for source in sources]
    docs.append(docs[0])
    cuts = sorted(data.draw(st.sets(st.integers(1, len(docs) - 1))))
    bounds = list(zip([0] + cuts, cuts + [len(docs)]))
    slots = params["slots"]
    graph, state = _fold_grouped(docs, bounds, slots, lambda doc: doc)
    flat_graph, flat_state = _fold_grouped(docs, bounds, slots,
                                           as_v3_columns)
    assert flat_graph.node_keys == graph.node_keys
    assert canonical_form(flat_graph, flat_state) == \
        canonical_form(graph, state)


#: A shard document as written (v4) and in the earlier layouts.
_RENDERINGS = {"v4": lambda doc: doc, "v3": as_v3_columns,
               "v2rows": as_v2_rows}

#: ``(shard, rendering)`` fold steps over two programs' shards: repeats
#: of the memoised shape, its v3/v2 renderings (which take the whole
#: path), a different shape folded as v3 (which leaves the memo in
#: place, so the next repeat must re-overwrite the effects it
#: changed), and a different shape folded as v4, which replaces it.
_MEMO_STEPS = [(0, "v4"), (0, "v4"), (0, "v3"), (1, "v3"), (0, "v4"),
               (1, "v4"), (0, "v2rows"), (1, "v4"), (1, "v4")]


@given(st.lists(heap_program_source(), min_size=2, max_size=2,
                unique=True),
       st.sampled_from(_TRACKER_PARAMS))
@settings(max_examples=10, deadline=None)
def test_shape_memo_fold_equals_merge(sources, params):
    """A fold that reuses the graph's shape memo is exact: after every
    step of :data:`_MEMO_STEPS` the folded graph and state equal
    ``merge_graphs`` over the same runs, node numbering included.  A
    fresh :class:`TrackerState` folded on the memoised graph, once
    (the graph's shape reused, the state's context sets not) and again
    (both reused), equals the same folds with the memo cleared."""
    shards = [_shard(source, params) for source in sources]
    slots = params["slots"]
    graph, state = DependenceGraph(slots=slots), TrackerState()
    for step, (index, rendering) in enumerate(_MEMO_STEPS, start=1):
        doc = _RENDERINGS[rendering](shards[index][2])
        reused = fold_document(graph, state, doc)
        if step in (2, 5, 8, 9):     # the memo holds this shape
            assert reused, step
        elif step != 6:              # 6 reuses when both shapes agree
            assert not reused, step
        runs = [shards[index] for index, _ in _MEMO_STEPS[:step]]
        oracle_graph, oracle_state = merge_graphs(
            [run[0] for run in runs], [run[1] for run in runs])
        assert graph.node_keys == oracle_graph.node_keys
        assert canonical_form(graph, state) == \
            canonical_form(oracle_graph, oracle_state), step
    reference = copy.deepcopy(graph)
    reference._shape_memo = None
    fresh, reference_state = TrackerState(), TrackerState()
    for _ in range(2):
        assert fold_document(graph, fresh, shards[1][2])
        assert not fold_document(reference, reference_state, shards[1][2])
        reference._shape_memo = None
        assert canonical_form(graph, fresh) == \
            canonical_form(reference, reference_state)


@given(st.lists(heap_program_source(), min_size=1, max_size=3),
       st.sampled_from(_TRACKER_PARAMS), st.data())
@settings(max_examples=10, deadline=None)
def test_memory_bytes_equal_over_any_grouping(sources, params, data):
    """``memory_bytes`` is a function of the graph, not of how it grew:
    folding the documents one by one, with an analysis freezing the
    graph after a drawn subset of the folds (as daemon queries do), and
    folding any contiguous grouping of them give the same figure."""
    docs = [_shard(source, params)[2] for source in sources]
    docs.append(docs[0])
    slots = params["slots"]
    frozen_after = data.draw(st.sets(st.integers(0, len(docs) - 1)))
    graph, state = DependenceGraph(slots=slots), TrackerState()
    for step, doc in enumerate(docs):
        fold_document(graph, state, doc)
        if step in frozen_after:
            engine_for(graph)
    cuts = sorted(data.draw(st.sets(st.integers(1, len(docs) - 1))))
    bounds = list(zip([0] + cuts, cuts + [len(docs)]))
    grouped, _ = _fold_grouped(docs, bounds, slots, lambda doc: doc)
    assert grouped.memory_bytes() == graph.memory_bytes()


def _client_answers(graph, depth, instructions):
    """The batched clients' answers, then their per-node references':
    every allocation's n-RAC/n-RAB summary, the dead-value metrics and
    the cache report."""
    def summaries(results):
        return [(s.alloc_key, s.n_rac, s.n_rab, s.tree_size, s.fields)
                for s in results]

    racs = reference_field_racs(graph)
    rabs = reference_field_rabs(graph)
    reference = (
        summaries(object_cost_benefit(graph, key, depth, racs=racs,
                                      rabs=rabs)
                  for key in graph.alloc_nodes()),
        reference_measure_bloat(graph, instructions),
        reference_analyze_caches(graph))
    batched = (summaries(all_object_cost_benefits(graph, depth)),
               measure_bloat(graph, instructions), analyze_caches(graph))
    return batched, reference


@given(heap_program_source(), st.sampled_from(_TRACKER_PARAMS),
       st.sampled_from((0, 1, DEFAULT_TREE_DEPTH)))
@settings(max_examples=15, deadline=None)
def test_batched_clients_equal_references(source, params, depth):
    """Batch = per-node reference for the clients a report runs:
    ``all_object_cost_benefits`` (fields grouped by owner) equals the
    per-root ``object_cost_benefit`` over per-node RACs/RABs, fields and
    their order included; ``measure_bloat`` (the engine's node
    classes) equals one loop over every node; ``analyze_caches`` (one
    engine) equals one HRAC BFS per store.  Checked on a fresh fold of
    the run's shard and again after folding it a second time, which
    keeps the shape, so the cached engine and its node classes are
    re-weighed, not rebuilt.  Shallow reference trees make the
    points-to filter decide often: at depth 0 every reference field of
    the root that leaves it is filtered out."""
    vm = _tracked(source, "compiled", params)
    doc = graph_to_dict(vm.tracer.graph, tracker=vm.tracer)
    graph, state = DependenceGraph(slots=params["slots"]), TrackerState()
    fold_document(graph, state, doc)
    batched, reference = _client_answers(graph, depth, vm.instr_count)
    assert batched == reference
    engine = engine_for(graph)
    assert fold_document(graph, state, doc)
    batched, reference = _client_answers(graph, depth,
                                         2 * vm.instr_count)
    assert engine_for(graph) is engine
    assert batched == reference


@given(st.lists(heap_program_source(), min_size=1, max_size=3),
       st.sampled_from((1, 2, 16)), st.data())
@settings(max_examples=15, deadline=None)
def test_conflict_ratio_equals_reference(sources, slots, data):
    """The one-pass CR is exactly the reference regrouping's: on every
    single run, on the fold of any contiguous grouping of the runs'
    documents, and on v2-rows documents with an empty context row."""
    shards = [_shard(source, {"slots": slots}) for source in sources]
    shards.append(shards[0])
    for graph, state, _ in shards:
        assert state.conflict_ratio(graph) == \
            reference_conflict_ratio(graph, state)
    docs = [doc for _, _, doc in shards]
    cuts = sorted(data.draw(st.sets(st.integers(1, len(docs) - 1))))
    bounds = list(zip([0] + cuts, cuts + [len(docs)]))
    graph, state = _fold_grouped(docs, bounds, slots, lambda doc: doc)
    assert state.conflict_ratio(graph) == \
        reference_conflict_ratio(graph, state)
    rows = [as_v2_rows(doc) for doc in docs]
    for doc in rows:
        node_gs = doc["tracker"]["node_gs"]
        node_gs[data.draw(st.integers(0, len(node_gs) - 1))] = []
    graph, state = _fold_grouped(rows, bounds, slots, lambda doc: doc)
    assert state.conflict_ratio(graph) == \
        reference_conflict_ratio(graph, state)


@given(st.lists(heap_program_source(), min_size=1, max_size=3),
       st.sampled_from((2, 16)))
@settings(max_examples=10, deadline=None)
def test_daemon_serves_the_batch_report(sources, slots):
    """An in-process daemon pushed the runs' shards one by one serves,
    after every push, a ``report`` byte-identical to
    ``bloat_report_data`` over ``merge_graphs`` of the same runs, and a
    ``summary`` whose CR is the report's.  The tenant's program is the
    first run's, as when runs of one build are pushed.  Pushes repeat
    runs back to back, so folds that reuse the tenant's shape memo are
    served too."""
    runs = [_tracked(source, "compiled", {"slots": slots})
            for source in sources]
    runs = [runs[0], *runs, runs[-1], runs[0]]
    daemon = AnalysisDaemon(TenantRegistry())
    program_spec = {"source": sources[0], "use_stdlib": False}
    program = compile_source(sources[0])
    meta = {"instructions": 0, "slots": slots,
            "output": runs[0].stdout(), "exec_mode": runs[0].exec_tier}
    for pushed, vm in enumerate(runs, start=1):
        shard = graph_to_dict(
            vm.tracer.graph, tracker=vm.tracer,
            meta={"instructions": vm.instr_count, "output": vm.stdout(),
                  "exec_mode": vm.exec_tier})
        assert daemon._handle({"type": "push", "tenant": "t",
                               "shard": shard})["type"] == "ok"
        served = daemon._handle({"type": "query", "tenant": "t",
                                 "kind": "report",
                                 "program": program_spec})["result"]
        meta["instructions"] += vm.instr_count
        if pushed > 1:
            meta["runs"] = pushed
        graph, state = merge_graphs(
            [run.tracer.graph for run in runs[:pushed]],
            [run.tracer.state() for run in runs[:pushed]])
        assert json.dumps(served) == json.dumps(
            bloat_report_data(graph, meta, state, program))
        summary = daemon._handle({"type": "query", "tenant": "t",
                                  "kind": "summary"})["result"]
        assert summary["conflict_ratio"] == \
            served["summary"]["conflict_ratio"]

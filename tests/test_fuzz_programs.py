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
  programs no one wrote by hand.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import compile_source, format_source
from repro.profiler import CostTracker, canonical_form
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

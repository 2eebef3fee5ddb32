"""Tests for the Figure-2 client analyses: null propagation, typestate
history, and extended copy profiling."""

import pytest

from conftest import run_main
from repro.analyses import (BOTTOM, CopyProfiler, NullTracker,
                            TaintCostTracker, TypestateSpec,
                            TypestateTracker, explain_null_failure,
                            file_protocol)
from repro.analyses.nullprop import NULL
from repro.lang import compile_source
from repro.stdlib import compile_with_stdlib
from repro.vm import (EXEC_COMPILED, EXEC_INTERP, VM, VMNullError,
                      VMTypestateError)


def null_run(body, extra=""):
    tracker = NullTracker()
    source = f"{extra}\nclass Main {{ static void main() {{ {body} }} }}"
    program = compile_source(source)
    vm = VM(program, tracer=tracker)
    try:
        vm.run()
        return program, tracker, None
    except VMNullError as error:
        return program, tracker, error


class TestNullPropagation:
    def test_origin_from_field_default(self):
        extra = "class A { A f; }"
        body = """
A a = new A();
A b = a.f;
A c = b;
int x = c.f == null;
"""
        # The last line is a type error (int = bool); fix:
        body = """
A a = new A();
A b = a.f;
A c = b;
c.f = null;
"""
        program, tracker, error = null_run(body, extra)
        assert error is not None
        origin = explain_null_failure(tracker, error, program)
        assert origin is not None
        assert origin.origin_line <= origin.failing_line
        assert origin.path_iids[-1] != origin.path_iids[0]

    def test_origin_from_explicit_null_const(self):
        extra = "class A { int v; }"
        body = """
A a = null;
A b = a;
Sys.printInt(b.v);
"""
        program, tracker, error = null_run(body, extra)
        origin = explain_null_failure(tracker, error, program)
        assert origin is not None
        # Origin is the `null` literal on the first body line; failure
        # two lines later.
        assert origin.failing_line - origin.origin_line == 2
        assert len(origin.path_iids) >= 2

    def test_null_through_call_return(self):
        extra = """
class Maker {
    static Maker make(bool ok) {
        if (ok) { return new Maker(); }
        return null;
    }
    void go() { }
}
"""
        body = """
Maker m = Maker.make(false);
m.go();
"""
        program, tracker, error = null_run(body, extra)
        origin = explain_null_failure(tracker, error, program)
        assert origin is not None
        # The null was created inside Maker.make.
        maker_lines = {i.line for i in program.instructions
                       if program.method_of(i.iid).owner.name == "Maker"}
        assert origin.origin_line in maker_lines

    def test_null_through_array(self):
        extra = "class A { int v; }"
        body = """
A[] slots = new A[3];
A got = slots[1];
Sys.printInt(got.v);
"""
        program, tracker, error = null_run(body, extra)
        origin = explain_null_failure(tracker, error, program)
        assert origin is not None

    def test_null_argument_dereferenced_on_entry(self):
        """The callee's first instruction dereferences a null argument,
        before any hook has touched the callee's frame: the origin
        still resolves through the shadow its caller handed over."""
        extra = """
class A {
    int v;
    static int get(A a) { return a.v; }
}
"""
        body = """
A a = null;
Sys.printInt(A.get(a));
"""
        program, tracker, error = null_run(body, extra)
        assert error is not None
        assert program.method_of(error.instr.iid).name == "get"
        assert error.instr is program.method_of(error.instr.iid).body[0]
        origin = explain_null_failure(tracker, error, program)
        assert origin is not None
        # Born at the `null` literal in main, then moved into `a`.
        assert [program.method_of(iid).name
                for iid in origin.path_iids] == ["main", "main"]
        assert origin.origin_iid == origin.path_iids[0]
        assert program.instructions[origin.origin_iid].value is None

    def test_no_failure_no_report(self):
        body = "Sys.printInt(1);"
        program, tracker, error = null_run(body)
        assert error is None

    def test_describe_renders(self):
        extra = "class A { int v; }"
        body = """
A a = null;
Sys.printInt(a.v);
"""
        program, tracker, error = null_run(body, extra)
        origin = explain_null_failure(tracker, error, program)
        text = origin.describe()
        assert "null created at line" in text
        assert "dereferenced" in text


FILE_BODY_OK = """
File f = new File();
f.create();
f.put(1);
f.put(2);
Sys.printInt(f.get());
f.close();
"""

FILE_BODY_BAD = """
File f = new File();
f.create();
f.put(1);
f.close();
f.put(9);
"""


class TestTypestate:
    def _run(self, body, raise_on_violation=False):
        program = compile_with_stdlib(
            f"class Main {{ static void main() {{ {body} }} }}",
            modules=("file",))
        tracker = TypestateTracker(file_protocol(),
                                   raise_on_violation=raise_on_violation)
        vm = VM(program, tracer=tracker)
        vm.run()
        return tracker

    def test_conforming_run_has_no_violations(self):
        tracker = self._run(FILE_BODY_OK)
        assert tracker.violations == []

    def test_put_after_close_flagged(self):
        tracker = self._run(FILE_BODY_BAD)
        assert len(tracker.violations) == 1
        violation = tracker.violations[0]
        assert violation.method == "put"
        assert violation.state == "c"

    def test_history_records_prior_events(self):
        tracker = self._run(FILE_BODY_BAD)
        history = tracker.violations[0].history
        assert [m for m, _ in history] == ["create", "put", "close"]

    def test_use_before_create_flagged(self):
        tracker = self._run("File f = new File(); f.put(1);")
        assert tracker.violations[0].state == "u"

    def test_dfa_edges_aggregated(self):
        tracker = self._run(FILE_BODY_OK)
        sites = {s for (s, *_rest) in tracker.dfa_edges}
        assert len(sites) == 1
        site = sites.pop()
        dfa = tracker.dfa_for_site(site)
        assert ("u", "create", "oe") in dfa
        assert ("oe", "put", "on") in dfa

    def test_raise_on_violation(self):
        with pytest.raises(VMTypestateError, match="typestate"):
            self._run(FILE_BODY_BAD, raise_on_violation=True)

    def test_untracked_classes_ignored(self):
        spec = TypestateSpec(class_names=frozenset({"Nothing"}),
                             initial="s0", transitions={"s0": {}})
        program = compile_with_stdlib(
            "class Main { static void main() { File f = new File(); "
            "f.create(); f.close(); } }", modules=("file",))
        tracker = TypestateTracker(spec)
        VM(program, tracer=tracker).run()
        assert tracker.violations == []
        assert tracker.graph.num_nodes == 0

    def test_two_objects_tracked_independently(self):
        body = """
File a = new File();
File b = new File();
a.create();
b.create();
a.close();
b.put(1);
b.close();
"""
        tracker = self._run(body)
        assert tracker.violations == []

    def test_violation_describe(self):
        tracker = self._run(FILE_BODY_BAD)
        text = tracker.violations[0].describe()
        assert "put" in text and "'c'" in text


class TestCopyProfiling:
    COPY_EXTRA = """
class Src { int v; }
class Dst { int v; }
"""

    def _run(self, body, extra=""):
        profiler = CopyProfiler()
        run_main(body, extra=extra, tracer=profiler)
        return profiler

    def test_direct_heap_to_heap_chain(self):
        body = """
Src s = new Src();
s.v = 5;
Dst d = new Dst();
int tmp = s.v;
d.v = tmp;
Sys.printInt(d.v);
"""
        profiler = self._run(body, self.COPY_EXTRA)
        chains = profiler.chains()
        assert any(c.source[1] == "v" and c.target[1] == "v"
                   and c.source[0] != c.target[0] for c in chains)

    def test_computation_breaks_chain(self):
        body = """
Src s = new Src();
s.v = 5;
Dst d = new Dst();
d.v = s.v + 1;
Sys.printInt(d.v);
"""
        profiler = self._run(body, self.COPY_EXTRA)
        # The +1 resets the origin to bottom: no heap-to-heap chain
        # from Src.v to Dst.v survives.
        assert not any(c.source[1] == "v" and c.target[1] == "v"
                       and c.source[0] != c.target[0]
                       for c in profiler.chains())

    def test_chain_through_call(self):
        extra = self.COPY_EXTRA + """
class Mover {
    static int fetch(Src s) { return s.v; }
}
"""
        body = """
Src s = new Src();
s.v = 9;
Dst d = new Dst();
d.v = Mover.fetch(s);
Sys.printInt(d.v);
"""
        profiler = self._run(body, extra)
        assert any(c.source[1] == "v" and c.target[1] == "v"
                   for c in profiler.chains())

    def test_copy_fraction_bounds(self):
        profiler = self._run("int a = 1; int b = a; Sys.printInt(b);")
        assert 0.0 <= profiler.copy_fraction() <= 1.0

    def test_copy_heavy_vs_compute_heavy(self):
        copy_heavy = """
Src s = new Src();
s.v = 1;
Dst d = new Dst();
for (int i = 0; i < 30; i++) {
    int t = s.v;
    d.v = t;
    int u = d.v;
    s.v = u;
}
Sys.printInt(d.v);
"""
        compute_heavy = """
int acc = 1;
for (int i = 0; i < 30; i++) {
    acc = acc * 3 + i * i - 2;
}
Sys.printInt(acc);
"""
        copies = self._run(copy_heavy, self.COPY_EXTRA).copy_fraction()
        computes = self._run(compute_heavy).copy_fraction()
        assert copies > computes

    def test_bottom_constant(self):
        assert BOTTOM == "_"


def _main(body, extra=""):
    return f"{extra}\nclass Main {{ static void main() {{ {body} }} }}"


def _null_client():
    """A null copied twice: every node is null-annotated and fed by the
    one before (the chain explain_null_failure walks back)."""
    def check(tracker):
        graph = tracker.graph
        assert len(graph.node_keys) >= 3
        assert all(d == NULL for _, d in graph.node_keys)
        assert all(set(graph.preds[n]) == {n - 1}
                   for n in range(1, len(graph.node_keys)))
    body = "A a = null; A b = a; A c = b;"
    return compile_source(_main(body, "class A { int v; }")), \
        NullTracker(), check


def _typestate_client():
    def check(tracker):
        [violation] = tracker.violations
        assert (violation.method, violation.state) == ("put", "c")
        assert [m for m, _ in violation.history] == ["create", "put",
                                                      "close"]
    program = compile_with_stdlib(_main(FILE_BODY_BAD), modules=("file",))
    return program, TypestateTracker(file_protocol()), check


def _copy_client():
    def check(tracker):
        assert any(c.source[1] == "v" and c.target[1] == "v"
                   and c.source[0] != c.target[0] for c in tracker.chains())
    body = ("Src s = new Src(); s.v = 5; Dst d = new Dst(); int tmp = s.v; "
            "d.v = tmp; Sys.printInt(d.v);")
    program = compile_source(_main(body, TestCopyProfiling.COPY_EXTRA))
    return program, CopyProfiler(), check


def _taint_client():
    def check(tracker):
        assert len(tracker.sink_costs) == 2
        assert tracker.sink_costs[1] > tracker.sink_costs[0]
    program = compile_source(_main("Sys.printInt(1); Sys.printInt(2 + 3);"))
    return program, TaintCostTracker(), check


@pytest.mark.parametrize("client", [_null_client, _typestate_client,
                                    _copy_client, _taint_client],
                         ids=["null", "typestate", "copy", "taint"])
def test_client_tracers_run_on_the_interpreter(client):
    # The compiled tier has templates only for untraced runs and an
    # exact CostTracker; under the default exec mode every client
    # tracer interprets, sees the trace_* hooks, and compiles nothing.
    program, tracker, check = client()
    vm = VM(program, tracer=tracker)
    assert vm.exec_mode == EXEC_COMPILED
    vm.run()
    assert vm.exec_tier == EXEC_INTERP
    assert not any(getattr(program, "_compiled_tiers", {}).values())
    check(tracker)

"""Tests for explain_site and frontend robustness fuzzing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_main
from repro.analyses import analyze_cost_benefit, explain_site
from repro.lang import CompileError, ParseError, compile_source, parse
from repro.lang.parser import MAX_NESTING
from repro.profiler import CostTracker


def _parses(source: str) -> bool:
    try:
        parse(source)
    except ParseError:
        return False
    return True


class TestExplainSite:
    EXTRA = """
class Entry {
    int a;
    Entry(int x) { a = x * 7; }
}
class Holder {
    Entry entry;
    int used;
}
"""

    def _setup(self):
        body = """
Holder h = new Holder();
h.entry = new Entry(5);
h.used = 3 + 4;
Sys.printInt(h.used);
"""
        tracker = CostTracker(slots=16)
        vm = run_main(body, extra=self.EXTRA, tracer=tracker)
        return vm, tracker

    def test_explains_fields_with_locations(self):
        vm, tracker = self._setup()
        reports = analyze_cost_benefit(tracker.graph, vm.program)
        holder = next(r for r in reports if r.what == "new Holder")
        text = explain_site(tracker.graph, vm.program, holder.iid)
        assert "new Holder allocated in Main.main" in text
        assert ".a" in text
        assert "Entry.<init>" in text
        assert "never used" in text        # Entry.a is dead
        assert "reaches output" in text    # Holder.used is printed
        assert "total: n-RAC=" in text

    def test_untracked_site(self):
        vm, tracker = self._setup()
        # An iid that is an allocation site but never executed: build
        # a program with a dead allocation in an uncalled method.
        extra = self.EXTRA + """
class Never {
    static Entry ghost() { return new Entry(1); }
}
"""
        tracker2 = CostTracker(slots=16)
        vm2 = run_main("Sys.printInt(1);", extra=extra,
                       tracer=tracker2)
        from repro.ir import instructions as ins
        ghost = next(iid for iid, i in vm2.program.alloc_sites.items()
                     if i.op == ins.OP_NEW_OBJECT
                     and vm2.program.method_of(iid).name == "ghost")
        text = explain_site(tracker2.graph, vm2.program, ghost)
        assert "no tracked activity" in text

    def test_cli_explain(self, tmp_path, capsys):
        from repro.cli import main
        source = self.EXTRA + """
class Main {
    static void main() {
        Holder h = new Holder();
        h.entry = new Entry(5);
        Sys.printInt(0);
    }
}
"""
        path = tmp_path / "p.mj"
        path.write_text(source)
        from repro.lang import compile_source as cs
        program = cs(source)
        from repro.ir import instructions as ins
        holder = next(iid for iid, i in program.alloc_sites.items()
                      if i.op == ins.OP_NEW_OBJECT
                      and i.class_name == "Holder")
        assert main(["profile", str(path), "--no-stdlib",
                     "--report", "bloat",
                     "--explain", str(holder)]) == 0
        out = capsys.readouterr().out
        assert "new Holder allocated" in out


class TestFrontendTotality:
    """compile_source must either succeed or raise CompileError —
    never crash with an arbitrary exception."""

    @given(st.text(max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_text(self, text):
        try:
            compile_source(text)
        except CompileError:
            pass

    @given(st.text(alphabet=st.sampled_from(
        list("classMain{}()=+-*/<>!&|;.,[]\"0123456789abc \n")),
        max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_syntax_soup(self, text):
        try:
            compile_source(text)
        except CompileError:
            pass

    @given(st.lists(st.sampled_from([
        "class A {", "}", "int x;", "static void main() {",
        "x = 1;", "if (x > 0) {", "while (true) {", "return;",
        "new A();", 'Sys.print("hi");', "int[] a = new int[3];",
        "break;", "for (int i = 0; i < 3; i++) {",
    ]), max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_fragment_shuffles(self, fragments):
        try:
            compile_source("\n".join(fragments))
        except CompileError:
            pass

    def test_deeply_nested_expression(self):
        expr = "1" + " + 1" * 200
        source = (f"class Main {{ static void main() "
                  f"{{ Sys.printInt({expr}); }} }}")
        vm_source = compile_source(source)
        from repro.vm import VM
        vm = VM(vm_source)
        vm.run()
        assert vm.stdout() == "201"

    @pytest.mark.parametrize("expr, expected", [
        ("1" + " + 1" * 400, "401"),
        ("n" + ".next" * 400 + ".v", "7"),
        ("n" + ".self()" * 400 + ".v", "7"),
        ("n" + ".self().next" * 200 + ".a[1]", "1"),
    ], ids=["binary", "fields", "calls", "mixed"])
    def test_long_flat_chain_runs(self, expr, expected):
        """A left spine is not nesting: a 400-link chain parses, and the
        checker and code generator walk it without a frame per link."""
        source = ("class Node { Node next; int v; int[] a; "
                  "Node self() { return this; } } "
                  "class Main { static void main() { Node n = new Node(); "
                  "n.next = n; n.v = 7; n.a = new int[2]; n.a[1] = 1; "
                  f"Sys.printInt({expr}); }} }}")
        from repro.vm import VM
        vm = VM(compile_source(source))
        vm.run()
        assert vm.stdout() == expected

    def test_deeply_nested_parens(self):
        expr = "(" * 50 + "7" + ")" * 50
        source = (f"class Main {{ static void main() "
                  f"{{ Sys.printInt({expr}); }} }}")
        from repro.vm import VM
        vm = VM(compile_source(source))
        vm.run()
        assert vm.stdout() == "7"

    def test_unicode_identifiers_run(self):
        source = ("class Main { static void main() { int \u00e9 = 4; "
                  "int x\u00b2 = 2; Sys.printInt(\u00e9 * x\u00b2); } }")
        from repro.vm import VM
        vm = VM(compile_source(source))
        vm.run()
        assert vm.stdout() == "8"

    def test_80_parens_compile(self):
        expr = "(" * 80 + "7" + ")" * 80
        source = (f"class Main {{ static void main() "
                  f"{{ Sys.printInt({expr}); }} }}")
        from repro.vm import VM
        vm = VM(compile_source(source))
        vm.run()
        assert vm.stdout() == "7"

    @pytest.mark.parametrize("expr", [
        "(" * 5000 + "7" + ")" * 5000,
        "- " * 5000 + "7",
        "f(" * 5000 + "7" + ")" * 5000,
    ], ids=["parens", "unary", "calls"])
    def test_too_deep_is_a_parse_error(self, expr):
        source = (f"class Main {{ static int f(int x) {{ return x; }} "
                  f"static void main() {{ Sys.printInt({expr}); }} }}")
        with pytest.raises(ParseError, match="nested too deeply"):
            compile_source(source)

    @pytest.mark.parametrize("make", [
        lambda n: "(" * n + "7" + ")" * n,
        lambda n: "- " * n + "7",
        lambda n: "f(" * n + "7" + ")" * n,
        lambda n: "a[" * n + "0" + "]" * n,
        lambda n: "1 + (" * n + "6" + ")" * n,
        lambda n: "1 + 2 * f(" * n + "5" + ")" * n,
    ], ids=["parens", "unary", "calls", "index", "right-nested",
            "precedence-staircase"])
    def test_deepest_accepted_nesting_compiles(self, make):
        """At the limit, an accepted program also typechecks and
        generates code within the default recursion limit."""
        def source(n):
            return ("class Main { static int f(int x) { return x; } "
                    "static void main() { int[] a = new int[1]; "
                    f"Sys.printInt({make(n)}); }} }}")
        deepest = max(n for n in range(1, MAX_NESTING + 1)
                      if _parses(source(n)))
        assert deepest >= MAX_NESTING // 4
        compile_source(source(deepest))
        with pytest.raises(ParseError, match="nested too deeply"):
            compile_source(source(deepest + 2))

    def test_many_classes(self):
        classes = "\n".join(
            f"class C{i} {{ int f{i}; int get() {{ return f{i}; }} }}"
            for i in range(60))
        source = classes + ("\nclass Main { static void main() "
                            "{ Sys.printInt(new C7().get()); } }")
        from repro.vm import VM
        vm = VM(compile_source(source))
        vm.run()
        assert vm.stdout() == "0"

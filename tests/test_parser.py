"""Tests for the MiniJ parser."""

import pytest

from repro.lang import ast
from repro.lang.errors import ParseError
from repro.lang.parser import parse


def parse_main(body: str) -> ast.MethodDecl:
    program = parse("class Main { static void main() { %s } }" % body)
    return program.classes[0].methods[0]


def parse_expr(text: str) -> ast.Expr:
    method = parse_main(f"int x = {text};")
    return method.body.stmts[0].init


class TestClassStructure:
    def test_empty_program_rejected(self):
        with pytest.raises(ParseError, match="empty program"):
            parse("   ")

    def test_class_with_extends(self):
        program = parse("class A {} class B extends A {}")
        assert program.classes[1].super_name == "A"

    def test_fields_methods_constructors_partitioned(self):
        program = parse("""
class A {
    int x;
    static bool flag;
    A(int x) { this.x = x; }
    int get() { return x; }
    static void helper() { }
}
""")
        cls = program.classes[0]
        assert [f.name for f in cls.fields] == ["x", "flag"]
        assert cls.fields[1].is_static
        assert [m.name for m in cls.methods] == ["get", "helper"]
        assert cls.methods[1].is_static
        assert len(cls.constructors) == 1
        assert cls.constructors[0].is_constructor

    def test_void_field_rejected(self):
        with pytest.raises(ParseError, match="void"):
            parse("class A { void x; }")

    def test_method_params(self):
        program = parse("class A { int f(int a, bool b, string[] c) "
                        "{ return a; } }")
        params = program.classes[0].methods[0].params
        assert [(t.base, t.dims, n) for t, n in params] == [
            ("int", 0, "a"), ("bool", 0, "b"), ("string", 1, "c")]

    def test_array_of_void_rejected(self):
        with pytest.raises(ParseError):
            parse("class A { void[] f() { return null; } }")


class TestStatements:
    def test_var_decl_with_init(self):
        method = parse_main("int x = 5;")
        stmt = method.body.stmts[0]
        assert isinstance(stmt, ast.VarDecl)
        assert stmt.name == "x"
        assert isinstance(stmt.init, ast.IntLit)

    def test_class_typed_var_decl(self):
        method = parse_main("Main m = null; Main[] arr = null;")
        assert isinstance(method.body.stmts[0], ast.VarDecl)
        assert method.body.stmts[1].type_expr.dims == 1

    def test_assignment_vs_expression_statement(self):
        method = parse_main("int x = 0; x = 1; f();")
        assert isinstance(method.body.stmts[1], ast.Assign)
        assert isinstance(method.body.stmts[2], ast.ExprStmt)

    def test_compound_assignments(self):
        method = parse_main("int x = 0; x += 1; x -= 2; x *= 3; "
                            "x /= 4; x %= 5;")
        ops = [s.op for s in method.body.stmts[1:]]
        assert ops == ["+", "-", "*", "/", "%"]

    def test_incdec_statements(self):
        method = parse_main("int x = 0; x++; x--;")
        assert method.body.stmts[1].delta == 1
        assert method.body.stmts[2].delta == -1

    def test_bare_non_call_expression_rejected(self):
        with pytest.raises(ParseError, match="must be a call"):
            parse_main("1 + 2;")

    def test_invalid_assignment_target_rejected(self):
        with pytest.raises(ParseError, match="assignment target"):
            parse_main("1 = 2;")

    def test_if_else_chain(self):
        method = parse_main(
            "if (true) { } else if (false) { } else { }")
        stmt = method.body.stmts[0]
        assert isinstance(stmt, ast.If)
        assert isinstance(stmt.else_stmt, ast.If)

    def test_while(self):
        method = parse_main("while (true) { break; continue; }")
        stmt = method.body.stmts[0]
        assert isinstance(stmt, ast.While)
        assert isinstance(stmt.body.stmts[0], ast.Break)
        assert isinstance(stmt.body.stmts[1], ast.Continue)

    def test_for_full(self):
        method = parse_main("for (int i = 0; i < 10; i++) { }")
        stmt = method.body.stmts[0]
        assert isinstance(stmt.init, ast.VarDecl)
        assert isinstance(stmt.cond, ast.Binary)
        assert isinstance(stmt.update, ast.IncDec)

    def test_for_empty_clauses(self):
        method = parse_main("for (;;) { break; }")
        stmt = method.body.stmts[0]
        assert stmt.init is None
        assert stmt.cond is None
        assert stmt.update is None

    def test_for_assignment_init(self):
        method = parse_main("int i = 0; for (i = 1; i < 3; i = i + 1) {}")
        assert isinstance(method.body.stmts[1].init, ast.Assign)

    def test_return_forms(self):
        method = parse_main("return;")
        assert method.body.stmts[0].value is None
        program = parse("class A { int f() { return 1 + 2; } }")
        assert isinstance(program.classes[0].methods[0]
                          .body.stmts[0].value, ast.Binary)

    def test_super_call(self):
        program = parse("class A { A(int x) { } } "
                        "class B extends A { B() { super(1); } }")
        ctor = program.classes[1].constructors[0]
        assert isinstance(ctor.body.stmts[0], ast.SuperCall)

    def test_nested_blocks(self):
        method = parse_main("{ int x = 1; { int y = 2; } }")
        outer = method.body.stmts[0]
        assert isinstance(outer, ast.Block)
        assert isinstance(outer.stmts[1], ast.Block)


#: Java's binary precedence levels, loosest first.
LEVELS = [("||",), ("&&",), ("|",), ("^",), ("&",), ("==", "!="),
          ("<", "<=", ">", ">="), ("<<", ">>"), ("+", "-"),
          ("*", "/", "%")]
LEVEL = {op: level for level, ops in enumerate(LEVELS) for op in ops}


@pytest.mark.parametrize("op1", list(LEVEL))
@pytest.mark.parametrize("op2", list(LEVEL))
def test_binary_operator_pair_shape(op1, op2):
    """``a op1 b op2 c``: the tighter operator groups first, and equal
    levels group left; each node sits at its operator's token."""
    expr = parse_expr(f"a {op1} b {op2} c")
    col1 = len("class Main { static void main() { int x = a ") + 1
    col2 = col1 + len(f"{op1} b ")
    if LEVEL[op2] > LEVEL[op1]:
        assert (expr.op, expr.lhs.ident) == (op1, "a")
        inner = expr.rhs
        assert (inner.op, inner.lhs.ident, inner.rhs.ident) == \
            (op2, "b", "c")
        assert (expr.col, inner.col) == (col1, col2)
    else:
        assert (expr.op, expr.rhs.ident) == (op2, "c")
        inner = expr.lhs
        assert (inner.op, inner.lhs.ident, inner.rhs.ident) == \
            (op1, "a", "b")
        assert (inner.col, expr.col) == (col1, col2)
    assert expr.line == inner.line == 1


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.rhs.op == "*"

    def test_precedence_compare_over_and(self):
        program = parse("class Main { static void main() "
                        "{ bool b = 1 < 2 && 3 > 4; } }")
        expr = program.classes[0].methods[0].body.stmts[0].init
        assert expr.op == "&&"
        assert expr.lhs.op == "<"

    def test_precedence_and_over_or(self):
        program = parse("class Main { static void main() "
                        "{ bool b = true || false && true; } }")
        expr = program.classes[0].methods[0].body.stmts[0].init
        assert expr.op == "||"
        assert expr.rhs.op == "&&"

    def test_left_associativity(self):
        expr = parse_expr("10 - 3 - 2")
        assert expr.op == "-"
        assert expr.lhs.op == "-"
        assert expr.rhs.value == 2

    def test_parentheses_override(self):
        expr = parse_expr("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.lhs.op == "+"

    def test_unary_chain(self):
        # Note the space: '--' alone lexes as the decrement token.
        expr = parse_expr("- -5")
        assert isinstance(expr, ast.Unary)
        assert isinstance(expr.operand, ast.Unary)

    def test_shift_precedence(self):
        expr = parse_expr("1 << 2 + 3")
        assert expr.op == "<<"
        assert expr.rhs.op == "+"

    def test_bitwise_precedence(self):
        # & tighter than ^ tighter than |
        expr = parse_expr("1 | 2 ^ 3 & 4")
        assert expr.op == "|"
        assert expr.rhs.op == "^"
        assert expr.rhs.rhs.op == "&"

    def test_field_access_chain(self):
        expr = parse_expr("a.b.c")
        assert isinstance(expr, ast.FieldAccess)
        assert isinstance(expr.obj, ast.FieldAccess)
        assert isinstance(expr.obj.obj, ast.Name)

    def test_method_call_chain(self):
        expr = parse_expr("a.f().g(1, 2)")
        assert isinstance(expr, ast.CallExpr)
        assert expr.method == "g"
        assert len(expr.args) == 2
        assert isinstance(expr.recv, ast.CallExpr)

    def test_indexing(self):
        expr = parse_expr("a[i][j]")
        assert isinstance(expr, ast.Index)
        assert isinstance(expr.arr, ast.Index)

    def test_unqualified_call(self):
        expr = parse_expr("helper(1)")
        assert isinstance(expr, ast.CallExpr)
        assert expr.recv is None

    def test_new_object(self):
        expr = parse_expr("new Foo(1, 2)")
        assert isinstance(expr, ast.New)
        assert expr.class_name == "Foo"
        assert len(expr.args) == 2

    def test_new_array(self):
        expr = parse_expr("new int[10]")
        assert isinstance(expr, ast.NewArray)
        assert expr.elem_type_expr.base == "int"
        assert expr.elem_type_expr.dims == 0

    def test_new_array_of_arrays(self):
        expr = parse_expr("new int[10][]")
        assert expr.elem_type_expr.dims == 1

    def test_new_array_of_class(self):
        expr = parse_expr("new Foo[3]")
        assert isinstance(expr, ast.NewArray)
        assert expr.elem_type_expr.base == "Foo"

    def test_literals(self):
        assert parse_expr("42").value == 42
        assert parse_expr("true").value is True
        assert parse_expr("false").value is False
        assert isinstance(parse_expr("null"), ast.NullLit)
        assert isinstance(parse_expr("this"), ast.This)
        assert parse_expr('"hi"').value == "hi"

    def test_missing_paren_rejected(self):
        with pytest.raises(ParseError, match="expected"):
            parse_expr("(1 + 2")

    def test_dangling_operator_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("1 +")

    def test_new_without_parens_or_bracket_rejected(self):
        with pytest.raises(ParseError):
            parse_main("int x = new Foo;")


class TestErrorsCarryPositions:
    def test_parse_error_position(self):
        try:
            parse("class A {\n  int f() { return }\n}")
        except ParseError as e:
            assert e.line == 2
        else:
            pytest.fail("expected ParseError")

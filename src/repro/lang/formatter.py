"""MiniJ source formatter: renders an AST back to compilable source.

Useful for tooling (dumping generated/parsed programs) and as a test
oracle: ``format(parse(format(parse(src))))`` must be a fixpoint, and a
formatted program must behave identically to the original.
"""

from __future__ import annotations

from . import ast
from .parser import BINARY_PRECEDENCE

_INDENT = "    "

_ESCAPES = {
    "\n": "\\n",
    "\t": "\\t",
    "\r": "\\r",
    "\0": "\\0",
    '"': '\\"',
    "\\": "\\\\",
}


def _escape(text: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in text)


def format_type(type_expr: ast.TypeExpr) -> str:
    return type_expr.base + "[]" * type_expr.dims


def format_expr(expr: ast.Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, ast.IntLit):
        return str(expr.value)
    if isinstance(expr, ast.BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, ast.StringLit):
        return f'"{_escape(expr.value)}"'
    if isinstance(expr, ast.NullLit):
        return "null"
    if isinstance(expr, ast.This):
        return "this"
    if isinstance(expr, ast.Name):
        return expr.ident
    if isinstance(expr, ast.FieldAccess):
        return f"{format_expr(expr.obj, 99)}.{expr.name}"
    if isinstance(expr, ast.Index):
        return f"{format_expr(expr.arr, 99)}[{format_expr(expr.idx)}]"
    if isinstance(expr, ast.CallExpr):
        args = ", ".join(format_expr(a) for a in expr.args)
        if expr.recv is None:
            return f"{expr.method}({args})"
        return f"{format_expr(expr.recv, 99)}.{expr.method}({args})"
    if isinstance(expr, ast.New):
        args = ", ".join(format_expr(a) for a in expr.args)
        return f"new {expr.class_name}({args})"
    if isinstance(expr, ast.NewArray):
        elem = expr.elem_type_expr
        return (f"new {elem.base}[{format_expr(expr.size)}]"
                + "[]" * elem.dims)
    if isinstance(expr, ast.Unary):
        operand = format_expr(expr.operand, 11)
        # '- -x' must not collapse into the '--' token.
        spacer = " " if expr.op == "-" and operand.startswith("-") \
            else ""
        return f"{expr.op}{spacer}{operand}"
    if isinstance(expr, ast.Binary):
        prec = BINARY_PRECEDENCE[expr.op]
        lhs = format_expr(expr.lhs, prec - 1)     # left associative
        rhs = format_expr(expr.rhs, prec)
        text = f"{lhs} {expr.op} {rhs}"
        if prec <= parent_prec:
            return f"({text})"
        return text
    raise TypeError(f"cannot format {type(expr).__name__}")


def _format_simple_stmt(stmt) -> str:
    """Assignment / inc-dec / call without the trailing semicolon."""
    if isinstance(stmt, ast.Assign):
        return (f"{format_expr(stmt.target)} {stmt.op}= "
                f"{format_expr(stmt.value)}")
    if isinstance(stmt, ast.IncDec):
        suffix = "++" if stmt.delta > 0 else "--"
        return f"{format_expr(stmt.target)}{suffix}"
    if isinstance(stmt, ast.ExprStmt):
        return format_expr(stmt.expr)
    if isinstance(stmt, ast.VarDecl):
        text = f"{format_type(stmt.type_expr)} {stmt.name}"
        if stmt.init is not None:
            text += f" = {format_expr(stmt.init)}"
        return text
    raise TypeError(f"cannot format {type(stmt).__name__} inline")


def format_stmt(stmt: ast.Stmt, indent: int = 0) -> str:
    pad = _INDENT * indent
    if isinstance(stmt, ast.Block):
        if not stmt.stmts:
            return pad + "{ }"
        lines = [pad + "{"]
        lines += [format_stmt(s, indent + 1) for s in stmt.stmts]
        lines.append(pad + "}")
        return "\n".join(lines)
    if isinstance(stmt, (ast.VarDecl, ast.Assign, ast.IncDec,
                         ast.ExprStmt)):
        return pad + _format_simple_stmt(stmt) + ";"
    if isinstance(stmt, ast.If):
        text = (pad + f"if ({format_expr(stmt.cond)})\n"
                + _format_substmt(stmt.then_stmt, indent))
        if stmt.else_stmt is not None:
            text += ("\n" + pad + "else\n"
                     + _format_substmt(stmt.else_stmt, indent))
        return text
    if isinstance(stmt, ast.While):
        return (pad + f"while ({format_expr(stmt.cond)})\n"
                + _format_substmt(stmt.body, indent))
    if isinstance(stmt, ast.For):
        init = _format_simple_stmt(stmt.init) if stmt.init else ""
        cond = format_expr(stmt.cond) if stmt.cond else ""
        update = _format_simple_stmt(stmt.update) if stmt.update else ""
        return (pad + f"for ({init}; {cond}; {update})\n"
                + _format_substmt(stmt.body, indent))
    if isinstance(stmt, ast.Return):
        if stmt.value is None:
            return pad + "return;"
        return pad + f"return {format_expr(stmt.value)};"
    if isinstance(stmt, ast.Break):
        return pad + "break;"
    if isinstance(stmt, ast.Continue):
        return pad + "continue;"
    if isinstance(stmt, ast.SuperCall):
        args = ", ".join(format_expr(a) for a in stmt.args)
        return pad + f"super({args});"
    raise TypeError(f"cannot format {type(stmt).__name__}")


def _format_substmt(stmt, indent: int) -> str:
    """A statement in if/while/for position; blocks stay at the parent
    indent, single statements get one more level."""
    if isinstance(stmt, ast.Block):
        return format_stmt(stmt, indent)
    return format_stmt(stmt, indent + 1)


def format_method(method: ast.MethodDecl, indent: int = 1) -> str:
    pad = _INDENT * indent
    params = ", ".join(f"{format_type(t)} {name}"
                       for t, name in method.params)
    static = "static " if method.is_static else ""
    if method.is_constructor:
        header = f"{pad}__CTOR__({params})"
    else:
        header = (f"{pad}{static}{format_type(method.return_type)} "
                  f"{method.name}({params})")
    return header + "\n" + format_stmt(method.body, indent)


def format_class(decl: ast.ClassDecl) -> str:
    header = f"class {decl.name}"
    if decl.super_name is not None:
        header += f" extends {decl.super_name}"
    lines = [header + " {"]
    for field in decl.fields:
        static = "static " if field.is_static else ""
        lines.append(f"{_INDENT}{static}{format_type(field.type_expr)} "
                     f"{field.name};")
    for ctor in decl.constructors:
        lines.append(format_method(ctor).replace("__CTOR__", decl.name))
    for method in decl.methods:
        lines.append(format_method(method))
    lines.append("}")
    return "\n".join(lines)


def format_program_decl(program: ast.ProgramDecl) -> str:
    return "\n\n".join(format_class(c) for c in program.classes) + "\n"


def format_source(source: str) -> str:
    """Parse and re-render MiniJ source (a canonical formatter)."""
    from .parser import parse
    return format_program_decl(parse(source))

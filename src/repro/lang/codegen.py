"""Pass 3: lower the type-annotated AST to three-address code.

The generator is a straightforward syntax-directed translation; each AST
expression yields the register holding its value.  Short-circuit
operators compile to branches; string concatenation inserts ``itos``
conversions for int operands; compound assignments load, compute, and
store.  Every class without an explicit constructor gets a generated
empty ``<init>`` so that ``new`` can always emit a CALL_SPECIAL.
"""

from __future__ import annotations

from ..ir import instructions as ins
from ..ir import types as irt
from ..ir.builder import MethodBuilder, ProgramBuilder
from . import ast
from .errors import TypeError_
from .parser import parse
from .resolver import ClassTable, build_class_table, resolve_type
from .typecheck import check


class CodeGen:
    def __init__(self, program_decl: ast.ProgramDecl, table: ClassTable):
        self.decl = program_decl
        self.table = table
        self.pb = ProgramBuilder()
        self.mb = None            # current MethodBuilder
        self.loop_stack = []      # [(break_label, continue_label)]

    # -- program ------------------------------------------------------------

    def generate(self):
        for class_decl in self.decl.classes:
            self._gen_class(class_decl)
        return self.pb.program

    def _gen_class(self, decl: ast.ClassDecl):
        cb = self.pb.class_(decl.name, decl.super_name)
        for field in decl.fields:
            cb.field(field.name, resolve_type(self.table, field.type_expr),
                     static=field.is_static)
        for method in decl.methods:
            sig = self.table.classes[decl.name].methods[method.name]
            params = list(zip(sig.param_names, sig.param_types))
            mb = cb.method(method.name, params, sig.return_type,
                           static=sig.is_static)
            self._gen_method_body(mb, method, sig)
        if decl.constructors:
            ctor = decl.constructors[0]
            sig = self.table.classes[decl.name].ctor
            params = list(zip(sig.param_names, sig.param_types))
            mb = cb.constructor(params)
            self._gen_method_body(mb, ctor, sig)
        else:
            mb = cb.constructor([])
            mb.ret()

    def _gen_method_body(self, mb: MethodBuilder, method: ast.MethodDecl,
                         sig):
        self.mb = mb
        self.loop_stack = []
        mb.at_line(method.line)
        self._gen_stmt(method.body)
        # Implicit return for void methods falling off the end.  The
        # checker guarantees non-void methods always return, but their
        # bodies may still syntactically fall off after e.g. a loop; the
        # verifier requires a terminator, so emit an unreachable return
        # only when the last instruction isn't one.
        body = mb.method.body
        ends_in_terminator = bool(body) and body[-1].op in (
            ins.OP_RETURN, ins.OP_JUMP, ins.OP_BRANCH)
        dangling_label = any(index == len(body)
                             for index in mb.method.labels.values())
        if not ends_in_terminator or dangling_label:
            if sig.return_type == irt.VOID:
                mb.ret()
            else:
                # Unreachable trap (checker proved all paths return).
                dead = mb.const_int(0)
                if sig.return_type == irt.INT:
                    mb.ret(dead)
                elif sig.return_type == irt.BOOL:
                    mb.ret(mb.const_bool(False))
                else:
                    mb.ret(mb.const_null())
        self.mb = None

    # -- statements -----------------------------------------------------------

    def _gen_stmt(self, stmt: ast.Stmt):
        mb = self.mb
        mb.at_line(stmt.line)
        if isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                self._gen_stmt(inner)
        elif isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                value = self._gen_expr(stmt.init)
                mb.move(stmt.reg, value)
            else:
                self._gen_default(stmt.reg, stmt.type_expr)
        elif isinstance(stmt, ast.Assign):
            self._gen_assign(stmt)
        elif isinstance(stmt, ast.IncDec):
            one = mb.const_int(1)
            op = "+" if stmt.delta > 0 else "-"
            self._gen_read_modify_write(stmt.target, op, one)
        elif isinstance(stmt, ast.If):
            self._gen_if(stmt)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt)
        elif isinstance(stmt, ast.For):
            self._gen_for(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                mb.ret()
            else:
                mb.ret(self._gen_expr(stmt.value))
        elif isinstance(stmt, ast.Break):
            mb.jump(self.loop_stack[-1][0])
        elif isinstance(stmt, ast.Continue):
            mb.jump(self.loop_stack[-1][1])
        elif isinstance(stmt, ast.ExprStmt):
            self._gen_expr(stmt.expr, want_value=False)
        elif isinstance(stmt, ast.SuperCall):
            args = [self._gen_expr(a) for a in stmt.args]
            mb.call_special(stmt.resolved_class, "<init>", "this", args)
        else:  # pragma: no cover - defensive
            raise TypeError_(f"cannot generate {type(stmt).__name__}",
                             stmt.line, stmt.col)

    def _gen_default(self, reg: str, type_expr: ast.TypeExpr):
        mb = self.mb
        type_ = resolve_type(self.table, type_expr)
        if type_ == irt.INT:
            mb.const_int(0, dest=reg)
        elif type_ == irt.BOOL:
            mb.const_bool(False, dest=reg)
        else:
            mb.const_null(dest=reg)

    def _gen_assign(self, stmt: ast.Assign):
        if stmt.op == "":
            value = self._gen_expr(stmt.value)
            self._gen_write(stmt.target, value)
        else:
            value = self._gen_expr(stmt.value)
            self._gen_read_modify_write(stmt.target, stmt.op, value,
                                        value_node=stmt.value)

    def _gen_read_modify_write(self, target: ast.Expr, op: str, value: str,
                               value_node=None):
        """Compound assignment / ++ / -- with a single evaluation of the
        target's subexpressions."""
        mb = self.mb
        is_string_append = (op == "+" and target.type == irt.STRING)
        if is_string_append and value_node is not None \
                and value_node.type == irt.INT:
            value = mb.intrinsic(ins.INTR_ITOS, [value])
        binop = ins.BIN_CONCAT if is_string_append else op

        if isinstance(target, ast.Name):
            kind = target.binding[0]
            if kind == "local":
                reg = target.binding[1]
                mb.binop(binop, reg, value, dest=reg)
                return
            if kind == "field":
                sig = target.binding[1]
                current = mb.load_field("this", sig.name)
                result = mb.binop(binop, current, value)
                mb.store_field("this", sig.name, result)
                return
            sig = target.binding[1]  # static
            current = mb.load_static(sig.owner, sig.name)
            result = mb.binop(binop, current, value)
            mb.store_static(sig.owner, sig.name, result)
            return
        if isinstance(target, ast.FieldAccess):
            if target.kind == "static":
                sig = target.field_def
                current = mb.load_static(sig.owner, sig.name)
                result = mb.binop(binop, current, value)
                mb.store_static(sig.owner, sig.name, result)
                return
            obj = self._gen_expr(target.obj)
            current = mb.load_field(obj, target.name)
            result = mb.binop(binop, current, value)
            mb.store_field(obj, target.name, result)
            return
        # Index
        arr = self._gen_expr(target.arr)
        idx = self._gen_expr(target.idx)
        current = mb.array_load(arr, idx)
        result = mb.binop(binop, current, value)
        mb.array_store(arr, idx, result)

    def _gen_write(self, target: ast.Expr, value: str):
        mb = self.mb
        if isinstance(target, ast.Name):
            kind = target.binding[0]
            if kind == "local":
                mb.move(target.binding[1], value)
            elif kind == "field":
                mb.store_field("this", target.binding[1].name, value)
            else:
                sig = target.binding[1]
                mb.store_static(sig.owner, sig.name, value)
        elif isinstance(target, ast.FieldAccess):
            if target.kind == "static":
                sig = target.field_def
                mb.store_static(sig.owner, sig.name, value)
            else:
                obj = self._gen_expr(target.obj)
                mb.store_field(obj, target.name, value)
        else:  # Index
            arr = self._gen_expr(target.arr)
            idx = self._gen_expr(target.idx)
            mb.array_store(arr, idx, value)

    def _gen_if(self, stmt: ast.If):
        mb = self.mb
        cond = self._gen_expr(stmt.cond)
        then_label = mb.fresh_label("then")
        end_label = mb.fresh_label("endif")
        if stmt.else_stmt is None:
            mb.branch(cond, then_label, end_label)
            mb.label(then_label)
            self._gen_stmt(stmt.then_stmt)
            mb.label(end_label)
        else:
            else_label = mb.fresh_label("else")
            mb.branch(cond, then_label, else_label)
            mb.label(then_label)
            self._gen_stmt(stmt.then_stmt)
            mb.jump(end_label)
            mb.label(else_label)
            self._gen_stmt(stmt.else_stmt)
            mb.label(end_label)

    def _gen_while(self, stmt: ast.While):
        mb = self.mb
        head = mb.fresh_label("while")
        body = mb.fresh_label("body")
        end = mb.fresh_label("endwhile")
        mb.label(head)
        cond = self._gen_expr(stmt.cond)
        mb.branch(cond, body, end)
        mb.label(body)
        self.loop_stack.append((end, head))
        self._gen_stmt(stmt.body)
        self.loop_stack.pop()
        mb.jump(head)
        mb.label(end)

    def _gen_for(self, stmt: ast.For):
        mb = self.mb
        if stmt.init is not None:
            self._gen_stmt(stmt.init)
        head = mb.fresh_label("for")
        body = mb.fresh_label("body")
        cont = mb.fresh_label("cont")
        end = mb.fresh_label("endfor")
        mb.label(head)
        if stmt.cond is not None:
            cond = self._gen_expr(stmt.cond)
        else:
            cond = mb.const_bool(True)
        mb.branch(cond, body, end)
        mb.label(body)
        self.loop_stack.append((end, cont))
        self._gen_stmt(stmt.body)
        self.loop_stack.pop()
        mb.label(cont)
        if stmt.update is not None:
            self._gen_stmt(stmt.update)
        mb.jump(head)
        mb.label(end)

    # -- expressions -----------------------------------------------------------

    def _gen_expr(self, expr: ast.Expr, want_value: bool = True) -> str:
        # A left spine (``a + b + c``, ``x.f().g()``, ``a[i][j]``) is
        # walked in a loop, so a flat chain of any length costs no
        # Python stack per link.  Going down, each node sets its line
        # and takes its short-circuit register before its left operand
        # is generated (that order fixes instruction lines and register
        # numbers); coming up, each finishes from its operand's register.
        mb = self.mb
        if expr.line:
            mb.at_line(expr.line)
        operand = (_generated_first(expr)
                   if type(expr) in _POSTFIX_OR_BINARY else None)
        if operand is None:
            return self._gen_leaf(expr, want_value)
        spine = []
        while operand is not None:
            result = (mb.temp() if type(expr) is ast.Binary
                      and expr.lowered in ("and", "or") else None)
            spine.append((expr, want_value, result))
            expr, want_value = operand, True
            if expr.line:
                mb.at_line(expr.line)
            operand = _generated_first(expr)
        reg = self._gen_leaf(expr, want_value)
        for node, want, result in reversed(spine):
            reg = self._gen_from_operand(node, reg, want, result)
        return reg

    def _gen_from_operand(self, expr: ast.Expr, operand: str,
                          want_value: bool, result) -> str:
        """Finish ``expr`` once :func:`_generated_first` of it is in
        register ``operand``."""
        mb = self.mb
        if isinstance(expr, ast.FieldAccess):
            if expr.kind == "arraylen":
                return mb.array_len(operand)
            return mb.load_field(operand, expr.name)
        if isinstance(expr, ast.Index):
            return mb.array_load(operand, self._gen_expr(expr.idx))
        if isinstance(expr, ast.CallExpr):
            return self._gen_call(expr, want_value, operand)
        return self._gen_binary(expr, operand, result)

    def _gen_leaf(self, expr: ast.Expr, want_value: bool) -> str:
        """An expression with no operand generated before it."""
        mb = self.mb
        if isinstance(expr, ast.IntLit):
            return mb.const_int(expr.value)
        if isinstance(expr, ast.BoolLit):
            return mb.const_bool(expr.value)
        if isinstance(expr, ast.StringLit):
            return mb.const_str(expr.value)
        if isinstance(expr, ast.NullLit):
            return mb.const_null()
        if isinstance(expr, ast.This):
            return "this"
        if isinstance(expr, ast.Name):
            kind = expr.binding[0]
            if kind == "local":
                return expr.binding[1]
            if kind == "field":
                return mb.load_field("this", expr.binding[1].name)
            sig = expr.binding[1]  # static
            return mb.load_static(sig.owner, sig.name)
        if isinstance(expr, ast.FieldAccess):   # static
            sig = expr.field_def
            return mb.load_static(sig.owner, sig.name)
        if isinstance(expr, ast.CallExpr):
            return self._gen_call(expr, want_value)
        if isinstance(expr, ast.New):
            obj = mb.new_object(expr.class_name)
            args = [self._gen_expr(a) for a in expr.args]
            mb.call_special(expr.class_name, "<init>", obj, args)
            return obj
        if isinstance(expr, ast.NewArray):
            size = self._gen_expr(expr.size)
            return mb.new_array(expr.type.elem, size)
        if isinstance(expr, ast.Unary):
            operand = self._gen_expr(expr.operand)
            op = ins.UN_NEG if expr.op == "-" else ins.UN_NOT
            return mb.unop(op, operand)
        raise TypeError_(f"cannot generate {type(expr).__name__}",
                         expr.line, expr.col)

    def _gen_call(self, expr: ast.CallExpr, want_value: bool,
                  recv: str = None) -> str:
        """``recv`` is the register of a receiver expression, already
        generated (``None`` for a call without one)."""
        mb = self.mb
        kind = expr.kind
        returns_value = expr.type != irt.VOID

        if kind == "intrinsic":
            # String instance methods pass the receiver as first operand.
            args = [recv] if recv is not None else []
            args.extend(self._gen_expr(a) for a in expr.args)
            return mb.intrinsic(expr.intrinsic, args)

        if kind == "native":
            args = [self._gen_expr(a) for a in expr.args]
            dest = mb.temp() if returns_value else None
            mb.call_native(expr.native, args, dest=dest)
            return dest

        if kind == "static":
            args = [self._gen_expr(a) for a in expr.args]
            dest = mb.temp() if returns_value else None
            mb.call_static(expr.target_class, expr.method, args, dest=dest)
            return dest

        # virtual
        if recv is None:
            recv = "this"
        args = [self._gen_expr(a) for a in expr.args]
        dest = mb.temp() if returns_value else None
        mb.call_virtual(expr.target_class, expr.method, recv, args,
                        dest=dest)
        return dest

    def _gen_binary(self, expr: ast.Binary, lhs: str, result) -> str:
        """Finish ``expr`` with its left operand in register ``lhs``;
        ``result`` is the register a short-circuit ``&&``/``||`` was
        given before its left operand was generated."""
        mb = self.mb
        lowered = expr.lowered
        if lowered in ("and", "or"):
            mb.move(result, lhs)
            rhs_label = mb.fresh_label("sc_rhs")
            end_label = mb.fresh_label("sc_end")
            if lowered == "and":
                mb.branch(result, rhs_label, end_label)
            else:
                mb.branch(result, end_label, rhs_label)
            mb.label(rhs_label)
            rhs = self._gen_expr(expr.rhs)
            mb.move(result, rhs)
            mb.label(end_label)
            return result
        if lowered == "concat":
            lhs = self._coerce_to_string(expr.lhs, lhs)
            rhs = self._gen_expr(expr.rhs)
            rhs = self._coerce_to_string(expr.rhs, rhs)
            return mb.binop(ins.BIN_CONCAT, lhs, rhs)
        if lowered in ("seq", "sne"):
            rhs = self._gen_expr(expr.rhs)
            eq = mb.intrinsic(ins.INTR_SEQ, [lhs, rhs])
            if lowered == "sne":
                return mb.unop(ins.UN_NOT, eq)
            return eq
        rhs = self._gen_expr(expr.rhs)
        return mb.binop(expr.op, lhs, rhs)

    def _coerce_to_string(self, node: ast.Expr, reg: str) -> str:
        if node.type == irt.INT:
            return self.mb.intrinsic(ins.INTR_ITOS, [reg])
        return reg


#: The node types that may have an operand generated first.
_POSTFIX_OR_BINARY = frozenset((ast.Binary, ast.Index, ast.FieldAccess,
                                ast.CallExpr))


def _generated_first(expr: ast.Expr):
    """The operand :meth:`CodeGen._gen_expr` generates before the rest
    of ``expr``: the left side of a binary, the array of an index, the
    object of an instance field access, or the receiver expression of
    an intrinsic or virtual call (not a class qualifier).  ``None``
    for every other node."""
    kind = type(expr)
    if kind is ast.Binary:
        return expr.lhs
    if kind is ast.Index:
        return expr.arr
    if kind is ast.FieldAccess:
        return None if expr.kind == "static" else expr.obj
    if kind is ast.CallExpr and expr.kind in ("intrinsic", "virtual"):
        recv = expr.recv
        if recv is not None and not (type(recv) is ast.Name
                                     and recv.binding[0] == "class"):
            return recv
    return None


def compile_source(source: str, entry_class: str = "Main",
                   entry_method: str = "main", verify: bool = True):
    """Compile MiniJ source text to a finalized IR Program."""
    program_decl = parse(source)
    table = build_class_table(program_decl)
    check(program_decl, table)
    generator = CodeGen(program_decl, table)
    program = generator.generate()
    # Entry signature check: static void main().
    info = table.classes.get(entry_class)
    if info is None:
        raise TypeError_(f"no class {entry_class!r} for program entry")
    sig = info.methods.get(entry_method)
    if sig is None or not sig.is_static or sig.param_types \
            or sig.return_type != irt.VOID:
        raise TypeError_(
            f"program entry must be 'static void {entry_method}()' "
            f"in class {entry_class}")
    program.sources["<main>"] = source
    return program.finalize(entry_class, entry_method, verify=verify)

"""Pass 2 of semantic analysis: type checking and name resolution.

Walks every method body, computes the type of each expression, resolves
identifiers to locals / fields / statics / class qualifiers, resolves
calls to virtual / static / native / intrinsic targets, and annotates
the AST in place for the code generator.
"""

from __future__ import annotations

from ..ir import instructions as ins
from ..ir import types as irt
from . import ast
from .errors import TypeError_
from .resolver import BUILTIN_CLASSES, ClassTable, resolve_type

#: String instance methods: name -> (intrinsic, extra arg types, result).
STRING_METHODS = {
    "length": (ins.INTR_SLEN, (), irt.INT),
    "charAt": (ins.INTR_SCHARAT, (irt.INT,), irt.INT),
    "equals": (ins.INTR_SEQ, (irt.STRING,), irt.BOOL),
    "hash": (ins.INTR_SHASH, (), irt.INT),
    "compare": (ins.INTR_SCMP, (irt.STRING,), irt.INT),
}

#: Static builtins on the Str class.
STR_STATICS = {
    "ofInt": (ins.INTR_ITOS, (irt.INT,), irt.STRING),
    "chr": (ins.INTR_CHR, (irt.INT,), irt.STRING),
}

#: Native methods on the Sys class: name -> (native key, arg types, result).
SYS_NATIVES = {
    "print": ("print", (irt.STRING,), irt.VOID),
    "println": ("println", (irt.STRING,), irt.VOID),
    "printInt": ("print_int", (irt.INT,), irt.VOID),
    "printBool": ("print_bool", (irt.BOOL,), irt.VOID),
    "phase": ("phase", (irt.STRING,), irt.VOID),
}


class Checker:
    def __init__(self, table: ClassTable):
        self.table = table
        self.current_class = None     # ClassInfo
        self.current_sig = None       # MethodSig of the enclosing method
        self.scopes = []              # [{name: (reg, Type)}]
        self.loop_depth = 0
        self._reg_counter = 0

    # -- entry point ---------------------------------------------------------

    def check_program(self, program: ast.ProgramDecl):
        for decl in program.classes:
            info = self.table.classes[decl.name]
            for method in decl.methods:
                self._check_method(info, method,
                                   info.methods[method.name])
            for ctor in decl.constructors:
                self._check_method(info, ctor, info.ctor)

    # -- methods ----------------------------------------------------------------

    def _check_method(self, class_info, method: ast.MethodDecl, sig):
        self.current_class = class_info
        self.current_sig = sig
        self.loop_depth = 0
        self._reg_counter = 0
        scope = {}
        for name, type_ in zip(sig.param_names, sig.param_types):
            scope[name] = (name, type_)  # params use their own name as reg
        self.scopes = [scope]
        self._check_stmt(method.body)
        if sig.return_type != irt.VOID \
                and not _always_returns(method.body):
            raise TypeError_(
                f"method {class_info.name}.{method.name} may finish "
                "without returning a value", method.line, method.col)
        self.scopes = []

    # -- scope helpers -------------------------------------------------------------

    def _lookup_local(self, name: str):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def _declare_local(self, node: ast.VarDecl, type_: irt.Type) -> str:
        scope = self.scopes[-1]
        if node.name in scope:
            raise TypeError_(f"variable {node.name!r} already declared "
                             "in this scope", node.line, node.col)
        self._reg_counter += 1
        reg = f"{node.name}${self._reg_counter}"
        scope[node.name] = (reg, type_)
        return reg

    def _error(self, node, message: str):
        raise TypeError_(message, node.line, node.col)

    # -- statements -------------------------------------------------------------------

    def _check_stmt(self, stmt: ast.Stmt):
        if isinstance(stmt, ast.Block):
            self.scopes.append({})
            for inner in stmt.stmts:
                self._check_stmt(inner)
            self.scopes.pop()
        elif isinstance(stmt, ast.VarDecl):
            type_ = resolve_type(self.table, stmt.type_expr)
            if stmt.init is not None:
                init_type = self._check_expr(stmt.init)
                self._require_assignable(stmt, type_, init_type,
                                         "initializer")
            # Declare after checking the init: `int x = x;` is an error.
            stmt.reg = self._declare_local(stmt, type_)
        elif isinstance(stmt, ast.Assign):
            self._check_assign(stmt)
        elif isinstance(stmt, ast.IncDec):
            target_type = self._check_lvalue(stmt.target)
            if target_type != irt.INT:
                self._error(stmt, "++/-- requires an int target")
        elif isinstance(stmt, ast.If):
            self._require_bool(stmt.cond)
            self._check_stmt(stmt.then_stmt)
            if stmt.else_stmt is not None:
                self._check_stmt(stmt.else_stmt)
        elif isinstance(stmt, ast.While):
            self._require_bool(stmt.cond)
            self.loop_depth += 1
            self._check_stmt(stmt.body)
            self.loop_depth -= 1
        elif isinstance(stmt, ast.For):
            self.scopes.append({})
            if stmt.init is not None:
                self._check_stmt(stmt.init)
            if stmt.cond is not None:
                self._require_bool(stmt.cond)
            if stmt.update is not None:
                self._check_stmt(stmt.update)
            self.loop_depth += 1
            self._check_stmt(stmt.body)
            self.loop_depth -= 1
            self.scopes.pop()
        elif isinstance(stmt, ast.Return):
            want = self.current_sig.return_type
            if stmt.value is None:
                if want != irt.VOID:
                    self._error(stmt, "missing return value")
            else:
                if want == irt.VOID:
                    self._error(stmt, "void method cannot return a value")
                got = self._check_expr(stmt.value)
                self._require_assignable(stmt, want, got, "return value")
        elif isinstance(stmt, ast.Break):
            if self.loop_depth == 0:
                self._error(stmt, "break outside a loop")
        elif isinstance(stmt, ast.Continue):
            if self.loop_depth == 0:
                self._error(stmt, "continue outside a loop")
        elif isinstance(stmt, ast.ExprStmt):
            if not isinstance(stmt.expr, ast.CallExpr):
                self._error(stmt, "expression statement must be a call")
            self._check_expr(stmt.expr)
        elif isinstance(stmt, ast.SuperCall):
            self._check_super_call(stmt)
        else:  # pragma: no cover - defensive
            self._error(stmt, f"unknown statement {type(stmt).__name__}")

    def _check_assign(self, stmt: ast.Assign):
        target_type = self._check_lvalue(stmt.target)
        value_type = self._check_expr(stmt.value)
        if stmt.op == "":
            self._require_assignable(stmt, target_type, value_type,
                                     "assignment")
            return
        if stmt.op == "+" and target_type == irt.STRING:
            if value_type not in (irt.STRING, irt.INT):
                self._error(stmt, "can only append string or int "
                            "to a string")
            return
        if target_type != irt.INT or value_type != irt.INT:
            self._error(stmt, f"compound '{stmt.op}=' requires int "
                        "operands")

    def _check_lvalue(self, expr: ast.Expr) -> irt.Type:
        type_ = self._check_expr(expr)
        if isinstance(expr, ast.Name):
            if expr.binding[0] == "class":
                self._error(expr, "cannot assign to a class name")
        elif isinstance(expr, ast.FieldAccess):
            if expr.kind == "arraylen":
                self._error(expr, "array length is read-only")
        elif not isinstance(expr, ast.Index):
            self._error(expr, "invalid assignment target")
        return type_

    def _check_super_call(self, stmt: ast.SuperCall):
        if not self.current_sig.is_constructor:
            self._error(stmt, "super(...) only allowed in constructors")
        super_name = self.current_class.super_name
        if super_name is None:
            self._error(stmt, f"class {self.current_class.name} has "
                        "no superclass")
        ctor = self.table.find_ctor(super_name)
        param_types = ctor.param_types if ctor is not None else []
        self._check_args(stmt, stmt.args, param_types,
                         f"super constructor of {super_name}")
        stmt.resolved_class = super_name

    # -- expressions ------------------------------------------------------------------

    def _require_bool(self, expr: ast.Expr):
        if self._check_expr(expr) != irt.BOOL:
            self._error(expr, "condition must be bool")

    def _require_assignable(self, node, target, source, what: str):
        if not self.table.assignable(target, source):
            self._error(node, f"{what}: cannot assign {source} to {target}")

    def _check_args(self, node, args, param_types, what: str):
        if len(args) != len(param_types):
            self._error(node, f"{what} expects {len(param_types)} "
                        f"argument(s), got {len(args)}")
        for arg, want in zip(args, param_types):
            got = self._check_expr(arg)
            self._require_assignable(arg, want, got, "argument")

    def _check_expr(self, expr: ast.Expr) -> irt.Type:
        operand = (_left_operand(expr) if type(expr) in _POSTFIX_OR_BINARY
                   else None)
        if operand is not None:
            # A left spine (``a + b + c``, ``x.f().g()``, ``a[i][j]``)
            # is typed bottom-up in a loop, so a flat chain of any
            # length costs no Python stack per link; each node's
            # inference then reads its left operand's annotation.
            spine = []
            while operand is not None:
                spine.append(operand)
                operand = _left_operand(operand)
            for node in reversed(spine):
                node.type = self._infer(node)
        type_ = expr.type = self._infer(expr)
        return type_

    def _infer(self, expr: ast.Expr) -> irt.Type:
        if isinstance(expr, ast.IntLit):
            return irt.INT
        if isinstance(expr, ast.BoolLit):
            return irt.BOOL
        if isinstance(expr, ast.StringLit):
            return irt.STRING
        if isinstance(expr, ast.NullLit):
            return irt.NULL
        if isinstance(expr, ast.This):
            if self.current_sig.is_static:
                self._error(expr, "'this' in a static method")
            return irt.class_of(self.current_class.name)
        if isinstance(expr, ast.Name):
            return self._infer_name(expr, as_value=True)
        if isinstance(expr, ast.FieldAccess):
            return self._infer_field_access(expr)
        if isinstance(expr, ast.Index):
            arr_type = expr.arr.type
            if not isinstance(arr_type, irt.ArrayType):
                self._error(expr, f"indexing a non-array ({arr_type})")
            idx_type = self._check_expr(expr.idx)
            if idx_type != irt.INT:
                self._error(expr, "array index must be int")
            return arr_type.elem
        if isinstance(expr, ast.CallExpr):
            return self._infer_call(expr)
        if isinstance(expr, ast.New):
            return self._infer_new(expr)
        if isinstance(expr, ast.NewArray):
            elem = resolve_type(self.table, expr.elem_type_expr)
            size_type = self._check_expr(expr.size)
            if size_type != irt.INT:
                self._error(expr, "array size must be int")
            return irt.array_of(elem)
        if isinstance(expr, ast.Unary):
            return self._infer_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._infer_binary(expr)
        self._error(expr, f"unknown expression {type(expr).__name__}")

    def _infer_name(self, expr: ast.Name, as_value: bool) -> irt.Type:
        local = self._lookup_local(expr.ident)
        if local is not None:
            reg, type_ = local
            expr.binding = ("local", reg)
            return type_
        if not self.current_sig.is_static:
            field = self.table.find_field(self.current_class.name,
                                          expr.ident)
            if field is not None:
                expr.binding = ("field", field)
                return field.type
        static = self.table.find_static_field(self.current_class.name,
                                              expr.ident)
        if static is not None:
            expr.binding = ("static", static)
            return static.type
        if expr.ident in self.table.classes \
                or expr.ident in BUILTIN_CLASSES:
            expr.binding = ("class", expr.ident)
            if as_value:
                self._error(expr, f"class name {expr.ident!r} used "
                            "as a value")
            return irt.VOID
        self._error(expr, f"undefined name {expr.ident!r}")

    def _infer_field_access(self, expr: ast.FieldAccess) -> irt.Type:
        # Class-qualified static access: ClassName.field
        if isinstance(expr.obj, ast.Name):
            obj_type = self._infer_name(expr.obj, as_value=False)
            expr.obj.type = obj_type
            if expr.obj.binding[0] == "class":
                class_name = expr.obj.binding[1]
                if class_name in BUILTIN_CLASSES:
                    self._error(expr, f"{class_name} has no fields")
                sig = self.table.find_static_field(class_name, expr.name)
                if sig is None:
                    self._error(expr, f"no static field "
                                f"{class_name}.{expr.name}")
                expr.kind = "static"
                expr.field_def = sig
                return sig.type
        else:
            obj_type = expr.obj.type

        if isinstance(obj_type, irt.ArrayType):
            if expr.name != "length":
                self._error(expr, "arrays only have .length")
            expr.kind = "arraylen"
            return irt.INT
        if isinstance(obj_type, irt.ClassType):
            sig = self.table.find_field(obj_type.name, expr.name)
            if sig is None:
                self._error(expr, f"no field {expr.name!r} in class "
                            f"{obj_type.name}")
            expr.kind = "field"
            expr.field_def = sig
            return sig.type
        if obj_type == irt.STRING:
            self._error(expr, "strings have no fields (use .length())")
        self._error(expr, f"field access on non-object type {obj_type}")

    def _infer_call(self, expr: ast.CallExpr) -> irt.Type:
        recv = expr.recv
        # Unqualified call: this.m(...) or static m(...) in current class.
        if recv is None:
            sig = self.table.find_method(self.current_class.name,
                                         expr.method)
            if sig is None:
                self._error(expr, f"undefined method {expr.method!r}")
            if not sig.is_static and self.current_sig.is_static:
                self._error(expr, f"instance method {expr.method!r} "
                            "called from a static method")
            self._check_args(expr, expr.args, sig.param_types,
                             f"method {expr.method}")
            expr.kind = "static" if sig.is_static else "virtual"
            expr.target_class = (sig.owner if sig.is_static
                                 else self.current_class.name)
            expr.target_method = sig
            return sig.return_type

        # Class-qualified call: ClassName.m(...), Sys.m(...), Str.m(...).
        if isinstance(recv, ast.Name):
            recv.type = self._infer_name(recv, as_value=False)
            if recv.binding[0] == "class":
                return self._infer_class_call(expr, recv.binding[1])

        # Instance call: expr.m(...).
        recv_type = recv.type
        if recv_type == irt.STRING:
            entry = STRING_METHODS.get(expr.method)
            if entry is None:
                self._error(expr, f"no string method {expr.method!r}")
            intrinsic, arg_types, result = entry
            self._check_args(expr, expr.args, list(arg_types),
                             f"string method {expr.method}")
            expr.kind = "intrinsic"
            expr.intrinsic = intrinsic
            return result
        if isinstance(recv_type, irt.ClassType):
            sig = self.table.find_method(recv_type.name, expr.method)
            if sig is None:
                self._error(expr, f"no method {expr.method!r} in class "
                            f"{recv_type.name}")
            if sig.is_static:
                self._error(expr, f"static method "
                            f"{sig.owner}.{expr.method} called on an "
                            "instance (qualify with the class name)")
            self._check_args(expr, expr.args, sig.param_types,
                             f"method {recv_type.name}.{expr.method}")
            expr.kind = "virtual"
            expr.target_class = recv_type.name
            expr.target_method = sig
            return sig.return_type
        self._error(expr, f"cannot call methods on type {recv_type}")

    def _infer_class_call(self, expr: ast.CallExpr,
                          class_name: str) -> irt.Type:
        if class_name == "Sys":
            entry = SYS_NATIVES.get(expr.method)
            if entry is None:
                self._error(expr, f"no Sys native {expr.method!r}")
            native, arg_types, result = entry
            self._check_args(expr, expr.args, list(arg_types),
                             f"Sys.{expr.method}")
            expr.kind = "native"
            expr.native = native
            return result
        if class_name == "Str":
            entry = STR_STATICS.get(expr.method)
            if entry is None:
                self._error(expr, f"no Str builtin {expr.method!r}")
            intrinsic, arg_types, result = entry
            self._check_args(expr, expr.args, list(arg_types),
                             f"Str.{expr.method}")
            expr.kind = "intrinsic"
            expr.intrinsic = intrinsic
            return result
        sig = self.table.find_method(class_name, expr.method)
        if sig is None or not sig.is_static:
            self._error(expr, f"no static method "
                        f"{class_name}.{expr.method}")
        self._check_args(expr, expr.args, sig.param_types,
                         f"method {class_name}.{expr.method}")
        expr.kind = "static"
        expr.target_class = sig.owner
        expr.target_method = sig
        return sig.return_type

    def _infer_new(self, expr: ast.New) -> irt.Type:
        name = expr.class_name
        if name in BUILTIN_CLASSES:
            self._error(expr, f"cannot instantiate builtin {name}")
        if name not in self.table.classes:
            self._error(expr, f"unknown class {name!r}")
        ctor = self.table.find_ctor(name)
        param_types = ctor.param_types if ctor is not None else []
        self._check_args(expr, expr.args, param_types,
                         f"constructor of {name}")
        expr.ctor_class = name
        return irt.class_of(name)

    def _infer_unary(self, expr: ast.Unary) -> irt.Type:
        operand = self._check_expr(expr.operand)
        if expr.op == "-":
            if operand != irt.INT:
                self._error(expr, "unary - requires int")
            return irt.INT
        if operand != irt.BOOL:
            self._error(expr, "! requires bool")
        return irt.BOOL

    def _infer_binary(self, expr: ast.Binary) -> irt.Type:
        op = expr.op
        if op in ("&&", "||"):
            if expr.lhs.type != irt.BOOL:
                self._error(expr.lhs, "condition must be bool")
            self._require_bool(expr.rhs)
            expr.lowered = "and" if op == "&&" else "or"
            return irt.BOOL
        lhs = expr.lhs.type
        rhs = self._check_expr(expr.rhs)
        if op == "+":
            if lhs == irt.INT and rhs == irt.INT:
                return irt.INT
            if irt.STRING in (lhs, rhs):
                other = rhs if lhs == irt.STRING else lhs
                if other not in (irt.STRING, irt.INT):
                    self._error(expr, f"cannot concatenate {other} "
                                "to a string")
                expr.lowered = "concat"
                return irt.STRING
            self._error(expr, f"+ requires ints or strings "
                        f"({lhs} + {rhs})")
        if op in ("-", "*", "/", "%", "<<", ">>"):
            if lhs != irt.INT or rhs != irt.INT:
                self._error(expr, f"{op} requires int operands")
            return irt.INT
        if op in ("&", "|", "^"):
            if lhs == irt.INT and rhs == irt.INT:
                return irt.INT
            if lhs == irt.BOOL and rhs == irt.BOOL:
                return irt.BOOL
            self._error(expr, f"{op} requires two ints or two bools")
        if op in ("<", "<=", ">", ">="):
            if lhs != irt.INT or rhs != irt.INT:
                self._error(expr, f"{op} requires int operands "
                            "(compare strings with .compare())")
            return irt.BOOL
        if op in ("==", "!="):
            if irt.STRING in (lhs, rhs):
                other = rhs if lhs == irt.STRING else lhs
                if other != irt.STRING and not isinstance(other,
                                                          irt.NullType):
                    self._error(expr, f"cannot compare string with "
                                f"{other}")
                expr.lowered = "seq" if op == "==" else "sne"
                return irt.BOOL
            ok = (lhs == rhs
                  or (lhs.is_reference() and rhs.is_reference()
                      and (self.table.assignable(lhs, rhs)
                           or self.table.assignable(rhs, lhs))))
            if not ok:
                self._error(expr, f"cannot compare {lhs} with {rhs}")
            return irt.BOOL
        self._error(expr, f"unknown operator {op!r}")


#: The node types that have a left operand (see :func:`_left_operand`).
_POSTFIX_OR_BINARY = frozenset((ast.Binary, ast.Index, ast.FieldAccess,
                                ast.CallExpr))


def _left_operand(expr: ast.Expr):
    """The operand :meth:`Checker._check_expr` types before ``expr``:
    the left side of a binary, the array of an index, the object of a
    field access or the receiver of a call.  ``None`` for other nodes
    and for a bare name before ``.``, which may be a class qualifier
    that the field-access and call rules resolve themselves."""
    kind = type(expr)
    if kind is ast.Binary:
        return expr.lhs
    if kind is ast.Index:
        return expr.arr
    if kind is ast.FieldAccess:
        operand = expr.obj
    elif kind is ast.CallExpr:
        operand = expr.recv
    else:
        return None
    return None if type(operand) is ast.Name else operand


def _always_returns(stmt: ast.Stmt) -> bool:
    """Conservative 'all paths return' check (Java-style)."""
    if isinstance(stmt, ast.Return):
        return True
    if isinstance(stmt, ast.Block):
        return any(_always_returns(s) for s in stmt.stmts)
    if isinstance(stmt, ast.If):
        return (stmt.else_stmt is not None
                and _always_returns(stmt.then_stmt)
                and _always_returns(stmt.else_stmt))
    return False


def check(program: ast.ProgramDecl, table: ClassTable):
    """Type-check ``program`` against ``table``, annotating the AST."""
    Checker(table).check_program(program)

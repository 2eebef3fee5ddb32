"""Recursive-descent parser for MiniJ.

Grammar sketch (see README for the full language reference)::

    program   := classDecl+
    classDecl := 'class' ID ('extends' ID)? '{' member* '}'
    member    := ('static')? type ID ';'                  field
               | ('static')? type ID '(' params? ')' block method
               | ID '(' params? ')' block                 constructor
    stmt      := varDecl | if | while | for | return | break | continue
               | super '(' args ')' ';' | assignment/exprStmt | block
    expr      := unary (binop unary)*, binop by BINARY_PRECEDENCE
"""

from __future__ import annotations

from . import ast
from .errors import ParseError
from .lexer import tokenize
from .tokens import T_EOF, T_IDENT, T_INT, T_KEYWORD, T_PUNCT, T_STRING

_TYPE_KEYWORDS = ("int", "bool", "string")
_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=")

#: Binary operator precedence, higher binds tighter (Java's levels).
BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

#: Deepest expression nesting the parser accepts (see
#: :meth:`Parser._nest`), so that parsing, type checking and code
#: generation of any accepted program stay within Python's default
#: recursion limit.
MAX_NESTING = 100


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self, offset: int = 0):
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != T_EOF:
            self.pos += 1
        return tok

    def check(self, kind: str, text=None) -> bool:
        return self.peek().is_(kind, text)

    def accept(self, kind: str, text=None):
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text=None):
        tok = self.peek()
        if not tok.is_(kind, text):
            want = text if text is not None else kind
            got = tok.text or tok.kind
            raise ParseError(f"expected {want!r}, found {got!r}",
                             tok.line, tok.col)
        return self.advance()

    def _error(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # -- program -----------------------------------------------------------------

    def parse_program(self) -> ast.ProgramDecl:
        classes = []
        first = self.peek()
        while not self.check(T_EOF):
            classes.append(self.parse_class())
        if not classes:
            raise ParseError("empty program", first.line, first.col)
        return ast.ProgramDecl(classes, first.line, first.col)

    def parse_class(self) -> ast.ClassDecl:
        start = self.expect(T_KEYWORD, "class")
        name = self.expect(T_IDENT).text
        super_name = None
        if self.accept(T_KEYWORD, "extends"):
            super_name = self.expect(T_IDENT).text
        self.expect(T_PUNCT, "{")
        fields, methods, constructors = [], [], []
        while not self.accept(T_PUNCT, "}"):
            member = self.parse_member(name)
            if isinstance(member, ast.FieldDecl):
                fields.append(member)
            elif member.is_constructor:
                constructors.append(member)
            else:
                methods.append(member)
        return ast.ClassDecl(name, super_name, fields, methods, constructors,
                             start.line, start.col)

    def parse_member(self, class_name: str):
        start = self.peek()
        is_static = bool(self.accept(T_KEYWORD, "static"))

        # Constructor: ClassName '(' ...
        if (not is_static and self.check(T_IDENT, class_name)
                and self.peek(1).is_(T_PUNCT, "(")):
            self.advance()
            params = self.parse_params()
            body = self.parse_block()
            return ast.MethodDecl(
                ast.TypeExpr("void", 0, start.line, start.col),
                "<init>", params, body, is_static=False,
                is_constructor=True, line=start.line, col=start.col)

        type_expr = self.parse_type(allow_void=True)
        name = self.expect(T_IDENT).text
        if self.check(T_PUNCT, "("):
            params = self.parse_params()
            body = self.parse_block()
            return ast.MethodDecl(type_expr, name, params, body, is_static,
                                  line=start.line, col=start.col)
        self.expect(T_PUNCT, ";")
        if type_expr.base == "void":
            raise ParseError("field cannot have void type",
                             start.line, start.col)
        return ast.FieldDecl(type_expr, name, is_static,
                             start.line, start.col)

    def parse_params(self):
        self.expect(T_PUNCT, "(")
        params = []
        if not self.check(T_PUNCT, ")"):
            while True:
                type_expr = self.parse_type(allow_void=False)
                name = self.expect(T_IDENT).text
                params.append((type_expr, name))
                if not self.accept(T_PUNCT, ","):
                    break
        self.expect(T_PUNCT, ")")
        return params

    # -- types ---------------------------------------------------------------------

    def parse_type(self, allow_void: bool) -> ast.TypeExpr:
        tok = self.peek()
        if tok.kind == T_KEYWORD and tok.text in _TYPE_KEYWORDS + ("void",):
            base = self.advance().text
        elif tok.kind == T_IDENT:
            base = self.advance().text
        else:
            self._error(f"expected a type, found {tok.text!r}")
        if base == "void" and not allow_void:
            raise ParseError("void is not allowed here", tok.line, tok.col)
        dims = 0
        while self.check(T_PUNCT, "[") and self.peek(1).is_(T_PUNCT, "]"):
            self.advance()
            self.advance()
            dims += 1
        if base == "void" and dims:
            raise ParseError("cannot make an array of void",
                             tok.line, tok.col)
        return ast.TypeExpr(base, dims, tok.line, tok.col)

    def _looks_like_var_decl(self) -> bool:
        """IDENT ('[' ']')* IDENT ⇒ a declaration with a class type."""
        if not self.check(T_IDENT):
            return False
        offset = 1
        while (self.peek(offset).is_(T_PUNCT, "[")
               and self.peek(offset + 1).is_(T_PUNCT, "]")):
            offset += 2
        return self.peek(offset).kind == T_IDENT

    # -- statements -------------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        start = self.expect(T_PUNCT, "{")
        stmts = []
        while not self.accept(T_PUNCT, "}"):
            stmts.append(self.parse_stmt())
        return ast.Block(stmts, start.line, start.col)

    def parse_stmt(self) -> ast.Stmt:
        tok = self.peek()
        if tok.is_(T_PUNCT, "{"):
            return self.parse_block()
        if tok.kind == T_KEYWORD:
            text = tok.text
            if text == "if":
                return self.parse_if()
            if text == "while":
                return self.parse_while()
            if text == "for":
                return self.parse_for()
            if text == "return":
                self.advance()
                value = None
                if not self.check(T_PUNCT, ";"):
                    value = self.parse_expr()
                self.expect(T_PUNCT, ";")
                return ast.Return(value, tok.line, tok.col)
            if text == "break":
                self.advance()
                self.expect(T_PUNCT, ";")
                return ast.Break(tok.line, tok.col)
            if text == "continue":
                self.advance()
                self.expect(T_PUNCT, ";")
                return ast.Continue(tok.line, tok.col)
            if text == "super":
                return self.parse_super_call()
            if text in _TYPE_KEYWORDS:
                stmt = self.parse_var_decl()
                self.expect(T_PUNCT, ";")
                return stmt
        if self._looks_like_var_decl():
            stmt = self.parse_var_decl()
            self.expect(T_PUNCT, ";")
            return stmt
        stmt = self.parse_simple_stmt()
        self.expect(T_PUNCT, ";")
        return stmt

    def parse_super_call(self) -> ast.SuperCall:
        start = self.expect(T_KEYWORD, "super")
        self.expect(T_PUNCT, "(")
        args = self.parse_args_after_lparen()
        self.expect(T_PUNCT, ";")
        return ast.SuperCall(args, start.line, start.col)

    def parse_var_decl(self) -> ast.VarDecl:
        start = self.peek()
        type_expr = self.parse_type(allow_void=False)
        name = self.expect(T_IDENT).text
        init = None
        if self.accept(T_PUNCT, "="):
            init = self.parse_expr()
        return ast.VarDecl(type_expr, name, init, start.line, start.col)

    def parse_simple_stmt(self) -> ast.Stmt:
        """Assignment, ++/--, or a bare call — without the semicolon."""
        start = self.peek()
        expr = self.parse_expr()
        tok = self.peek()
        if tok.kind == T_PUNCT and tok.text in _ASSIGN_OPS:
            self.advance()
            value = self.parse_expr()
            self._require_lvalue(expr)
            op = tok.text[:-1]  # '' for '=', '+' for '+=', etc.
            return ast.Assign(expr, op, value, start.line, start.col)
        if tok.is_(T_PUNCT, "++") or tok.is_(T_PUNCT, "--"):
            self.advance()
            self._require_lvalue(expr)
            delta = 1 if tok.text == "++" else -1
            return ast.IncDec(expr, delta, start.line, start.col)
        if not isinstance(expr, ast.CallExpr):
            raise ParseError("expression statement must be a call",
                             start.line, start.col)
        return ast.ExprStmt(expr, start.line, start.col)

    @staticmethod
    def _require_lvalue(expr):
        if not isinstance(expr, (ast.Name, ast.FieldAccess, ast.Index)):
            raise ParseError("invalid assignment target",
                             expr.line, expr.col)

    def parse_if(self) -> ast.If:
        start = self.expect(T_KEYWORD, "if")
        self.expect(T_PUNCT, "(")
        cond = self.parse_expr()
        self.expect(T_PUNCT, ")")
        then_stmt = self.parse_stmt()
        else_stmt = None
        if self.accept(T_KEYWORD, "else"):
            else_stmt = self.parse_stmt()
        return ast.If(cond, then_stmt, else_stmt, start.line, start.col)

    def parse_while(self) -> ast.While:
        start = self.expect(T_KEYWORD, "while")
        self.expect(T_PUNCT, "(")
        cond = self.parse_expr()
        self.expect(T_PUNCT, ")")
        body = self.parse_stmt()
        return ast.While(cond, body, start.line, start.col)

    def parse_for(self) -> ast.For:
        start = self.expect(T_KEYWORD, "for")
        self.expect(T_PUNCT, "(")
        init = None
        if not self.check(T_PUNCT, ";"):
            if (self.peek().kind == T_KEYWORD
                    and self.peek().text in _TYPE_KEYWORDS) \
                    or self._looks_like_var_decl():
                init = self.parse_var_decl()
            else:
                init = self.parse_simple_stmt()
        self.expect(T_PUNCT, ";")
        cond = None
        if not self.check(T_PUNCT, ";"):
            cond = self.parse_expr()
        self.expect(T_PUNCT, ";")
        update = None
        if not self.check(T_PUNCT, ")"):
            update = self.parse_simple_stmt()
        self.expect(T_PUNCT, ")")
        body = self.parse_stmt()
        return ast.For(init, cond, update, body, start.line, start.col)

    # -- expressions ---------------------------------------------------------------------

    def _nest(self):
        """Enter one level of expression nesting (a parenthesised or
        bracketed sub-expression, a call argument, a unary operand or
        a binary right operand)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self._error("expression nested too deeply")

    def parse_expr(self) -> ast.Expr:
        self._nest()
        expr = self.parse_binary(1)
        self.depth -= 1
        return expr

    def parse_binary(self, min_prec: int) -> ast.Expr:
        """Precedence climbing over :data:`BINARY_PRECEDENCE`: every
        operator binds its operands left-associatively."""
        expr = self.parse_unary()
        while True:
            tok = self.peek()
            prec = (BINARY_PRECEDENCE.get(tok.text)
                    if tok.kind == T_PUNCT else None)
            if prec is None or prec < min_prec:
                return expr
            self.advance()
            self._nest()
            rhs = self.parse_binary(prec + 1)
            self.depth -= 1
            expr = ast.Binary(tok.text, expr, rhs, tok.line, tok.col)

    def parse_unary(self) -> ast.Expr:
        tok = self.peek()
        if tok.is_(T_PUNCT, "-") or tok.is_(T_PUNCT, "!"):
            self.advance()
            self._nest()
            operand = self.parse_unary()
            self.depth -= 1
            return ast.Unary(tok.text, operand, tok.line, tok.col)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            if self.check(T_PUNCT, "."):
                self.advance()
                name = self.expect(T_IDENT).text
                if self.check(T_PUNCT, "("):
                    args = self.parse_call_args()
                    expr = ast.CallExpr(expr, name, args,
                                        expr.line, expr.col)
                else:
                    expr = ast.FieldAccess(expr, name, expr.line, expr.col)
            elif self.check(T_PUNCT, "["):
                self.advance()
                idx = self.parse_expr()
                self.expect(T_PUNCT, "]")
                expr = ast.Index(expr, idx, expr.line, expr.col)
            else:
                return expr

    def parse_call_args(self):
        self.expect(T_PUNCT, "(")
        return self.parse_args_after_lparen()

    def parse_args_after_lparen(self):
        args = []
        if not self.check(T_PUNCT, ")"):
            while True:
                args.append(self.parse_expr())
                if not self.accept(T_PUNCT, ","):
                    break
        self.expect(T_PUNCT, ")")
        return args

    def parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == T_INT:
            self.advance()
            return ast.IntLit(int(tok.text), tok.line, tok.col)
        if tok.kind == T_STRING:
            self.advance()
            return ast.StringLit(tok.text, tok.line, tok.col)
        if tok.kind == T_KEYWORD:
            if tok.text == "true":
                self.advance()
                return ast.BoolLit(True, tok.line, tok.col)
            if tok.text == "false":
                self.advance()
                return ast.BoolLit(False, tok.line, tok.col)
            if tok.text == "null":
                self.advance()
                return ast.NullLit(tok.line, tok.col)
            if tok.text == "this":
                self.advance()
                return ast.This(tok.line, tok.col)
            if tok.text == "new":
                return self.parse_new()
        if tok.kind == T_IDENT:
            self.advance()
            if self.check(T_PUNCT, "("):
                args = self.parse_call_args()
                return ast.CallExpr(None, tok.text, args, tok.line, tok.col)
            return ast.Name(tok.text, tok.line, tok.col)
        if tok.is_(T_PUNCT, "("):
            self.advance()
            expr = self.parse_expr()
            self.expect(T_PUNCT, ")")
            return expr
        self._error(f"unexpected token {tok.text or tok.kind!r} "
                    f"in expression")

    def parse_new(self) -> ast.Expr:
        start = self.expect(T_KEYWORD, "new")
        tok = self.peek()
        if tok.kind == T_KEYWORD and tok.text in _TYPE_KEYWORDS:
            base = self.advance().text
            return self._parse_new_array(base, start)
        name = self.expect(T_IDENT).text
        if self.check(T_PUNCT, "("):
            args = self.parse_call_args()
            return ast.New(name, args, start.line, start.col)
        if self.check(T_PUNCT, "["):
            return self._parse_new_array(name, start)
        self._error("expected '(' or '[' after new")

    def _parse_new_array(self, base: str, start) -> ast.NewArray:
        self.expect(T_PUNCT, "[")
        size = self.parse_expr()
        self.expect(T_PUNCT, "]")
        dims = 0
        while self.check(T_PUNCT, "[") and self.peek(1).is_(T_PUNCT, "]"):
            self.advance()
            self.advance()
            dims += 1
        elem = ast.TypeExpr(base, dims, start.line, start.col)
        return ast.NewArray(elem, size, start.line, start.col)


def parse(source: str) -> ast.ProgramDecl:
    """Parse MiniJ source text into an AST."""
    return Parser(source).parse_program()

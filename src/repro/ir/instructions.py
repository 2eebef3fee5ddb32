"""Three-address-code instruction set.

Every instruction corresponds to one unit-cost operation, matching the
paper's program representation: "each statement corresponds to a bytecode
instruction (i.e., it is either a copy assignment a = b or a computation
a = b + c that contains only one operator)".

Instructions are mutable only during program construction; after
``Program.finalize()`` each instruction has a stable ``iid`` (its static
instruction identity, used as the allocation-site id for NEW instructions
and as the node identity in dependence graphs) and branch targets are
resolved to absolute indices in the owning method body.

Operands are virtual-register names (strings).  Registers are
method-local; parameters are registers named after the parameter.
"""

from __future__ import annotations

from .types import Type

# ---------------------------------------------------------------------------
# Opcode constants (ints for fast interpreter dispatch).
# ---------------------------------------------------------------------------

OP_CONST = 1
OP_MOVE = 2
OP_BINOP = 3
OP_UNOP = 4
OP_NEW_OBJECT = 5
OP_NEW_ARRAY = 6
OP_LOAD_FIELD = 7
OP_STORE_FIELD = 8
OP_LOAD_STATIC = 9
OP_STORE_STATIC = 10
OP_ARRAY_LOAD = 11
OP_ARRAY_STORE = 12
OP_ARRAY_LEN = 13
OP_CALL = 14
OP_CALL_NATIVE = 15
OP_RETURN = 16
OP_JUMP = 17
OP_BRANCH = 18
OP_INTRINSIC = 19

OPCODE_NAMES = {
    OP_CONST: "const",
    OP_MOVE: "move",
    OP_BINOP: "binop",
    OP_UNOP: "unop",
    OP_NEW_OBJECT: "new",
    OP_NEW_ARRAY: "newarray",
    OP_LOAD_FIELD: "getfield",
    OP_STORE_FIELD: "putfield",
    OP_LOAD_STATIC: "getstatic",
    OP_STORE_STATIC: "putstatic",
    OP_ARRAY_LOAD: "aload",
    OP_ARRAY_STORE: "astore",
    OP_ARRAY_LEN: "arraylen",
    OP_CALL: "call",
    OP_CALL_NATIVE: "callnative",
    OP_RETURN: "return",
    OP_JUMP: "jump",
    OP_BRANCH: "branch",
    OP_INTRINSIC: "intrinsic",
}

# Binary operator names (used by BinOp.op).
BIN_ADD = "+"
BIN_SUB = "-"
BIN_MUL = "*"
BIN_DIV = "/"
BIN_MOD = "%"
BIN_LT = "<"
BIN_LE = "<="
BIN_GT = ">"
BIN_GE = ">="
BIN_EQ = "=="
BIN_NE = "!="
BIN_AND = "&"
BIN_OR = "|"
BIN_SHL = "<<"
BIN_SHR = ">>"
BIN_XOR = "^"
BIN_CONCAT = "concat"  # string + string -> string

ARITH_OPS = {BIN_ADD, BIN_SUB, BIN_MUL, BIN_DIV, BIN_MOD,
             BIN_AND, BIN_OR, BIN_XOR, BIN_SHL, BIN_SHR}
COMPARE_OPS = {BIN_LT, BIN_LE, BIN_GT, BIN_GE}
EQUALITY_OPS = {BIN_EQ, BIN_NE}

# Unary operator names (used by UnOp.op).
UN_NEG = "neg"
UN_NOT = "not"

# Intrinsic operation names (used by Intrinsic.op).  These are pure
# computations over string/int values; each executes in unit cost and is
# a plain computation node in the dependence graph.
INTR_SLEN = "slen"          # string -> int
INTR_SCHARAT = "scharat"    # string, int -> int (code point)
INTR_SEQ = "seq"            # string, string -> bool
INTR_SHASH = "shash"        # string -> int
INTR_ITOS = "itos"          # int -> string
INTR_CHR = "chr"            # int -> string (one code point)
INTR_SCMP = "scmp"          # string, string -> int (-1/0/1)

INTRINSIC_NAMES = {INTR_SLEN, INTR_SCHARAT, INTR_SEQ, INTR_SHASH,
                   INTR_ITOS, INTR_CHR, INTR_SCMP}

# Call kinds.
CALL_VIRTUAL = "virtual"
CALL_STATIC = "static"
CALL_SPECIAL = "special"  # constructor invocation; no dynamic dispatch


class Instruction:
    """Base class for TAC instructions."""

    __slots__ = ("iid", "line")

    op = 0  # overridden per subclass

    def __init__(self, line: int = 0):
        #: Static instruction id, assigned by Program.finalize(); unique
        #: across the whole program.  -1 until finalized.
        self.iid = -1
        self.line = line

    # -- introspection used by the verifier and printer ------------------

    def uses(self):
        """Register names read by this instruction."""
        return ()

    def defs(self):
        """Register name written by this instruction, or None."""
        return None

    def __repr__(self):
        return f"<{OPCODE_NAMES.get(self.op, '?')} iid={self.iid}>"


class Const(Instruction):
    """``dest = literal`` — int, bool, string, or null constant."""

    __slots__ = ("dest", "value", "type")
    op = OP_CONST

    def __init__(self, dest: str, value, type_: Type, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.value = value
        self.type = type_

    def defs(self):
        return self.dest


class Move(Instruction):
    """``dest = src`` — register copy (unit-cost, a node of its own)."""

    __slots__ = ("dest", "src")
    op = OP_MOVE

    def __init__(self, dest: str, src: str, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.src = src

    def uses(self):
        return (self.src,)

    def defs(self):
        return self.dest


class BinOp(Instruction):
    """``dest = lhs <op> rhs`` — single-operator computation."""

    __slots__ = ("dest", "binop", "lhs", "rhs")
    op = OP_BINOP

    def __init__(self, dest: str, binop: str, lhs: str, rhs: str,
                 line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.binop = binop
        self.lhs = lhs
        self.rhs = rhs

    def uses(self):
        return (self.lhs, self.rhs)

    def defs(self):
        return self.dest


class UnOp(Instruction):
    """``dest = <op> src``."""

    __slots__ = ("dest", "unop", "src")
    op = OP_UNOP

    def __init__(self, dest: str, unop: str, src: str, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.unop = unop
        self.src = src

    def uses(self):
        return (self.src,)

    def defs(self):
        return self.dest


class NewObject(Instruction):
    """``dest = new C`` — allocation site; ``iid`` is the site id.

    Field initialization and constructor invocation are separate
    instructions emitted by the frontend.
    """

    __slots__ = ("dest", "class_name")
    op = OP_NEW_OBJECT

    def __init__(self, dest: str, class_name: str, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.class_name = class_name

    def defs(self):
        return self.dest


class NewArray(Instruction):
    """``dest = new elem[size]`` — array allocation site."""

    __slots__ = ("dest", "elem_type", "size")
    op = OP_NEW_ARRAY

    def __init__(self, dest: str, elem_type: Type, size: str, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.elem_type = elem_type
        self.size = size

    def uses(self):
        return (self.size,)

    def defs(self):
        return self.dest


class LoadField(Instruction):
    """``dest = obj.field`` — heap read (a 'circled' node in the paper).

    Under thin slicing the base pointer ``obj`` is *not* a use; only the
    heap location's value flows to ``dest``.
    """

    __slots__ = ("dest", "obj", "field")
    op = OP_LOAD_FIELD

    def __init__(self, dest: str, obj: str, field: str, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.obj = obj
        self.field = field

    def uses(self):
        return (self.obj,)

    def defs(self):
        return self.dest


class StoreField(Instruction):
    """``obj.field = src`` — heap write (a 'boxed' node in the paper)."""

    __slots__ = ("obj", "field", "src")
    op = OP_STORE_FIELD

    def __init__(self, obj: str, field: str, src: str, line: int = 0):
        super().__init__(line)
        self.obj = obj
        self.field = field
        self.src = src

    def uses(self):
        return (self.obj, self.src)


class LoadStatic(Instruction):
    """``dest = C.field`` — static field read (stops HRAC paths)."""

    __slots__ = ("dest", "class_name", "field")
    op = OP_LOAD_STATIC

    def __init__(self, dest: str, class_name: str, field: str, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.class_name = class_name
        self.field = field

    def defs(self):
        return self.dest


class StoreStatic(Instruction):
    """``C.field = src`` — static field write (stops HRAB paths)."""

    __slots__ = ("class_name", "field", "src")
    op = OP_STORE_STATIC

    def __init__(self, class_name: str, field: str, src: str, line: int = 0):
        super().__init__(line)
        self.class_name = class_name
        self.field = field
        self.src = src

    def uses(self):
        return (self.src,)


class ArrayLoad(Instruction):
    """``dest = arr[idx]`` — heap read of the ELM pseudo-field.

    The index *is* a use ("for an array element access, the index used to
    locate the element is still considered to be used"); the array base
    pointer is not.
    """

    __slots__ = ("dest", "arr", "idx")
    op = OP_ARRAY_LOAD

    def __init__(self, dest: str, arr: str, idx: str, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.arr = arr
        self.idx = idx

    def uses(self):
        return (self.arr, self.idx)

    def defs(self):
        return self.dest


class ArrayStore(Instruction):
    """``arr[idx] = src`` — heap write of the ELM pseudo-field."""

    __slots__ = ("arr", "idx", "src")
    op = OP_ARRAY_STORE

    def __init__(self, arr: str, idx: str, src: str, line: int = 0):
        super().__init__(line)
        self.arr = arr
        self.idx = idx
        self.src = src

    def uses(self):
        return (self.arr, self.idx, self.src)


class ArrayLen(Instruction):
    """``dest = arr.length`` — reads array metadata, not ELM contents."""

    __slots__ = ("dest", "arr")
    op = OP_ARRAY_LEN

    def __init__(self, dest: str, arr: str, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.arr = arr

    def uses(self):
        return (self.arr,)

    def defs(self):
        return self.dest


class Call(Instruction):
    """Method invocation.

    ``kind`` is one of CALL_VIRTUAL (dispatch on the receiver's dynamic
    class), CALL_STATIC (no receiver), or CALL_SPECIAL (constructor —
    static target, receiver passed explicitly).
    """

    __slots__ = ("dest", "kind", "class_name", "method_name", "recv", "args",
                 "resolved")
    op = OP_CALL

    def __init__(self, dest, kind: str, class_name: str, method_name: str,
                 recv, args, line: int = 0):
        super().__init__(line)
        self.dest = dest            # register or None (void / discarded)
        self.kind = kind
        self.class_name = class_name
        self.method_name = method_name
        self.recv = recv            # register or None for static calls
        self.args = list(args)
        #: MethodDef resolved by Program.finalize() for static/special
        #: calls; None for virtual calls (resolved per-receiver at run
        #: time via the class vtable).
        self.resolved = None

    def uses(self):
        regs = list(self.args)
        if self.recv is not None:
            regs.append(self.recv)
        return tuple(regs)

    def entry_args(self) -> list:
        """The registers bound to the callee's
        :attr:`~repro.ir.module.MethodDef.entry_registers`, in their
        order: the receiver, then the arguments."""
        return ([self.recv] if self.recv is not None else []) + self.args

    def defs(self):
        return self.dest


class CallNative(Instruction):
    """Invocation of a VM-provided native (``Sys.print`` etc.).

    Natives are consumer nodes in the dependence graph: values flowing
    into them are treated as reaching program output.
    """

    __slots__ = ("dest", "native", "args", "resolved_native")
    op = OP_CALL_NATIVE

    def __init__(self, dest, native: str, args, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.native = native
        self.args = list(args)
        #: Callable bound by Program.finalize() so the interpreter's
        #: hot path skips the per-execution registry lookup; stays
        #: None for unknown natives (reported when executed).
        self.resolved_native = None

    def uses(self):
        return tuple(self.args)

    def defs(self):
        return self.dest


class Return(Instruction):
    """``return [src]``."""

    __slots__ = ("src",)
    op = OP_RETURN

    def __init__(self, src=None, line: int = 0):
        super().__init__(line)
        self.src = src

    def uses(self):
        return (self.src,) if self.src is not None else ()


class Jump(Instruction):
    """Unconditional jump; ``target`` is a label name until finalize()."""

    __slots__ = ("target", "target_index")
    op = OP_JUMP

    def __init__(self, target: str, line: int = 0):
        super().__init__(line)
        self.target = target
        self.target_index = -1


class Branch(Instruction):
    """``if (cond) goto then else goto otherwise`` — the predicate node.

    The condition register is consumed by control-flow decision making;
    branch instructions become contextless predicate nodes in Gcost.
    """

    __slots__ = ("cond", "then_target", "else_target",
                 "then_index", "else_index")
    op = OP_BRANCH

    def __init__(self, cond: str, then_target: str, else_target: str,
                 line: int = 0):
        super().__init__(line)
        self.cond = cond
        self.then_target = then_target
        self.else_target = else_target
        self.then_index = -1
        self.else_index = -1

    def uses(self):
        return (self.cond,)


class Intrinsic(Instruction):
    """``dest = intr(args...)`` — built-in string/int computation."""

    __slots__ = ("dest", "intr", "args")
    op = OP_INTRINSIC

    def __init__(self, dest: str, intr: str, args, line: int = 0):
        super().__init__(line)
        self.dest = dest
        self.intr = intr
        self.args = list(args)

    def uses(self):
        return tuple(self.args)

    def defs(self):
        return self.dest

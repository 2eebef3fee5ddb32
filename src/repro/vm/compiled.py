"""Compiled execution tier: per-method template-compiled activations.

The reference loop (:func:`repro.vm.interpreter.interpret`) pays a
fixed toll per executed instruction: an opcode ladder and operand-name
lookups on the instruction object.  This module removes that toll by
compiling every finalized method into a specialized Python generator
function, an activation function of the driver's call/return protocol
(see :mod:`repro.vm.interpreter`).  A program's tier is built once:
every method's shape is checked up front, and each method is emitted
and compiled to a function on its first call.  Two template variants
exist; the tracer's type selects one per run:

* **plain** (no tracer; untracked sampling bursts) -- every virtual
  register is a Python local, and the template contains **zero
  tracking branches**: no ``traced`` flag, no hooks, nothing to predict;
* **tracked** (the tracer is exactly
  :class:`~repro.profiler.tracker.CostTracker`) -- registers *and their
  shadow nodes* are locals, and the paper's Figure-4 rules are emitted
  inline: an intra-method instruction or ``LOAD_FIELD`` finds its node
  in its iid's row (rows are bound once per activation), bumps its
  frequency, tests its def-use edges against the source nodes'
  successor sets and stores its shadow, with no call on the hot path;
  heap stores, array accesses, allocations, natives and returns call
  tracker helpers that take node ids and values.  Calls and returns
  follow :mod:`repro.profiler.base`'s shadow handoff: a call leaves
  the callee's entry tuple on its frame, which the callee's prologue
  unpacks in ``MethodDef.entry_registers`` order; a return leaves its
  node with the tracker for the caller's resume.  So either side of a
  call may be an interpreted activation.

Every other tracer (the client analyses, ``CostTracker`` subclasses)
has no template: :func:`template_tiers` declines the run and the VM
runs the interpreter tier, so those tracers observe the interpreter's
``trace_*`` hook protocol, their reference semantics.

Instruction fields (operator, field name, literal value, branch
targets, resolved call targets, class objects, natives) are baked into
the generated source or bound once in the module namespace, and the
tracked template guards tracking with one hoisted ``traced`` flag.

Control flow is compiled to basic blocks dispatched by a small integer
``_L`` inside one ``while True`` loop; calls suspend the generator with
a ``yield`` carrying ``(target, callee_frame, count, limit)`` to the
VM's activation driver (:meth:`repro.vm.interpreter.VM._drive`).

The instruction budget, telemetry growth samples, and sampling-window
toggles all share the reference loop's single ``count > limit``
checkpoint (see :class:`repro.vm.interpreter.RunControl`), and a
faulting template stores its exact count as the reference loop does,
so the compiled tier preserves the interpreter's ``instr_count``,
phase-window, and fault-containment semantics.

Burst sampling (``VM(sampling=...)``) selects the template *per
activation*: the driver runs an activation spawned while the tracking
window is off on the plain template at full speed until it returns;
one spawned inside a window (and the entry activation) runs the
tracked template, whose hoisted flag follows the window toggles.  The
tracked template re-reads its frame's context after every checkpoint,
native and call return, because a window opening rebuilds the chain.

Methods whose shapes the templates do not cover (no return instruction,
execution falling off the end of the body, unknown operators) mark the
whole program unsupported and the VM transparently falls back to the
interpreter tier.  Every method's shape is checked when the program's
first tier is built, so a method that is never called decides the
fallback exactly as one that is; each method's source is then emitted
and compiled on its first call.
"""

from __future__ import annotations

from ..ir import instructions as ins
from ..observability.telemetry import bound_shadows
from .errors import (VMArithmeticError, VMBoundsError, VMError, VMNullError)
from .frames import Frame
from .interpreter import (_as_str, _is_ref, _java_div, _java_rem,
                          _string_hash, interpret)
from .natives import lookup_native

VARIANT_PLAIN = "plain"
VARIANT_TRACKED = "tracked"

#: What the tracked template binds from ``rt.env`` per activation (see
#: :func:`_bind_tracked`, which builds the values in this order).
_TRACKED_ENV = ("_fire", "_tr", "tk", "freq", "flags", "sc", "ngs", "cr",
                "ctl", "slots", "fx", "bo", "ss", "_br", "_nn", "_pn", "_ae",
                "_cd", "_tg", "_nob", "_nar", "_st", "_ald", "_nat", "_ret")


def _bind_tracked(rt, gens):
    """Install the tracked template's per-run bindings on ``rt``."""
    tracker = rt.vm.tracer
    cursor = rt.cursor
    traced_now = ((lambda: tracker.enabled) if cursor is None
                  else (lambda: tracker.enabled and cursor.on))
    fire = rt.fire

    def fire_tracked(count, instr, frame):
        return (fire(count, instr, frame), traced_now(),
                frame.g, frame.dctx)

    graph = tracker.graph
    rt.env = (fire_tracked, traced_now, tracker, graph.freq, graph.flags,
              graph.succs, tracker._node_gs, tracker.track_cr,
              tracker.track_control, tracker.slots, graph.effects,
              tracker.branch_outcomes, tracker._static_shadow,
              tracker._bound_rows, tracker._first, tracker._predicate,
              graph.add_edge, tracker._control_dep, tracker._tag,
              tracker._alloc, tracker._new_array, tracker._store,
              tracker._array_load, tracker._native, tracker._return)
    rt.live_shadow = lambda: _live_shadow(gens, rt.stack)


def _live_shadow(gens, stack) -> int:
    """Shadow locations held by the tracked activations on the stack.

    A template's shadows are Python locals named ``s<n>``; this cold
    path (one telemetry growth sample) counts the bound ones, which is
    what the interpreter's per-frame shadows hold.  An activation of
    the reference loop (in a mixed tier) keeps them on its frame.
    """
    total = 0
    for (gen, tracked), frame in zip(gens, stack):
        if not tracked:
            continue
        if gen.gi_code is interpret.__code__:
            total += bound_shadows(frame.shadow)
        elif gen.gi_frame is not None:
            total += sum(1 for name, node in gen.gi_frame.f_locals.items()
                         if node is not None and name[0] == "s"
                         and name[1:].isdigit())
    return total


class UnsupportedShape(Exception):
    """A method the templates cannot compile; triggers interp fallback."""


#: Opcodes that end a basic block.
_TERMINATORS = (ins.OP_BRANCH, ins.OP_JUMP, ins.OP_RETURN)

#: What the templates can express (see _MethodEmitter._emit_instr).
_OPCODES = frozenset(range(ins.OP_CONST, ins.OP_INTRINSIC + 1))
_BINOPS = frozenset(("+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==",
                     "!=", "&", "|", "^", "<<", ">>", ins.BIN_CONCAT))
_INTRINSICS = frozenset((ins.INTR_SLEN, ins.INTR_SCHARAT, ins.INTR_SEQ,
                         ins.INTR_SHASH, ins.INTR_ITOS, ins.INTR_CHR,
                         ins.INTR_SCMP))


def _blocks(method):
    """``method``'s basic blocks as ``(leader, instructions, next)``.

    ``next`` is the index a block falls through to, or None when its
    last instruction is a terminator.  Instructions no block reaches
    by position (dead code after a terminator) are left out, as the
    templates leave them out.
    """
    body = method.body
    name = method.qualified_name
    if not body:
        raise UnsupportedShape(f"{name}: empty body")
    if not any(i.op == ins.OP_RETURN for i in body):
        raise UnsupportedShape(f"{name}: no return instruction")
    leaders = {0}
    for instr in body:
        if instr.op == ins.OP_BRANCH:
            leaders.add(instr.then_index)
            leaders.add(instr.else_index)
        elif instr.op == ins.OP_JUMP:
            leaders.add(instr.target_index)
    blocks = []
    for leader in sorted(leaders):
        i = leader
        instrs = []
        while i < len(body) and (i == leader or i not in leaders):
            instrs.append(body[i])
            if body[i].op in _TERMINATORS:
                break
            i += 1
        else:
            if i >= len(body):
                raise UnsupportedShape(f"{name}: execution can fall off "
                                       f"the end of the body")
            blocks.append((leader, instrs, i))
            continue
        blocks.append((leader, instrs, None))
    return blocks


def _check_shape(method):
    """Raise :class:`UnsupportedShape` unless every variant's template
    can express ``method``."""
    for _, instrs, _ in _blocks(method):
        for instr in instrs:
            op = instr.op
            if (op not in _OPCODES
                    or op == ins.OP_BINOP and instr.binop not in _BINOPS
                    or op == ins.OP_INTRINSIC
                    and instr.intr not in _INTRINSICS):
                raise UnsupportedShape(
                    f"{method.qualified_name}: cannot compile {instr}")


class _Binder:
    """Assigns stable namespace names to runtime constants."""

    def __init__(self, ns):
        self.ns = ns
        self._names = {}

    def bind(self, obj, prefix: str) -> str:
        name = self._names.get(id(obj))
        if name is None:
            name = f"_{prefix}{len(self._names)}"
            self._names[id(obj)] = name
            self.ns[name] = obj
        return name


def _base_namespace() -> dict:
    return {
        "_F": Frame,
        "_VE": VMError,
        "_NE": VMNullError,
        "_BE": VMBoundsError,
        "_AE": VMArithmeticError,
        "_jd": _java_div,
        "_jr": _java_rem,
        "_sh": _string_hash,
        "_as": _as_str,
        "_ir": _is_ref,
        "_ln": lookup_native,
    }


# ---------------------------------------------------------------------------
# Method template emission
# ---------------------------------------------------------------------------

class _MethodEmitter:
    def __init__(self, method, fname: str, variant: str, binder: _Binder):
        self.method = method
        self.fname = fname
        self.tracked = variant == VARIANT_TRACKED
        self.binder = binder
        self.lines = []
        self._mangled = {}
        self._rows = []       # iids of context-annotated nodes -> w<n>
        self._cells = []      # branch iids -> c<n>

    # -- small helpers ---------------------------------------------------

    def reg(self, name: str) -> str:
        """Accessor expression for virtual register ``name``."""
        mangled = self._mangled.get(name)
        if mangled is None:
            mangled = self._mangled[name] = f"r{len(self._mangled)}"
        return mangled

    def shadow(self, name: str) -> str:
        """The tracked template's shadow local of register ``name``."""
        return "s" + self.reg(name)[1:]

    def iname(self, instr) -> str:
        return self.binder.bind(instr, "i")

    def emit(self, depth: int, text: str):
        self.lines.append("    " * depth + text)

    def check(self, d: int, instr):
        """The fused budget / telemetry / sampling checkpoint."""
        fire = f"_fire(count, {self.iname(instr)}, frame)"
        if self.tracked:
            # The tracked template's _fire also re-reads the flag and
            # the frame's context (a window opening rebuilds it).
            fire = f"limit, traced, g, dctx = {fire}"
        else:
            fire = f"limit = {fire}"
        self.emit(d, f"if (count := count + 1) > limit: {fire}")

    def hook(self, d: int, instr):
        """Track ``instr`` after it ran: the tracked template's inline
        rule (the plain template tracks nothing)."""
        if self.tracked:
            self.emit(d, "if traced:")
            self._emit_rule(d + 1, instr)

    # -- emission --------------------------------------------------------

    def source(self) -> str:
        # Body first: discovers mangled registers and node rows, both
        # needed by the prologue.
        self.lines = []
        self._emit_blocks()
        block_lines = self.lines

        self.lines = []
        self.emit(0, f"def {self.fname}(rt, frame, count, limit):")
        self._emit_prologue()
        self.emit(1, "try:")
        self.emit(2, "_L = 0")
        self.emit(2, "while True:")
        self.lines.extend(block_lines)
        self.emit(3, "else:")
        self.emit(4, "raise _VE('compiled dispatch lost', None, frame)")
        self.emit(1, "except _VE:")
        self.emit(2, "vm.instr_count = count")
        self.emit(2, "raise")
        return "\n".join(self.lines) + "\n"

    def _emit_prologue(self):
        self.emit(1, "vm = rt.vm")
        if not self.tracked:
            self.emit(1, "_fire = rt.fire")
        # Entry registers (receiver + parameters) become locals.
        entry_regs = self.method.entry_registers
        bound = [name for name in entry_regs if name in self._mangled]
        if self.tracked:
            self._emit_tracked_prologue(entry_regs)
        if bound:
            self.emit(1, "_rg = frame.regs")
            for name in bound:
                self.emit(1, f"{self.reg(name)} = _rg[{name!r}]")

    def _emit_tracked_prologue(self, entry_regs):
        self.emit(1, f"{', '.join(_TRACKED_ENV)} = rt.env")
        self.emit(1, "traced = _tr()")
        self.emit(1, "g = frame.g; dctx = frame.dctx; lp = frame.last_pred")
        names = ([f"w{n}" for n in range(len(self._rows))]
                 + [f"c{n}" for n in range(len(self._cells))])
        if names:
            mname = self.binder.bind(self.method, "m")
            self.emit(1, f"{', '.join(names)}, = _br.get({mname}) or "
                         f"tk._method_rows({mname}, {tuple(self._rows)}, "
                         f"{tuple(self._cells)})")
        # Every entry register gets its shadow local, used or not: the
        # caller hands over one shadow per argument (see _emit_call).
        entry = [self.shadow(name) for name in entry_regs]
        others = sorted({self.shadow(name) for name in self._mangled}
                        - set(entry), key=lambda s: int(s[1:]))
        if others:
            self.emit(1, " = ".join(others) + " = None")
        if entry:
            nones = "None, " * len(entry)
            self.emit(1, f"{', '.join(entry)}, = frame.shadow or ({nones})")

    def _emit_blocks(self):
        for pos, (leader, instrs, fall_through) in enumerate(
                _blocks(self.method)):
            kw = "if" if pos == 0 else "elif"
            self.emit(3, f"{kw} _L == {leader}:")
            for instr in instrs:
                self._emit_instr(4, instr)
            if fall_through is not None:
                self.emit(4, f"_L = {fall_through}")
                self.emit(4, "continue")

    def _emit_instr(self, d: int, instr):
        """Emit one instruction."""
        op = instr.op
        R = self.reg
        iname = self.iname(instr)
        self.check(d, instr)

        if op == ins.OP_CONST:
            self.emit(d, f"{R(instr.dest)} = {instr.value!r}")
            self.hook(d, instr)

        elif op == ins.OP_MOVE:
            self.emit(d, f"{R(instr.dest)} = {R(instr.src)}")
            self.hook(d, instr)

        elif op == ins.OP_BINOP:
            self._emit_binop(d, instr, iname)
            self.hook(d, instr)

        elif op == ins.OP_UNOP:
            expr = (f"-{R(instr.src)}" if instr.unop == ins.UN_NEG
                    else f"not {R(instr.src)}")
            self.emit(d, f"{R(instr.dest)} = {expr}")
            self.hook(d, instr)

        elif op == ins.OP_BRANCH:
            self.emit(d, f"_L = {instr.then_index} if {R(instr.cond)} "
                         f"else {instr.else_index}")
            self.hook(d, instr)
            self.emit(d, "continue")

        elif op == ins.OP_JUMP:
            self.emit(d, f"_L = {instr.target_index}")
            self.emit(d, "continue")

        elif op == ins.OP_LOAD_FIELD:
            self.emit(d, f"_o = {R(instr.obj)}")
            self.emit(d, f"if _o is None: raise _NE("
                         f"'null dereference reading .{instr.field}', "
                         f"{iname}, frame)")
            self.emit(d, f"{R(instr.dest)} = _o.fields[{instr.field!r}]")
            self.hook(d, instr)

        elif op == ins.OP_STORE_FIELD:
            self.emit(d, f"_o = {R(instr.obj)}")
            self.emit(d, f"if _o is None: raise _NE("
                         f"'null dereference writing .{instr.field}', "
                         f"{iname}, frame)")
            self.emit(d, f"_v = {R(instr.src)}")
            self.emit(d, f"_o.fields[{instr.field!r}] = _v")
            self.hook(d, instr)

        elif op == ins.OP_ARRAY_LOAD:
            self.emit(d, f"_o = {R(instr.arr)}")
            self.emit(d, f"if _o is None: raise _NE('null array load', "
                         f"{iname}, frame)")
            self.emit(d, f"_x = {R(instr.idx)}")
            self.emit(d, "_e = _o.elems")
            self.emit(d, f"if _x < 0 or _x >= len(_e): raise _BE("
                         f"f'index {{_x}} out of bounds for length "
                         f"{{len(_e)}}', {iname}, frame)")
            self.emit(d, f"{R(instr.dest)} = _e[_x]")
            self.hook(d, instr)

        elif op == ins.OP_ARRAY_STORE:
            self.emit(d, f"_o = {R(instr.arr)}")
            self.emit(d, f"if _o is None: raise _NE('null array store', "
                         f"{iname}, frame)")
            self.emit(d, f"_x = {R(instr.idx)}")
            self.emit(d, "_e = _o.elems")
            self.emit(d, f"if _x < 0 or _x >= len(_e): raise _BE("
                         f"f'index {{_x}} out of bounds for length "
                         f"{{len(_e)}}', {iname}, frame)")
            self.emit(d, f"_v = {R(instr.src)}")
            self.emit(d, "_e[_x] = _v")
            self.hook(d, instr)

        elif op == ins.OP_ARRAY_LEN:
            self.emit(d, f"_o = {R(instr.arr)}")
            self.emit(d, f"if _o is None: raise _NE('null array length', "
                         f"{iname}, frame)")
            self.emit(d, f"{R(instr.dest)} = len(_o.elems)")
            self.hook(d, instr)

        elif op == ins.OP_NEW_OBJECT:
            cls = self.binder.ns["_program"].classes[instr.class_name]
            cname = self.binder.bind(cls, "c")
            self.emit(d, f"_o = vm.heap.new_object({cname}, {instr.iid})")
            self.emit(d, f"{R(instr.dest)} = _o")
            self.hook(d, instr)

        elif op == ins.OP_NEW_ARRAY:
            tname = self.binder.bind(instr.elem_type, "t")
            self.emit(d, f"_n = {R(instr.size)}")
            self.emit(d, f"if _n < 0: raise _BE(f'negative array size "
                         f"{{_n}}', {iname}, frame)")
            self.emit(d, f"_o = vm.heap.new_array({tname}, {instr.iid}, _n)")
            self.emit(d, f"{R(instr.dest)} = _o")
            self.hook(d, instr)

        elif op == ins.OP_LOAD_STATIC:
            self.emit(d, f"{R(instr.dest)} = vm._static_slot("
                         f"{instr.class_name!r}, {instr.field!r})")
            self.hook(d, instr)

        elif op == ins.OP_STORE_STATIC:
            self.emit(d, f"vm._set_static_slot({instr.class_name!r}, "
                         f"{instr.field!r}, {R(instr.src)})")
            self.hook(d, instr)

        elif op == ins.OP_INTRINSIC:
            self._emit_intrinsic(d, instr, iname)
            self.hook(d, instr)

        elif op == ins.OP_CALL:
            self._emit_call(d, instr, iname)

        elif op == ins.OP_CALL_NATIVE:
            self._emit_native(d, instr, iname)

        elif op == ins.OP_RETURN:
            self.hook(d, instr)
            value = R(instr.src) if instr.src is not None else "None"
            self.emit(d, f"yield (None, {value}, count, limit)")
            self.emit(d, "return")

        else:
            raise UnsupportedShape(
                f"{self.method.qualified_name}: unknown opcode {op}")

    # -- the tracked template's inline Figure-4 rules ----------------------

    def _emit_rule(self, d: int, instr):
        """``instr``'s tracking rule, run when the ``traced`` flag is on.

        Mirrors :class:`~repro.profiler.tracker.CostTracker`'s hooks
        step for step (node, control dependence, edges in the hooks'
        order, effects, shadow), so the graph, its node numbering and
        the tracker state are the ones the hooks build.
        """
        from ..profiler.graph import (ELM, EFFECT_LOAD, F_ALLOC,
                                      F_HEAP_READ, F_HEAP_WRITE)
        op = instr.op
        S = self.shadow
        if op == ins.OP_BRANCH:
            cell = f"c{len(self._cells)}"
            self._cells.append(instr.iid)
            cond = S(instr.cond)
            self.emit(d, f"if (_k := {cell}[0]) < 0: "
                         f"_k = _pn({cell}, {instr.iid})")
            self.emit(d, "else: freq[_k] += 1")
            self._edge(d, cond)
            self.emit(d, f"bo[{instr.iid}][0 if {self.reg(instr.cond)} "
                         f"else 1] += 1")
            self.emit(d, "if ctl: lp = _k")
            return
        if op == ins.OP_RETURN:
            node = S(instr.src) if instr.src is not None else "None"
            self.emit(d, f"_ret({instr.iid}, {node})")
            return
        flag = {ins.OP_LOAD_FIELD: F_HEAP_READ, ins.OP_LOAD_STATIC:
                F_HEAP_READ, ins.OP_ARRAY_LOAD: F_HEAP_READ,
                ins.OP_STORE_FIELD: F_HEAP_WRITE, ins.OP_STORE_STATIC:
                F_HEAP_WRITE, ins.OP_ARRAY_STORE: F_HEAP_WRITE,
                ins.OP_NEW_OBJECT: F_ALLOC,
                ins.OP_NEW_ARRAY: F_ALLOC}.get(op, 0)
        row = f"w{len(self._rows)}"
        self._rows.append(instr.iid)
        # First execution: the helper numbers the node.  Repeats: its
        # frequency, flag (a tracker profiling several builds of one
        # program may meet an iid under another opcode), CR context
        # and (track_control only: ``lp`` stays None otherwise)
        # control dependence, inline.
        self.emit(d, f"if (_k := {row}[dctx]) < 0: "
                     f"_k = _nn({row}, {instr.iid}, dctx, g, {flag}, lp)")
        mark = f" flags[_k] |= {flag};" if flag else ""
        self.emit(d, f"else: freq[_k] += 1;{mark} cr and ngs[_k].add(g); "
                     f"lp is None or _cd(_k, lp)")
        if op in (ins.OP_MOVE, ins.OP_UNOP):
            self._edge(d, S(instr.src))
        elif op == ins.OP_BINOP:
            self._edge(d, S(instr.lhs))
            self._edge(d, S(instr.rhs))
        elif op == ins.OP_INTRINSIC:
            for arg in instr.args:
                self._edge(d, S(arg))
        elif op == ins.OP_ARRAY_LEN:
            self._edge(d, S(instr.arr))
        elif op == ins.OP_LOAD_STATIC:
            self.emit(d, f"_x = ss.get({(instr.class_name, instr.field)!r})")
            self._edge(d, "_x")
        elif op == ins.OP_STORE_STATIC:
            self._edge(d, S(instr.src))
            self.emit(d, f"ss[{(instr.class_name, instr.field)!r}] = _k")
            return
        elif op == ins.OP_LOAD_FIELD:
            field = repr(instr.field)
            self.emit(d, f"fx[_k] = ({EFFECT_LOAD!r}, _o.tag or _tg(_o), "
                         f"{field})")
            self.emit(d, "_x = _o.shadow")
            self.emit(d, f"if _x is not None: _x = _x.get({field})")
            self._edge(d, "_x")
        elif op == ins.OP_STORE_FIELD:
            field = repr(instr.field)
            self.emit(d, f"_st(_k, _o, {field}, {field}, _v, "
                         f"{S(instr.src)}, None)")
            return
        elif op == ins.OP_ARRAY_LOAD:
            self.emit(d, f"_ald(_k, _o, _x, {S(instr.idx)})")
        elif op == ins.OP_ARRAY_STORE:
            self.emit(d, f"_st(_k, _o, {ELM!r}, _x, _v, {S(instr.src)}, "
                         f"{S(instr.idx)})")
            return
        elif op == ins.OP_NEW_OBJECT:
            self.emit(d, f"_nob(_k, {instr.iid}, dctx, _o)")
        elif op == ins.OP_NEW_ARRAY:
            self.emit(d, f"_nar(_k, {instr.iid}, dctx, _o, "
                         f"{S(instr.size)})")
        self.emit(d, f"{S(instr.dest)} = _k")

    def _edge(self, d: int, src: str):
        """Def-use edge from the node in local ``src`` to node ``_k``;
        only a new edge pays for a call."""
        self.emit(d, f"if {src} is not None and _k not in sc[{src}]: "
                     f"_ae({src}, _k)")

    # -- operators ---------------------------------------------------------

    def _emit_binop(self, d: int, instr, iname: str):
        R = self.reg
        dest, a, b = R(instr.dest), R(instr.lhs), R(instr.rhs)
        op = instr.binop
        if op in ("+", "-", "*", "<", "<=", ">", ">="):
            self.emit(d, f"{dest} = {a} {op} {b}")
        elif op == "==":
            self.emit(d, f"_a = {a}")
            self.emit(d, f"_b = {b}")
            self.emit(d, f"{dest} = (_a is _b) if (_ir(_a) or _ir(_b)) "
                         f"else (_a == _b)")
        elif op == "!=":
            self.emit(d, f"_a = {a}")
            self.emit(d, f"_b = {b}")
            self.emit(d, f"{dest} = (_a is not _b) if (_ir(_a) or _ir(_b)) "
                         f"else (_a != _b)")
        elif op == "/":
            self.emit(d, f"_b = {b}")
            self.emit(d, f"if _b == 0: raise _AE('division by zero', "
                         f"{iname}, frame)")
            self.emit(d, f"{dest} = _jd({a}, _b)")
        elif op == "%":
            self.emit(d, f"_b = {b}")
            self.emit(d, f"if _b == 0: raise _AE('modulo by zero', "
                         f"{iname}, frame)")
            self.emit(d, f"{dest} = _jr({a}, _b)")
        elif op == ins.BIN_CONCAT:
            self.emit(d, f"{dest} = _as({a}) + _as({b})")
        elif op == "&":
            self.emit(d, f"_a = {a}")
            self.emit(d, f"_b = {b}")
            self.emit(d, f"{dest} = (_a and _b) if isinstance(_a, bool) "
                         f"else (_a & _b)")
        elif op == "|":
            self.emit(d, f"_a = {a}")
            self.emit(d, f"_b = {b}")
            self.emit(d, f"{dest} = (_a or _b) if isinstance(_a, bool) "
                         f"else (_a | _b)")
        elif op == "^":
            self.emit(d, f"_a = {a}")
            self.emit(d, f"_b = {b}")
            self.emit(d, f"{dest} = (_a != _b) if isinstance(_a, bool) "
                         f"else (_a ^ _b)")
        elif op == "<<":
            self.emit(d, f"{dest} = {a} << ({b} & 31)")
        elif op == ">>":
            self.emit(d, f"{dest} = {a} >> ({b} & 31)")
        else:
            raise UnsupportedShape(
                f"{self.method.qualified_name}: unknown binop {op!r}")

    def _emit_intrinsic(self, d: int, instr, iname: str):
        R = self.reg
        dest = R(instr.dest)
        args = instr.args
        intr = instr.intr
        if intr == ins.INTR_SLEN:
            self.emit(d, f"_s = {R(args[0])}")
            self.emit(d, f"if _s is None: raise _NE('length() on null "
                         f"string', {iname}, frame)")
            self.emit(d, f"{dest} = len(_s)")
        elif intr == ins.INTR_SCHARAT:
            self.emit(d, f"_s = {R(args[0])}")
            self.emit(d, f"if _s is None: raise _NE('charAt() on null "
                         f"string', {iname}, frame)")
            self.emit(d, f"_x = {R(args[1])}")
            self.emit(d, f"if _x < 0 or _x >= len(_s): raise _BE("
                         f"f'charAt index {{_x}} out of bounds for length "
                         f"{{len(_s)}}', {iname}, frame)")
            self.emit(d, f"{dest} = ord(_s[_x])")
        elif intr == ins.INTR_SEQ:
            self.emit(d, f"{dest} = {R(args[0])} == {R(args[1])}")
        elif intr == ins.INTR_SHASH:
            self.emit(d, f"_s = {R(args[0])}")
            self.emit(d, f"if _s is None: raise _NE('hash() on null "
                         f"string', {iname}, frame)")
            self.emit(d, f"{dest} = _sh(_s)")
        elif intr == ins.INTR_ITOS:
            self.emit(d, f"{dest} = str({R(args[0])})")
        elif intr == ins.INTR_CHR:
            self.emit(d, f"{dest} = chr({R(args[0])} & 0x10FFFF)")
        elif intr == ins.INTR_SCMP:
            self.emit(d, f"_a = {R(args[0])}")
            self.emit(d, f"_b = {R(args[1])}")
            self.emit(d, f"if _a is None or _b is None: raise _NE("
                         f"'compare() on null string', {iname}, frame)")
            self.emit(d, f"{dest} = -1 if _a < _b else (1 if _a > _b else 0)")
        else:
            raise UnsupportedShape(
                f"{self.method.qualified_name}: unknown intrinsic {intr!r}")

    def _emit_call(self, d: int, instr, iname: str):
        R = self.reg
        if instr.kind == ins.CALL_VIRTUAL:
            self.emit(d, f"_r = {R(instr.recv)}")
            self.emit(d, f"if _r is None: raise _NE('null receiver calling "
                         f".{instr.method_name}()', {iname}, frame)")
            self.emit(d, f"_m = _r.cls.vtable.get({instr.method_name!r})")
            self.emit(d, f"if _m is None: raise _VE(f'no method "
                         f"{instr.method_name} on {{_r.cls.name}}', "
                         f"{iname}, frame)")
            self.emit(d, "_cf = _F(_m)")
            self.emit(d, "_cr = _cf.regs")
            self.emit(d, "_cr['this'] = _r")
            if instr.args:
                argtuple = ", ".join(R(a) for a in instr.args)
                if len(instr.args) == 1:
                    argtuple += ","
                self.emit(d, f"for _pp, _av in zip(_m.params, ({argtuple})): "
                             f"_cr[_pp[0]] = _av")
            target_expr = "_m"
        else:
            target = instr.resolved
            mname = self.binder.bind(target, "m")
            if instr.recv is not None:
                self.emit(d, f"_r = {R(instr.recv)}")
                self.emit(d, f"if _r is None: raise _NE('null receiver "
                             f"calling .{instr.method_name}()', "
                             f"{iname}, frame)")
            self.emit(d, f"_cf = _F({mname})")
            self.emit(d, "_cr = _cf.regs")
            if instr.recv is not None:
                self.emit(d, "_cr['this'] = _r")
            for (pname, _), arg_reg in zip(target.params, instr.args):
                self.emit(d, f"_cr[{pname!r}] = {R(arg_reg)}")
            target_expr = mname
        if self.tracked:
            # Rule METHOD ENTRY: the callee's entry tuple (see
            # profiler/base.py), then the receiver chain.
            shadows = "".join(f"{self.shadow(r)}, "
                              for r in instr.entry_args())
            context = ("_cf.g = _g = _xc(g, _r.site); _cf.dctx = _g % slots"
                       if instr.recv is not None
                       else "_cf.g = g; _cf.dctx = g % slots")
            self.emit(d, f"if traced: _cf.shadow = ({shadows}); "
                         f"_cf.last_pred = lp; {context}")
        self.emit(d, f"_p = yield ({target_expr}, _cf, count, limit)")
        self.emit(d, "count = _p[1]")
        self.emit(d, "limit = _p[2]")
        if self.tracked:
            # The driver refreshes the hoisted flag in the resume
            # message -- one expression evaluated trampoline-side
            # instead of a closure call per return.
            self.emit(d, "traced = _p[3]")
        if instr.dest is not None:
            self.emit(d, f"{R(instr.dest)} = _p[0]")
        if self.tracked:
            # The callee's return left its node on the tracker.
            self.emit(d, "if traced:")
            self.emit(d + 1, "g = frame.g; dctx = frame.dctx")
            if instr.dest is not None:
                self.emit(d + 1, "_k = tk._ret_node")
                self.emit(d + 1, f"if _k is not None: "
                                 f"{self.shadow(instr.dest)} = _k")
            self.emit(d + 1, "tk._ret_node = None")

    def _emit_native(self, d: int, instr, iname: str):
        R = self.reg
        self.emit(d, "vm.instr_count = count")
        if instr.resolved_native is not None:
            nname = self.binder.bind(instr.resolved_native, "n")
            callee = nname
        else:
            callee = f"_ln({instr.native!r})"
        arglist = ", ".join(R(a) for a in instr.args)
        self.emit(d, f"_v = {callee}(vm, [{arglist}])")
        if instr.dest is not None:
            self.emit(d, f"{R(instr.dest)} = _v")
        # A native may move a sampling boundary (Sys.phase resets the
        # window cursor, and may rebuild contexts) and may toggle
        # phase-restricted tracking.
        self.emit(d, "limit = rt.limit")
        if self.tracked:
            self.emit(d, "traced = _tr()")
            shadows = "".join(f"{self.shadow(a)}, " for a in instr.args)
            node = f"_nat({instr.iid}, ({shadows}))"
            if instr.dest is not None:
                node = f"{self.shadow(instr.dest)} = {node}"
            self.emit(d, f"if traced: g = frame.g; dctx = frame.dctx; "
                         f"{node}")


# ---------------------------------------------------------------------------
# Program compilation + caching
# ---------------------------------------------------------------------------

class _LazyTier(dict):
    """``{MethodDef: generator function}``, compiling on first lookup.

    A method's source is emitted and run through ``compile()`` +
    ``exec`` only when the method is first looked up, so a run pays
    for the templates of the methods it executes.  All methods share
    one module namespace: the runtime constants the emitters bound and
    the functions compiled so far.
    """

    def __init__(self, program, variant: str):
        super().__init__()
        ns = self._ns = _base_namespace()
        ns["_program"] = program
        if variant == VARIANT_TRACKED:
            from ..profiler.context import extend_context
            ns["_xc"] = extend_context
        self._binder = _Binder(ns)
        self._variant = variant
        self._filename = f"<repro-compiled:{variant}>"
        #: MethodDef -> generated function name, for methods not yet
        #: compiled.
        self._pending = {}
        for cls in sorted(program.classes.values(), key=lambda c: c.name):
            for method in sorted(cls.methods.values(),
                                 key=lambda m: m.name):
                self._pending[method] = f"_fn{len(self._pending)}"

    def __missing__(self, method):
        fname = self._pending.pop(method)
        source = _MethodEmitter(method, fname, self._variant,
                                self._binder).source()
        exec(compile(source, self._filename, "exec"), self._ns)
        fn = self[method] = self._ns[fname]
        return fn

    def compile_all(self):
        """Compile every method not compiled yet."""
        for method in list(self._pending):
            self[method]


def compiled_tier(program, variant: str):
    """The ``{MethodDef: generator function}`` tier for ``variant``.

    Built on first use and cached on the program.  The first tier a
    program builds checks every method's shape, so a method that is
    never called decides the fallback exactly as one that is; each
    method's function is then emitted and compiled on its first
    lookup (see :class:`_LazyTier`).  Returns None when the program
    contains a shape the templates do not support (the VM then falls
    back to the interpreter).
    """
    cache = getattr(program, "_compiled_tiers", None)
    if cache is None:
        try:
            for cls in program.classes.values():
                for method in cls.methods.values():
                    _check_shape(method)
        except UnsupportedShape:
            cache = {VARIANT_PLAIN: False, VARIANT_TRACKED: False}
        else:
            cache = {}
        program._compiled_tiers = cache
    tier = cache.get(variant)
    if tier is None:
        tier = cache[variant] = _LazyTier(program, variant)
    # A tier with nothing compiled yet is an empty, falsy mapping:
    # only the False sentinel means "unsupported".
    return None if tier is False else tier


def template_variant(tracer):
    """The template variant a run with ``tracer`` executes, or None when
    no template serves it (any tracer but an exact ``CostTracker``)."""
    if tracer is None:
        return VARIANT_PLAIN
    from ..profiler.tracker import CostTracker
    return VARIANT_TRACKED if type(tracer) is CostTracker else None


def precompile(program, tracer=False, sampling: bool = False):
    """Compile every method of the tiers a run configuration will need.

    ``tracer`` is the run's tracer, True for a
    :class:`~repro.profiler.tracker.CostTracker`, or False for an
    untraced run.  Benchmarks call this so compilation cost lands
    outside the timed region; normal runs compile each method on its
    first call.  Returns False when the run would not use the compiled
    tier: the program has a shape the templates do not support, or the
    tracer is one only the interpreter serves.
    """
    variants = []
    if not tracer or sampling:
        variants.append(VARIANT_PLAIN)
    if tracer is True:
        variants.append(VARIANT_TRACKED)
    elif tracer:
        variant = template_variant(tracer)
        if variant is None:
            return False
        variants.append(variant)
    tiers = [compiled_tier(program, v) for v in variants]
    if any(tier is None for tier in tiers):
        return False
    for tier in tiers:
        tier.compile_all()
    return True


def template_tiers(vm):
    """``(fns, plain_fns, bind)`` for ``vm``'s run on the compiled tier.

    The arguments :meth:`~repro.vm.interpreter.VM._drive` takes: the
    tier of the tracer's template, the plain tier that untracked
    sampling bursts run, and the tracked template's per-run bindings.
    Returns None when the tracer has no template or the program has an
    unsupported shape, so :meth:`VM.run` runs the interpreter tier.
    """
    variant = template_variant(vm.tracer)
    if variant is None:
        return None
    fns = compiled_tier(vm.program, variant)
    if fns is None:
        return None
    if variant == VARIANT_PLAIN:
        return fns, fns, None
    # Both variants share the program's shape check, so a tracked tier
    # implies a plain one.
    plain_fns = (fns if vm.sampling is None
                 else compiled_tier(vm.program, VARIANT_PLAIN))
    return fns, plain_fns, _bind_tracked

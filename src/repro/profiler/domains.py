"""Generic abstract dynamic thin slicing (Definition 2).

The paper's key generalization: *backward dynamic flow* (BDF) problems
can be solved over a bounded abstract domain ``D`` by annotating each
instruction's node with ``f_a(j) ∈ D`` instead of the instance counter
``j``.  The cost graph instantiates this with the context-slot domain;
the Figure-2 client analyses instantiate it differently:

* null-propagation: ``D = {null, not-null}``,
* typestate history: ``D = O × S`` (allocation site × state),
* extended copy profiling: ``D = O × P ∪ {⊥}`` (origin field).

:class:`AbstractThinSlicer` is a tracer skeleton implementing thin-
slicing shadow propagation within a method; the handoff across calls
is :class:`~repro.profiler.base.TracerBase`'s, which every tracker
shares.  Subclasses provide the abstraction function.  Returning
``None`` from the abstraction function means "this instance is not
tracked" (the function is undefined there, as in the typestate
client), in which case no node is created but shadows still propagate
so later tracked instructions see their producers.
"""

from __future__ import annotations

from ..ir import instructions as ins
from .base import TracerBase
from .graph import (CONTEXTLESS, F_NATIVE, F_PREDICATE, DependenceGraph)


class AbstractThinSlicer(TracerBase):
    """Thin-slicing tracer over a client-specific abstract domain.

    Subclasses override :meth:`abstraction` — the family of functions
    ``f_a`` of Definition 2.  The produced value of the instruction is
    supplied so value-dependent domains (like null/not-null) are
    expressible.  Abstract elements must be hashable.
    """

    def __init__(self):
        super().__init__()
        self.graph = DependenceGraph()
        self._static_shadow = {}

    # -- the client's abstraction function -----------------------------------

    def abstraction(self, instr, frame, value):
        """Return the abstract element for this instance, or None."""
        raise NotImplementedError

    # -- shared machinery --------------------------------------------------------

    def _make_node(self, instr, frame, value, flag: int = 0):
        d = self.abstraction(instr, frame, value)
        if d is None:
            return None
        return self.graph.node(instr.iid, d, flag)

    def _link(self, node, *sources):
        if node is None:
            return
        graph = self.graph
        for src in sources:
            if src is not None:
                graph.add_edge(src, node)

    def _set_shadow(self, frame, dest, node):
        if dest is not None:
            if node is not None:
                self._shadow(frame)[dest] = node
            else:
                # Untracked producer: clear stale info for the register.
                self._shadow(frame).pop(dest, None)

    # -- hooks ---------------------------------------------------------------------

    def trace_instr(self, instr, frame):
        op = instr.op
        shadow = self._shadow(frame)
        regs = frame.regs

        if op == ins.OP_BRANCH:
            node = self.graph.node(instr.iid, CONTEXTLESS, F_PREDICATE)
            self._link(node, shadow.get(instr.cond))
            return

        if op == ins.OP_LOAD_STATIC:
            value = regs[instr.dest]
            node = self._make_node(instr, frame, value)
            self._link(node,
                       self._static_shadow.get(
                           (instr.class_name, instr.field)))
            self._set_shadow(frame, instr.dest, node)
            return
        if op == ins.OP_STORE_STATIC:
            value = regs[instr.src]
            node = self._make_node(instr, frame, value)
            self._link(node, shadow.get(instr.src))
            key = (instr.class_name, instr.field)
            if node is not None:
                self._static_shadow[key] = node
            else:
                self._static_shadow.pop(key, None)
            return

        dest = instr.defs()
        value = regs[dest] if dest is not None else None
        node = self._make_node(instr, frame, value)
        if op == ins.OP_CONST:
            pass
        elif op == ins.OP_MOVE:
            self._link(node, shadow.get(instr.src))
        elif op == ins.OP_BINOP:
            self._link(node, shadow.get(instr.lhs), shadow.get(instr.rhs))
        elif op == ins.OP_UNOP:
            self._link(node, shadow.get(instr.src))
        elif op == ins.OP_INTRINSIC:
            self._link(node, *(shadow.get(a) for a in instr.args))
        elif op == ins.OP_ARRAY_LEN:
            self._link(node, shadow.get(instr.arr))
        self._set_shadow(frame, dest, node)

    def trace_new_object(self, instr, frame, obj):
        obj.shadow = {}
        node = self._make_node(instr, frame, obj)
        self._set_shadow(frame, instr.dest, node)

    def trace_new_array(self, instr, frame, arr):
        arr.shadow = {}
        node = self._make_node(instr, frame, arr)
        self._link(node, self._shadow(frame).get(instr.size))
        self._set_shadow(frame, instr.dest, node)

    def trace_load_field(self, instr, frame, obj):
        value = frame.regs[instr.dest]
        node = self._make_node(instr, frame, value)
        if obj.shadow is not None:
            self._link(node, obj.shadow.get(instr.field))
        self._set_shadow(frame, instr.dest, node)

    def trace_store_field(self, instr, frame, obj, value):
        node = self._make_node(instr, frame, value)
        self._link(node, self._shadow(frame).get(instr.src))
        if obj.shadow is None:
            obj.shadow = {}
        if node is not None:
            obj.shadow[instr.field] = node
        else:
            obj.shadow.pop(instr.field, None)

    def trace_array_load(self, instr, frame, arr, idx):
        value = frame.regs[instr.dest]
        node = self._make_node(instr, frame, value)
        if arr.shadow is not None:
            self._link(node, arr.shadow.get(idx))
        self._link(node, self._shadow(frame).get(instr.idx))
        self._set_shadow(frame, instr.dest, node)

    def trace_array_store(self, instr, frame, arr, idx, value):
        node = self._make_node(instr, frame, value)
        shadow = self._shadow(frame)
        self._link(node, shadow.get(instr.src), shadow.get(instr.idx))
        if arr.shadow is None:
            arr.shadow = {}
        if node is not None:
            arr.shadow[idx] = node
        else:
            arr.shadow.pop(idx, None)

    def trace_native(self, instr, frame):
        node = self.graph.node(instr.iid, CONTEXTLESS, F_NATIVE)
        shadow = self._shadow(frame)
        self._link(node, *(shadow.get(a) for a in instr.args))

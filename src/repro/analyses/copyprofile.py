"""Extended copy profiling (Figure 2c; extends Xu et al. PLDI'09).

Abstract domain D = O × P ∪ {⊥}: each copy-instruction instance is
annotated with the object field its value originated from (``⊥`` when
the value is a constant, a fresh reference, or a computation result).
Unlike the original copy-graph work, intermediate stack copies appear
as nodes, so the methods a value travels through are visible.

A *copy chain* is a heap-to-heap transfer with no computation: load
``O_src.f`` → stack copies → store ``O_dst.g``.  Workloads dominated by
such chains (the paper's tradesoap bean-conversion case) show up as a
high copy fraction and long chains.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import instructions as ins
from ..profiler.base import TracerBase
from ..profiler.graph import DependenceGraph

#: The ⊥ element: value does not originate from any object field.
BOTTOM = "_"


@dataclass(frozen=True)
class CopyChain:
    source: tuple      # (alloc site iid, field)
    target: tuple      # (alloc site iid, field)
    stack_hops: int    # intermediate stack copies
    frequency: int     # times the terminal store executed


class CopyProfiler(TracerBase):
    """Tracks value origins and builds the copy dependence graph."""

    def __init__(self):
        super().__init__()
        self.graph = DependenceGraph()
        self._static_origin = {}
        self._static_shadow = {}
        self.copy_instructions = 0
        self.total_instructions = 0
        #: node id -> True when the node is a heap load (chain source)
        self._is_load = {}
        #: node id -> True when the node is a heap store (chain target)
        self._is_store = {}

    # -- origin/shadow helpers ---------------------------------------------------

    def _untracked_return(self, frame, dest):
        # Frame shadows map register -> (node id | None, origin); a
        # call that returns no shadow returns a value of no origin.
        self._shadow(frame)[dest] = (None, BOTTOM)

    def _obj_shadow(self, obj):
        if obj.shadow is None:
            obj.shadow = {}
        return obj.shadow

    # -- hooks -----------------------------------------------------------------------

    def trace_instr(self, instr, frame):
        self.total_instructions += 1
        op = instr.op
        shadow = self._shadow(frame)
        if op == ins.OP_MOVE:
            node_in, origin = shadow.get(instr.src, (None, BOTTOM))
            node = self.graph.node(instr.iid, origin)
            if node_in is not None:
                self.graph.add_edge(node_in, node)
            shadow[instr.dest] = (node, origin)
            if origin != BOTTOM:
                self.copy_instructions += 1
            return
        if op == ins.OP_LOAD_STATIC:
            key = (instr.class_name, instr.field)
            origin = self._static_origin.get(key, BOTTOM)
            node = self.graph.node(instr.iid, origin)
            src = self._static_shadow.get(key)
            if src is not None:
                self.graph.add_edge(src, node)
            shadow[instr.dest] = (node, origin)
            return
        if op == ins.OP_STORE_STATIC:
            key = (instr.class_name, instr.field)
            node_in, origin = shadow.get(instr.src, (None, BOTTOM))
            node = self.graph.node(instr.iid, origin)
            if node_in is not None:
                self.graph.add_edge(node_in, node)
            self._static_origin[key] = origin
            self._static_shadow[key] = node
            return
        # Computation: result originates from no field (⊥); reset the
        # destination's origin.
        dest = instr.defs()
        if dest is not None:
            shadow[dest] = (None, BOTTOM)

    def trace_new_object(self, instr, frame, obj):
        self.total_instructions += 1
        obj.shadow = {}
        self._shadow(frame)[instr.dest] = (None, BOTTOM)

    def trace_new_array(self, instr, frame, arr):
        self.total_instructions += 1
        arr.shadow = {}
        self._shadow(frame)[instr.dest] = (None, BOTTOM)

    def trace_load_field(self, instr, frame, obj):
        self.total_instructions += 1
        origin = (obj.site, instr.field)
        node = self.graph.node(instr.iid, origin)
        self._is_load[node] = True
        stored = self._obj_shadow(obj).get(instr.field)
        if stored is not None:
            self.graph.add_edge(stored, node)
        self._shadow(frame)[instr.dest] = (node, origin)
        self.copy_instructions += 1

    def trace_store_field(self, instr, frame, obj, value):
        self.total_instructions += 1
        node_in, origin = self._shadow(frame).get(instr.src,
                                                  (None, BOTTOM))
        target = (obj.site, instr.field)
        node = self.graph.node(instr.iid, target)
        self._is_store[node] = True
        if node_in is not None:
            self.graph.add_edge(node_in, node)
        self._obj_shadow(obj)[instr.field] = node
        if origin != BOTTOM:
            self.copy_instructions += 1

    def trace_array_load(self, instr, frame, arr, idx):
        self.total_instructions += 1
        origin = (arr.site, "ELM")
        node = self.graph.node(instr.iid, origin)
        self._is_load[node] = True
        stored = self._obj_shadow(arr).get(idx)
        if stored is not None:
            self.graph.add_edge(stored, node)
        self._shadow(frame)[instr.dest] = (node, origin)
        self.copy_instructions += 1

    def trace_array_store(self, instr, frame, arr, idx, value):
        self.total_instructions += 1
        node_in, origin = self._shadow(frame).get(instr.src,
                                                  (None, BOTTOM))
        node = self.graph.node(instr.iid, (arr.site, "ELM"))
        self._is_store[node] = True
        if node_in is not None:
            self.graph.add_edge(node_in, node)
        self._obj_shadow(arr)[idx] = node
        if origin != BOTTOM:
            self.copy_instructions += 1

    def trace_call(self, instr, caller_frame, callee_frame, recv_obj):
        self.total_instructions += 1
        super().trace_call(instr, caller_frame, callee_frame, recv_obj)

    def trace_return(self, instr, frame):
        self.total_instructions += 1
        super().trace_return(instr, frame)

    def trace_native(self, instr, frame):
        self.total_instructions += 1

    # -- results ------------------------------------------------------------------------

    def copy_fraction(self) -> float:
        """Fraction of traced instructions that only move data."""
        if self.total_instructions == 0:
            return 0.0
        return self.copy_instructions / self.total_instructions

    def chains(self):
        """Extract copy chains ending at each heap-store node.

        For each store node, walk backward through nodes annotated with
        one origin field until the load that introduced the value.
        """
        graph = self.graph
        keys = graph.node_keys
        results = []
        seen = set()
        for store_node in self._is_store:
            for pred in graph.preds[store_node]:
                origin = keys[pred][1]
                if origin == BOTTOM:
                    continue
                hops = 0
                node = pred
                visited = set()
                while (node not in self._is_load
                       and node not in visited):
                    visited.add(node)
                    hops += 1
                    next_node = None
                    for p in graph.preds[node]:
                        if keys[p][1] == origin:
                            next_node = p
                            break
                    if next_node is None:
                        break
                    node = next_node
                if node in self._is_load:
                    chain = CopyChain(
                        source=origin,
                        target=keys[store_node][1],
                        stack_hops=hops,
                        frequency=graph.freq[store_node])
                    if chain not in seen:
                        seen.add(chain)
                        results.append(chain)
        results.sort(key=lambda c: (c.frequency, c.stack_hops),
                     reverse=True)
        return results

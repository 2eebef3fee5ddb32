"""Cost computation (Definitions 3 and 4) and the Figure-1 baselines.

* :func:`abstract_cost` — Definition 4: the abstract cost of a node is
  the sum of frequencies of all nodes that can reach it in Gcost
  (including itself).
* :class:`ConcreteThinSlicer` — a tracer whose "abstraction" gives each
  instruction instance a fresh annotation, i.e. the *unabstracted*
  dynamic thin dependence graph of Definition 1.  Costs computed on it
  are the exact absolute costs of Definition 3 (useful for tests and for
  quantifying abstraction imprecision; unusable at scale, which is the
  paper's point).
* :class:`TaintCostTracker` — the naive taint-style cumulative counter
  of Figure 1(a), which double-counts shared subexpressions.
"""

from __future__ import annotations

from ..ir import instructions as ins
from ..profiler.base import TracerBase
from ..profiler.domains import AbstractThinSlicer
from ..profiler.graph import DependenceGraph


def abstract_cost(graph: DependenceGraph, node_id: int) -> int:
    """Definition 4: sum of frequencies over backward-reachable nodes."""
    reachable = graph.backward_reachable(node_id)
    freq = graph.freq
    return sum(freq[n] for n in reachable)


def absolute_cost(graph: DependenceGraph, node_id: int) -> int:
    """Definition 3 on a concrete (per-instance) graph: each node is a
    single instance, so the cost is the number of reachable nodes."""
    return len(graph.backward_reachable(node_id))


class ConcreteThinSlicer(AbstractThinSlicer):
    """Dynamic thin slicing without abstraction (Definition 1).

    Every instance gets a unique annotation, so the graph grows with the
    trace — exactly the unbounded-memory behaviour the paper's abstract
    domains eliminate.  ``max_nodes`` guards against runaway growth.
    """

    def __init__(self, max_nodes: int = 2_000_000):
        super().__init__()
        self.max_nodes = max_nodes
        self._counters = {}

    def abstraction(self, instr, frame, value):
        if self.graph.num_nodes >= self.max_nodes:
            raise MemoryError(
                f"concrete dependence graph exceeded {self.max_nodes} "
                "nodes; use abstract slicing for programs of this size")
        count = self._counters.get(instr.iid, 0)
        self._counters[instr.iid] = count + 1
        return count


class TaintCostTracker(TracerBase):
    """Figure 1(a): taint-like per-location cumulative cost counters.

    The tracking datum for each location is an integer cost; each
    instruction stores ``sum(operand costs) + 1`` into its destination.
    Shared sub-computations are counted once per use, so costs
    *double-count* (Figure 1's t_b = 8 instead of 5).

    Costs flowing into natives (program output) are recorded in
    ``sink_costs`` for comparison against graph-based costs.
    """

    def __init__(self):
        super().__init__()
        self._static = {}
        self.sink_costs = []

    def _untracked_return(self, frame, dest):
        # A call that returns no shadow returns a value of no cost.
        self._shadow(frame)[dest] = 0

    def trace_instr(self, instr, frame):
        shadow = self._shadow(frame)
        op = instr.op
        if op == ins.OP_BRANCH:
            return
        if op == ins.OP_LOAD_STATIC:
            key = (instr.class_name, instr.field)
            shadow[instr.dest] = self._static.get(key, 0) + 1
            return
        if op == ins.OP_STORE_STATIC:
            self._static[(instr.class_name, instr.field)] = (
                shadow.get(instr.src, 0) + 1)
            return
        dest = instr.defs()
        if dest is None:
            return
        cost = 1
        for reg in instr.uses():
            cost += shadow.get(reg, 0)
        # Thin-slicing flavor: the base pointer of a field access does
        # not contribute (handled in the heap hooks below, not here).
        shadow[dest] = cost

    def trace_new_object(self, instr, frame, obj):
        obj.shadow = {}
        self._shadow(frame)[instr.dest] = 1

    def trace_new_array(self, instr, frame, arr):
        arr.shadow = {}
        shadow = self._shadow(frame)
        shadow[instr.dest] = shadow.get(instr.size, 0) + 1

    def trace_load_field(self, instr, frame, obj):
        stored = 0
        if obj.shadow is not None:
            stored = obj.shadow.get(instr.field, 0)
        self._shadow(frame)[instr.dest] = stored + 1

    def trace_store_field(self, instr, frame, obj, value):
        if obj.shadow is None:
            obj.shadow = {}
        obj.shadow[instr.field] = self._shadow(frame).get(instr.src, 0) + 1

    def trace_array_load(self, instr, frame, arr, idx):
        shadow = self._shadow(frame)
        stored = 0
        if arr.shadow is not None:
            stored = arr.shadow.get(idx, 0)
        shadow[instr.dest] = stored + shadow.get(instr.idx, 0) + 1

    def trace_array_store(self, instr, frame, arr, idx, value):
        if arr.shadow is None:
            arr.shadow = {}
        shadow = self._shadow(frame)
        arr.shadow[idx] = (shadow.get(instr.src, 0)
                           + shadow.get(instr.idx, 0) + 1)

    def trace_native(self, instr, frame):
        shadow = self._shadow(frame)
        for arg in instr.args:
            self.sink_costs.append(shadow.get(arg, 0))


def sink_costs_from_graph(graph: DependenceGraph, exact: bool = False):
    """Costs of the values flowing into each native (output) node.

    For comparison with :class:`TaintCostTracker`: the graph-based cost
    of the value consumed by a native node is the (abstract or absolute)
    cost over its predecessors, computed without double counting.
    """
    from ..profiler.graph import F_NATIVE

    costs = []
    for node_id in graph.nodes_with_flag(F_NATIVE):
        for pred in graph.preds[node_id]:
            if exact:
                costs.append(absolute_cost(graph, pred))
            else:
                costs.append(abstract_cost(graph, pred))
    return costs

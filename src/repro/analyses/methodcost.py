"""Method-level cost attribution (one of the §3.2 auxiliary clients).

Aggregates Gcost node frequencies per method, giving the per-method
share of total tracked work, allocation activity, and heap traffic —
the coarse-grained view a developer uses to pick where to look next
before drilling into object-level cost-benefit reports.
"""

from __future__ import annotations

from typing import NamedTuple

from ..profiler.graph import (F_ALLOC, F_HEAP_READ, F_HEAP_WRITE,
                              DependenceGraph)
from ..profiler.names import program_names


class MethodCost:
    """Cost summary of one method; :func:`method_costs` adds to it."""

    __slots__ = ("method", "nodes", "frequency", "allocations",
                 "heap_reads", "heap_writes")

    def __init__(self, method: str, nodes: int, frequency: int,
                 allocations: int, heap_reads: int, heap_writes: int):
        self.method = method
        self.nodes = nodes
        self.frequency = frequency      # instruction instances attributed
        self.allocations = allocations  # frequency of allocation nodes
        self.heap_reads = heap_reads
        self.heap_writes = heap_writes

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    def __repr__(self):
        return (f"<MethodCost {self.method} freq={self.frequency} "
                f"alloc={self.allocations}>")


class ReturnCost(NamedTuple):
    """Relative cost of producing one method's return values.

    ``relative_cost`` is the HRAC-style cost: stack work between the
    heap/parameter inputs and the returned value, averaged over the
    return sites of the method.  High values flag methods that grind
    through a lot of computation per value they hand back — the §3.2
    "cost of producing the return value of a method relative to its
    inputs" client.
    """

    method: str
    returns_observed: int
    relative_cost: float

    def __repr__(self):
        return (f"<ReturnCost {self.method} x{self.returns_observed} "
                f"cost={self.relative_cost:.1f}>")


def _method_local_cost(graph: DependenceGraph, start: int,
                       method: str, mapping) -> int:
    """Backward cost of ``start`` confined to ``method``'s own
    instructions.

    The traversal stops at heap reads (single-hop, like HRAC) *and* at
    nodes belonging to other methods — those are the method's inputs
    (parameter values and callee results), which the §3.2 client
    measures the return value *relative to*.

    Per-node reference implementation;
    :class:`repro.analyses.batch.MethodLocalCostIndex` answers the
    same query from one batched condensation pass.
    """
    flags = graph.flags
    preds = graph.preds
    freq = graph.freq
    keys = graph.node_keys
    visited = {start}
    worklist = [start]
    while worklist:
        node = worklist.pop()
        for pred in preds[node]:
            if pred in visited:
                continue
            if flags[pred] & F_HEAP_READ:
                continue
            if mapping.get(keys[pred][0]) != method:
                continue  # produced outside: an input, not our work
            visited.add(pred)
            worklist.append(pred)
    return sum(freq[n] for n in visited)


def return_costs(graph: DependenceGraph, return_nodes, program,
                 top=None):
    """Per-method relative return-value costs (§3.2).

    ``return_nodes`` is ``CostTracker.return_nodes`` (return iid ->
    producing graph nodes).  The cost of one return site is the summed
    method-local, heap-bounded backward cost of its producing nodes; a
    method's cost averages its sites.  All sites are answered from one
    batched method-confined condensation instead of one BFS per node.
    """
    from .batch import MethodLocalCostIndex

    mapping = program_names(program).method_of
    index = MethodLocalCostIndex(graph, mapping)
    by_method = {}
    for iid, nodes in return_nodes.items():
        name = mapping.get(iid, "?")
        cost = sum(index.cost(node, name) for node in nodes)
        totals = by_method.setdefault(name, [0, 0.0])
        totals[0] += len(nodes)
        totals[1] += cost
    results = [ReturnCost(method=name, returns_observed=count,
                          relative_cost=total / max(count, 1))
               for name, (count, total) in by_method.items()]
    results.sort(key=lambda r: r.relative_cost, reverse=True)
    if top is not None:
        results = results[:top]
    return results


def method_costs(graph: DependenceGraph, program, top=None):
    """Per-method cost summary, sorted by attributed frequency."""
    mapping = program_names(program).method_of
    by_method = {}
    for node_id, (iid, _) in enumerate(graph.node_keys):
        name = mapping.get(iid, "?")
        entry = by_method.get(name)
        if entry is None:
            entry = by_method[name] = MethodCost(name, 0, 0, 0, 0, 0)
        freq = graph.freq[node_id]
        flags = graph.flags[node_id]
        entry.nodes += 1
        entry.frequency += freq
        if flags & F_ALLOC:
            entry.allocations += freq
        if flags & F_HEAP_READ:
            entry.heap_reads += freq
        if flags & F_HEAP_WRITE:
            entry.heap_writes += freq
    results = sorted(by_method.values(), key=lambda m: m.frequency,
                     reverse=True)
    if top is not None:
        results = results[:top]
    return results

"""Ultimately-dead value measurement — Table 1(c): IPD, IPP, NLD.

Definitions (from §4.1):

* D — non-consumer nodes with no outgoing def-use edges (their values
  are never used by any other instruction).
* D* — nodes that can lead *only* to nodes in D; equivalently, nodes
  from which no consumer (predicate or native) node is reachable.
* P* — nodes whose reachable consumers are predicates only (the value's
  sole fate is steering control flow — never program output).

IPD = Σ freq(D*) / I, IPP = Σ freq(P*) / I where I is the total number
of executed instruction instances; NLD = |D*| / |V|.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..profiler.graph import DependenceGraph
from .batch import engine_for


@dataclass
class BloatMetrics:
    total_instructions: int      # I
    dead_frequency: int          # Σ freq over D*
    predicate_frequency: int     # Σ freq over P*
    dead_nodes: int              # |D*|
    graph_nodes: int             # |V|
    dead_sinks: int              # |D|

    @property
    def ipd(self) -> float:
        """Fraction of instruction instances producing only dead values."""
        if self.total_instructions == 0:
            return 0.0
        return self.dead_frequency / self.total_instructions

    @property
    def ipp(self) -> float:
        """Fraction producing values that end up only in predicates."""
        if self.total_instructions == 0:
            return 0.0
        return self.predicate_frequency / self.total_instructions

    @property
    def nld(self) -> float:
        """Fraction of graph nodes producing only dead values."""
        if self.graph_nodes == 0:
            return 0.0
        return self.dead_nodes / self.graph_nodes


def dead_star(graph: DependenceGraph):
    """Node ids in D* (ultimately-dead producers), ascending."""
    return list(engine_for(graph).dead_value_classes()[0])


@dataclass
class DeadLine:
    """Source attribution of ultimately-dead work."""

    line: int
    method: str
    dead_frequency: int
    sample_iids: list

    def __repr__(self):
        return (f"<DeadLine {self.method}:{self.line} "
                f"freq={self.dead_frequency}>")


def dead_lines(graph: DependenceGraph, program, top=None):
    """Attribute D* frequencies to source lines, hottest first.

    The report a developer reads after the IPD number says "something
    is dead": which lines spend the most instructions producing values
    nothing ever consumes.
    """
    method_of = {}
    line_of = {}
    for cls in program.classes.values():
        for method in cls.methods.values():
            for instr in method.body:
                method_of[instr.iid] = method.qualified_name
                line_of[instr.iid] = instr.line
    by_line = {}
    for node in dead_star(graph):
        iid = graph.node_keys[node][0]
        key = (line_of.get(iid, 0), method_of.get(iid, "?"))
        entry = by_line.setdefault(key, [0, []])
        entry[0] += graph.freq[node]
        entry[1].append(iid)
    results = [DeadLine(line=line, method=method,
                        dead_frequency=freq, sample_iids=iids[:5])
               for (line, method), (freq, iids)
               in by_line.items()]
    results.sort(key=lambda r: r.dead_frequency, reverse=True)
    if top is not None:
        results = results[:top]
    return results


def measure_bloat(graph: DependenceGraph, total_instructions: int,
                  engine=None) -> BloatMetrics:
    """Compute the Table 1(c) row for one profiled execution.

    The node classes come from the engine (``engine``, when the caller
    holds ``engine_for(graph)`` already), so this only sums weights.
    """
    if engine is None:
        engine = engine_for(graph)
    dead, predicate_only, dead_sinks = engine.dead_value_classes()
    weight = graph.freq.__getitem__
    return BloatMetrics(
        total_instructions=total_instructions,
        dead_frequency=sum(map(weight, dead)),
        predicate_frequency=sum(map(weight, predicate_only)),
        dead_nodes=len(dead),
        graph_nodes=graph.num_nodes,
        dead_sinks=len(dead_sinks),
    )

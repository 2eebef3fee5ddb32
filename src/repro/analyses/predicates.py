"""Always-true / always-false predicate detection (§3.2).

The bloat case study's headline finding: strings built eagerly and
passed to ``Assert.isTrue``-style guards whose conditions virtually
never fire in production.  Branches that always go one way — especially
hot ones whose conditions are expensive to compute — flag over-general
or debug-only code paths.
"""

from __future__ import annotations

from typing import NamedTuple

from ..profiler.graph import CONTEXTLESS, DependenceGraph
from ..profiler.names import program_names
from .relative import hrac


class PredicateReport(NamedTuple):
    iid: int
    line: int
    executions: int
    always: str                # "true" or "false"
    condition_cost: float      # HRAC-style cost of computing the cond

    def __repr__(self):
        return (f"<Predicate iid={self.iid} line={self.line} always-"
                f"{self.always} x{self.executions} "
                f"cost={self.condition_cost:.0f}>")


def constant_predicates(graph: DependenceGraph, branch_outcomes,
                        program, min_executions: int = 2):
    """Branches that took the same direction on every execution.

    ``branch_outcomes`` is ``CostTracker.branch_outcomes``; the reported
    condition cost is the summed HRAC of the predicate node's producers
    (the stack work spent deciding something that never changes).
    """
    line_of = program_names(program).line_of
    results = []
    for iid, (taken, not_taken) in branch_outcomes.items():
        executions = taken + not_taken
        if executions < min_executions:
            continue
        if taken and not_taken:
            continue
        node = graph.find(iid, CONTEXTLESS)
        cost = 0.0
        if node is not None:
            cost = sum(hrac(graph, p) for p in graph.preds[node])
        results.append(PredicateReport(
            iid=iid,
            line=line_of.get(iid, 0),
            executions=executions,
            always="true" if taken else "false",
            condition_cost=cost))
    results.sort(key=lambda r: (r.condition_cost, r.executions),
                 reverse=True)
    return results

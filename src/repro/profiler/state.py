"""Tracker-side profile state that lives outside the graph.

The :class:`~repro.profiler.tracker.CostTracker` accumulates three
families of facts that clients read but :class:`DependenceGraph` does
not store:

* per-node sets of distinct encoded contexts (the raw material of the
  context conflict ratio, §2.3);
* per-branch taken/not-taken counts (always-true/false predicate
  client, §3.2);
* per-return-instruction sets of value-producing nodes (method-level
  return-cost client).

:class:`TrackerState` packages them so a profile can travel — through
the serializer for offline analysis, and through the parallel merge
operator when sharded runs are reduced into one graph.
"""

from __future__ import annotations

from itertools import islice

from .context import conflict_ratio


class TrackerState:
    """Per-run tracker facts (CR contexts, branch outcomes, returns).

    ``node_gs`` is indexed by graph node id (``None`` for contextless
    or untracked nodes and for any tail the list does not reach);
    ``branch_outcomes`` maps branch iid to ``[taken, not_taken]``;
    ``return_nodes`` maps return iid to the set of node ids whose
    values were returned.
    """

    __slots__ = ("node_gs", "branch_outcomes", "return_nodes")

    def __init__(self, node_gs=None, branch_outcomes=None,
                 return_nodes=None):
        self.node_gs = node_gs if node_gs is not None else []
        self.branch_outcomes = (branch_outcomes
                                if branch_outcomes is not None else {})
        self.return_nodes = (return_nodes
                             if return_nodes is not None else {})

    def conflict_ratio(self, graph) -> float:
        """Average CR over context-annotated instructions (Table 1).

        Equal, bit for bit, to
        :func:`~repro.profiler.context.average_conflict_ratio` over the
        full regrouping ``iid -> {slot: context set}``, in one pass
        over ``node_gs``.  The denominator counts every iid with a
        context set (an empty set too).  An instruction whose slots
        each hold at most one context adds exactly 0.0 to the sum, so
        only instructions with a node of two or more contexts are
        regrouped, and their ratios are summed in the reference's
        order (iid by first node id); skipping 0.0 terms changes
        neither a plain nor a compensated float ``sum``.
        """
        node_keys, node_gs = graph.node_keys, self.node_gs
        annotated = set()
        conflicted = set()
        for key, gs in zip(node_keys, node_gs):
            if gs is not None:
                annotated.add(key[0])
                if len(gs) > 1:
                    conflicted.add(key[0])
        if not conflicted:
            return 0.0
        groups = {}
        for (iid, dctx), gs in zip(node_keys, node_gs):
            if gs is not None and iid in conflicted:
                groups.setdefault(iid, {})[dctx] = gs
        return (sum(map(conflict_ratio, groups.values()))
                / len(annotated))

    def fold(self, context_counts, contexts, branch_outcomes,
             return_nodes, remap):
        """Fold another run's tracker facts into this state, in place.

        The other run's context sets come as two columns:
        ``context_counts`` holds one count per source node id (0 for
        none) and ``contexts`` each node's contexts in node order, so
        source node ``i`` owns the ``context_counts[i]`` values after
        those of the nodes before it.  ``branch_outcomes`` is ``(iid, taken,
        not_taken)`` rows and ``return_nodes`` is ``(iid, node ids)``
        rows; ``remap[source id]`` is the node's id in this state's
        graph.  Context and return sets union, outcome counts sum.
        Shared by :func:`~repro.profiler.parallel.fold_graph` (states
        in memory) and :func:`~repro.profiler.serialize.fold_document`
        (the columns of a document), so both apply one set of rules.
        """
        gs_list = self.node_gs
        top = max(remap[:len(context_counts)], default=-1) + 1
        if len(gs_list) < top:
            gs_list.extend([None] * (top - len(gs_list)))
        values = iter(contexts)
        for mid, count in zip(remap, context_counts):
            if count == 1:          # most nodes: no slice, a set literal
                g = next(values)
                have = gs_list[mid]
                if have is None:
                    gs_list[mid] = {g}
                else:
                    have.add(g)
            elif count:
                have = gs_list[mid]
                if have is None:
                    gs_list[mid] = set(islice(values, count))
                else:
                    have.update(islice(values, count))
        outcomes = self.branch_outcomes
        for iid, taken, not_taken in branch_outcomes:
            counts = outcomes.get(iid)
            if counts is None:
                outcomes[iid] = [taken, not_taken]
            else:
                counts[0] += taken
                counts[1] += not_taken
        returns = self.return_nodes
        for iid, nodes in return_nodes:
            returns.setdefault(iid, set()).update(
                [remap[n] for n in nodes])

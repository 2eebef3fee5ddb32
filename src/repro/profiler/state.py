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

from .context import average_conflict_ratio


class TrackerState:
    """Per-run tracker facts (CR contexts, branch outcomes, returns).

    ``node_gs`` is indexed by graph node id (``None`` for contextless
    or untracked nodes and for any tail the list does not reach);
    ``branch_outcomes`` maps branch iid to ``[taken, not_taken]``;
    ``return_nodes`` maps return iid to the set of node ids whose
    values were returned.
    """

    __slots__ = ("node_gs", "branch_outcomes", "return_nodes",
                 "_cr_groups", "_cr_upto")

    def __init__(self, node_gs=None, branch_outcomes=None,
                 return_nodes=None):
        self.node_gs = node_gs if node_gs is not None else []
        self.branch_outcomes = (branch_outcomes
                                if branch_outcomes is not None else {})
        self.return_nodes = (return_nodes
                             if return_nodes is not None else {})
        self._cr_groups = {}
        self._cr_upto = 0

    def conflict_ratio(self, graph) -> float:
        """Average CR over context-annotated instructions (Table 1).

        The regrouping ``iid -> {slot: context set}`` that
        :func:`~repro.profiler.context.average_conflict_ratio`
        consumes is cached and extended only for nodes created since
        the previous call.  Its entries hold *references* to the live
        context sets, so later context insertions into grouped nodes
        need no refold: repeated calls on a large (e.g. merged
        multi-shard) or still-growing profile pay O(new nodes), not
        O(all nodes).
        """
        node_gs, node_keys = self.node_gs, graph.node_keys
        groups = self._cr_groups
        for node_id in range(self._cr_upto, len(node_gs)):
            gs = node_gs[node_id]
            if gs is not None:
                iid, dctx = node_keys[node_id]
                groups.setdefault(iid, {})[dctx] = gs
        self._cr_upto = len(node_gs)
        return average_conflict_ratio(groups)

    def invalidate_cr_cache(self):
        """Drop the incremental CR regrouping; the next
        :meth:`conflict_ratio` call refolds from scratch.

        Needed after a fold *into* this state
        (:func:`~repro.profiler.parallel.fold_graph`): a fold may
        replace a formerly-``None`` ``node_gs`` entry below the cached
        watermark with a fresh set the grouping has no reference to.
        """
        self._cr_groups = {}
        self._cr_upto = 0

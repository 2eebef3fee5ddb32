"""Relative abstract cost and benefit (Definitions 5–7, §3.1).

Single-hop semantics: the flow of data through the program is a series
of heap-to-heap hops (read heap → compute on the stack → write heap).

* HRAC of a store node: frequencies summed over backward paths that do
  not pass through a node reading a static or object field — the stack
  work of the hop that produced the stored value.
* RAC of a heap location (``alloc_key.field``): average HRAC of the
  store nodes writing it.
* HRAB of a load node: the forward dual, stopping at heap writes — the
  stack work performed on the loaded value before it is stored
  elsewhere.  Values flowing to native (output) nodes get infinite
  benefit; predicate consumers are counted by frequency (consistent
  with Figure 3's worked example and the Figure 6 eclipse case, where a
  list only tested against null is still flagged).
* RAB of a heap location: average HRAB of the load nodes reading it.
* n-RAC / n-RAB of an object: RACs/RABs of all fields aggregated over
  the object reference tree of height ``n`` (default 4, the paper's
  choice, deep enough for HashSet-like structures).
"""

from __future__ import annotations

from ..profiler.graph import (F_HEAP_READ, F_HEAP_WRITE, F_NATIVE,
                              DependenceGraph)
from .batch import engine_for

INFINITE = float("inf")

#: The paper uses n = 4 for all case studies and experiments.
DEFAULT_TREE_DEPTH = 4


def hrac(graph: DependenceGraph, node_id: int) -> int:
    """Heap-relative abstract cost of one (store) node.

    Per-node reference implementation; batch queries should go through
    :func:`repro.analyses.batch.engine_for` instead.
    """
    reachable = graph.backward_reachable(node_id,
                                         stop_flags=F_HEAP_READ)
    freq = graph.freq
    return sum(freq[n] for n in reachable)


def hrab(graph: DependenceGraph, node_id: int,
         native_benefit: str = "infinite"):
    """Heap-relative abstract benefit of one (load) node.

    ``native_benefit`` is ``"infinite"`` (paper: values reaching program
    output have infinite weight) or ``"count"`` (count native nodes by
    frequency like any other node).
    """
    reachable = graph.forward_reachable(node_id,
                                        stop_flags=F_HEAP_WRITE)
    freq = graph.freq
    flags = graph.flags
    if native_benefit == "infinite":
        if any(flags[n] & F_NATIVE for n in reachable):
            return INFINITE
    return sum(freq[n] for n in reachable)


def multi_hop_hrac(graph: DependenceGraph, node_id: int,
                   hops: int = 1) -> int:
    """HRAC generalized to ``hops`` heap-to-heap hops (§3.2).

    The single-hop analysis "could miss problematic data structures
    because of its short-sightedness"; this variant lets the backward
    traversal pass through up to ``hops - 1`` heap-read nodes, widening
    the inspected region of the data flow.  ``hops=1`` is exactly
    :func:`hrac`.
    """
    if hops < 1:
        raise ValueError("hops must be >= 1")
    freq = graph.freq
    flags = graph.flags
    preds = graph.preds
    # best[node] = largest remaining hop budget seen; only re-expand a
    # node when arriving with a strictly larger budget.
    best = {node_id: hops}
    worklist = [(node_id, hops)]
    while worklist:
        node, budget = worklist.pop()
        for pred in preds[node]:
            if flags[pred] & F_HEAP_READ:
                remaining = budget - 1
                if remaining <= 0:
                    continue  # crossing would start hop N+1
            else:
                remaining = budget
            if best.get(pred, 0) >= remaining:
                continue
            best[pred] = remaining
            worklist.append((pred, remaining))
    return sum(freq[n] for n in best)


def multi_hop_hrab(graph: DependenceGraph, node_id: int,
                   hops: int = 1, native_benefit: str = "infinite"):
    """HRAB generalized to ``hops`` hops (forward, through heap
    writes)."""
    if hops < 1:
        raise ValueError("hops must be >= 1")
    freq = graph.freq
    flags = graph.flags
    succs = graph.succs
    best = {node_id: hops}
    worklist = [(node_id, hops)]
    while worklist:
        node, budget = worklist.pop()
        for succ in succs[node]:
            if flags[succ] & F_HEAP_WRITE:
                remaining = budget - 1
                if remaining <= 0:
                    continue
            else:
                remaining = budget
            if best.get(succ, 0) >= remaining:
                continue
            best[succ] = remaining
            worklist.append((succ, remaining))
    if native_benefit == "infinite":
        if any(flags[n] & F_NATIVE for n in best):
            return INFINITE
    return sum(freq[n] for n in best)


def control_inclusive_hrac(graph: DependenceGraph, node_id: int) -> int:
    """HRAC including the cost of the closest controlling predicates.

    §3.2 ("Considering vs ignoring control decision making"): the
    default analysis ignores the effort of computing the branch
    conditions an instruction is control-dependent on, which can
    underestimate construction costs.  When the tracker was run with
    ``track_control=True``, each node carries an edge to its nearest
    enclosing predicate node; this variant also charges those
    predicates' (heap-bounded) operand chains.
    """
    freq = graph.freq
    flags = graph.flags
    preds = graph.preds
    control = graph.control_deps
    visited = {node_id}
    worklist = [node_id]
    while worklist:
        node = worklist.pop()
        sources = list(preds[node])
        sources.extend(control.get(node, ()))
        for pred in sources:
            if pred in visited:
                continue
            if flags[pred] & F_HEAP_READ:
                continue
            visited.add(pred)
            worklist.append(pred)
    return sum(freq[n] for n in visited)


def field_racs(graph: DependenceGraph, engine=None):
    """(alloc_key, field) -> RAC (average HRAC over its store nodes).

    Answered by the batched slicing engine — all store-node HRACs come
    from one SCC/bitset propagation pass instead of one BFS per store.
    """
    if engine is None:
        engine = engine_for(graph)
    return engine.field_racs()


def field_rabs(graph: DependenceGraph, native_benefit: str = "infinite",
               engine=None):
    """(alloc_key, field) -> RAB (average HRAB over its load nodes).

    Fields that are written but never read have no entry; callers treat
    missing entries as zero benefit.  Batched like :func:`field_racs`.
    """
    if engine is None:
        engine = engine_for(graph)
    return engine.field_rabs(native_benefit)


def reference_tree(graph: DependenceGraph, root_key, depth: int):
    """Object reference tree RT_n rooted at ``root_key`` (Definition 7).

    Returns {alloc_key: depth} for keys within ``depth`` reference hops
    of the root, following the points-to summary, breaking cycles by
    keeping the first (shallowest) visit.
    """
    tree = {root_key: 0}
    frontier = [root_key]
    level = 0
    while frontier and level < depth:
        level += 1
        next_frontier = []
        for key in frontier:
            for targets in graph.points_to.get(key, {}).values():
                for target in targets:
                    if target not in tree:
                        tree[target] = level
                        next_frontier.append(target)
        frontier = next_frontier
    return tree


class ObjectCostBenefit:
    """n-RAC / n-RAB summary for one allocation (alloc_key root)."""

    __slots__ = ("alloc_key", "n_rac", "n_rab", "tree_size", "fields")

    def __init__(self, alloc_key, n_rac, n_rab, tree_size, fields):
        self.alloc_key = alloc_key
        self.n_rac = n_rac
        self.n_rab = n_rab
        self.tree_size = tree_size
        #: [(owner alloc_key, field, rac, rab)] contributing fields.
        self.fields = fields

    @property
    def ratio(self) -> float:
        """Cost-benefit rate; +inf for pure cost with zero benefit."""
        if self.n_rab == INFINITE:
            return 0.0
        if self.n_rab == 0:
            return INFINITE if self.n_rac > 0 else 0.0
        return self.n_rac / self.n_rab

    def __repr__(self):
        return (f"<ObjectCostBenefit {self.alloc_key} rac={self.n_rac:.1f} "
                f"rab={self.n_rab} ratio={self.ratio}>")


def object_cost_benefit(graph: DependenceGraph, root_key,
                        depth: int = DEFAULT_TREE_DEPTH,
                        racs=None, rabs=None,
                        native_benefit: str = "infinite"
                        ) -> ObjectCostBenefit:
    """Aggregate field RACs/RABs over the reference tree (Definition 7).

    A field of an in-tree object contributes if it is primitive-valued,
    or if it is reference-valued and points to an object inside the
    tree.
    """
    if racs is None:
        racs = field_racs(graph)
    if rabs is None:
        rabs = field_rabs(graph, native_benefit)
    tree = reference_tree(graph, root_key, depth)
    n_rac = 0.0
    n_rab = 0.0
    fields = []
    seen_fields = set()
    for field_key in set(racs) | set(rabs):
        owner_key, field = field_key
        if owner_key not in tree or field_key in seen_fields:
            continue
        targets = graph.points_to.get(owner_key, {}).get(field)
        if targets is not None:
            # Reference-valued: both endpoints must be inside RT_n.
            if not any(t in tree for t in targets):
                continue
        seen_fields.add(field_key)
        rac = racs.get(field_key, 0.0)
        rab = rabs.get(field_key, 0.0)
        n_rac += rac
        if rab == INFINITE or n_rab == INFINITE:
            n_rab = INFINITE
        else:
            n_rab += rab
        fields.append((owner_key, field, rac, rab))
    return ObjectCostBenefit(root_key, n_rac, n_rab, len(tree), fields)


def all_object_cost_benefits(graph: DependenceGraph,
                             depth: int = DEFAULT_TREE_DEPTH,
                             native_benefit: str = "infinite",
                             racs=None, rabs=None):
    """ObjectCostBenefit for every context-annotated allocation.

    One shared batched engine serves every field's RAC and RAB, so the
    whole ranking costs two reachability passes over Gcost regardless
    of how many allocation sites are reported.  ``racs``/``rabs`` are
    the field maps when the caller already holds them (they must be
    ``field_racs``/``field_rabs`` of this graph under
    ``native_benefit``).

    The fields are grouped by owner allocation once, so each root
    visits only the fields of its own reference tree: the cost is the
    sum of the trees' field counts, not allocations x fields.  Each
    root sums its fields in :func:`object_cost_benefit`'s order (their
    positions in ``set(racs) | set(rabs)``), so every n-RAC/n-RAB is
    bit-identical to the per-root reference's.
    """
    if racs is None or rabs is None:
        engine = engine_for(graph)
        if racs is None:
            racs = field_racs(graph, engine=engine)
        if rabs is None:
            rabs = field_rabs(graph, native_benefit, engine=engine)
    fields_of = {}
    for position, field_key in enumerate(set(racs) | set(rabs)):
        fields_of.setdefault(field_key[0], []).append(
            (position, field_key))
    points_to = graph.points_to
    results = []
    for root_key in graph.alloc_nodes():
        tree = reference_tree(graph, root_key, depth)
        visits = []
        for owner_key in tree:
            visits.extend(fields_of.get(owner_key, ()))
        visits.sort()
        n_rac = 0.0
        n_rab = 0.0
        fields = []
        for _, field_key in visits:
            owner_key, field = field_key
            targets = points_to.get(owner_key, {}).get(field)
            if targets is not None and not any(t in tree for t in targets):
                continue
            rac = racs.get(field_key, 0.0)
            rab = rabs.get(field_key, 0.0)
            n_rac += rac
            if rab == INFINITE or n_rab == INFINITE:
                n_rab = INFINITE
            else:
                n_rab += rab
            fields.append((owner_key, field, rac, rab))
        results.append(ObjectCostBenefit(root_key, n_rac, n_rab,
                                         len(tree), fields))
    return results


def aggregate_by_site(summaries):
    """Merge per-context ObjectCostBenefit entries by allocation site.

    Returns {alloc_iid: (total n-RAC, total n-RAB, count)} — useful for
    reporting, since users think in terms of source allocation sites.
    """
    merged = {}
    for summary in summaries:
        iid = summary.alloc_key[0]
        rac, rab, count = merged.get(iid, (0.0, 0.0, 0))
        rab_total = INFINITE if (rab == INFINITE
                                 or summary.n_rab == INFINITE) \
            else rab + summary.n_rab
        merged[iid] = (rac + summary.n_rac, rab_total, count + 1)
    return merged

"""Batched slicing engine: all-nodes cost/HRAC/HRAB in one pass each.

The per-node reference functions (:func:`~repro.analyses.cost.abstract_cost`,
:func:`~repro.analyses.relative.hrac`, :func:`~repro.analyses.relative.hrab`)
re-run a fresh BFS per query, so ranking every allocation site is
O(queries x edges).  This module answers *all* queries from one
precomputed reachability index, the standard batching used by offline
slicers:

1. :meth:`~repro.profiler.graph.DependenceGraph.freeze` snapshots the
   adjacency into CSR arrays;
2. the stop-flagged nodes (heap reads for HRAC, heap writes for HRAB)
   are masked out and the remaining subgraph is condensed into strongly
   connected components with an iterative Tarjan;
3. reachable-SCC sets are propagated through the condensation in
   reverse-topological order as Python big-int bitsets — one OR per
   condensation edge, so every set is materialized exactly once.  This
   *condensation* depends on the graph's shape only, and records per
   SCC a weighing plan: its widest child plus the SCCs the other
   children add to that child's closure (extracted from the lowest set
   byte up, so a one-bit delta costs one byte);
4. *weighing* replays the plans in the same order to turn ``freq``
   into every SCC's closure sum.  The first build is condense + weigh;
   a frequency-only change (the fold of a repeated shard) re-weighs
   the indexes in place and keeps their condensations;
5. a query from an unmasked node is then a precomputed O(1) lookup;
   masked starts union their neighbors' closures, extracting only the
   delta bits each one adds.

A node carrying a stop flag is still a valid query start (the paper's
definitions always include the slice criterion itself): it is answered
by unioning the closures of its unmasked neighbors and adding its own
frequency.  The per-node functions remain in the codebase as the
executable reference; the equivalence suite in
``tests/test_batch_engine.py`` pins this engine to them bit-for-bit.
"""

from __future__ import annotations

import time
from array import array

from ..observability.telemetry import current as _current_telemetry
from ..profiler.graph import (F_CONSUMER, F_HEAP_READ, F_HEAP_WRITE,
                              F_NATIVE, F_PREDICATE, DependenceGraph)

INFINITE = float("inf")

#: byte value -> tuple of set-bit offsets, for set-bit extraction.
_BYTE_BITS = [tuple(b for b in range(8) if value >> b & 1)
              for value in range(256)]


class ReachabilityIndex:
    """Weighted transitive closure over one direction of a frozen graph.

    ``offsets``/``targets`` is one CSR adjacency half (``bwd`` for
    backward cost queries, ``fwd`` for forward benefit queries);
    ``allowed`` masks out stop-flagged nodes; ``mark`` (optional, one
    byte per node) tags nodes whose presence in a closure must be
    reported — the F_NATIVE infinite-benefit bit.

    The index is built in two steps.  :meth:`_condense` depends on the
    graph's shape only: SCC ids, closure bitsets, marks, and a per-SCC
    weighing *plan*.  :meth:`_weigh` turns a frequency vector into
    per-SCC closure sums by replaying the plan, so a frequency-only
    change is answered by :meth:`reweigh` without re-running Tarjan.

    After construction, :meth:`query` answers "sum of frequencies over
    the closure of ``node``, and does the closure contain a marked
    node?" in (amortized) the cost of one weighted popcount.
    """

    def __init__(self, num_nodes, offsets, targets, allowed, freq,
                 mark=None, name="index"):
        self.n = num_nodes
        self.offsets = offsets
        self.targets = targets
        self.allowed = allowed
        self.node_mark = mark
        #: Telemetry label for the build and re-weigh timings.
        self.name = name
        #: node id -> SCC id (-1 for masked-out nodes).
        self.comp = [-1] * num_nodes
        #: SCC id -> big-int bitset of SCCs in its closure (itself incl).
        self.comp_bits = []
        #: SCC id -> does the closure contain a marked node?
        self.comp_mark = []
        #: SCC id -> one member node (the Tarjan root), whose frequency
        #: is a singleton SCC's weight.
        self.comp_node = []
        #: ``(SCC id, member nodes)`` of every SCC of two or more nodes.
        self.multi = []
        #: The weighing plan.  ``plan_comp[i]``'s widest child SCC is
        #: ``plan_base[i]``, whose closure sum the weighing reuses
        #: wholesale; SCCs without a child (sinks) are not listed.
        self.plan_comp = []
        self.plan_base = []
        #: ``(SCC id, SCC ids)``: the SCCs in its children's union that
        #: the base closure misses, for every SCC that has any.
        self.plan_extra = []
        #: The frequency vector the sums below were weighed with.
        self.freq = freq
        #: SCC id -> summed frequency of its own member nodes.
        self.comp_weight = []
        #: SCC id -> summed frequency over the whole closure (the
        #: Definition-4 answer for every member node), so allowed-node
        #: queries are O(1).
        self.comp_cost = []
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self):
        """Condense, then weigh with the construction-time frequencies.

        When the telemetry hub is enabled, the SCC-discovery and
        closure-propagation shares of the build are timed separately
        (one clock pair per *popped SCC*, never per node or edge) and
        reported as a ``batch.index`` event plus
        ``batch.scc[...]`` / ``batch.propagation[...]`` timers and a
        ``batch.condense[...]`` counter.
        """
        hub = _current_telemetry()
        clock = time.perf_counter if hub.enabled else None
        build_start = clock() if clock else 0.0
        prop_seconds = self._condense(clock)
        weigh_start = clock() if clock else 0.0
        self._weigh(self.freq)
        if clock:
            end = clock()
            prop_seconds += end - weigh_start
            total = end - build_start
            scc_seconds = max(total - prop_seconds, 0.0)
            hub.inc(f"batch.condense[{self.name}]")
            hub.timer_add(f"batch.scc[{self.name}]", scc_seconds)
            hub.timer_add(f"batch.propagation[{self.name}]", prop_seconds)
            hub.event("batch.index", index=self.name, nodes=self.n,
                      sccs=len(self.comp_bits), dur=round(total, 6),
                      scc_s=round(scc_seconds, 6),
                      propagation_s=round(prop_seconds, 6))

    def _condense(self, clock):
        """Iterative Tarjan; closures and plans are sealed at pop time.

        Tarjan emits SCCs in reverse topological order of the
        condensation: every SCC reachable from C is finished before C
        itself pops.  So the closure bitset of C is its own bit OR'd
        with the (already final) closures of the components its member
        edges leave into — each condensation edge contributes exactly
        one big-int OR, and no node is ever double-counted because a
        set bit identifies a whole SCC exactly once.  C's plan records
        its widest child plus the bits the other children add to that
        child's closure; for the chain-shaped unions that dominate
        real dependence graphs this is a handful of ids per SCC.

        Returns the seconds spent sealing closures (0.0 without a
        ``clock``).
        """
        prop_seconds = 0.0
        n = self.n
        offsets = self.offsets
        targets = self.targets
        allowed = self.allowed
        node_mark = self.node_mark
        comp = self.comp
        comp_bits = self.comp_bits
        comp_mark = self.comp_mark
        comp_node = self.comp_node
        multi = self.multi
        plan_comp = self.plan_comp
        plan_base = self.plan_base
        plan_extra = self.plan_extra

        index = [-1] * n
        low = [0] * n
        on_stack = bytearray(n)
        scc_stack = []
        vstack = []       # DFS call stack: nodes
        pstack = []       # DFS call stack: next edge pointer per node
        counter = 0

        for root in range(n):
            if index[root] != -1 or not allowed[root]:
                continue
            index[root] = low[root] = counter
            counter += 1
            scc_stack.append(root)
            on_stack[root] = 1
            vstack.append(root)
            pstack.append(offsets[root])
            while vstack:
                v = vstack[-1]
                ptr = pstack[-1]
                if ptr < offsets[v + 1]:
                    pstack[-1] = ptr + 1
                    w = targets[ptr]
                    if not allowed[w]:
                        continue
                    if index[w] == -1:
                        index[w] = low[w] = counter
                        counter += 1
                        scc_stack.append(w)
                        on_stack[w] = 1
                        vstack.append(w)
                        pstack.append(offsets[w])
                    elif on_stack[w] and index[w] < low[v]:
                        low[v] = index[w]
                    continue
                vstack.pop()
                pstack.pop()
                if vstack and low[v] < low[vstack[-1]]:
                    low[vstack[-1]] = low[v]
                if low[v] != index[v]:
                    continue
                # v roots a finished SCC: pop members, then seal its
                # closure from the already-sealed downstream SCCs.
                cid = len(comp_bits)
                members = []
                while True:
                    w = scc_stack.pop()
                    on_stack[w] = 0
                    comp[w] = cid
                    members.append(w)
                    if w == v:
                        break
                if clock:
                    seal_start = clock()
                mark = False
                children = set()
                for m in members:
                    if node_mark is not None and node_mark[m]:
                        mark = True
                    for e in range(offsets[m], offsets[m + 1]):
                        c2 = comp[targets[e]]
                        if c2 >= 0 and c2 != cid:
                            children.add(c2)
                if not children:
                    bits = 0
                elif len(children) == 1:
                    base, = children
                    bits = comp_bits[base]
                    mark = mark or comp_mark[base]
                else:
                    base = max(children,
                               key=lambda c: comp_bits[c].bit_count())
                    bits = comp_bits[base]
                    for c in children:
                        bits |= comp_bits[c]
                        if comp_mark[c]:
                            mark = True
                    extra = _set_bits(bits ^ comp_bits[base])
                    if extra:
                        plan_extra.append((cid, extra))
                if children:
                    plan_comp.append(cid)
                    plan_base.append(base)
                comp_node.append(v)
                if len(members) > 1:
                    multi.append((cid, members))
                comp_bits.append(bits | 1 << cid)
                comp_mark.append(mark)
                if clock:
                    prop_seconds += clock() - seal_start
        return prop_seconds

    def _weigh(self, freq):
        """Per-SCC weights and closure sums under ``freq``.

        The one propagation path, shared by the first build and every
        re-weigh.  A singleton SCC weighs its node's frequency, read
        for every SCC in one C-level ``map``; only the members of the
        larger SCCs are summed.  An SCC's closure sum is its weight,
        plus the weights of the SCCs its other children add, plus its
        widest child's closure sum.  SCC ids are in pop order, which
        is reverse topological, so that child's sum is final before
        the SCC's own is taken.  Frequencies are ints, so the order of
        the additions does not change a sum.
        """
        self.freq = freq
        node_freq = freq.__getitem__
        weight = list(map(node_freq, self.comp_node))
        for cid, members in self.multi:
            weight[cid] = sum(map(node_freq, members))
        cost = weight.copy()
        comp_weight = weight.__getitem__
        for cid, extra in self.plan_extra:
            cost[cid] += sum(map(comp_weight, extra))
        for cid, base in zip(self.plan_comp, self.plan_base):
            cost[cid] += cost[base]
        self.comp_weight = weight
        self.comp_cost = cost

    def reweigh(self, freq):
        """Re-weigh under new frequencies; the shape must be unchanged.

        Counted as ``batch.reweigh[...]`` (counter and timer) when the
        telemetry hub is enabled.
        """
        hub = _current_telemetry()
        if not hub.enabled:
            self._weigh(freq)
            return
        start = time.perf_counter()
        self._weigh(freq)
        hub.inc(f"batch.reweigh[{self.name}]")
        hub.timer_add(f"batch.reweigh[{self.name}]",
                      time.perf_counter() - start)

    # -- queries ------------------------------------------------------------

    def _extract(self, bits: int) -> int:
        """Weighted popcount of a raw bitset."""
        return sum(map(self.comp_weight.__getitem__, _set_bits(bits)))

    def _union(self, comps):
        """(bitset, weighted sum, mark) over a union of SCC closures.

        Starts from the widest closure (its precomputed ``comp_cost``
        is reused wholesale) and folds the rest in by extracting only
        the *delta* bits each one adds — for the chain-shaped unions
        that dominate real dependence graphs this touches a handful of
        bits instead of re-walking the full closure per query.
        """
        if not comps:
            return 0, 0, False
        comp_bits = self.comp_bits
        comp_mark = self.comp_mark
        if len(comps) == 1:
            c0, = comps
            return comp_bits[c0], self.comp_cost[c0], comp_mark[c0]
        c0 = max(comps, key=lambda c: comp_bits[c].bit_count())
        bits = comp_bits[c0]
        total = self.comp_cost[c0]
        mark = comp_mark[c0]
        for c in comps:
            if c == c0:
                continue
            if comp_mark[c]:
                mark = True
            cb = comp_bits[c]
            delta = cb & ~bits
            if delta:
                total += self._extract(delta)
                bits |= cb
        return bits, total, mark

    def union_cost(self, comps):
        """(weighted sum, mark) over the union of the given closures."""
        _, total, mark = self._union(comps)
        return total, mark

    def query(self, node: int):
        """(closure frequency sum, closure contains a marked node?).

        Matches ``backward_reachable``/``forward_reachable`` with the
        index's stop mask: the start node is always included, even when
        it is itself masked out.
        """
        if self.allowed[node]:
            cid = self.comp[node]
            return self.comp_cost[cid], self.comp_mark[cid]
        mark = bool(self.node_mark[node]) if self.node_mark is not None \
            else False
        offsets = self.offsets
        targets = self.targets
        comp = self.comp
        allowed = self.allowed
        comps = set()
        for e in range(offsets[node], offsets[node + 1]):
            w = targets[e]
            if allowed[w]:
                comps.add(comp[w])
        total, union_mark = self.union_cost(comps)
        return self.freq[node] + total, mark or union_mark


def _set_bits(bits: int):
    """Ids of the set bits of ``bits``, ascending.

    Walks only the bytes from the lowest set bit up, so a one-bit
    delta high in a wide bitset costs one byte, not the whole prefix.
    """
    if not bits:
        return []
    first = ((bits & -bits).bit_length() - 1) >> 3
    bits >>= first << 3
    data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
    byte_bits = _BYTE_BITS
    ids = []
    for i, byte in enumerate(data, first):
        if byte:
            base = i << 3
            ids.extend(base + offset for offset in byte_bits[byte])
    return ids


def _allowed_mask(flags, stop_flags: int) -> bytearray:
    if not stop_flags:
        return bytearray(b"\x01" * len(flags)) if flags else bytearray()
    return bytearray(0 if f & stop_flags else 1 for f in flags)


def _flag_mask(flags, which: int):
    return bytearray(1 if f & which else 0 for f in flags)


class BatchSliceEngine:
    """One-pass batched replacement for the per-query slicing BFS.

    Freezes the graph on construction and lazily builds one
    :class:`ReachabilityIndex` per query family:

    * ``abstract_cost`` — backward, no stop flags (Definition 4);
    * ``hrac`` — backward, stopping at heap reads (Definition 5);
    * ``hrab`` — forward, stopping at heap writes, tracking the
      F_NATIVE infinite-benefit bit (Definition 6).

    Results are bit-identical to the reference functions; the
    equivalence is asserted over every workload by
    ``tests/test_batch_engine.py``.
    """

    def __init__(self, graph: DependenceGraph):
        self.graph = graph
        hub = _current_telemetry()
        if hub.enabled:
            with hub.span("batch.freeze", nodes=graph.num_nodes,
                          edges=graph.num_edges,
                          cached=graph.frozen):
                self.csr = graph.freeze()
        else:
            self.csr = graph.freeze()
        self._cost_index = None
        self._hrac_index = None
        self._hrab_index = None
        self._reachability = None
        self._dead_classes = None
        self._groups = None
        # Validity checksums managed by engine_for().
        self._freq_sum = None
        self._flag_sum = None

    # -- index plumbing ------------------------------------------------------

    def cost_index(self) -> ReachabilityIndex:
        if self._cost_index is None:
            csr = self.csr
            self._cost_index = ReachabilityIndex(
                csr.num_nodes, csr.bwd_offsets, csr.bwd_targets,
                _allowed_mask(self.graph.flags, 0), self.graph.freq,
                name="cost")
        return self._cost_index

    def hrac_index(self) -> ReachabilityIndex:
        if self._hrac_index is None:
            csr = self.csr
            self._hrac_index = ReachabilityIndex(
                csr.num_nodes, csr.bwd_offsets, csr.bwd_targets,
                _allowed_mask(self.graph.flags, F_HEAP_READ),
                self.graph.freq, name="hrac")
        return self._hrac_index

    def hrab_index(self) -> ReachabilityIndex:
        if self._hrab_index is None:
            csr = self.csr
            flags = self.graph.flags
            self._hrab_index = ReachabilityIndex(
                csr.num_nodes, csr.fwd_offsets, csr.fwd_targets,
                _allowed_mask(flags, F_HEAP_WRITE), self.graph.freq,
                mark=_flag_mask(flags, F_NATIVE), name="hrab")
        return self._hrab_index

    def reweigh(self, freq):
        """Re-weigh every index built so far under new frequencies.

        Valid only while the CSR snapshot and flags are unchanged;
        :func:`engine_for` checks that before calling it.
        """
        for index in (self._cost_index, self._hrac_index,
                      self._hrab_index):
            if index is not None:
                index.reweigh(freq)

    # -- per-node queries (same contracts as the reference functions) --------

    def abstract_cost(self, node_id: int) -> int:
        """Definition 4; equals ``cost.abstract_cost(graph, node_id)``."""
        return self.cost_index().query(node_id)[0]

    def abstract_costs(self):
        """Definition-4 cost of every node, as a list indexed by id."""
        index = self.cost_index()
        comp = index.comp
        comp_cost = index.comp_cost
        # The cost index has no stop mask, so every node has a SCC.
        return [comp_cost[comp[node]] for node in range(self.csr.num_nodes)]

    def hrac(self, node_id: int) -> int:
        """Definition 5; equals ``relative.hrac(graph, node_id)``."""
        return self.hrac_index().query(node_id)[0]

    def hrab(self, node_id: int, native_benefit: str = "infinite"):
        """Definition 6; equals ``relative.hrab(graph, node_id, ...)``."""
        total, reaches_native = self.hrab_index().query(node_id)
        if native_benefit == "infinite" and reaches_native:
            return INFINITE
        return total

    # -- batched field aggregates --------------------------------------------

    def field_groups(self):
        """The graph's ``(field_stores, field_loads, alloc_nodes)``.

        Read once per engine, as the condensations are
        (:meth:`~repro.profiler.graph.DependenceGraph.field_groups`),
        and held with a copy of the heap effects they were read from.
        They depend on the effects only, and a fold or a resumed run
        can overwrite a node's effect (the last store wins) without
        adding a node or an edge, so the CSR snapshot does not cover
        them: a graph whose effects differ from the copy (one C-level
        dict comparison) is read again.  Every caller gets the same
        dicts; treat them as read-only.
        """
        effects = self.graph.effects
        held = self._groups
        if held is None or held[0] != effects:
            held = self._groups = (dict(effects),
                                   *self.graph.field_groups())
        return held[1:]

    def field_racs(self):
        """(alloc_key, field) -> RAC; equals ``relative.field_racs``."""
        index = self.hrac_index()
        racs = {}
        for field_key, stores in self.field_groups()[0].items():
            total = sum(index.query(node)[0] for node in stores)
            racs[field_key] = total / len(stores)
        return racs

    def field_rabs(self, native_benefit: str = "infinite"):
        """(alloc_key, field) -> RAB; equals ``relative.field_rabs``."""
        index = self.hrab_index()
        infinite = native_benefit == "infinite"
        rabs = {}
        for field_key, loads in self.field_groups()[1].items():
            total = 0
            saw_native = False
            for node in loads:
                benefit, reaches_native = index.query(node)
                if infinite and reaches_native:
                    saw_native = True
                    break
                total += benefit
            rabs[field_key] = INFINITE if saw_native \
                else total / len(loads)
        return rabs

    # -- consumer reachability (ultimately-dead values) ----------------------

    def consumer_reachability(self):
        """For every node: (reaches a native?, reaches a predicate?).

        A backward fixpoint from the consumer nodes over the frozen CSR
        arrays (handles cycles): a node reaches a consumer kind if it
        is one or any successor reaches one.  Computed once per engine:
        it reads only the CSR and ``flags``, so a re-weigh leaves it
        valid.  Every caller gets the same two bytearrays; treat them
        as read-only.
        """
        if self._reachability is None:
            self._reachability = self._consumer_walk()
        return self._reachability

    def dead_value_classes(self):
        """(D*, P*, D): the §4.1 node classes, as ascending id tuples.

        D* holds the non-consumer nodes that reach no consumer (their
        values are ultimately dead), P* the non-consumers whose only
        reachable consumers are predicates, and D the D* nodes with no
        outgoing def-use edge.  Like :meth:`consumer_reachability`,
        which they are read from, the classes depend on the CSR and
        ``flags`` only: computed once per engine, kept by a re-weigh,
        so a frequency-only fold re-sums weights over them and walks
        no node.
        """
        if self._dead_classes is None:
            reach_native, reach_pred = self.consumer_reachability()
            fwd_offsets = self.csr.fwd_offsets
            dead = []
            predicate_only = []
            sinks = []
            for node, (flag, native, pred) in enumerate(
                    zip(self.graph.flags, reach_native, reach_pred)):
                if flag & F_CONSUMER or native:
                    continue
                if pred:
                    predicate_only.append(node)
                else:
                    dead.append(node)
                    if fwd_offsets[node] == fwd_offsets[node + 1]:
                        sinks.append(node)
            self._dead_classes = (tuple(dead), tuple(predicate_only),
                                  tuple(sinks))
        return self._dead_classes

    def _consumer_walk(self):
        csr = self.csr
        n = csr.num_nodes
        flags = self.graph.flags
        reach_native = bytearray(n)
        reach_pred = bytearray(n)
        worklist = []
        for node in range(n):
            f = flags[node]
            if f & F_NATIVE:
                reach_native[node] = 1
                worklist.append(node)
            if f & F_PREDICATE:
                reach_pred[node] = 1
                worklist.append(node)
        offsets = csr.bwd_offsets
        targets = csr.bwd_targets
        while worklist:
            node = worklist.pop()
            native = reach_native[node]
            pred = reach_pred[node]
            for e in range(offsets[node], offsets[node + 1]):
                p = targets[e]
                changed = False
                if native and not reach_native[p]:
                    reach_native[p] = 1
                    changed = True
                if pred and not reach_pred[p]:
                    reach_pred[p] = 1
                    changed = True
                if changed:
                    worklist.append(p)
        return reach_native, reach_pred


class MethodLocalCostIndex:
    """Batched §3.2 return-value costs: heap-bounded, method-confined.

    The reference (``methodcost._method_local_cost``) BFSes backward
    from each return-producing node, expanding only predecessors that
    are heap-read-free *and* belong to the query method.  Because every
    expansion step preserves the method, the union of all per-method
    searches lives inside one global subgraph whose edges connect
    same-method nodes only — so a single condensation of that subgraph
    answers every method's queries.

    The start node may belong to a *different* method than the query
    (a returned value produced by a callee): it is then answered by the
    masked-start path — its own frequency plus the closures of its
    query-method predecessors, which cannot contain the start itself
    since closures never leave the query method.
    """

    def __init__(self, graph: DependenceGraph, iid_to_method):
        self.graph = graph
        csr = graph.freeze()
        self.csr = csr
        n = csr.num_nodes
        keys = graph.node_keys
        name_ids = {}
        mid = array("q", bytes(8 * n))
        for node in range(n):
            name = iid_to_method.get(keys[node][0])
            if name is None:
                mid[node] = -1
                continue
            nid = name_ids.get(name)
            if nid is None:
                nid = name_ids[name] = len(name_ids)
            mid[node] = nid
        self.mid = mid
        self._name_ids = name_ids
        allowed = _allowed_mask(graph.flags, F_HEAP_READ)
        self.allowed = allowed
        # Backward adjacency filtered to same-method edges.
        offsets = array("q", bytes(8 * (n + 1)))
        targets = array("q")
        bwd_offsets = csr.bwd_offsets
        bwd_targets = csr.bwd_targets
        for v in range(n):
            m = mid[v]
            for e in range(bwd_offsets[v], bwd_offsets[v + 1]):
                p = bwd_targets[e]
                if mid[p] == m:
                    targets.append(p)
            offsets[v + 1] = len(targets)
        self.index = ReachabilityIndex(n, offsets, targets, allowed,
                                       graph.freq, name="method_local")

    def cost(self, node: int, method: str) -> int:
        """Equals ``_method_local_cost(graph, node, method, mapping)``."""
        m = self._name_ids.get(method, -2)
        if self.allowed[node] and self.mid[node] == m:
            return self.index.query(node)[0]
        # Masked or foreign-method start: one manual hop over the
        # *unfiltered* predecessors into the query method's closures.
        index = self.index
        offsets = self.csr.bwd_offsets
        targets = self.csr.bwd_targets
        allowed = self.allowed
        mid = self.mid
        comp = index.comp
        comps = set()
        for e in range(offsets[node], offsets[node + 1]):
            p = targets[e]
            if allowed[p] and mid[p] == m:
                comps.add(comp[p])
        return self.graph.freq[node] + index.union_cost(comps)[0]


def engine_for(graph: DependenceGraph) -> BatchSliceEngine:
    """The cached engine for ``graph``, kept current as the graph moves.

    Validity covers adjacency (CSR snapshot identity) plus cheap
    checksums of the live ``freq``/``flags`` vectors, which can change
    without adding nodes or edges (frequency bumps, flag accumulation).
    A new CSR or a flag change rebuilds the engine; a frequency-only
    change — the fold of a repeated shard — re-weighs the indexes
    already built and keeps their condensations.  Frequencies, flags
    and context sets only grow under a fold, so a sum that did not
    move is an input that did not change.

    The same rule keeps the other whole-graph results a served read
    needs: the engine's field groupings
    (:meth:`BatchSliceEngine.field_groups`, also checked against the
    heap effects) and the conflict ratio
    (:meth:`~repro.profiler.state.TrackerState.conflict_ratio`, held
    with the snapshot and the total context count).  Nothing is
    invalidated by hand.
    """
    engine = getattr(graph, "_batch_engine", None)
    freq_sum = sum(graph.freq)
    flag_sum = sum(graph.flags)
    if (engine is not None and engine.csr is graph.freeze()
            and engine._flag_sum == flag_sum):
        if engine._freq_sum != freq_sum:
            engine.reweigh(graph.freq)
            engine._freq_sum = freq_sum
        return engine
    engine = BatchSliceEngine(graph)
    engine._freq_sum = freq_sum
    engine._flag_sum = flag_sum
    graph._batch_engine = engine
    return engine

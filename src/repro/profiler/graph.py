"""The abstract thin data dependence graph (Definition 2), aka Gcost.

Nodes are abstractions of instruction instances: ``(iid, d)`` where
``iid`` is the static instruction and ``d`` the element of the bounded
abstract domain (for the cost graph, the encoded-context slot).
Predicate and native nodes are contextless (``d = CONTEXTLESS``).

Besides def-use edges the graph carries the paper's auxiliary
structure:

* node flags marking allocations (``U``, underlined in the paper's
  figures), heap reads (``C``, circled), heap writes (``B``, boxed),
  predicates, and natives;
* heap effects ``(kind, alloc_key, field)`` per node, where
  ``alloc_key = (alloc_iid, context_slot)`` is the context-annotated
  allocation site;
* *reference edges* from a store node to the node that allocated the
  base object (used to aggregate field costs into object and data-
  structure costs);
* a points-to summary (``alloc_key.field -> {target alloc_key}``) used
  to build object reference trees for n-RAC / n-RAB (Definition 7).
"""

from __future__ import annotations

from array import array

# Node flags.
F_ALLOC = 1        # 'U' — allocates an object or array
F_HEAP_READ = 2    # 'C' — reads an object field / array element / static
F_HEAP_WRITE = 4   # 'B' — writes an object field / array element / static
F_PREDICATE = 8    # consumer: control-flow decision
F_NATIVE = 16      # consumer: value leaves the program (output)

F_CONSUMER = F_PREDICATE | F_NATIVE

#: Pseudo-context for contextless nodes (predicates and natives).
CONTEXTLESS = -1

#: Pseudo-field name for array element effects.
ELM = "ELM"

# Heap effect kinds.
EFFECT_ALLOC = "U"
EFFECT_STORE = "B"
EFFECT_LOAD = "C"

# Flat per-item charges behind DependenceGraph.memory_bytes(), in bytes
# on 64-bit CPython.  They are literals, so the figure is a function of
# the graph's counts: it does not depend on how a fold or the tracker
# grew the containers, nor on the interpreter's version.
_SLOT_BYTES = 8           # one list slot or one array('q') item
_EMPTY_SET_BYTES = 216    # an empty adjacency set
_SET_ENTRY_BYTES = 32     # one adjacency-set entry, amortised
_KEY_BYTES = 48           # one (iid, d) key tuple and its _ids entry
_EFFECT_BYTES = 64        # one effects entry and its tuple
_REF_EDGE_BYTES = 48      # one (store, alloc) reference-edge tuple
#: A node: its node_keys/freq/flags/preds/succs slots, two empty sets,
#: its key, and its forward and backward CSR offsets.
_NODE_BYTES = (5 * _SLOT_BYTES + 2 * _EMPTY_SET_BYTES + _KEY_BYTES
               + 2 * _SLOT_BYTES)
#: A def-use edge: one set entry and one CSR target in each direction.
_EDGE_BYTES = 2 * _SET_ENTRY_BYTES + 2 * _SLOT_BYTES


class CSRGraph:
    """Frozen adjacency in compressed-sparse-row form.

    ``fwd_offsets[v]:fwd_offsets[v+1]`` indexes the slice of
    ``fwd_targets`` holding v's successors (sorted, so iteration order
    is deterministic); the ``bwd_*`` pair is the predecessor dual.
    Built by :meth:`DependenceGraph.freeze` and shared by the batched
    analyses; it is a read-only snapshot — the mutable ``preds``/
    ``succs`` sets remain the source of truth and a snapshot is stale
    (and automatically rebuilt) once node or edge counts change.
    """

    __slots__ = ("num_nodes", "num_edges",
                 "fwd_offsets", "fwd_targets",
                 "bwd_offsets", "bwd_targets")

    def __init__(self, num_nodes, num_edges,
                 fwd_offsets, fwd_targets, bwd_offsets, bwd_targets):
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.fwd_offsets = fwd_offsets
        self.fwd_targets = fwd_targets
        self.bwd_offsets = bwd_offsets
        self.bwd_targets = bwd_targets


class DependenceGraph:
    """Gcost and its client-analysis cousins."""

    def __init__(self, slots: int = 16):
        self.slots = slots
        self.node_keys = []    # node id -> (iid, d)
        self.freq = []         # node id -> execution frequency
        self.flags = []        # node id -> flag bitmask
        self.preds = []        # node id -> set of predecessor node ids
        self.succs = []        # node id -> set of successor node ids
        self.effects = {}      # node id -> (kind, alloc_key, field)
        self.ref_edges = set()       # (store node id, alloc node id)
        self.points_to = {}          # alloc_key -> {field: {alloc_key}}
        #: node id -> {predicate node ids} it is control-dependent on
        #: (nearest enclosing decision; populated only when the tracker
        #: runs with track_control=True).
        self.control_deps = {}
        self._ids = {}         # (iid, d) -> node id
        self._edge_count = 0
        self._csr = None       # CSRGraph snapshot (see freeze())
        # The shape of the last packed document folded in (see
        # serialize.fold_document); valid because a graph only grows.
        self._shape_memo = None
        # One-entry lookup cache: hot traces touch the same (iid, d)
        # node repeatedly (loops re-executing one instruction under one
        # context slot), so remember the last hit and skip the dict.
        self._last_key = None
        self._last_id = -1

    # -- construction -------------------------------------------------------

    def node(self, iid: int, d: int, flag: int = 0) -> int:
        """Get-or-create the node for ``(iid, d)``; bumps its frequency."""
        key = (iid, d)
        if key == self._last_key:
            node_id = self._last_id
            self.freq[node_id] += 1
            if flag:
                self.flags[node_id] |= flag
            return node_id
        node_id = self._ids.get(key)
        if node_id is None:
            node_id = len(self.node_keys)
            self._ids[key] = node_id
            self.node_keys.append(key)
            self.freq.append(1)
            self.flags.append(flag)
            self.preds.append(set())
            self.succs.append(set())
        else:
            self.freq[node_id] += 1
            if flag:
                self.flags[node_id] |= flag
        self._last_key = key
        self._last_id = node_id
        return node_id

    def find(self, iid: int, d: int):
        """Node id for ``(iid, d)`` or None; does not create or bump."""
        return self._ids.get((iid, d))

    def add_edge(self, src: int, dst: int):
        """Def-use edge: ``src`` wrote a location that ``dst`` reads."""
        succs = self.succs[src]
        if dst not in succs:
            succs.add(dst)
            self.preds[dst].add(src)
            self._edge_count += 1

    def add_ref_edge(self, store_node: int, alloc_node: int):
        self.ref_edges.add((store_node, alloc_node))

    def add_points_to(self, base_key, field: str, target_key):
        fields = self.points_to.setdefault(base_key, {})
        fields.setdefault(field, set()).add(target_key)

    # -- basic queries --------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_keys)

    @property
    def num_edges(self) -> int:
        return self._edge_count

    def is_consumer(self, node_id: int) -> bool:
        return bool(self.flags[node_id] & F_CONSUMER)

    def nodes_with_flag(self, flag: int):
        return [n for n, f in enumerate(self.flags) if f & flag]

    def total_frequency(self) -> int:
        return sum(self.freq)

    # -- grouping used by the relative cost-benefit analysis -------------------

    def field_stores(self):
        """(alloc_key, field) -> [store node ids]."""
        return self.field_groups()[0]

    def field_loads(self):
        """(alloc_key, field) -> [load node ids]."""
        return self.field_groups()[1]

    def alloc_nodes(self):
        """alloc_key -> allocation node id."""
        return self.field_groups()[2]

    def field_groups(self):
        """``(field_stores(), field_loads(), alloc_nodes())``, read in
        one pass over the heap effects.  A batched engine holds them
        (:meth:`~repro.analyses.batch.BatchSliceEngine.field_groups`)."""
        stores = {}
        loads = {}
        allocs = {}
        for node_id, (kind, alloc_key, field) in self.effects.items():
            if kind == EFFECT_ALLOC:
                allocs[alloc_key] = node_id
            elif alloc_key is None:
                continue
            elif kind == EFFECT_STORE:
                stores.setdefault((alloc_key, field), []).append(node_id)
            elif kind == EFFECT_LOAD:
                loads.setdefault((alloc_key, field), []).append(node_id)
        return stores, loads, allocs

    # -- traversals (building blocks for the analyses) ---------------------------

    def backward_reachable(self, start: int, stop_flags: int = 0):
        """All nodes backward-reachable from ``start`` (inclusive).

        Nodes carrying ``stop_flags`` terminate the traversal and are
        *excluded* — with ``stop_flags=F_HEAP_READ`` this yields exactly
        the node set of the HRAC (Definition 5): paths may not pass
        through a node that reads from a static or object field.  The
        start node itself is always included.
        """
        visited = {start}
        worklist = [start]
        preds = self.preds
        flags = self.flags
        while worklist:
            node_id = worklist.pop()
            for pred in preds[node_id]:
                if pred in visited:
                    continue
                if flags[pred] & stop_flags:
                    continue
                visited.add(pred)
                worklist.append(pred)
        return visited

    def forward_reachable(self, start: int, stop_flags: int = 0):
        """Dual of :meth:`backward_reachable` along successor edges."""
        visited = {start}
        worklist = [start]
        succs = self.succs
        flags = self.flags
        while worklist:
            node_id = worklist.pop()
            for succ in succs[node_id]:
                if succ in visited:
                    continue
                if flags[succ] & stop_flags:
                    continue
                visited.add(succ)
                worklist.append(succ)
        return visited

    # -- freezing ---------------------------------------------------------------

    def freeze(self) -> CSRGraph:
        """Snapshot the adjacency into CSR arrays for batched analyses.

        Idempotent: returns the cached snapshot while the node and edge
        counts are unchanged, and rebuilds it otherwise (construction
        never mutates the snapshot in place, so tracking can resume
        after an analysis pass without invalidating anything by hand).
        Flag and frequency updates do not stale a snapshot — CSR holds
        adjacency only; analyses read ``flags``/``freq`` live.
        """
        csr = self._csr
        n = len(self.node_keys)
        if (csr is not None and csr.num_nodes == n
                and csr.num_edges == self._edge_count):
            return csr
        fwd_offsets = array("q", bytes(8 * (n + 1)))
        bwd_offsets = array("q", bytes(8 * (n + 1)))
        fwd_targets = array("q")
        bwd_targets = array("q")
        for v in range(n):
            fwd_targets.extend(sorted(self.succs[v]))
            fwd_offsets[v + 1] = len(fwd_targets)
            bwd_targets.extend(sorted(self.preds[v]))
            bwd_offsets[v + 1] = len(bwd_targets)
        csr = CSRGraph(n, self._edge_count, fwd_offsets, fwd_targets,
                       bwd_offsets, bwd_targets)
        self._csr = csr
        return csr

    @property
    def frozen(self) -> bool:
        """True while the cached CSR snapshot matches the graph."""
        csr = self._csr
        return (csr is not None and csr.num_nodes == len(self.node_keys)
                and csr.num_edges == self._edge_count)

    # -- reporting ---------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate resident size of the graph, from its counts.

        Nodes, def-use edges, heap effects, reference edges and
        points-to targets, each at a flat charge (the ``_*_BYTES``
        constants), with the CSR snapshot the analyses freeze counted
        in.  Equal graphs give equal figures however they were built:
        served reports carry this figure, and a served report must be
        byte-identical to the batch one.
        """
        points_to = sum(len(targets) for fields in self.points_to.values()
                        for targets in fields.values())
        return (_NODE_BYTES * len(self.node_keys)
                + _EDGE_BYTES * self._edge_count
                + _EFFECT_BYTES * len(self.effects)
                + _REF_EDGE_BYTES * len(self.ref_edges)
                + _SET_ENTRY_BYTES * points_to)

    def stats(self) -> dict:
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "ref_edges": len(self.ref_edges),
            "memory_bytes": self.memory_bytes(),
            "total_frequency": self.total_frequency(),
            "consumers": sum(1 for f in self.flags if f & F_CONSUMER),
        }

"""Online construction of Gcost — the paper's Figure 4 inference rules.

The :class:`CostTracker` plugs into the VM as a tracer.  Per executed
instruction it

* maps the instance to its abstract node ``(iid, h(context))`` where the
  context is the receiver-object allocation-site chain (rule METHOD
  ENTRY maintains the chain; ``h`` is ``extend_context`` + mod-slots);
  the tracker indexes these nodes by dense ``(iid, slot)`` rows, so a
  repeat execution costs a row lookup and a list index, no key tuple,
* adds def-use edges from the nodes stored in the shadow locations of
  the operands it *uses* (thin slicing: base pointers of field accesses
  are not used; array indices are),
* updates the shadow location of the definition (environment ``S``),
* records heap effects and object tags (environments ``H`` and ``P``,
  rules ALLOC / LOAD FIELD / STORE FIELD),
* adds reference edges between field stores and the context-matching
  allocation node (pruning spurious edges exactly as rule ALLOC's
  context-annotated tags do),
* passes dependences across calls via per-frame shadow maps (the
  tracking stack ``T`` of rules METHOD ENTRY / RETURN).

Tracking can be restricted to named execution phases (``Sys.phase``),
reproducing §4.1's reduced-overhead mode.
"""

from __future__ import annotations

from ..ir import instructions as ins
from ..observability.telemetry import current as _current_telemetry
from .base import TracerBase
from .context import average_conflict_ratio, context_slot, extend_context
from .graph import (CONTEXTLESS, ELM, EFFECT_ALLOC, EFFECT_LOAD,
                    EFFECT_STORE, F_ALLOC, F_HEAP_READ, F_HEAP_WRITE,
                    F_NATIVE, F_PREDICATE, DependenceGraph)
from .state import TrackerState, extend_cr_groups


class CostTracker(TracerBase):
    """Builds the abstract thin data dependence graph online.

    Parameters
    ----------
    slots:
        Size ``s`` of the bounded context domain (8 or 16 in the paper).
    phases:
        If given, tracking is active only while the VM is inside one of
        these phases (names passed to ``Sys.phase``).  The program
        starts in phase ``"main"``.
    track_cr:
        Record distinct encoded contexts per node for the context
        conflict ratio statistic.  Costs a set insertion per instruction.
    telemetry:
        Observability hub (defaults to the process-wide one).  The
        tracker itself reports only on cold paths — run boundaries and
        the derived statistics flushed by
        :func:`repro.observability.emit_tracker_stats` — so tracing
        hot paths pay nothing for it.
    """

    def __init__(self, slots: int = 16, phases=None, track_cr: bool = True,
                 track_control: bool = False, telemetry=None):
        super().__init__()
        self.telemetry = (telemetry if telemetry is not None
                          else _current_telemetry())
        self.slots = slots
        #: Record nearest-enclosing-predicate control dependences for
        #: the control-inclusive cost ablation (§3.2).
        self.track_control = track_control
        self.graph = DependenceGraph(slots)
        self.phases = frozenset(phases) if phases is not None else None
        self.enabled = self.phases is None or "main" in self.phases
        self.track_cr = track_cr
        self._static_shadow = {}   # (class, field) -> node id
        self._node_gs = []         # node id -> set of encoded contexts
        #: iid -> [node id of (iid, slot) for each context slot], -1
        #: where that node does not exist yet.  A dense index over the
        #: graph's context-annotated nodes, filled on their creation;
        #: the graph's ``(iid, d)`` map stays the source of truth.
        self._rows = {}
        self._ret_node = None      # shadow of the value being returned
        #: branch iid -> [times taken, times not taken]; consumed by the
        #: always-true/always-false predicate client (§3.2).
        self.branch_outcomes = {}
        #: return-instruction iid -> {nodes that produced returned
        #: values}; consumed by the method-level return-cost client.
        self.return_nodes = {}
        # Incremental CR regrouping cache (see conflict_ratio()).
        self._cr_groups = {}
        self._cr_upto = 0
        # Per-opcode handler binding: trace_instr fires once per
        # executed instruction, so resolve the opcode to its handler
        # through one list index instead of an if/elif ladder.
        dispatch = [self._trace_unexpected] * (ins.OP_INTRINSIC + 1)
        dispatch[ins.OP_BRANCH] = self._trace_branch
        dispatch[ins.OP_CONST] = self._trace_const
        dispatch[ins.OP_MOVE] = self._trace_single_use
        dispatch[ins.OP_UNOP] = self._trace_single_use
        dispatch[ins.OP_BINOP] = self._trace_binop
        dispatch[ins.OP_INTRINSIC] = self._trace_intrinsic
        dispatch[ins.OP_ARRAY_LEN] = self._trace_array_len
        dispatch[ins.OP_LOAD_STATIC] = self._trace_load_static
        dispatch[ins.OP_STORE_STATIC] = self._trace_store_static
        self._instr_dispatch = dispatch

    # -- lifecycle ---------------------------------------------------------

    def on_phase(self, name: str):
        if self.phases is not None:
            self.enabled = name in self.phases

    def on_entry_frame(self, frame):
        frame.shadow = {}
        frame.g = 0
        frame.dctx = 0

    def begin_run(self):
        """Reset per-execution state before profiling another VM run.

        The graph, CR contexts, branch outcomes and return nodes keep
        accumulating — that is the point of multi-run aggregation (and
        the sequential oracle the parallel merge is checked against) —
        but shadow locations must not leak between executions: a fresh
        VM starts with a fresh heap and fresh statics, so a def-use
        edge from a previous run's store would be spurious.
        """
        self._static_shadow = {}
        self._ret_node = None
        self.enabled = self.phases is None or "main" in self.phases
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.event("tracker.begin_run",
                            nodes=self.graph.num_nodes,
                            edges=self.graph.num_edges)

    # -- helpers --------------------------------------------------------------

    def _shadow(self, frame):
        shadow = frame.shadow
        if shadow is None:
            shadow = frame.shadow = {}
        return shadow

    def _node(self, iid: int, dctx: int, g: int, flag: int = 0) -> int:
        """Context-annotated node, with CR bookkeeping.

        A node seen before is found through ``_rows`` -- the iid's row,
        then the slot's entry -- with no key tuple and no graph lookup;
        only its first execution goes through
        :meth:`DependenceGraph.node`, which numbers it.
        """
        row = self._rows.get(iid)
        if row is not None:
            node_id = row[dctx]
            if node_id >= 0:
                graph = self.graph
                graph.freq[node_id] += 1
                if flag:
                    graph.flags[node_id] |= flag
                if self.track_cr:
                    self._node_gs[node_id].add(g)
                return node_id
        else:
            row = self._rows[iid] = [-1] * self.slots
        node_id = row[dctx] = self.graph.node(iid, dctx, flag)
        if self.track_cr:
            gs = self._node_gs
            if len(gs) <= node_id:
                gs.extend([None] * (node_id + 1 - len(gs)))
            if gs[node_id] is None:
                gs[node_id] = {g}
            else:
                gs[node_id].add(g)
        return node_id

    def _control(self, node, frame):
        """Record the nearest enclosing predicate (control ablation)."""
        pred = frame.last_pred
        if pred is None:
            return
        deps = self.graph.control_deps.get(node)
        if deps is None:
            self.graph.control_deps[node] = {pred}
        else:
            deps.add(pred)

    @staticmethod
    def _tag(obj):
        tag = obj.tag
        if tag is None:
            # Allocated while tracking was disabled: context unknown.
            tag = obj.tag = (obj.site, CONTEXTLESS)
        return tag

    # -- plain instructions ------------------------------------------------------

    def trace_instr(self, instr, frame):
        self._instr_dispatch[instr.op](instr, frame)

    def _trace_unexpected(self, instr, frame):  # pragma: no cover
        raise AssertionError(
            f"trace_instr fired for unexpected opcode {instr.op}")

    def _trace_branch(self, instr, frame):
        # Predicate consumer node, contextless (rule PREDICATE).
        graph = self.graph
        node = graph.node(instr.iid, CONTEXTLESS, F_PREDICATE)
        src = self._shadow(frame).get(instr.cond)
        if src is not None:
            graph.add_edge(src, node)
        outcomes = self.branch_outcomes.get(instr.iid)
        if outcomes is None:
            outcomes = self.branch_outcomes[instr.iid] = [0, 0]
        outcomes[0 if frame.regs[instr.cond] else 1] += 1
        if self.track_control:
            frame.last_pred = node

    def _trace_const(self, instr, frame):
        node = self._node(instr.iid, frame.dctx, frame.g)
        if self.track_control:
            self._control(node, frame)
        self._shadow(frame)[instr.dest] = node

    def _trace_single_use(self, instr, frame):
        # Move and unary ops: one operand register named ``src``.
        node = self._node(instr.iid, frame.dctx, frame.g)
        if self.track_control:
            self._control(node, frame)
        shadow = self._shadow(frame)
        src = shadow.get(instr.src)
        if src is not None:
            self.graph.add_edge(src, node)
        shadow[instr.dest] = node

    def _trace_binop(self, instr, frame):
        node = self._node(instr.iid, frame.dctx, frame.g)
        if self.track_control:
            self._control(node, frame)
        graph = self.graph
        shadow = self._shadow(frame)
        src = shadow.get(instr.lhs)
        if src is not None:
            graph.add_edge(src, node)
        src = shadow.get(instr.rhs)
        if src is not None:
            graph.add_edge(src, node)
        shadow[instr.dest] = node

    def _trace_intrinsic(self, instr, frame):
        node = self._node(instr.iid, frame.dctx, frame.g)
        if self.track_control:
            self._control(node, frame)
        graph = self.graph
        shadow = self._shadow(frame)
        for arg in instr.args:
            src = shadow.get(arg)
            if src is not None:
                graph.add_edge(src, node)
        shadow[instr.dest] = node

    def _trace_array_len(self, instr, frame):
        # Array length is metadata carried by the array *value*
        # (fixed at allocation), not ELM contents: a plain
        # computation reading the reference, not a heap read.
        node = self._node(instr.iid, frame.dctx, frame.g)
        if self.track_control:
            self._control(node, frame)
        shadow = self._shadow(frame)
        src = shadow.get(instr.arr)
        if src is not None:
            self.graph.add_edge(src, node)
        shadow[instr.dest] = node

    def _trace_load_static(self, instr, frame):
        node = self._node(instr.iid, frame.dctx, frame.g, F_HEAP_READ)
        if self.track_control:
            self._control(node, frame)
        src = self._static_shadow.get((instr.class_name, instr.field))
        if src is not None:
            self.graph.add_edge(src, node)
        self._shadow(frame)[instr.dest] = node

    def _trace_store_static(self, instr, frame):
        node = self._node(instr.iid, frame.dctx, frame.g, F_HEAP_WRITE)
        if self.track_control:
            self._control(node, frame)
        src = self._shadow(frame).get(instr.src)
        if src is not None:
            self.graph.add_edge(src, node)
        self._static_shadow[(instr.class_name, instr.field)] = node

    # -- allocations ----------------------------------------------------------------

    def trace_new_object(self, instr, frame, obj):
        node = self._node(instr.iid, frame.dctx, frame.g, F_ALLOC)
        if self.track_control:
            self._control(node, frame)
        alloc_key = (instr.iid, frame.dctx)
        self.graph.effects[node] = (EFFECT_ALLOC, alloc_key, None)
        obj.tag = alloc_key
        obj.shadow = {}
        self._shadow(frame)[instr.dest] = node

    def trace_new_array(self, instr, frame, arr):
        node = self._node(instr.iid, frame.dctx, frame.g, F_ALLOC)
        if self.track_control:
            self._control(node, frame)
        alloc_key = (instr.iid, frame.dctx)
        self.graph.effects[node] = (EFFECT_ALLOC, alloc_key, None)
        arr.tag = alloc_key
        arr.shadow = {}
        shadow = self._shadow(frame)
        src = shadow.get(instr.size)
        if src is not None:
            self.graph.add_edge(src, node)
        shadow[instr.dest] = node

    # -- field and array accesses ------------------------------------------------------

    def trace_load_field(self, instr, frame, obj):
        node = self._node(instr.iid, frame.dctx, frame.g, F_HEAP_READ)
        if self.track_control:
            self._control(node, frame)
        graph = self.graph
        tag = self._tag(obj)
        graph.effects[node] = (EFFECT_LOAD, tag, instr.field)
        obj_shadow = obj.shadow
        if obj_shadow is not None:
            src = obj_shadow.get(instr.field)
            if src is not None:
                graph.add_edge(src, node)
        self._shadow(frame)[instr.dest] = node

    def trace_store_field(self, instr, frame, obj, value):
        node = self._node(instr.iid, frame.dctx, frame.g, F_HEAP_WRITE)
        if self.track_control:
            self._control(node, frame)
        graph = self.graph
        tag = self._tag(obj)
        graph.effects[node] = (EFFECT_STORE, tag, instr.field)
        shadow = self._shadow(frame)
        src = shadow.get(instr.src)
        if src is not None:
            graph.add_edge(src, node)
        if obj.shadow is None:
            obj.shadow = {}
        obj.shadow[instr.field] = node
        # Reference edge to the context-matching allocation node.
        alloc_node = graph.find(tag[0], tag[1])
        if alloc_node is not None:
            graph.add_ref_edge(node, alloc_node)
        # Points-to summary for reference trees (Definition 7).
        if value is not None and not isinstance(value, (int, str)):
            graph.add_points_to(tag, instr.field, self._tag(value))

    def trace_array_load(self, instr, frame, arr, idx):
        node = self._node(instr.iid, frame.dctx, frame.g, F_HEAP_READ)
        if self.track_control:
            self._control(node, frame)
        graph = self.graph
        tag = self._tag(arr)
        graph.effects[node] = (EFFECT_LOAD, tag, ELM)
        shadow = self._shadow(frame)
        arr_shadow = arr.shadow
        if arr_shadow is not None:
            src = arr_shadow.get(idx)
            if src is not None:
                graph.add_edge(src, node)
        # The index is a use ("the index used to locate the element is
        # still considered to be used").
        src = shadow.get(instr.idx)
        if src is not None:
            graph.add_edge(src, node)
        shadow[instr.dest] = node

    def trace_array_store(self, instr, frame, arr, idx, value):
        node = self._node(instr.iid, frame.dctx, frame.g, F_HEAP_WRITE)
        if self.track_control:
            self._control(node, frame)
        graph = self.graph
        tag = self._tag(arr)
        graph.effects[node] = (EFFECT_STORE, tag, ELM)
        shadow = self._shadow(frame)
        src = shadow.get(instr.src)
        if src is not None:
            graph.add_edge(src, node)
        src = shadow.get(instr.idx)
        if src is not None:
            graph.add_edge(src, node)
        if arr.shadow is None:
            arr.shadow = {}
        arr.shadow[idx] = node
        alloc_node = graph.find(tag[0], tag[1])
        if alloc_node is not None:
            graph.add_ref_edge(node, alloc_node)
        if value is not None and not isinstance(value, (int, str)):
            graph.add_points_to(tag, ELM, self._tag(value))

    # -- calls ------------------------------------------------------------------------

    def trace_call(self, instr, caller_frame, callee_frame, recv_obj):
        caller_shadow = self._shadow(caller_frame)
        callee_shadow = {}
        target = callee_frame.method
        for (name, _), arg_reg in zip(target.params, instr.args):
            src = caller_shadow.get(arg_reg)
            if src is not None:
                callee_shadow[name] = src
        if recv_obj is not None and instr.recv is not None:
            src = caller_shadow.get(instr.recv)
            if src is not None:
                callee_shadow["this"] = src
        callee_frame.shadow = callee_shadow
        # Rule METHOD ENTRY: extend the receiver chain for instance
        # methods; static methods inherit the caller's chain unchanged.
        if recv_obj is not None:
            g = extend_context(caller_frame.g, recv_obj.site)
        else:
            g = caller_frame.g
        callee_frame.g = g
        callee_frame.dctx = context_slot(g, self.slots)
        if self.track_control:
            callee_frame.last_pred = caller_frame.last_pred

    def trace_return(self, instr, frame):
        if instr.src is not None:
            node = self._shadow(frame).get(instr.src)
            self._ret_node = node
            if node is not None:
                nodes = self.return_nodes.get(instr.iid)
                if nodes is None:
                    nodes = self.return_nodes[instr.iid] = set()
                nodes.add(node)
        else:
            self._ret_node = None

    def trace_call_complete(self, instr, caller_frame):
        if instr.dest is not None and self._ret_node is not None:
            self._shadow(caller_frame)[instr.dest] = self._ret_node
        self._ret_node = None

    # -- natives ------------------------------------------------------------------------

    def trace_native(self, instr, frame):
        node = self.graph.node(instr.iid, CONTEXTLESS, F_NATIVE)
        shadow = self._shadow(frame)
        graph = self.graph
        for arg in instr.args:
            src = shadow.get(arg)
            if src is not None:
                graph.add_edge(src, node)
        if instr.dest is not None:
            shadow[instr.dest] = node

    # -- statistics -----------------------------------------------------------------------

    def conflict_ratio(self) -> float:
        """Average CR over context-annotated instructions (Table 1).

        The iid/slot regrouping of the per-node context sets is cached
        and extended only for nodes created since the previous call
        (the sets themselves are shared by reference, so later context
        insertions into already-grouped nodes are picked up for free).
        Reports that recompute CR repeatedly on a large profile pay
        O(new nodes) instead of O(all nodes) per call.
        """
        self._cr_upto = extend_cr_groups(self._cr_groups, self._node_gs,
                                         self.graph.node_keys,
                                         self._cr_upto)
        return average_conflict_ratio(self._cr_groups)

    def state(self) -> TrackerState:
        """The tracker-side profile facts as a :class:`TrackerState`.

        The returned object shares (does not copy) the live
        containers, so it reflects further tracking; serialize or
        merge it once the run is finished.
        """
        return TrackerState(node_gs=self._node_gs,
                            branch_outcomes=self.branch_outcomes,
                            return_nodes=self.return_nodes)

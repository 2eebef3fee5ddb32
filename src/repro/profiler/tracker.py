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

The ``trace_*`` hooks below are the interpreter's tracer protocol.  On
the compiled tier a run whose tracer is exactly a ``CostTracker``
executes the *tracked* template instead (``vm/compiled.py``): it
inlines the intra-method rules over Python locals and calls the
hooks' node-id helpers for the rest, building the same graph, node
numbering and tracker state.
"""

from __future__ import annotations

from ..ir import instructions as ins
from ..observability.telemetry import current as _current_telemetry
from .base import TracerBase
from .context import context_slot, extend_context
from .graph import (CONTEXTLESS, ELM, EFFECT_ALLOC, EFFECT_LOAD,
                    EFFECT_STORE, F_ALLOC, F_HEAP_READ, F_HEAP_WRITE,
                    F_NATIVE, F_PREDICATE, DependenceGraph)
from .state import TrackerState


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
        #: The tracker-side profile facts (CR contexts, branch
        #: outcomes, returned nodes, CR cache); the attributes below
        #: bind its containers for the hot path.
        self._state = TrackerState()
        self._node_gs = self._state.node_gs   # node id -> context set
        #: iid -> [node id of (iid, slot) for each context slot], -1
        #: where that node does not exist yet.  A dense index over the
        #: graph's context-annotated nodes, filled on their creation;
        #: the graph's ``(iid, d)`` map stays the source of truth.
        self._rows = {}
        #: iid -> [node id] of a contextless predicate: the tracked
        #: template's one-slot row for a branch.
        self._cells = {}
        #: method -> its rows and cells, as the tracked template binds
        #: them once per activation (see :meth:`_method_rows`).
        self._bound_rows = {}
        self._ret_node = None      # shadow of the value being returned
        #: branch iid -> [times taken, times not taken]; consumed by the
        #: always-true/always-false predicate client (§3.2).
        self.branch_outcomes = self._state.branch_outcomes
        #: return-instruction iid -> {nodes that produced returned
        #: values}; consumed by the method-level return-cost client.
        self.return_nodes = self._state.return_nodes
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
        only its first execution goes through :meth:`_first`.
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
        return self._first(row, iid, dctx, g, flag)

    def _first(self, row, iid: int, dctx: int, g: int, flag: int,
               pred=None) -> int:
        """First execution of ``(iid, dctx)``: number the node through
        :meth:`DependenceGraph.node`, file it in the iid's ``row``.
        The tracked template passes its nearest enclosing predicate
        ``pred`` (always None without ``track_control``)."""
        node_id = row[dctx] = self.graph.node(iid, dctx, flag)
        if self.track_cr:
            gs = self._node_gs
            if len(gs) <= node_id:
                gs.extend([None] * (node_id + 1 - len(gs)))
            if gs[node_id] is None:
                gs[node_id] = {g}
            else:
                gs[node_id].add(g)
        if pred is not None:
            self._control_dep(node_id, pred)
        return node_id

    def _control(self, node, frame):
        """Record the nearest enclosing predicate (control ablation)."""
        pred = frame.last_pred
        if pred is not None:
            self._control_dep(node, pred)

    def _control_dep(self, node, pred):
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
        self._alloc(node, instr.iid, frame.dctx, obj)
        self._shadow(frame)[instr.dest] = node

    def trace_new_array(self, instr, frame, arr):
        node = self._node(instr.iid, frame.dctx, frame.g, F_ALLOC)
        if self.track_control:
            self._control(node, frame)
        shadow = self._shadow(frame)
        self._new_array(node, instr.iid, frame.dctx, arr,
                        shadow.get(instr.size))
        shadow[instr.dest] = node

    def _alloc(self, node, iid, dctx, obj):
        """Rule ALLOC: tag the object with its context-annotated site."""
        alloc_key = (iid, dctx)
        self.graph.effects[node] = (EFFECT_ALLOC, alloc_key, None)
        obj.tag = alloc_key
        obj.shadow = {}

    def _new_array(self, node, iid, dctx, arr, size_src):
        self._alloc(node, iid, dctx, arr)
        if size_src is not None:
            self.graph.add_edge(size_src, node)

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
        self._store(node, obj, instr.field, instr.field, value,
                    self._shadow(frame).get(instr.src), None)

    def trace_array_load(self, instr, frame, arr, idx):
        node = self._node(instr.iid, frame.dctx, frame.g, F_HEAP_READ)
        if self.track_control:
            self._control(node, frame)
        shadow = self._shadow(frame)
        self._array_load(node, arr, idx, shadow.get(instr.idx))
        shadow[instr.dest] = node

    def _array_load(self, node, arr, idx, idx_src):
        graph = self.graph
        graph.effects[node] = (EFFECT_LOAD, arr.tag or self._tag(arr), ELM)
        succs = graph.succs
        arr_shadow = arr.shadow
        if arr_shadow is not None:
            src = arr_shadow.get(idx)
            if src is not None and node not in succs[src]:
                graph.add_edge(src, node)
        # The index is a use ("the index used to locate the element is
        # still considered to be used").
        if idx_src is not None and node not in succs[idx_src]:
            graph.add_edge(idx_src, node)

    def trace_array_store(self, instr, frame, arr, idx, value):
        node = self._node(instr.iid, frame.dctx, frame.g, F_HEAP_WRITE)
        if self.track_control:
            self._control(node, frame)
        shadow = self._shadow(frame)
        self._store(node, arr, ELM, idx, value, shadow.get(instr.src),
                    shadow.get(instr.idx))

    def _store(self, node, obj, field, key, value, src, idx_src):
        """Rule STORE FIELD (and its array-element form) for ``node``.

        ``field`` names the effect's field (``ELM`` for an element) and
        ``key`` the shadow slot written (the field name, or the index);
        ``src`` and ``idx_src`` are the stored value's and the index's
        shadows (None when untracked, or for a field store's index).
        """
        graph = self.graph
        tag = obj.tag or self._tag(obj)
        graph.effects[node] = (EFFECT_STORE, tag, field)
        succs = graph.succs
        if src is not None and node not in succs[src]:
            graph.add_edge(src, node)
        if idx_src is not None and node not in succs[idx_src]:
            graph.add_edge(idx_src, node)
        shadow = obj.shadow
        if shadow is None:
            shadow = obj.shadow = {}
        shadow[key] = node
        # Reference edge to the context-matching allocation node.
        alloc_node = graph.find(*tag)
        if alloc_node is not None:
            graph.add_ref_edge(node, alloc_node)
        # Points-to summary for reference trees (Definition 7).
        if value is not None and not isinstance(value, (int, str)):
            graph.add_points_to(tag, field, value.tag or self._tag(value))

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
        self._return(instr.iid, None if instr.src is None
                     else self._shadow(frame).get(instr.src))

    def _return(self, iid, node):
        """Rule RETURN: ``node`` (the returned value's shadow) waits
        for the caller's :meth:`trace_call_complete`."""
        self._ret_node = node
        if node is not None:
            nodes = self.return_nodes.get(iid)
            if nodes is None:
                nodes = self.return_nodes[iid] = set()
            nodes.add(node)

    def trace_call_complete(self, instr, caller_frame):
        if instr.dest is not None and self._ret_node is not None:
            self._shadow(caller_frame)[instr.dest] = self._ret_node
        self._ret_node = None

    # -- natives ------------------------------------------------------------------------

    def trace_native(self, instr, frame):
        shadow = self._shadow(frame)
        node = self._native(instr.iid, [shadow.get(arg) for arg in instr.args])
        if instr.dest is not None:
            shadow[instr.dest] = node

    def _native(self, iid, srcs) -> int:
        """Contextless consumer node of a native call; ``srcs`` are the
        argument shadows."""
        graph = self.graph
        node = graph.node(iid, CONTEXTLESS, F_NATIVE)
        for src in srcs:
            if src is not None:
                graph.add_edge(src, node)
        return node

    # -- tracked template support -----------------------------------------------------
    #
    # The compiled tier's tracked template (``vm/compiled.py``) inlines
    # the intra-method rules above over Python locals.  For the cold or
    # heavy parts it calls the helpers the hooks share -- ``_first``,
    # ``_control_dep``, ``_alloc``, ``_new_array``, ``_store``,
    # ``_array_load``, ``_native``, ``_return`` -- which take node ids
    # and values, never frames, and the two below, which only it uses.

    def _method_rows(self, method, iids, predicate_iids) -> tuple:
        """The rows of a method's context-annotated instructions
        (``iids``), then the cells of its branches, created on the
        method's first activation and bound by every later one."""
        rows, slots = self._rows, self.slots
        bound = [rows.get(iid) or rows.setdefault(iid, [-1] * slots)
                 for iid in iids]
        cells = self._cells
        bound.extend(cells.get(iid) or cells.setdefault(iid, [-1])
                     for iid in predicate_iids)
        bound = self._bound_rows[method] = tuple(bound)
        return bound

    def _predicate(self, cell, iid) -> int:
        """First execution of branch ``iid`` under this tracker."""
        node = cell[0] = self.graph.node(iid, CONTEXTLESS, F_PREDICATE)
        if iid not in self.branch_outcomes:
            self.branch_outcomes[iid] = [0, 0]
        return node

    # -- statistics -----------------------------------------------------------------------

    def conflict_ratio(self) -> float:
        """Average CR over context-annotated instructions (Table 1);
        see :meth:`TrackerState.conflict_ratio`."""
        return self._state.conflict_ratio(self.graph)

    def state(self) -> TrackerState:
        """The tracker-side profile facts as a :class:`TrackerState`.

        The returned object is the tracker's own (not a copy), so it
        reflects further tracking; serialize or merge it once the run
        is finished.
        """
        return self._state

"""Base tracer: the VM instrumentation protocol and the one shadow handoff.

Concrete trackers (the cost tracker and the client-analysis trackers)
subclass this and override the hooks they need.  See
:mod:`repro.vm.interpreter` for when each hook fires.

Every tracker keeps the paper's environment ``S`` per frame: a map from
register to whatever the tracker's domain annotates a value with (a
node id, a cost, an origin), where an absent register has no producer.
This class owns that map and passes it across calls, following
Figure 4's METHOD ENTRY and RETURN rules, in the convention the compiled
tier's tracked template uses too, so an activation of either tier can
call one of the other:

* a call leaves an *entry tuple* on the callee's ``frame.shadow``: the
  shadows of its receiver, then of its arguments, ``None`` meaning "no
  producer", in :attr:`~repro.ir.module.MethodDef.entry_registers`
  order.  A template unpacks it into its shadow locals; the hooks turn
  it into their register map on first use (:meth:`TracerBase._shadow`);
* a return leaves the returned value's shadow on the tracer
  (``_ret_node``) until the caller resumes and gives it to the call's
  destination register.

A subclass keeps only what is its own: what a callee's entry adds (the
cost tracker's receiver context), what a return records, and its rule
for a return with no shadow (:meth:`TracerBase._untracked_return`).
"""

from __future__ import annotations


class TracerBase:
    """No-op implementation of every VM hook except the shadow handoff."""

    def __init__(self):
        self.enabled = True
        #: The returned value's shadow, waiting for the caller's resume.
        self._ret_node = None

    # -- per-frame shadows -------------------------------------------------

    def _shadow(self, frame):
        """``frame``'s register -> shadow map, built on first use from
        the entry tuple its caller left (or empty)."""
        shadow = frame.shadow
        if type(shadow) is not dict:
            shadow = frame.shadow = {} if shadow is None else {
                reg: node for reg, node in
                zip(frame.method.entry_registers, shadow)
                if node is not None}
        return shadow

    def _untracked_return(self, frame, dest):
        """A call returned no shadow into ``dest``; by default ``dest``
        keeps the shadow it had (the cost graph's rule)."""

    # -- lifecycle ---------------------------------------------------------

    def on_entry_frame(self, frame):
        """Called once for the entry method's frame before execution."""

    def on_phase(self, name: str):
        """Called on Sys.phase(name); fires even while disabled."""

    # -- plain instructions --------------------------------------------------

    def trace_instr(self, instr, frame):
        pass

    # -- heap ------------------------------------------------------------------

    def trace_new_object(self, instr, frame, obj):
        pass

    def trace_new_array(self, instr, frame, arr):
        pass

    def trace_load_field(self, instr, frame, obj):
        pass

    def trace_store_field(self, instr, frame, obj, value):
        pass

    def trace_array_load(self, instr, frame, arr, idx):
        pass

    def trace_array_store(self, instr, frame, arr, idx, value):
        pass

    # -- calls --------------------------------------------------------------------

    def trace_call(self, instr, caller_frame, callee_frame, recv_obj):
        """Rule METHOD ENTRY: the callee's entry tuple."""
        shadow = self._shadow(caller_frame)
        callee_frame.shadow = tuple(map(shadow.get, instr.entry_args()))

    def trace_return(self, instr, frame):
        self._return(instr.iid, None if instr.src is None
                     else self._shadow(frame).get(instr.src))

    def _return(self, iid, node):
        """Rule RETURN: ``node`` waits for the caller's resume."""
        self._ret_node = node

    def trace_call_complete(self, instr, caller_frame):
        dest = instr.dest
        if dest is not None:
            node = self._ret_node
            if node is not None:
                self._shadow(caller_frame)[dest] = node
            else:
                self._untracked_return(caller_frame, dest)
        self._ret_node = None

    def trace_native(self, instr, frame):
        pass

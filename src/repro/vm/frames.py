"""Call-stack frames.

A frame holds the register file for one activation.  The profiler
attaches two pieces of state per frame:

* ``shadow`` — the paper's environment ``S`` restricted to this frame's
  registers (register name -> dependence-graph node id), or the entry
  tuple the caller left until the callee first uses it
  (:mod:`repro.profiler.base`),
* ``g`` — the encoded receiver-object context chain for this activation
  (the paper's ``objCon`` value before the mod-``s`` reduction), and
  ``dctx`` — its slot in the bounded domain.

Under burst sampling, ``tracked`` says whether the activation may be
tracked at all: one spawned during an untracked burst stays untracked
until it returns (``DESIGN.md`` §12).
"""

from __future__ import annotations


class Frame:
    __slots__ = ("method", "regs", "shadow", "g", "dctx", "last_pred",
                 "tracked")

    def __init__(self, method):
        self.method = method
        self.regs = {}
        # Profiler state (set by the tracker when tracking is enabled).
        self.shadow = None
        self.g = 0
        self.dctx = 0
        #: Nearest enclosing predicate node (control-dependence hint),
        #: maintained by trackers running with track_control=True.
        self.last_pred = None
        self.tracked = True

    def __repr__(self):
        return f"<frame {self.method.qualified_name}>"

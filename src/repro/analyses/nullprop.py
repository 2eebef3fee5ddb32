"""Null-value propagation analysis (Figure 2a).

Abstract domain D = {null, not-null}; the abstraction function maps an
instruction instance to ``null`` when it produces null.  After a
NullPointerException-style failure, the analysis walks backward from
the node that produced the dereferenced value, following only
null-annotated nodes, to the instruction that *created* the null — and
reports the whole propagation path, which origin-only trackers (e.g.
Bond et al.'s origin tracking) do not provide.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import instructions as ins
from ..profiler.domains import AbstractThinSlicer
from ..vm.errors import VMNullError

NULL = "null"
NOT_NULL = "nn"


class NullTracker(AbstractThinSlicer):
    """Thin slicing over D = {null, not-null}."""

    def abstraction(self, instr, frame, value):
        return NULL if value is None else NOT_NULL


@dataclass
class NullOrigin:
    """Where a null was born and how it reached the failure point."""

    origin_iid: int            # instruction that created the null
    origin_line: int
    path_iids: list            # origin -> ... -> producer of failing value
    failing_iid: int
    failing_line: int

    def describe(self) -> str:
        hops = " -> ".join(f"line {line}" for line in self.path_lines)
        return (f"null created at line {self.origin_line} "
                f"(iid {self.origin_iid}), dereferenced at line "
                f"{self.failing_line} (iid {self.failing_iid}); "
                f"propagation: {hops}")

    @property
    def path_lines(self):
        return [line for _, line in self._path_with_lines]

    # Filled by explain_null_failure for rendering.
    _path_with_lines = ()


def _base_register(instr):
    """The register whose null value caused the failure."""
    op = instr.op
    if op == ins.OP_LOAD_FIELD or op == ins.OP_STORE_FIELD:
        return instr.obj
    if op in (ins.OP_ARRAY_LOAD, ins.OP_ARRAY_STORE, ins.OP_ARRAY_LEN):
        return instr.arr
    if op == ins.OP_CALL:
        return instr.recv
    if op == ins.OP_INTRINSIC:
        return instr.args[0] if instr.args else None
    return None


def explain_null_failure(tracker: NullTracker, error: VMNullError,
                         program) -> NullOrigin:
    """Trace the failing null back to its origin.

    ``error`` must come from a VM run traced with ``tracker``.  Returns
    None when the failure cannot be attributed (e.g. tracking was
    disabled when the null was produced).
    """
    instr = error.instr
    frame = error.frame
    if instr is None or frame is None:
        return None
    reg = _base_register(instr)
    if reg is None:
        return None
    # Through the accessor: a callee that faults before any hook ran
    # still holds the entry tuple its caller left.
    start = tracker._shadow(frame).get(reg)
    if start is None:
        return None

    graph = tracker.graph
    keys = graph.node_keys
    if keys[start][1] != NULL:
        return None  # shadow is stale; cannot attribute

    # Backward BFS through null-annotated nodes; the origin is a null
    # node with no null-annotated predecessors.
    parent = {start: None}
    worklist = [start]
    origin = start
    while worklist:
        node = worklist.pop()
        null_preds = [p for p in graph.preds[node]
                      if keys[p][1] == NULL and p not in parent]
        if not null_preds and not any(keys[p][1] == NULL
                                      for p in graph.preds[node]):
            origin = node
        for p in null_preds:
            parent[p] = node
            worklist.append(p)

    # Reconstruct origin -> failure path: parent points from each node
    # toward the failure (we searched backward), so walking the chain
    # from the origin already yields origin -> ... -> producer.
    path = []
    node = origin
    while node is not None:
        path.append(keys[node][0])
        node = parent[node]
    path_with_lines = [(iid, program.instructions[iid].line)
                       for iid in path]
    result = NullOrigin(
        origin_iid=keys[origin][0],
        origin_line=program.instructions[keys[origin][0]].line,
        path_iids=path,
        failing_iid=instr.iid,
        failing_line=instr.line,
    )
    result._path_with_lines = path_with_lines
    return result

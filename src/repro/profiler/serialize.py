"""Gcost serialization — the paper's offline-analysis workflow.

§3.2: "these analyses ... could be easily migrated to an offline heap
analysis tool ... the JVM only needs to write Gcost to external
storage."  These helpers round-trip a :class:`DependenceGraph` through
a JSON document so a profiled run can be analyzed later (or elsewhere)
without re-executing the program.

Format v2 added the tracker-side state
(:class:`~repro.profiler.state.TrackerState`): the per-node context
sets behind the conflict ratio, the branch outcome counters, and the
return-value node sets.  With them on disk the CR statistic and the
predicate / return-cost clients run fully offline, and the parallel
runtime's workers can ship complete profiles back to the merging
parent.

Format v3 stored the three large integer tables as flat int columns
rather than lists of pairs: ``nodes`` is ``[iid0, d0, iid1, d1, ...]``
and ``edges`` and ``ref_edges`` are ``[a0, b0, a1, b1, ...]``.  Node
``i``'s key is ``(nodes[2i], nodes[2i + 1])``.

Format v4, the one written, keeps v3's layout but writes every int
column -- ``nodes``, ``freq``, ``flags``, ``edges``, ``ref_edges`` and
the tracker's context sets -- as a *packed column*: a JSON string
``"i<w>:<base64>"`` holding the values as ``w``-byte signed
little-endian ints, ``w`` being the smallest of 1, 2, 4 and 8 that
holds the column's minimum and maximum (:func:`pack_column`).  A column
with a value outside int64 stays a v3 JSON int list.  The context sets
become two columns: ``context_counts``, one count per node (0 for
none), and ``contexts``, each node's sorted contexts in node order.  A
string encodes and parses several times cheaper than a list of
numbers, so a document is about half the bytes and a fraction of the
JSON work of v3.  v1 (graph only), v2 (tables as ``[a, b]`` rows) and
v3 documents are still readable.

Every document is read by one decoder, :func:`fold_document`, which
checks all of a document's sections and then folds them straight into
a target graph and state: an empty one for a load, a tenant's or the
supervisor's merge for a shard.  Its check reads every column, in
either form, into one typed int sequence (:func:`unpack_column`) and
flattens v1/v2 rows into the same columns, so every version takes the
same fold.  A v4 document whose packed shape text the target graph
remembers from an earlier fold skips the shape's check and fold and
folds only its weights (:class:`_ShapeMemo`).

Integrity
---------

Every profile, checkpoint and spill file is written by
:func:`write_document` — atomically, with a ``checksum`` key, the
SHA-256 of the canonical JSON of every *other* key — and read by
:func:`read_document`, which raises typed errors.  For bytes that do
not decode or parse, :func:`salvage_profile` recovers what precedes
the damage plus every section after it — section order in the
document (nodes before edges before tracker state) was chosen so
truncation costs the *derived* sections first.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from array import array
from binascii import a2b_base64, b2a_base64
from itertools import chain, repeat, zip_longest
from operator import itemgetter, sub

from .errors import (ProfileChecksumError, ProfileFormatError,
                     ProfileInputError, ProfileTruncatedError)
from .graph import DependenceGraph
from .state import TrackerState

FORMAT_VERSION = 4

#: Versions :func:`fold_document` accepts.
READABLE_VERSIONS = (1, 2, 3, 4)

#: The versions whose ``nodes``/``edges``/``ref_edges`` are lists of
#: ``[a, b]`` rows; later ones store them as flat int columns.
ROW_VERSIONS = (1, 2)

#: The version of the documents salvage rebuilds: flat JSON int
#: columns and ``node_gs`` rows.
FLAT_VERSION = 3

#: The first version whose tracker context sets are the two columns
#: ``context_counts`` and ``contexts`` rather than ``node_gs`` rows.
PACKED_VERSION = 4

#: The packed-column widths in bytes, each with the ``array`` typecode
#: of a signed int that wide.
_WIDTHS = ((1, "b"), (2, "h"), (4, "i"), (8, "q"))

#: A packed column's tag (``"i2"``) -> ``(width, typecode)``.
_TAGS = {f"i{width}": (width, code) for width, code in _WIDTHS}

#: Packed values are little-endian; arrays use the host's order.
_SWAP = sys.byteorder == "big"


def graph_to_dict(graph: DependenceGraph, meta=None, tracker=None,
                  trace=None, names=None) -> dict:
    """A JSON-serializable snapshot of the graph.

    ``meta`` carries run facts the graph itself doesn't hold (e.g.
    ``{"instructions": vm.instr_count}``) so offline analyses can
    compute trace-relative metrics like IPD.  ``tracker`` (a
    :class:`CostTracker` or :class:`TrackerState`) adds the
    tracker-side state under the ``"tracker"`` key.  ``trace`` — the
    producing worker's span context, a dict like ``{"trace_id": ...,
    "span_id": ..., "pid": ..., "shard": ..., "attempt": ...}`` — is
    stored under ``meta["trace"]`` so a saved profile can be joined
    back to the telemetry stream that watched it being built.
    ``names`` (the compiled program, or its
    :class:`~repro.profiler.names.ProgramNames`) adds the ``names``
    section for every iid the graph and tracker state reference, so
    the document can be read without the program.
    """
    data = {
        "version": FORMAT_VERSION,
        "meta": dict(meta) if meta else {},
        "slots": graph.slots,
        "nodes": pack_column(list(chain.from_iterable(graph.node_keys))),
        "freq": pack_column(graph.freq),
        "flags": pack_column(graph.flags),
        "edges": pack_column(_edge_column(graph)),
        "effects": [[node, kind, list(alloc_key) if alloc_key else None,
                     field]
                    for node, (kind, alloc_key, field)
                    in sorted(graph.effects.items())],
        "ref_edges": pack_column(
            list(chain.from_iterable(sorted(graph.ref_edges)))),
        "points_to": [[list(base), field,
                       sorted(list(t) for t in targets)]
                      for base, fields in sorted(graph.points_to.items())
                      for field, targets in sorted(fields.items())],
        "control_deps": [[node, sorted(preds)]
                         for node, preds
                         in sorted(graph.control_deps.items())],
    }
    if trace is not None:
        data["meta"]["trace"] = dict(trace)
    state = None
    if tracker is not None:
        state = tracker.state() if hasattr(tracker, "state") else tracker
        node_gs = state.node_gs
        data["tracker"] = {
            "context_counts": pack_column(
                [len(gs) if gs else 0 for gs in node_gs]),
            "contexts": pack_column(
                list(chain.from_iterable(map(sorted, filter(None,
                                                            node_gs))))),
            "branch_outcomes": [[iid, taken, not_taken]
                                for iid, (taken, not_taken)
                                in sorted(state.branch_outcomes.items())],
            "return_nodes": [[iid, sorted(nodes)]
                             for iid, nodes
                             in sorted(state.return_nodes.items())],
        }
    if names is not None:
        from .names import names_to_dict, program_names, referenced_iids
        data["names"] = names_to_dict(program_names(names),
                                      referenced_iids(graph, state))
    return data


def _edge_column(graph: DependenceGraph) -> list:
    """The flat ``[src, dst, ...]`` column of ``graph``'s edges, sources
    in order and each source's targets sorted: read off the CSR
    snapshot when it is current, which holds them so already, and
    sorted from the successor sets otherwise."""
    if graph.frozen:
        csr = graph._csr
        offsets = csr.fwd_offsets
        column = [0] * (2 * csr.num_edges)
        column[0::2] = chain.from_iterable(map(
            repeat, range(csr.num_nodes),
            map(sub, offsets[1:], offsets[:-1])))
        column[1::2] = csr.fwd_targets
        return column
    column = []
    extend = column.extend
    for src, dsts in enumerate(graph.succs):
        if dsts:
            pairs = [src] * (2 * len(dsts))
            pairs[1::2] = sorted(dsts)
            extend(pairs)
    return column


def pack_column(values):
    """The int list ``values`` as a packed column, ``"i<w>:<base64>"``:
    the values as ``w``-byte signed little-endian ints, for the
    smallest ``w`` of 1, 2, 4 and 8 that holds them all.  A list
    holding a value outside int64 is returned as a copy, to be written
    as a JSON int list.

    Each width is tried in turn: ``array`` refuses an out-of-range
    value in C, usually within the first few, which costs less than a
    ``min`` and a ``max`` pass over the whole column.
    """
    for width, code in _WIDTHS:
        try:
            packed = array(code, values)
        except OverflowError:
            continue
        if _SWAP:
            packed.byteswap()
        return f"i{width}:" + b2a_base64(
            packed.tobytes(), newline=False).decode("ascii")
    return list(values)


def unpack_column(column, section: str = "column") -> list:
    """The ints of a column in either form as a list: a packed column
    decoded (through an ``array``), a JSON int list as it is.

    Raises :class:`ProfileFormatError` naming ``section`` for anything
    else: an unknown width tag, a payload that is not canonical base64
    (checked by re-encoding it, which works on every Python 3, with or
    without ``binascii``'s ``strict_mode``), a byte count that is not
    a whole number of values, or a list holding a non-int.
    """
    if type(column) is list:
        if _ints(column):
            return column
        raise _bad(section, "is not a list of ints")
    if type(column) is not str:
        raise _bad(section, f"is {type(column).__name__}, not an int "
                            f"column")
    spec, payload = _split_packed(column)
    if spec is None:
        raise _bad(section, f"is a packed column with unknown width tag "
                            f"{column.partition(':')[0][:8]!r}")
    width, code = spec
    try:
        raw = a2b_base64(payload)
        canonical = b2a_base64(raw, newline=False) == payload.encode()
    except ValueError:          # binascii.Error, or non-ASCII text
        canonical = False
    if not canonical:
        raise _bad(section, "is a packed column whose payload is not "
                            "base64")
    if len(raw) % width:
        raise _bad(section, f"is a packed column of {len(raw)} bytes, "
                            f"not a whole number of {width}-byte values")
    values = array(code)
    values.frombytes(raw)
    if _SWAP:
        values.byteswap()
    return values.tolist()


def _column_length(column) -> int:
    """How many values a column holds, without decoding it: a packed
    column's count follows from its payload's length and its width.
    -1 for a value that is neither form."""
    if type(column) is list:
        return len(column)
    if type(column) is str:
        spec, payload = _split_packed(column)
        if spec is not None:
            size = len(payload) * 3 // 4 - payload.count("=", -2)
            return size // spec[0]
    return -1


def _split_packed(column: str) -> tuple:
    """``((width, typecode), payload)`` of a packed column, with
    ``None`` for the pair when its tag is not one of ``_TAGS``."""
    tag, colon, payload = column.partition(":")
    return (_TAGS.get(tag) if colon else None), payload


def _bad(section: str, problem: str) -> ProfileFormatError:
    return ProfileFormatError(f"section {section!r} {problem}")


def _flat(rows) -> list:
    return list(chain.from_iterable(rows))


def _is_table(rows, width: int) -> bool:
    """True when ``rows`` is a list of ``width``-element lists."""
    return (type(rows) is list and set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {width})


def _ints(values) -> bool:
    """True when every element of the list ``values`` is an int.

    ``sum`` is the cheapest whole-list proof: it raises ``TypeError``
    on anything that is not a number and returns a float when any
    element is one.
    """
    try:
        return type(sum(values)) is int
    except TypeError:
        return False


def _node_ids(values: list, n: int) -> bool:
    """True when every element of ``values`` is an int in ``[0, n)``."""
    return _ints(values) and _below(values, n)


def _below(ints: list, n: int) -> bool:
    """True when every element of the int list ``ints`` is in
    ``[0, n)``."""
    return not ints or (min(ints) >= 0 and max(ints) < n)


def _int_table(rows, width: int):
    """The values of ``rows`` in order when ``rows`` is a list of
    ``width``-element lists of ints, else ``None``.  A row that is a
    string or an object flattens to strings, which :func:`_ints`
    rejects, so the rows' own types need no separate pass."""
    if type(rows) is not list:
        return None
    try:
        if set(map(len, rows)) - {width}:
            return None
        values = _flat(rows)
    except TypeError:           # a row without a length
        return None
    return values if _ints(values) else None


def _pair_column(doc, section: str) -> list:
    """The int pairs of a ``nodes``/``edges``/``ref_edges`` section as
    one flat ``[a0, b0, a1, b1, ...]`` sequence: a v3/v4 column in
    either form (:func:`unpack_column`) with an even number of values,
    or v1/v2 ``[a, b]`` rows flattened by :func:`_int_table`."""
    if doc["version"] in ROW_VERSIONS:
        values = _int_table(doc[section], 2)
    else:
        values = unpack_column(doc[section], section)
        if len(values) % 2:
            values = None
    if values is None:
        raise _bad(section, "is not a list of int pairs")
    return values


def _check_header(doc) -> None:
    """The check pass of :func:`fold_document` over what every other
    section's check relies on: ``doc`` is an object of a readable
    version holding every graph section, with a positive int ``slots``
    and an object ``meta``."""
    if type(doc) is not dict:
        raise ProfileFormatError(
            f"profile is {type(doc).__name__}, not an object")
    version = doc.get("version")
    if version not in READABLE_VERSIONS:
        raise ProfileFormatError(
            f"unsupported graph format version {version!r} "
            f"(readable: {READABLE_VERSIONS})")
    for key in ("nodes", "freq", "flags", "edges", "effects",
                "ref_edges", "points_to"):
        if key not in doc:
            raise ProfileFormatError(f"profile is missing {key!r}")
    slots = doc.get("slots", 16)
    if type(slots) is not int or slots < 1:
        raise _bad("slots", f"is {slots!r}, not a positive int")
    if type(doc.get("meta", {})) is not dict:
        raise _bad("meta", "is not an object")


def _check_shape(doc) -> tuple:
    """The check pass of :func:`fold_document` over the shape sections.

    Returns ``(keys, edges, ref_edges)``: the document's node keys as
    ``(iid, d)`` tuples, none repeated, and its two edge sections as
    flat int sequences of node ids in ``[0, n)``, whatever the
    document's version and whichever form each column takes.  Each
    check runs over a whole column at once (``set``, ``sum``,
    ``min``/``max``, a packed column's one decode), so a valid document
    costs a few C-level passes per section rather than Python work per
    row.
    """
    nodes = _pair_column(doc, "nodes")
    n = len(nodes) // 2
    pairs = iter(nodes)
    keys = list(zip(pairs, pairs))
    if len(set(keys)) != n:
        raise _bad("nodes", "repeats a node key")
    columns = []
    for key in ("edges", "ref_edges"):
        values = _pair_column(doc, key)
        if not _below(values, n):
            raise _bad(key, f"is not a list of node-id pairs in "
                            f"[0, {n})")
        columns.append(values)
    return (keys, *columns)


def _check_weights(doc, n: int) -> tuple:
    """The check pass of :func:`fold_document` over the weight sections
    of a document with ``n`` nodes: ``freq`` and ``flags`` one int per
    node, and well-formed ``effects``, ``points_to`` and
    ``control_deps`` rows whose node references are in ``[0, n)``.
    Returns the ``freq`` and ``flags`` columns."""
    columns = []
    for key in ("freq", "flags"):
        column = unpack_column(doc[key], key)
        if len(column) != n:
            raise _bad(key, f"is not {n} ints, one per node")
        columns.append(column)
    effects = doc["effects"]
    if not _is_table(effects, 4):
        raise _bad("effects", "holds a row that is not "
                              "[node, kind, alloc, field]")
    allocs = [alloc for alloc in map(itemgetter(2), effects)
              if alloc is not None]
    if not (_node_ids(list(map(itemgetter(0), effects)), n)
            and set(map(type, map(itemgetter(1), effects))) <= {str}
            and _int_table(allocs, 2) is not None
            and set(map(type, map(itemgetter(3), effects)))
            <= {str, type(None)}):
        raise _bad("effects", f"holds a row that is not [node in "
                              f"[0, {n}), kind, [iid, d] or null, "
                              f"field or null]")
    points_to = doc["points_to"]
    if not _is_table(points_to, 3):
        raise _bad("points_to", "holds a row that is not "
                                "[base, field, targets]")
    bases = list(map(itemgetter(0), points_to))
    targets = list(map(itemgetter(2), points_to))
    if not (_int_table(bases, 2) is not None
            and set(map(type, map(itemgetter(1), points_to))) <= {str}
            and set(map(type, targets)) <= {list}
            and _int_table(_flat(targets), 2) is not None):
        raise _bad("points_to", "holds a row that is not "
                                "[[iid, d], field, [[iid, d], ...]]")
    control = doc.get("control_deps", [])
    if not _is_table(control, 2) or not (
            _node_ids(list(map(itemgetter(0), control)), n)
            and set(map(type, map(itemgetter(1), control))) <= {list}
            and _node_ids(_flat(map(itemgetter(1), control)), n)):
        raise _bad("control_deps", f"holds a row that is not [node, "
                                   f"[nodes]] in [0, {n})")
    return tuple(columns)


def _check_tracker(section, n: int, version) -> tuple:
    """The check pass of :func:`fold_document` over the shape of a
    tracker section, for a document of ``version`` with ``n`` nodes.

    Returns the context sets as the two int columns
    :meth:`TrackerState.fold` reads, ``(counts, contexts)``: a v4
    document's ``context_counts``/``contexts`` decoded, or an earlier
    one's ``node_gs`` rows flattened into them, as the pair rows of
    v1/v2 are flattened into columns.  The counts must be at most
    ``n`` non-negative ints that add up to the length of ``contexts``,
    and ``return_nodes`` rows must name nodes in ``[0, n)``.  Branch
    outcomes are checked by :func:`_check_outcomes`.
    """
    if section is None:
        raise ProfileFormatError(
            "profile carries no tracker state (a v2+ document with a "
            "tracker section is required: a graph-only document cannot "
            "join a merge of tracker states)")
    if type(section) is not dict:
        raise _bad("tracker", "is not an object")
    if version == PACKED_VERSION:
        counts = unpack_column(section.get("context_counts", []),
                               "tracker.context_counts")
        contexts = unpack_column(section.get("contexts", []),
                                 "tracker.contexts")
        if len(counts) > n or (counts and min(counts) < 0):
            raise _bad("tracker.context_counts",
                       f"is not at most {n} counts, one per node")
        total = sum(counts)
        if total != len(contexts):
            raise _bad("tracker.context_counts",
                       f"adds up to {total} contexts, but the contexts "
                       f"column holds {len(contexts)}")
    else:
        node_gs = section.get("node_gs", [])
        if type(node_gs) is not list or len(node_gs) > n:
            raise _bad("tracker", f"node_gs is not a list of at most {n} "
                                  f"entries, one per node")
        sets = [gs for gs in node_gs if gs is not None]
        contexts = _flat(sets) if set(map(type, sets)) <= {list} else None
        if contexts is None or not _ints(contexts):
            raise _bad("tracker", "node_gs holds an entry that is not "
                                  "null or a list of contexts")
        counts = [len(gs) if gs else 0 for gs in node_gs]
    returns = section.get("return_nodes", [])
    if not _is_table(returns, 2) or not (
            _ints(list(map(itemgetter(0), returns)))
            and set(map(type, map(itemgetter(1), returns))) <= {list}
            and _node_ids(_flat(map(itemgetter(1), returns)), n)):
        raise _bad("tracker", f"return_nodes holds a row that is not "
                              f"[iid, [nodes in [0, {n})]]")
    return counts, contexts


def _check_outcomes(section) -> list:
    """The ``branch_outcomes`` rows of the tracker object ``section``,
    checked to be ``[iid, taken, not_taken]`` ints."""
    outcomes = section.get("branch_outcomes", [])
    if _int_table(outcomes, 3) is None:
        raise _bad("tracker", "branch_outcomes holds a row that is not "
                              "[iid, taken, not_taken]")
    return outcomes


class _ShapeMemo:
    """What :func:`fold_document` keeps on a graph (``_shape_memo``) of
    the last v4 document whose packed shape it folded: that document's
    ``nodes``/``edges``/``ref_edges`` text and the remap its fold built
    (document node id -> graph node id), and, from the last such fold
    with a state, the tracker's packed ``context_counts``/``contexts``
    text and a copy of its ``return_nodes`` rows, with the
    :class:`TrackerState` they were folded into (held by reference).

    The memo stays exact because a graph, and a state, only grow: no
    node is renumbered or removed and no edge, context or return node
    is dropped, so every node key of the remembered document keeps its
    id and everything its shape added is still there.
    """

    __slots__ = ("nodes", "edges", "ref_edges", "remap", "state",
                 "context_counts", "contexts", "return_nodes")

    def __init__(self, doc: dict, remap: list):
        self.nodes = doc["nodes"]
        self.edges = doc["edges"]
        self.ref_edges = doc["ref_edges"]
        self.remap = remap
        self.state = None

    def holds_shape(self, doc: dict) -> bool:
        """True when ``doc`` is a v4 document with this shape text."""
        return (doc["version"] == PACKED_VERSION
                and doc["nodes"] == self.nodes
                and doc["edges"] == self.edges
                and doc["ref_edges"] == self.ref_edges)

    def holds_tracker(self, state, section) -> bool:
        """True when the tracker object ``section`` carries the context
        and return sets already folded into ``state``."""
        return (state is self.state and type(section) is dict
                and section.get("context_counts") == self.context_counts
                and section.get("contexts") == self.contexts
                and section.get("return_nodes") == self.return_nodes)

    def track(self, state, section: dict) -> None:
        """Remember the checked tracker ``section`` of a document with
        this shape as folded into ``state``, when its context columns
        are packed."""
        counts = section.get("context_counts")
        contexts = section.get("contexts")
        if type(counts) is str and type(contexts) is str:
            self.state = state
            self.context_counts = counts
            self.contexts = contexts
            # A copy: a caller may change the document's rows later.
            self.return_nodes = [[iid, list(nodes)] for iid, nodes
                                 in section.get("return_nodes", ())]


def fold_document(graph: DependenceGraph, state, doc: dict) -> bool:
    """Fold one v1-v4 profile document into ``graph``/``state``, in
    place: the one decoder every profile file, pushed shard, worker
    result, checkpoint entry and spill file goes through.  Returns
    True when the fold reused the graph's shape memo (below).

    Two passes.  The *check* pass reads every section the fold uses
    before anything is touched: rows must have the right shape, a
    column must decode (:func:`unpack_column`) and a column of pairs
    hold an even number of values (v1/v2 rows are flattened into the
    same columns, so the fold reads one layout), node keys may not
    repeat, the context sets may not cover more nodes than there are,
    and every node reference (edges, effects, reference edges,
    control dependences, return nodes) must be an int in ``[0, n)``
    for ``n`` nodes.
    Any failure raises :class:`ProfileFormatError`, and a document
    whose ``slots`` differ from ``graph.slots`` raises
    :class:`~repro.profiler.errors.ProfileInputError`, so a rejected
    document leaves ``graph`` and ``state`` exactly as they were.

    The *fold* pass applies the rules of
    :func:`~repro.profiler.parallel.fold_graph` straight from the
    checked columns, with no intermediate shard graph, in two parts.
    The *shape* part matches nodes by ``(iid, d)``, numbers new ones
    in document order and unions the edges and reference edges (and,
    through :meth:`TrackerState.fold`, the context and return sets);
    the *weights* part sums frequencies, ORs flags, overwrites effects
    (last shard wins), unions points-to and control dependences, and
    sums branch outcomes.  Folding a run's documents in job order
    therefore numbers nodes exactly as
    :func:`~repro.profiler.parallel.merge_graphs` over the decoded
    graphs does.

    Replicated runs of one program share their shape, so a v4
    document's packed ``nodes``/``edges``/``ref_edges`` text is
    remembered on the graph with the remap its fold built
    (:class:`_ShapeMemo`).  A later v4 document with the same text
    skips the check and the fold of those sections and takes the
    remembered remap: equal text is equal values, which passed every
    check at the same ``n``, and a graph only grows and never
    renumbers.  When it also carries the remembered tracker context
    and return sets and folds into the same ``state``, those are
    skipped too.  Every other section is checked and folded as
    always, through the one weights part.  Any other document (v1-v3,
    a column kept as a JSON list, another shape) takes the whole path
    and, when it is v4 with a packed shape, becomes the memo.

    With ``state`` ``None`` the tracker section is neither checked nor
    read (a graph-only load); otherwise the document must carry one.
    """
    _check_header(doc)
    version = doc["version"]
    memo = graph._shape_memo
    reused = memo is not None and memo.holds_shape(doc)
    if reused:
        remap = memo.remap
        n = len(remap)
    else:
        keys, edges, ref_edges = _check_shape(doc)
        n = len(keys)
    doc_freq, doc_flags = _check_weights(doc, n)
    if state is not None:
        section = doc.get("tracker")
        tracked = reused and memo.holds_tracker(state, section)
        if tracked:             # already folded into ``state``
            counts = contexts = returns = ()
        else:
            counts, contexts = _check_tracker(section, n, version)
            returns = section.get("return_nodes", ())
        outcomes = _check_outcomes(section)
    slots = doc.get("slots", 16)
    if slots != graph.slots:
        raise ProfileInputError(
            f"cannot merge graphs with different context domains "
            f"(slots {graph.slots} vs {slots})")

    if not reused:
        remap = _fold_shape(graph, keys, edges, ref_edges)
        memo = None
        if version == PACKED_VERSION and all(
                type(doc[key]) is str
                for key in ("nodes", "edges", "ref_edges")):
            memo = graph._shape_memo = _ShapeMemo(doc, remap)
    _fold_weights(graph, remap, doc_freq, doc_flags, doc)
    if state is not None:
        state.fold(counts, contexts, outcomes, returns, remap)
        if memo is not None and not tracked:
            memo.track(state, section)
    return reused


def _fold_shape(graph: DependenceGraph, keys: list, edges,
                ref_edges) -> list:
    """The shape part of :func:`fold_document`: ``keys`` matched to
    ``graph``'s nodes, the new ones appended in document order with
    frequency 0 and no flags, then the edges and reference edges
    unioned.  Returns the remap, document node id -> graph node id."""
    ids = graph._ids
    remap = list(map(ids.get, keys))
    preds = graph.preds
    succs = graph.succs
    if None in remap:
        node_keys = graph.node_keys
        freq = graph.freq
        flags = graph.flags
        for key in [key for key, mid in zip(keys, remap) if mid is None]:
            ids[key] = len(node_keys)
            node_keys.append(key)
            freq.append(0)
            flags.append(0)
            preds.append(set())
            succs.append(set())
        remap = list(map(ids.__getitem__, keys))
    ends = map(remap.__getitem__, edges)
    for src, dst in zip(ends, ends):
        succs[src].add(dst)
        preds[dst].add(src)
    graph._edge_count = sum(map(len, succs))
    ends = map(remap.__getitem__, ref_edges)
    graph.ref_edges.update(zip(ends, ends))
    return remap


def _fold_weights(graph: DependenceGraph, remap, doc_freq, doc_flags,
                  doc: dict) -> None:
    """The weights part of :func:`fold_document`, over nodes ``remap``
    already maps into ``graph``: frequencies sum, flags OR, the
    document's effects overwrite earlier ones, points-to and control
    dependences union."""
    freq = graph.freq
    flags = graph.flags
    for mid, count, mask in zip(remap, doc_freq, doc_flags):
        freq[mid] += count
        flags[mid] |= mask
    effects = graph.effects
    for node, kind, alloc_key, field in doc["effects"]:
        effects[remap[node]] = (
            kind, tuple(alloc_key) if alloc_key is not None else None,
            field)
    # Allocation keys are (alloc_iid, context_slot) — abstract-domain
    # values, not node ids — so points_to needs no remap.
    points_to = graph.points_to
    for base, field, targets in doc["points_to"]:
        if targets:
            points_to.setdefault(tuple(base), {}).setdefault(
                field, set()).update(map(tuple, targets))
    control_deps = graph.control_deps
    for node, cpreds in doc.get("control_deps", ()):
        control_deps.setdefault(remap[node], set()).update(
            [remap[p] for p in cpreds])


def graph_from_dict(data: dict) -> DependenceGraph:
    """Rebuild a graph from a :func:`graph_to_dict` document of any
    readable version: :func:`fold_document` into an empty graph."""
    slots = data.get("slots", 16) if type(data) is dict else 16
    graph = DependenceGraph(slots=slots)
    fold_document(graph, None, data)
    return graph


def _node_count(doc: dict) -> int:
    """How many nodes ``doc`` holds, without decoding it: a v1/v2
    ``nodes`` section has a row per node, a later one two values per
    node (:func:`_column_length`)."""
    nodes = doc.get("nodes")
    if doc.get("version") in ROW_VERSIONS:
        return len(nodes) if type(nodes) is list else 0
    return max(_column_length(nodes), 0) // 2


def tracker_state_from_dict(data: dict):
    """The :class:`TrackerState` carried by a v2+ document, or
    ``None``.

    v1 documents (and later ones written without a tracker) have no
    tracker section; callers fall back to graph-only analyses.  The
    state is numbered as the document's nodes are; its section is
    checked as :func:`fold_document` checks it.
    """
    section = data.get("tracker")
    if section is None:
        return None
    n = _node_count(data)
    counts, contexts = _check_tracker(section, n, data.get("version"))
    state = TrackerState()
    state.fold(counts, contexts, _check_outcomes(section),
               section.get("return_nodes", ()), list(range(n)))
    return state


# -- integrity ---------------------------------------------------------------


def content_checksum(data: dict) -> str:
    """SHA-256 over the canonical JSON of every non-``checksum`` key."""
    payload = {key: value for key, value in data.items()
               if key != "checksum"}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True,
                   check_circular=False).encode()).hexdigest()


def write_document(path, data: dict) -> None:
    """Stamp ``data`` with its checksum and write it atomically.

    The text is encoded once, written to ``<path>.tmp.<pid>``, fsynced
    and renamed over ``path``: if anything raises, a previous ``path``
    keeps its bytes and no tmp file remains.
    """
    data["checksum"] = content_checksum(data)
    text = json.dumps(data, check_circular=False)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):     # only when something raised
            os.remove(tmp)


def read_document(path, kind: str = "profile") -> dict:
    """Read a :func:`write_document` file; ``kind`` names it in errors.

    Raises :class:`ProfileTruncatedError` when the bytes do not decode
    as UTF-8 or parse as JSON (too deep nesting included), :class:`ProfileFormatError` when they
    hold no object, :class:`ProfileChecksumError` when a recorded
    checksum does not match.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        data = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as error:  # not UTF-8 / JSON
        raise ProfileTruncatedError(
            f"{kind} {path!r} is truncated or not JSON "
            f"({error})") from error
    if not isinstance(data, dict):
        raise ProfileFormatError(f"{kind} {path!r} is not a JSON object")
    recorded = data.get("checksum")
    if recorded is not None and content_checksum(data) != recorded:
        raise ProfileChecksumError(
            f"{kind} {path!r} failed checksum validation")
    return data


def validate_shard(shard) -> str:
    """Sanity check on a shipped profile dict (worker output, a push).

    Returns an error description, or ``None`` when the required
    sections are present, the node arrays align, and a recorded
    checksum matches.  Packed columns are counted from their length,
    not decoded: :func:`fold_document` decodes and checks them.
    """
    if not isinstance(shard, dict):
        return f"shard payload is {type(shard).__name__}, not dict"
    for key in ("version", "meta", "slots", "nodes", "freq", "flags",
                "edges"):
        if key not in shard:
            return f"shard is missing {key!r}"
    n = _node_count(shard)
    freq = _column_length(shard["freq"])
    flags = _column_length(shard["flags"])
    if not n == freq == flags:
        return (f"shard node arrays misaligned ({n} nodes / "
                f"{freq} freq / {flags} flags)")
    if "checksum" in shard and \
            content_checksum(shard) != shard["checksum"]:
        return "shard failed its content checksum"
    return None


def save_graph(graph: DependenceGraph, path, meta=None,
               tracker=None, names=None) -> None:
    """Write the graph (plus optional metadata, tracker state and
    ``names`` section; see :func:`graph_to_dict`) with
    :func:`write_document`: atomic and checksummed."""
    write_document(path, graph_to_dict(graph, meta, tracker,
                                       names=names))


def load_profile(path):
    """Read ``(graph, meta, state)`` from a :func:`save_graph` file.

    ``state`` is ``None`` for graph-only documents (v1, or v2 saved
    without a tracker).  Raises the errors of :func:`read_document`,
    and :class:`ProfileFormatError` for unsupported versions, for
    every document :func:`fold_document` rejects, and for a malformed
    ``names`` section.
    """
    return load_named_profile(path)[:3]


def load_named_profile(path):
    """:func:`load_profile`'s ``(graph, meta, state)`` and the
    profile's :class:`~repro.profiler.names.ProgramNames`: ``None``
    when it carries no ``names`` section (files written before it, or
    without the program)."""
    data = read_document(path)
    try:
        return _profile_from_dict(data) + (_names_of(data),)
    except ProfileFormatError as error:
        raise ProfileFormatError(f"profile {path!r}: {error}") from error


def _names_of(data: dict):
    """The decoded ``names`` section of ``data``, or ``None``."""
    section = data.get("names")
    if section is None:
        return None
    from .names import names_from_dict
    return names_from_dict(section)


def _profile_from_dict(data: dict):
    """``(graph, meta, state)``: ``data`` folded into an empty graph,
    and into an empty state when it carries a tracker section."""
    graph = DependenceGraph(slots=data.get("slots", 16))
    state = TrackerState() if data.get("tracker") is not None else None
    fold_document(graph, state, data)
    return graph, data.get("meta", {}), state


def load_graph_with_meta(path):
    """Read (graph, meta) from a file written by :func:`save_graph`."""
    data = read_document(path)
    return graph_from_dict(data), data.get("meta", {})


def load_graph(path) -> DependenceGraph:
    """Read a graph previously written by :func:`save_graph`."""
    return graph_from_dict(read_document(path))


# -- best-effort salvage -----------------------------------------------------


class SalvageReport:
    """What :func:`salvage_profile` recovered and what it gave up.

    ``repaired`` is True when the bytes needed repair (truncated,
    undecodable or unparseable, as opposed to internal damage);
    ``missing`` lists sections absent from the recovered document;
    ``dropped`` counts entries discarded per section because they were
    malformed or referenced unrecovered nodes.
    """

    def __init__(self):
        self.repaired = False
        self.missing = []
        self.dropped = {}
        self.nodes = 0
        self.checksum_verified = False

    def drop(self, section: str, count: int = 1):
        if count:
            self.dropped[section] = self.dropped.get(section, 0) + count

    @property
    def clean(self) -> bool:
        return (not self.repaired and not self.missing
                and not self.dropped)

    def format(self) -> str:
        if self.clean:
            return f"intact ({self.nodes} nodes)"
        parts = [f"{self.nodes} nodes recovered"]
        if self.missing:
            parts.append(f"missing: {', '.join(self.missing)}")
        if self.dropped:
            parts.append("dropped: " + ", ".join(
                f"{section}={count}"
                for section, count in sorted(self.dropped.items())))
        return "; ".join(parts)


#: Document sections behind the graph itself, in write order.
_SECTIONS = ("nodes", "freq", "flags", "edges", "effects", "ref_edges",
             "points_to", "control_deps", "tracker")

#: Candidate truncation-repair cut points tried, newest first.
_MAX_REPAIR_TRIES = 4096


def _repair_json(text: str, damage: int) -> dict:
    """Recover a JSON object whose text stops parsing at ``damage``.

    One forward scan of the text before the damage records every
    position where a value just ended (a ``,``/``]``/``}`` outside any
    string) together with the open bracket stack there; candidates are
    tried newest-first by cutting the text and appending the closers.
    Each section that starts after the damage is then found by its key
    and decoded on its own, so damage costs only the section it lands
    in, from the damage on (the ``names`` section after the tracker
    included).  A packed column the damage cuts (its
    string never closes, or holds a byte JSON refuses) keeps the text
    it has, for :func:`_salvage_column` to read the whole values of.
    """
    candidates = []
    stack = []
    in_string = False
    escaped = False
    for index, char in enumerate(text[:damage]):
        if in_string:
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == '"':
                in_string = False
            continue
        if char == '"':
            in_string = True
        elif char in "[{":
            stack.append("]" if char == "[" else "}")
        elif char in "]}":
            if not stack or stack[-1] != char:
                break  # structurally corrupt past here; stop scanning
            stack.pop()
            candidates.append((index + 1, "".join(reversed(stack))))
        elif char == ",":
            candidates.append((index, "".join(reversed(stack))))
    data = {}
    for cut, closers in reversed(candidates[-_MAX_REPAIR_TRIES:]):
        try:
            data = json.loads(text[:cut] + closers)
            break
        except json.JSONDecodeError:
            continue
    data = data if isinstance(data, dict) else {}
    decoder = json.JSONDecoder()
    for key in ("slots",) + _SECTIONS + ("names",):
        marker = f'"{key}": '
        start = text.find(marker, damage)
        if key in data or start < 0:
            continue
        try:
            data[key] = decoder.raw_decode(text, start + len(marker))[0]
        except json.JSONDecodeError:
            pass
    if text.startswith('"', damage):
        end = text.find('"', damage + 1)
        cut = text[damage + 1:end if end > 0 else len(text)]
        for key in _COLUMNS + _CONTEXT_COLUMNS:
            if text.endswith(f'"{key}": ', 0, damage):
                owner = (data if key in _COLUMNS
                         else data.setdefault("tracker", {}))
                if isinstance(owner, dict):
                    owner.setdefault(key, cut)
                break
    return data


def _intlist(row, length):
    return (type(row) is list and len(row) == length
            and all(type(value) is int for value in row))


def _rows(data, section):
    rows = data.get(section, [])
    return rows if type(rows) is list else []


#: The sections v3 and v4 store as flat int columns of pairs.
_PAIR_SECTIONS = ("nodes", "edges", "ref_edges")

#: Every int column of the graph sections, and of a v4 tracker.
_COLUMNS = ("nodes", "freq", "flags", "edges", "ref_edges")
_CONTEXT_COLUMNS = ("context_counts", "contexts")

#: The base64 alphabet's longest prefix of a string.
_BASE64_PREFIX = re.compile("[A-Za-z0-9+/]*")


def _salvage_column(column):
    """The whole values a packed column still holds, as a list: its
    payload read up to the first character outside the base64
    alphabet (the end of the text of a cut column), and the decoded
    bytes up to the last whole value.  A column in any other form is
    returned as it is, and an unknown tag reads as no values."""
    if type(column) is not str:
        return column
    spec, payload = _split_packed(column)
    if spec is None:
        return []
    width, code = spec
    chars = _BASE64_PREFIX.match(payload).group()
    chars = chars[:len(chars) - (len(chars) % 4 == 1)]
    raw = a2b_base64(chars + "=" * (-len(chars) % 4))
    values = array(code)
    values.frombytes(raw[:len(raw) - len(raw) % width])
    if _SWAP:
        values.byteswap()
    return values.tolist()


def _is_flat(data: dict) -> bool:
    """True when ``data``'s pair sections are v3/v4 columns.  A version
    lost to the damage is told from the first ``nodes`` value."""
    if "version" in data:
        return data["version"] not in ROW_VERSIONS
    nodes = data.get("nodes")
    if type(nodes) is str:
        return True
    nodes = _rows(data, "nodes")
    return not nodes or type(nodes[0]) is not list


def _cut_pairs(column: list) -> list:
    """A flat column as ``[a, b]`` rows.  An odd trailing value, left by
    a column cut short, becomes the row ``[a, None]``, which salvage
    drops and counts as one pair, as it does a cut v2 row."""
    values = iter(column)
    return [[a, b] for a, b in zip_longest(values, values)]


def _salvage_context_sets(tracker: dict) -> list:
    """A v4 tracker's context columns as ``node_gs`` rows, up to the
    first node whose count is not a non-negative int or whose
    contexts the (possibly cut) ``contexts`` column no longer holds."""
    counts = _salvage_column(tracker.get("context_counts", []))
    contexts = _salvage_column(tracker.get("contexts", []))
    counts = counts if type(counts) is list else []
    contexts = contexts if type(contexts) is list else []
    node_gs = []
    start = 0
    for count in counts:
        if type(count) is not int or count < 0 \
                or start + count > len(contexts):
            break
        node_gs.append(contexts[start:start + count] or None)
        start += count
    return node_gs


def _sanitize_partial(data: dict, report: SalvageReport) -> dict:
    """Trim a recovered document to its internally consistent core:
    the rows :func:`fold_document` accepts, as a v3 document.  Packed
    columns are read to their last whole value and v3/v4 columns are
    cut into pairs first, so every layout is trimmed by the same rules
    and ``dropped`` counts pairs."""
    for section in _SECTIONS:
        if section not in data:
            report.missing.append(section)
    data = dict(data)
    for section in _COLUMNS:
        if section in data:
            data[section] = _salvage_column(data[section])
    if _is_flat(data):
        for section in _PAIR_SECTIONS:
            data[section] = _cut_pairs(_rows(data, section))
    nodes = [row for row in _rows(data, "nodes") if _intlist(row, 2)]
    report.drop("nodes", len(_rows(data, "nodes")) - len(nodes))
    freq = [value for value in _rows(data, "freq")
            if type(value) is int]
    flags = [value for value in _rows(data, "flags")
             if type(value) is int]
    count = min(len(nodes), len(freq) if "freq" in data else len(nodes),
                len(flags) if "flags" in data else len(nodes))
    # A repeated node key ends the consistent prefix: the nodes after
    # it cannot keep their ids without it.
    seen = set()
    for index, row in enumerate(nodes[:count]):
        key = tuple(row)
        if key in seen:
            count = index
            break
        seen.add(key)
    report.nodes = count
    slots = data.get("slots", 16)
    version = data.get("version", FORMAT_VERSION)
    clean = {
        # An unknown version stays, for fold_document to refuse.
        "version": (FLAT_VERSION if version in READABLE_VERSIONS
                    else version),
        "meta": data.get("meta") if isinstance(data.get("meta"), dict)
        else {},
        "slots": slots if type(slots) is int and slots > 0 else 16,
        "nodes": _flat(nodes[:count]),
        # Arrays lost to truncation are reconstructed neutrally: every
        # recovered node executed at least once, with no flags.
        "freq": (freq[:count] if "freq" in data else [1] * count),
        "flags": (flags[:count] if "flags" in data else [0] * count),
    }
    if count < len(nodes):
        report.drop("nodes", len(nodes) - count)

    def keep(section, predicate):
        rows = _rows(data, section)
        kept = [row for row in rows if predicate(row)]
        report.drop(section, len(rows) - len(kept))
        return kept

    in_range = lambda n: type(n) is int and 0 <= n < count  # noqa: E731
    clean["edges"] = _flat(keep(
        "edges", lambda row: _intlist(row, 2) and in_range(row[0])
        and in_range(row[1])))
    clean["effects"] = keep(
        "effects", lambda row: type(row) is list and len(row) == 4
        and in_range(row[0]) and type(row[1]) is str
        and (row[2] is None or _intlist(row[2], 2))
        and (row[3] is None or type(row[3]) is str))
    clean["ref_edges"] = _flat(keep(
        "ref_edges", lambda row: _intlist(row, 2) and in_range(row[0])
        and in_range(row[1])))
    clean["points_to"] = keep(
        "points_to", lambda row: type(row) is list and len(row) == 3
        and _intlist(row[0], 2) and type(row[1]) is str
        and type(row[2]) is list
        and all(_intlist(t, 2) for t in row[2]))
    control = []
    for row in _rows(data, "control_deps"):
        if (type(row) is list and len(row) == 2 and in_range(row[0])
                and type(row[1]) is list):
            preds = [p for p in row[1] if in_range(p)]
            report.drop("control_deps", len(row[1]) - len(preds))
            control.append([row[0], preds])
        else:
            report.drop("control_deps")
    clean["control_deps"] = control

    tracker = data.get("tracker")
    if isinstance(tracker, dict):
        node_gs = (_rows(tracker, "node_gs") if "node_gs" in tracker
                   else _salvage_context_sets(tracker))
        node_gs = [gs if gs is None or (type(gs) is list
                                        and all(type(g) is int
                                                for g in gs))
                   else None
                   for gs in node_gs[:count]]
        outcomes = [row for row in _rows(tracker, "branch_outcomes")
                    if _intlist(row, 3)]
        report.drop("tracker", len(_rows(tracker, "branch_outcomes"))
                    - len(outcomes))
        returns = []
        for row in _rows(tracker, "return_nodes"):
            if (type(row) is list and len(row) == 2
                    and type(row[0]) is int and type(row[1]) is list):
                returns.append([row[0],
                                [n for n in row[1] if in_range(n)]])
            else:
                report.drop("tracker")
        clean["tracker"] = {"node_gs": node_gs,
                            "branch_outcomes": outcomes,
                            "return_nodes": returns}
    return clean


def salvage_profile(path):
    """Best-effort recovery: ``(graph, meta, state, report)``.

    Intact files load exactly as :func:`load_profile` does (with the
    checksum verified).  Truncated or damaged files are repaired to
    the decodable prefix before the damage plus every section that
    follows it (undecodable bytes read as U+FFFD), then trimmed to a
    consistent subset — the checksum is *not* enforced on that path
    (it cannot match a partial document), which the
    :class:`SalvageReport` records.  Raises
    :class:`~repro.profiler.errors.ProfileTruncatedError` only when
    no node section survives.
    """
    graph, meta, state, _, report = salvage_named_profile(path)
    return graph, meta, state, report


def salvage_named_profile(path):
    """:func:`salvage_profile` with the profile's names:
    ``(graph, meta, state, names, report)``.  A ``names`` section that
    does not decode is dropped (``names`` is then ``None``) and counted
    in ``report.dropped``; one lost to truncation is simply absent."""
    report = SalvageReport()
    try:
        graph, meta, state, names = load_named_profile(path)
        report.nodes = graph.num_nodes
        report.checksum_verified = True
        return graph, meta, state, names, report
    except ProfileFormatError:
        # Bytes that do not parse, but also a parseable-yet-damaged
        # document (dangling node references, malformed rows).
        pass
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8", errors="replace")
    # Undecodable bytes are damage even where the JSON still parses.
    report.repaired = "\ufffd" in text
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        data = _repair_json(text, error.pos)
        report.repaired = True
    if not isinstance(data, dict) or not isinstance(
            data.get("nodes"), (list, str)):
        raise ProfileTruncatedError(
            f"profile {path!r} is beyond salvage "
            f"(no decodable node section)")
    clean = _sanitize_partial(data, report)
    try:
        names = _names_of(data)
    except ProfileFormatError:
        names = None
        report.drop("names")
    return _profile_from_dict(clean) + (names, report)

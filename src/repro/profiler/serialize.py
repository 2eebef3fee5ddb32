"""Gcost serialization — the paper's offline-analysis workflow.

§3.2: "these analyses ... could be easily migrated to an offline heap
analysis tool ... the JVM only needs to write Gcost to external
storage."  These helpers round-trip a :class:`DependenceGraph` through
a JSON document so a profiled run can be analyzed later (or elsewhere)
without re-executing the program.

Format v2 additionally carries the tracker-side state
(:class:`~repro.profiler.state.TrackerState`): the per-node context
sets behind the conflict ratio, the branch outcome counters, and the
return-value node sets.  With them on disk the CR statistic and the
predicate / return-cost clients run fully offline, and the parallel
runtime's workers can ship complete profiles back to the merging
parent.  v1 documents (graph only) are still readable.

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

from .errors import (ProfileChecksumError, ProfileFormatError,
                     ProfileTruncatedError)
from .graph import DependenceGraph
from .state import TrackerState

FORMAT_VERSION = 2

#: Versions :func:`graph_from_dict` accepts.
READABLE_VERSIONS = (1, 2)


def graph_to_dict(graph: DependenceGraph, meta=None, tracker=None,
                  trace=None) -> dict:
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
    """
    data = {
        "version": FORMAT_VERSION,
        "meta": dict(meta) if meta else {},
        "slots": graph.slots,
        "nodes": [list(key) for key in graph.node_keys],
        "freq": list(graph.freq),
        "flags": list(graph.flags),
        "edges": [[src, dst]
                  for src, succs in enumerate(graph.succs)
                  for dst in sorted(succs)],
        "effects": [[node, kind, list(alloc_key) if alloc_key else None,
                     field]
                    for node, (kind, alloc_key, field)
                    in sorted(graph.effects.items())],
        "ref_edges": sorted([store, alloc]
                            for store, alloc in graph.ref_edges),
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
    if tracker is not None:
        state = tracker.state() if hasattr(tracker, "state") else tracker
        data["tracker"] = {
            "node_gs": [sorted(gs) if gs else None
                        for gs in state.node_gs],
            "branch_outcomes": [[iid, taken, not_taken]
                                for iid, (taken, not_taken)
                                in sorted(state.branch_outcomes.items())],
            "return_nodes": [[iid, sorted(nodes)]
                             for iid, nodes
                             in sorted(state.return_nodes.items())],
        }
    return data


def graph_from_dict(data: dict) -> DependenceGraph:
    """Rebuild a graph from :func:`graph_to_dict` output (v1 or v2)."""
    version = data.get("version")
    if version not in READABLE_VERSIONS:
        raise ProfileFormatError(
            f"unsupported graph format version {version!r} "
            f"(readable: {READABLE_VERSIONS})")
    graph = DependenceGraph(slots=data.get("slots", 16))
    for (iid, d), freq, flags in zip(data["nodes"], data["freq"],
                                     data["flags"]):
        node = graph.node(iid, d, flags)
        graph.freq[node] = freq
    for src, dst in data["edges"]:
        graph.add_edge(src, dst)
    for node, kind, alloc_key, field in data["effects"]:
        key = tuple(alloc_key) if alloc_key is not None else None
        graph.effects[node] = (kind, key, field)
    for store, alloc in data["ref_edges"]:
        graph.add_ref_edge(store, alloc)
    for base, field, targets in data["points_to"]:
        for target in targets:
            graph.add_points_to(tuple(base), field, tuple(target))
    for node, preds in data.get("control_deps", []):
        graph.control_deps[node] = set(preds)
    return graph


def tracker_state_from_dict(data: dict):
    """The :class:`TrackerState` carried by a v2 document, or ``None``.

    v1 documents (and v2 documents written without a tracker) have no
    tracker section; callers fall back to graph-only analyses.
    """
    section = data.get("tracker")
    if section is None:
        return None
    return TrackerState(
        node_gs=[set(gs) if gs is not None else None
                 for gs in section.get("node_gs", [])],
        branch_outcomes={iid: [taken, not_taken]
                         for iid, taken, not_taken
                         in section.get("branch_outcomes", [])},
        return_nodes={iid: set(nodes)
                      for iid, nodes
                      in section.get("return_nodes", [])})


# -- integrity ---------------------------------------------------------------


def content_checksum(data: dict) -> str:
    """SHA-256 over the canonical JSON of every non-``checksum`` key."""
    payload = {key: value for key, value in data.items()
               if key != "checksum"}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def write_document(path, data: dict) -> None:
    """Stamp ``data`` with its checksum and write it atomically.

    The text is encoded once, written to ``<path>.tmp.<pid>``, fsynced
    and renamed over ``path``: if anything raises, a previous ``path``
    keeps its bytes and no tmp file remains.
    """
    data["checksum"] = content_checksum(data)
    text = json.dumps(data)
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
    checksum matches.
    """
    if not isinstance(shard, dict):
        return f"shard payload is {type(shard).__name__}, not dict"
    for key in ("version", "meta", "slots", "nodes", "freq", "flags",
                "edges"):
        if key not in shard:
            return f"shard is missing {key!r}"
    if not (len(shard["nodes"]) == len(shard["freq"])
            == len(shard["flags"])):
        return (f"shard node arrays misaligned "
                f"({len(shard['nodes'])} nodes / "
                f"{len(shard['freq'])} freq / "
                f"{len(shard['flags'])} flags)")
    if "checksum" in shard and \
            content_checksum(shard) != shard["checksum"]:
        return "shard failed its content checksum"
    return None


def save_graph(graph: DependenceGraph, path, meta=None,
               tracker=None) -> None:
    """Write the graph (plus optional metadata / tracker state) with
    :func:`write_document`: atomic and checksummed."""
    write_document(path, graph_to_dict(graph, meta, tracker))


def load_profile(path):
    """Read ``(graph, meta, state)`` from a :func:`save_graph` file.

    ``state`` is ``None`` for graph-only documents (v1, or v2 saved
    without a tracker).  Raises the errors of :func:`read_document`,
    and :class:`ProfileFormatError` for unsupported versions.
    """
    data = read_document(path)
    return (graph_from_dict(data), data.get("meta", {}),
            tracker_state_from_dict(data))


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
    in, from the damage on.
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
    for key in ("slots",) + _SECTIONS:
        marker = f'"{key}": '
        start = text.find(marker, damage)
        if key in data or start < 0:
            continue
        try:
            data[key] = decoder.raw_decode(text, start + len(marker))[0]
        except json.JSONDecodeError:
            pass
    return data


def _intlist(row, length):
    return (isinstance(row, list) and len(row) == length
            and all(isinstance(value, int) for value in row))


def _sanitize_partial(data: dict, report: SalvageReport) -> dict:
    """Trim a recovered document to its internally consistent core."""
    for section in _SECTIONS:
        if section not in data:
            report.missing.append(section)
    nodes = [row for row in data.get("nodes", []) if _intlist(row, 2)]
    report.drop("nodes", len(data.get("nodes", [])) - len(nodes))
    freq = [value for value in data.get("freq", [])
            if isinstance(value, int)]
    flags = [value for value in data.get("flags", [])
             if isinstance(value, int)]
    count = min(len(nodes), len(freq) if "freq" in data else len(nodes),
                len(flags) if "flags" in data else len(nodes))
    report.nodes = count
    clean = {
        "version": data.get("version", FORMAT_VERSION),
        "meta": data.get("meta") if isinstance(data.get("meta"), dict)
        else {},
        "slots": data.get("slots", 16),
        "nodes": nodes[:count],
        # Arrays lost to truncation are reconstructed neutrally: every
        # recovered node executed at least once, with no flags.
        "freq": (freq[:count] if "freq" in data else [1] * count),
        "flags": (flags[:count] if "flags" in data else [0] * count),
    }
    if "freq" in data and len(freq) < len(nodes):
        report.drop("nodes", len(nodes) - count)

    def keep(section, predicate):
        rows = data.get(section, [])
        kept = [row for row in rows if predicate(row)]
        report.drop(section, len(rows) - len(kept))
        return kept

    in_range = lambda n: isinstance(n, int) and 0 <= n < count  # noqa: E731
    clean["edges"] = keep(
        "edges", lambda row: _intlist(row, 2) and in_range(row[0])
        and in_range(row[1]))
    clean["effects"] = keep(
        "effects", lambda row: isinstance(row, list) and len(row) == 4
        and in_range(row[0])
        and (row[2] is None or _intlist(row[2], 2)))
    clean["ref_edges"] = keep(
        "ref_edges", lambda row: _intlist(row, 2) and in_range(row[0])
        and in_range(row[1]))
    clean["points_to"] = keep(
        "points_to", lambda row: isinstance(row, list) and len(row) == 3
        and _intlist(row[0], 2) and isinstance(row[2], list)
        and all(_intlist(t, 2) for t in row[2]))
    control = []
    for row in data.get("control_deps", []):
        if (isinstance(row, list) and len(row) == 2 and in_range(row[0])
                and isinstance(row[1], list)):
            preds = [p for p in row[1] if in_range(p)]
            report.drop("control_deps", len(row[1]) - len(preds))
            control.append([row[0], preds])
        else:
            report.drop("control_deps")
    clean["control_deps"] = control

    tracker = data.get("tracker")
    if isinstance(tracker, dict):
        node_gs = [gs if gs is None or (isinstance(gs, list)
                                        and all(isinstance(g, int)
                                                for g in gs))
                   else None
                   for gs in tracker.get("node_gs", [])[:count]]
        outcomes = [row for row in tracker.get("branch_outcomes", [])
                    if _intlist(row, 3)]
        report.drop("tracker",
                    len(tracker.get("branch_outcomes", [])) - len(outcomes))
        returns = []
        for row in tracker.get("return_nodes", []):
            if (isinstance(row, list) and len(row) == 2
                    and isinstance(row[1], list)):
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
    report = SalvageReport()
    try:
        graph, meta, state = load_profile(path)
        report.nodes = graph.num_nodes
        report.checksum_verified = True
        return graph, meta, state, report
    except (ProfileFormatError, KeyError, IndexError, TypeError):
        # Typed load failures, but also the raw structural errors a
        # parseable-yet-damaged document (dangling node references,
        # malformed rows) triggers inside graph_from_dict.
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
            data.get("nodes"), list):
        raise ProfileTruncatedError(
            f"profile {path!r} is beyond salvage "
            f"(no decodable node section)")
    clean = _sanitize_partial(data, report)
    return (graph_from_dict(clean), clean["meta"],
            tracker_state_from_dict(clean), report)

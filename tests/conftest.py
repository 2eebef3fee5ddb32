"""Shared test helpers."""

from __future__ import annotations

import copy
import os
import shutil
import subprocess

import pytest

from repro.analyses import (INFINITE, BloatMetrics, CacheReport, hrab,
                            hrac)
from repro.analyses.batch import engine_for
from repro.lang import compile_source
from repro.profiler import F_CONSUMER
from repro.profiler.context import average_conflict_ratio
from repro.profiler.serialize import pack_column, unpack_column
from repro.vm import VM


def run_source(source: str, tracer=None, max_steps: int = 50_000_000):
    """Compile + run MiniJ source; return the finished VM."""
    program = compile_source(source)
    vm = VM(program, tracer=tracer, max_steps=max_steps)
    vm.run()
    return vm


def run_main(body: str, extra: str = "", tracer=None):
    """Run a main() whose body is ``body``; return the VM."""
    source = f"""
{extra}
class Main {{
    static void main() {{
{body}
    }}
}}
"""
    return run_source(source, tracer=tracer)


def out_of(body: str, extra: str = "") -> str:
    """The program output of a main() body."""
    return run_main(body, extra).stdout()


@pytest.fixture
def compile_run():
    return run_source


#: The sections a v3/v4 profile document stores as flat int columns
#: of pairs.
PAIR_SECTIONS = ("nodes", "edges", "ref_edges")

#: The graph sections a v4 document writes as packed columns.
INT_COLUMNS = ("nodes", "freq", "flags", "edges", "ref_edges")

#: The layouts :func:`in_layout` renders, in the order of
#: :func:`layout_params`.
LAYOUTS = ("v3", "v2rows", "v4")


def as_v3_columns(doc: dict) -> dict:
    """A copy of the profile document ``doc`` in the v3 layout: packed
    columns decoded into JSON int lists and a v4 tracker's
    ``context_counts``/``contexts`` columns into ``node_gs`` rows.  A
    column that already is a list is kept as it is, damage included,
    so a v3 document comes back as a copy.  A ``checksum`` is
    dropped: the caller re-stamps the rendering if it wants one."""
    flat = copy.deepcopy(doc)
    flat.pop("checksum", None)
    flat["version"] = 3
    for section in INT_COLUMNS:
        if isinstance(flat[section], str):
            flat[section] = list(unpack_column(flat[section], section))
    tracker = flat.get("tracker")
    if tracker is not None and "node_gs" not in tracker:
        counts = unpack_column(tracker.pop("context_counts"))
        contexts = list(unpack_column(tracker.pop("contexts")))
        node_gs, start = [], 0
        for count in counts:
            node_gs.append(contexts[start:start + count] or None)
            start += count
        flat["tracker"] = {"node_gs": node_gs, **tracker}
    return flat


def as_v2_rows(doc: dict) -> dict:
    """A copy of the profile document ``doc`` in the v2 layout: its
    ``nodes``/``edges``/``ref_edges`` columns (read as
    :func:`as_v3_columns` reads them) cut into ``[a, b]`` rows, every
    other section copied as it is.  Damage planted in the columns
    lands in the matching rows, so a test can check that both layouts
    are refused (or salvaged) the same way."""
    rows = as_v3_columns(doc)
    rows["version"] = 2
    for section in PAIR_SECTIONS:
        values = iter(rows[section])
        rows[section] = [list(pair) for pair in zip(values, values)]
    return rows


def _packed(values):
    """``values`` as a packed column, or as the list itself when it
    holds a non-int, as a damaged v4 column might."""
    try:
        return pack_column(values)
    except TypeError:
        return values


def as_v4(doc: dict) -> dict:
    """A copy of the v3 profile document ``doc`` in the v4 layout: its
    int columns packed, and its ``node_gs`` rows as the tracker's
    ``context_counts``/``contexts`` columns.  A column holding a
    non-int stays a JSON list, so damage planted in a v3 column lands
    in the v4 rendering too.  A ``checksum`` is dropped."""
    packed = copy.deepcopy(doc)
    packed.pop("checksum", None)
    packed["version"] = 4
    for section in INT_COLUMNS:
        packed[section] = _packed(packed[section])
    tracker = packed.get("tracker")
    if tracker is not None:
        node_gs = tracker.pop("node_gs")
        packed["tracker"] = {
            "context_counts": _packed([len(gs) if gs else 0
                                       for gs in node_gs]),
            "contexts": _packed([g for gs in node_gs if gs
                                 for g in gs]),
            **tracker}
    return packed


def reference_conflict_ratio(graph, state) -> float:
    """The paper's CR (Table 1) of ``state`` over ``graph``: every node
    with a context set regrouped as ``iid -> {slot: contexts}``, then
    :func:`~repro.profiler.context.average_conflict_ratio`."""
    groups = {}
    for node_id, gs in enumerate(state.node_gs):
        if gs is not None:
            iid, slot = graph.node_keys[node_id]
            groups.setdefault(iid, {})[slot] = gs
    return average_conflict_ratio(groups)


def reference_field_racs(graph):
    """``field_racs`` over per-node :func:`~repro.analyses.hrac`."""
    return {key: sum(hrac(graph, n) for n in stores) / len(stores)
            for key, stores in graph.field_stores().items()}


def reference_field_rabs(graph, native_benefit="infinite"):
    """``field_rabs`` over per-node :func:`~repro.analyses.hrab`."""
    rabs = {}
    for key, loads in graph.field_loads().items():
        total = 0.0
        saw_native = False
        for node in loads:
            benefit = hrab(graph, node, native_benefit)
            if benefit == INFINITE:
                saw_native = True
                break
            total += benefit
        rabs[key] = INFINITE if saw_native else total / len(loads)
    return rabs


def reference_measure_bloat(graph, total_instructions: int) -> BloatMetrics:
    """:func:`~repro.analyses.measure_bloat` as one loop over every node
    and its consumer reachability."""
    reach_native, reach_pred = engine_for(graph).consumer_reachability()
    dead_frequency = predicate_frequency = dead_nodes = dead_sinks = 0
    for node in range(graph.num_nodes):
        if graph.flags[node] & F_CONSUMER or reach_native[node]:
            continue
        if reach_pred[node]:
            predicate_frequency += graph.freq[node]
            continue
        dead_nodes += 1
        dead_frequency += graph.freq[node]
        if not graph.succs[node]:
            dead_sinks += 1
    return BloatMetrics(total_instructions, dead_frequency,
                        predicate_frequency, dead_nodes, graph.num_nodes,
                        dead_sinks)


def reference_analyze_caches(graph, min_reads: int = 1):
    """:func:`~repro.analyses.analyze_caches` with one per-node
    :func:`~repro.analyses.hrac` BFS per store node."""
    loads_by_key = graph.field_loads()
    alloc_nodes = graph.alloc_nodes()
    freq = graph.freq
    per_site = {}
    for (alloc_key, field), stores in graph.field_stores().items():
        entry = per_site.setdefault(alloc_key[0], {
            "contexts": set(), "structural": 0.0, "writes": 0,
            "reads": 0, "cached_total": 0.0, "cached_samples": 0})
        entry["contexts"].add(alloc_key[1])
        writes = sum(freq[n] for n in stores)
        entry["structural"] += writes
        entry["writes"] += writes
        entry["reads"] += sum(
            freq[n] for n in loads_by_key.get((alloc_key, field), []))
        for node in stores:
            entry["cached_total"] += max(hrac(graph, node) - freq[node], 0)
            entry["cached_samples"] += 1
        if alloc_key in alloc_nodes:
            entry["structural"] += freq[alloc_nodes[alloc_key]]
    reports = []
    for site, entry in per_site.items():
        if entry["reads"] < min_reads:
            continue
        work_cached = entry["cached_total"] / max(entry["cached_samples"], 1)
        reports.append(CacheReport(
            alloc_site=site, contexts=len(entry["contexts"]),
            structural_cost=entry["structural"], writes=entry["writes"],
            reads=entry["reads"], work_cached=work_cached,
            saved_work=work_cached * max(entry["reads"] - entry["writes"],
                                         0)))
    reports.sort(key=lambda r: r.effectiveness, reverse=True)
    return reports


def in_layout(doc: dict, layout: str) -> dict:
    """The v3 document ``doc`` as it is (``"v3"``), rendered by
    :func:`as_v2_rows` (``"v2rows"``) or by :func:`as_v4` (``"v4"``)."""
    if layout == "v2rows":
        return as_v2_rows(doc)
    return as_v4(doc) if layout == "v4" else doc


def layout_params(names) -> list:
    """``(name, layout)`` pairs as parameters over every layout: a v3
    case keeps the id ``name``, its twins are ``v2rows-<name>`` and
    ``v4-<name>``."""
    return [pytest.param((name, layout),
                         id=name if layout == "v3" else f"{layout}-{name}")
            for layout in LAYOUTS for name in names]


def _checkout_status():
    """``git status`` of the checkout holding this suite, or None when
    git or the work tree is absent."""
    if shutil.which("git") is None:
        return None
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    result = subprocess.run(
        ["git", "-C", root, "status", "--porcelain",
         "--untracked-files=all"],
        capture_output=True, text=True)
    return result.stdout if result.returncode == 0 else None


@pytest.fixture(scope="session", autouse=True)
def checkout_unchanged():
    """Fail the session if running the suite created, modified or
    deleted any file in the checkout (ignored files excepted)."""
    before = _checkout_status()
    yield
    if before is None:
        return
    after = _checkout_status()
    if after != before:
        pytest.fail("the test suite changed the checkout:\n"
                    f"before:\n{before}after:\n{after}", pytrace=False)

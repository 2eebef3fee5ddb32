"""Markdown bloat report: the run → profile → report pipeline's tail.

§3.2 notes the analyses "could be easily migrated to an offline heap
analysis tool"; PR 2 made profiles travel (format v2 carries the
tracker state), and this module turns a saved profile into the
document a developer acts on — without touching the Python API:

.. code-block:: text

    python -m repro profile prog.mj --save-graph g.json --self-profile
    python -m repro report g.json --out bloat.md

Sections: run summary (graph size, CR), the top cost-benefit
offenders (§3.1's ranking), the HRAC / HRAB field tables
(Definitions 5-6), dead-value metrics (Table 1c), and the tracker
overhead summary when the profile was taken with ``--self-profile``.
All analysis answers come from one batched slicing engine
(:func:`repro.analyses.batch.engine_for`), taken once per report: the
field RACs/RABs are computed once and feed both the cost-benefit
ranking and the HRAC/HRAB tables, and the dead-value metrics sum
weights over the engine's node classes, so the report renders in one
pass even on merged multi-shard graphs.
"""

from __future__ import annotations


def _md(value, digits: int = 1) -> str:
    """Markdown cell rendering with the paper's ``inf`` convention."""
    if value is None:
        return "—"
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        return f"{value:.{digits}f}"
    return str(value)


def _table(headers, rows) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def _field_rows(field_map, descriptions, top, reverse=True):
    """Rows for a HRAC/HRAB table from a ``(alloc_key, field) -> value``
    map, aggregated over context slots per ``(site, field)``."""
    inf = float("inf")
    merged = {}
    for (alloc_key, field), value in field_map.items():
        key = (alloc_key[0], field)
        entry = merged.get(key)
        if entry is None:
            merged[key] = [value, 1]
        else:
            if value == inf or entry[0] == inf:
                entry[0] = inf
            else:
                entry[0] += value
            entry[1] += 1
    ranked = sorted(merged.items(),
                    key=lambda item: (item[1][0] == inf, item[1][0]),
                    reverse=reverse)
    rows = []
    for (iid, field), (value, contexts) in ranked[:top]:
        what, method, line = descriptions.get(iid, ("?", "?", 0))
        rows.append((f"`{what}.{field}`", f"{method} (line {line})",
                     contexts, _md(value)))
    return rows


def _field_data(field_map, descriptions, top, reverse=True):
    """JSON rows for a HRAC/HRAB section (same aggregation as
    :func:`_field_rows`, machine-readable values)."""
    inf = float("inf")
    merged = {}
    for (alloc_key, field), value in field_map.items():
        key = (alloc_key[0], field)
        entry = merged.get(key)
        if entry is None:
            merged[key] = [value, 1]
        else:
            if value == inf or entry[0] == inf:
                entry[0] = inf
            else:
                entry[0] += value
            entry[1] += 1
    ranked = sorted(merged.items(),
                    key=lambda item: (item[1][0] == inf, item[1][0]),
                    reverse=reverse)
    rows = []
    for (iid, field), (value, contexts) in ranked[:top]:
        what, method, line = descriptions.get(iid, ("?", "?", 0))
        rows.append({"field": f"{what}.{field}", "method": method,
                     "line": line, "contexts": contexts,
                     "value": "inf" if value == inf else round(value, 4)})
    return rows


def bloat_report_data(graph, meta, state, program, top: int = 10) -> dict:
    """The bloat report as a machine-readable dict (``report --format
    json``).

    Mirrors :func:`render_bloat_report` section by section — run
    summary, cost-benefit ranking, HRAC/HRAB field tables, dead-value
    metrics, tracker overhead — with raw numbers instead of Markdown
    cells (``inf`` is serialized as the string ``"inf"`` since JSON
    has no infinity literal).  ``program`` names the sites: the
    compiled program, or the profile's own
    :class:`~repro.profiler.names.ProgramNames`
    (:func:`~repro.profiler.serialize.load_named_profile`).
    """
    from ..analyses import analyze_cost_benefit, measure_bloat
    from ..analyses.batch import engine_for
    from ..profiler.names import site_descriptions

    def _num(value, digits=4):
        if value is None:
            return None
        if isinstance(value, float):
            if value == float("inf"):
                return "inf"
            return round(value, digits)
        return value

    descriptions = site_descriptions(program)
    engine = engine_for(graph)
    racs = engine.field_racs()
    rabs = engine.field_rabs()
    instructions = meta.get("instructions", 0)

    data = {
        "summary": {
            "label": meta.get("label", ""),
            "instructions": instructions or None,
            "slots": graph.slots,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "ref_edges": len(graph.ref_edges),
            "memory_bytes": graph.memory_bytes(),
            "conflict_ratio": (round(state.conflict_ratio(graph), 6)
                               if state is not None else None),
            "runs": meta.get("runs"),
        },
        "cost_benefit": [
            {"rank": rank, "site": report.what, "method": report.method,
             "line": report.line, "n_rac": _num(report.n_rac),
             "n_rab": _num(report.n_rab), "ratio": _num(report.ratio),
             "contexts": report.contexts}
            for rank, report in enumerate(
                analyze_cost_benefit(graph, program, racs=racs,
                                     rabs=rabs, engine=engine)[:top],
                start=1)],
        "hrac": _field_data(racs, descriptions, top),
        "hrab": _field_data(rabs, descriptions, top, reverse=False),
    }
    if instructions:
        metrics = measure_bloat(graph, instructions, engine=engine)
        data["dead_values"] = {"ipd": round(metrics.ipd, 6),
                               "ipp": round(metrics.ipp, 6),
                               "nld": round(metrics.nld, 6)}
    else:
        data["dead_values"] = None
    overhead = meta.get("overhead")
    data["overhead"] = dict(overhead) if overhead else None
    if meta.get("trace"):
        data["trace"] = dict(meta["trace"])
    return data


def render_bloat_report(graph, meta, state, program, top: int = 10) -> str:
    """Render the full Markdown bloat report for one saved profile.

    ``graph``/``meta``/``state`` are exactly what
    :func:`repro.profiler.load_profile` returns; ``state`` may be
    ``None`` for v1 (graph-only) profiles — the CR line then says so
    instead of failing.  ``program`` is as for
    :func:`bloat_report_data`.
    """
    from ..analyses import (analyze_cost_benefit, measure_bloat)
    from ..analyses.batch import engine_for
    from ..profiler.names import site_descriptions

    descriptions = site_descriptions(program)
    engine = engine_for(graph)
    racs = engine.field_racs()
    rabs = engine.field_rabs()
    instructions = meta.get("instructions", 0)

    out = ["# Bloat report", ""]
    if meta.get("label"):
        out.append(f"Profile `{meta['label']}`")
        out.append("")
    if meta.get("output") is not None:
        out.append(f"Program output: `{meta['output'].strip() or '(none)'}`")
        out.append("")

    # -- run summary ---------------------------------------------------------
    out.append("## Run summary")
    out.append("")
    cr = (f"{state.conflict_ratio(graph):.3f}" if state is not None
          else "n/a (v1 profile — re-profile to capture tracker state)")
    summary_rows = [
        ("instructions executed", instructions or "n/a"),
        ("context slots (s)", graph.slots),
        ("Gcost nodes", graph.num_nodes),
        ("Gcost edges", graph.num_edges),
        ("reference edges", len(graph.ref_edges)),
        ("graph memory (approx.)", f"{graph.memory_bytes() / 1024:.1f} KiB"),
        ("context conflict ratio (CR)", cr),
    ]
    if meta.get("runs"):
        summary_rows.insert(1, ("aggregated runs", meta["runs"]))
    out.append(_table(("metric", "value"), summary_rows))
    out.append("")

    # -- cost-benefit ranking ------------------------------------------------
    out.append("## Top cost-benefit offenders")
    out.append("")
    reports = analyze_cost_benefit(graph, program, racs=racs, rabs=rabs,
                                   engine=engine)
    if reports:
        rows = []
        for rank, report in enumerate(reports[:top], start=1):
            rows.append((rank, f"`{report.what}`",
                         f"{report.method} (line {report.line})",
                         _md(report.n_rac), _md(report.n_rab),
                         _md(report.ratio), report.contexts))
        out.append(_table(("#", "site", "where", "n-RAC", "n-RAB",
                           "C/B", "contexts"), rows))
        out.append("")
        out.append("High C/B means expensive to build relative to the "
                   "benefit its consumers ever extract (C/B `inf` = no "
                   "benefit at all; n-RAB `inf` = the structure reaches "
                   "program output, so its benefit is unbounded).")
    else:
        out.append("*(no data-structure activity observed)*")
    out.append("")

    # -- HRAC / HRAB field tables --------------------------------------------
    out.append("## Costliest fields (HRAC, Definition 5)")
    out.append("")
    if racs:
        out.append(_table(("field", "written in", "contexts", "RAC"),
                          _field_rows(racs, descriptions, top)))
    else:
        out.append("*(no tracked field stores)*")
    out.append("")

    out.append("## Least-beneficial fields (HRAB, Definition 6)")
    out.append("")
    if rabs:
        out.append(_table(("field", "written in", "contexts", "RAB"),
                          _field_rows(rabs, descriptions, top,
                                      reverse=False)))
        out.append("")
        out.append("RAB 0 fields are pure cost; `inf` fields reach "
                   "program output and are untouchable.")
    else:
        out.append("*(no tracked field loads)*")
    out.append("")

    # -- dead-value metrics --------------------------------------------------
    out.append("## Dead-value metrics (Table 1c analogues)")
    out.append("")
    if instructions:
        metrics = measure_bloat(graph, instructions, engine=engine)
        out.append(_table(
            ("metric", "value", "meaning"),
            [("IPD", f"{metrics.ipd * 100:.1f}%",
              "instructions producing ultimately-dead values"),
             ("IPP", f"{metrics.ipp * 100:.1f}%",
              "instructions feeding only predicates"),
             ("NLD", f"{metrics.nld * 100:.1f}%",
              "allocation sites whose objects carry dead values")]))
    else:
        out.append("*(profile meta lacks the instruction count — "
                   "re-save with `--save-graph` from `profile`)*")
    out.append("")

    # -- overhead summary ----------------------------------------------------
    out.append("## Tracker overhead")
    out.append("")
    overhead = meta.get("overhead")
    if overhead:
        from .overhead import overhead_from_dict
        report = overhead_from_dict(overhead)
        out.append(_table(
            ("metric", "value"),
            [("untracked wall", f"{report.untracked_wall:.3f} s"),
             ("tracked wall", f"{report.tracked_wall:.3f} s"),
             ("overhead", f"{report.overhead:.1f}x"),
             ("instructions", report.instructions),
             ("measurement repeats", report.repeats)]))
        out.append("")
        out.append("The reproduction's analogue of the paper's Table-1 "
                   "overhead column: wall time under the cost tracker "
                   "relative to the bare interpreter.")
    else:
        out.append("*(not recorded — profile with `--self-profile` to "
                   "capture the tracked/untracked ratio)*")
    out.append("")
    return "\n".join(out)

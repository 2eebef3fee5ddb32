"""Relative object cost-benefit analysis — the paper's §3 client.

Ranks allocation sites by the imbalance between the relative cost of
constructing their objects (n-RAC) and the benefit accrued by uses of
the objects' fields (n-RAB).  Sites whose data structures are expensive
to build but barely used float to the top — exactly the symptom the six
case studies diagnose.
"""

from __future__ import annotations

from ..profiler.graph import DependenceGraph
from ..profiler.names import program_names, site_descriptions
from .relative import (DEFAULT_TREE_DEPTH, INFINITE,
                       all_object_cost_benefits)


class SiteReport:
    """Cost-benefit summary for one allocation site (all contexts)."""

    __slots__ = ("iid", "what", "method", "line", "n_rac", "n_rab",
                 "contexts", "tree_size", "allocations", "fields")

    def __init__(self, iid: int, what: str, method: str, line: int,
                 n_rac: float, n_rab: float, contexts: int,
                 tree_size: int, allocations: int = 0, fields=None):
        self.iid = iid
        self.what = what                # "new Foo" or "new int[]"
        self.method = method            # the allocating method
        self.line = line
        self.n_rac = n_rac
        self.n_rab = n_rab
        self.contexts = contexts        # distinct context slots observed
        self.tree_size = tree_size      # largest reference tree seen
        self.allocations = allocations  # objects the profile saw
        self.fields = [] if fields is None else fields

    def __repr__(self):
        return (f"<SiteReport {self.what} {self.method}:{self.line} "
                f"n-RAC={self.n_rac} n-RAB={self.n_rab}>")

    @property
    def ratio(self) -> float:
        if self.n_rab == INFINITE:
            return 0.0
        if self.n_rab == 0:
            return INFINITE if self.n_rac > 0 else 0.0
        return self.n_rac / self.n_rab


def analyze_cost_benefit(graph: DependenceGraph, program,
                         depth: int = DEFAULT_TREE_DEPTH,
                         native_benefit: str = "infinite",
                         include_zero: bool = False,
                         racs=None, rabs=None, engine=None):
    """Produce ranked :class:`SiteReport` entries, worst offenders first.

    ``program`` is the compiled program or the profile's
    :class:`~repro.profiler.names.ProgramNames`; it names the sites.
    A site's ``allocations`` are the allocations the profile saw: the
    summed frequency of the site's allocation nodes.  On an exact run
    that is the number of objects the site created; under ``--phases``
    it counts only those allocated inside a tracked phase, and on a
    sampled profile it is the estimate its frequencies are (raw
    sampled counts, or scaled ones once the caller scaled the graph).
    Sites with no field activity at all are omitted unless
    ``include_zero``.  ``racs``/``rabs`` and ``engine`` are passed on
    to :func:`~repro.analyses.relative.all_object_cost_benefits`, so a
    caller that already holds the field maps computes them once.
    """
    summaries = all_object_cost_benefits(graph, depth,
                                         native_benefit=native_benefit,
                                         racs=racs, rabs=rabs,
                                         engine=engine)
    descriptions = site_descriptions(program)
    freq = graph.freq

    by_site = {}
    for summary in summaries:
        iid = summary.alloc_key[0]
        entry = by_site.get(iid)
        if entry is None:
            what, method, line = descriptions.get(iid, ("?", "?", 0))
            entry = SiteReport(iid=iid, what=what, method=method,
                               line=line, n_rac=0.0, n_rab=0.0,
                               contexts=0, tree_size=0)
            by_site[iid] = entry
        entry.n_rac += summary.n_rac
        if summary.n_rab == INFINITE or entry.n_rab == INFINITE:
            entry.n_rab = INFINITE
        else:
            entry.n_rab += summary.n_rab
        entry.contexts += 1
        entry.tree_size = max(entry.tree_size, summary.tree_size)
        entry.fields.extend(summary.fields)
        # An allocation key is its allocation node's key.
        node = graph.find(*summary.alloc_key)
        if node is not None and iid in descriptions:
            entry.allocations += freq[node]

    reports = list(by_site.values())
    if not include_zero:
        reports = [r for r in reports if r.n_rac > 0 or r.n_rab > 0]
    reports.sort(key=lambda r: (r.ratio, r.n_rac), reverse=True)
    return reports


def top_offenders(graph: DependenceGraph, program, top: int = 10,
                  **kwargs):
    """The ``top`` worst cost-benefit sites."""
    return analyze_cost_benefit(graph, program, **kwargs)[:top]


def explain_site(graph: DependenceGraph, program, iid: int,
                 depth: int = DEFAULT_TREE_DEPTH,
                 native_benefit: str = "infinite") -> str:
    """A developer-facing explanation of one allocation site's rating.

    Shows, per contributing field of the site's reference tree: who
    writes it (source lines), its RAC and RAB, and whether its values
    ever reach output — the detail needed to act on a report entry.
    """
    from .batch import engine_for
    from .relative import (field_racs, field_rabs, object_cost_benefit,
                           reference_tree)

    what, method, line = site_descriptions(program).get(iid,
                                                        ("?", "?", 0))
    lines = [f"{what} allocated in {method} (line {line})"]

    engine = engine_for(graph)
    racs = field_racs(graph, engine=engine)
    rabs = field_rabs(graph, native_benefit, engine=engine)
    stores_by_key, _, alloc_nodes = engine.field_groups()
    alloc_keys = [key for key in alloc_nodes if key[0] == iid]
    if not alloc_keys:
        lines.append("  (no tracked activity for this site)")
        return "\n".join(lines)

    names = program_names(program)
    line_of = names.line_of
    method_of = names.method_of
    total_rac = 0.0
    total_rab = 0.0
    for alloc_key in alloc_keys:
        summary = object_cost_benefit(graph, alloc_key, depth,
                                      racs=racs, rabs=rabs,
                                      native_benefit=native_benefit)
        tree = reference_tree(graph, alloc_key, depth)
        total_rac += summary.n_rac
        if summary.n_rab == INFINITE or total_rab == INFINITE:
            total_rab = INFINITE
        else:
            total_rab += summary.n_rab
        lines.append(f"  context slot {alloc_key[1]}: reference tree "
                     f"of {len(tree)} object(s)")
        for owner_key, field_name, rac, rab in sorted(
                summary.fields, key=lambda f: -f[2]):
            writers = stores_by_key.get((owner_key, field_name), [])
            where = sorted({
                f"{method_of.get(graph.node_keys[n][0], '?')}:"
                f"{line_of.get(graph.node_keys[n][0], 0)}"
                for n in writers})
            rab_text = "inf (reaches output)" if rab == INFINITE \
                else (f"{rab:.1f}" if rab else "0 (never used)")
            lines.append(f"    .{field_name:<12} RAC={rac:<10.1f} "
                         f"RAB={rab_text:<22} written at "
                         f"{', '.join(where) or '?'}")
    ratio = "inf" if (total_rab == 0 and total_rac > 0) else (
        "0" if total_rab == INFINITE
        else f"{total_rac / max(total_rab, 1e-9):.1f}")
    lines.append(f"  total: n-RAC={total_rac:.1f} "
                 f"n-RAB={'inf' if total_rab == INFINITE else total_rab}"
                 f" cost/benefit={ratio}")
    return "\n".join(lines)

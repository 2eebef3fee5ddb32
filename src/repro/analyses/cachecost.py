"""Cache-effectiveness analysis (§3.2, "Cost/benefit for computation vs
cost/benefit for cache"; flagged as future work in the paper).

For a data structure used as a *cache*, the paper redefines the terms:

* the cost should include "only the instructions executed to create the
  data structure itself (i.e., without the cost of computing the values
  being cached)" — here: the plumbing frequency of the allocation and
  the store instructions;
* the benefit should be "a function of the amount of work cached and
  the number of times the cached values are used" — here: the average
  HRAC of the stored values (work that a hit avoids recomputing) times
  the number of reuse reads beyond the writes that populated it.

A structure is an *effective* cache when the work saved exceeds the
plumbing spent maintaining it; ineffective "caches" (rewritten per use,
or caching trivially recomputable values) rank at the bottom — the
inappropriately-used caches the paper proposes finding this way.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..profiler.graph import DependenceGraph
from .batch import engine_for


@dataclass
class CacheReport:
    alloc_site: int
    contexts: int
    structural_cost: float   # plumbing: alloc + store instruction work
    writes: int              # store frequency (population + refresh)
    reads: int               # load frequency (hits)
    work_cached: float       # avg HRAC of stored values
    saved_work: float        # work_cached * max(reads - writes, 0)

    @property
    def effectiveness(self) -> float:
        """Saved work per unit of cache plumbing; > 1 pays off.

        ``structural_cost`` already includes the store instructions and
        the allocation, so it is the whole denominator.
        """
        if self.structural_cost <= 0:
            return 0.0
        return self.saved_work / self.structural_cost

    @property
    def is_effective(self) -> bool:
        return self.effectiveness > 1.0

    def __repr__(self):
        return (f"<CacheReport site={self.alloc_site} "
                f"eff={self.effectiveness:.2f} reads={self.reads} "
                f"writes={self.writes}>")


def analyze_caches(graph: DependenceGraph, min_reads: int = 1):
    """Rank allocation sites by cache effectiveness, best first.

    Only sites whose fields are both written and read participate
    (write-only structures are dead stores, not caches; read counts
    below ``min_reads`` are skipped as noise).  Every store's HRAC is
    a lookup in one batched engine.
    """
    engine = engine_for(graph)
    loads_by_key = graph.field_loads()
    stores_by_key = graph.field_stores()
    alloc_nodes = graph.alloc_nodes()
    freq = graph.freq

    per_site = {}
    for field_key, store_nodes in stores_by_key.items():
        alloc_key, _field = field_key
        load_nodes = loads_by_key.get(field_key, [])
        site = alloc_key[0]
        entry = per_site.setdefault(site, {
            "contexts": set(), "structural": 0.0, "writes": 0,
            "reads": 0, "cached_total": 0.0, "cached_samples": 0,
        })
        entry["contexts"].add(alloc_key[1])
        # Structure plumbing: executing the stores themselves (and the
        # allocation below), NOT the upstream computation of the
        # values — that's what distinguishes this from RAC.
        entry["structural"] += sum(freq[n] for n in store_nodes)
        entry["writes"] += sum(freq[n] for n in store_nodes)
        entry["reads"] += sum(freq[n] for n in load_nodes)
        # The cached work: the per-hop cost of producing each stored
        # value (what a cache hit avoids recomputing).  Subtract the
        # store instruction's own frequency so pure plumbing isn't
        # double counted as cached work.
        for node in store_nodes:
            entry["cached_total"] += max(engine.hrac(node) - freq[node],
                                         0)
            entry["cached_samples"] += 1
        alloc_node = alloc_nodes.get(alloc_key)
        if alloc_node is not None:
            entry["structural"] += freq[alloc_node]

    reports = []
    for site, entry in per_site.items():
        if entry["reads"] < min_reads:
            continue
        samples = max(entry["cached_samples"], 1)
        work_cached = entry["cached_total"] / samples
        # Each read beyond the writes that populated/refreshed the
        # cache is a hit that avoided recomputing the cached work.
        reuse = max(entry["reads"] - entry["writes"], 0)
        reports.append(CacheReport(
            alloc_site=site,
            contexts=len(entry["contexts"]),
            structural_cost=entry["structural"],
            writes=entry["writes"],
            reads=entry["reads"],
            work_cached=work_cached,
            saved_work=work_cached * reuse,
        ))
    reports.sort(key=lambda r: r.effectiveness, reverse=True)
    return reports


def format_cache_report(reports, program=None, top: int = 10) -> str:
    """Tabular rendering; with ``program`` site locations are shown."""
    descriptions = {}
    if program is not None:
        from .costbenefit import _site_descriptions
        descriptions = _site_descriptions(program)
    lines = [
        "site   effectiveness  reads  writes  cached-work  where",
        "-" * 72,
    ]
    for report in reports[:top]:
        what, method, line = descriptions.get(
            report.alloc_site, ("?", "?", 0))
        where = f"{what} in {method}" if program is not None else ""
        verdict = "+" if report.is_effective else "-"
        lines.append(
            f"{report.alloc_site:>5}  {verdict}{report.effectiveness:>11.2f}"
            f"  {report.reads:>5}  {report.writes:>6}"
            f"  {report.work_cached:>11.1f}  {where}")
    return "\n".join(lines)

"""Write/read imbalance analysis (§3.2: locations rewritten before read).

Finds heap locations written far more often than they are read — the
paper's derby case study (a FileContainer int[] updated with the same
data on every page write, read rarely).  For each ``alloc_key.field``
the analysis compares aggregate store frequency against aggregate load
frequency and reports the worst offenders, plus stores whose values are
*never* read at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..profiler.graph import DependenceGraph
from .batch import engine_for


@dataclass
class WriteReadImbalance:
    alloc_site: int
    field: str
    writes: int
    reads: int
    never_read: bool

    @property
    def ratio(self) -> float:
        if self.reads == 0:
            return float("inf") if self.writes > 0 else 0.0
        return self.writes / self.reads


def write_read_imbalances(graph: DependenceGraph, min_writes: int = 2):
    """Fields ranked by write/read frequency imbalance.

    Aggregated per allocation *site* (contexts merged) so the report
    matches how a developer sees the code.
    """
    stores_by_key, loads_by_key, _ = engine_for(graph).field_groups()
    writes = {}
    reads = {}
    for field_key, nodes in stores_by_key.items():
        (site, _), field = field_key[0], field_key[1]
        key = (site, field)
        writes[key] = writes.get(key, 0) + sum(graph.freq[n]
                                               for n in nodes)
    for field_key, nodes in loads_by_key.items():
        (site, _), field = field_key[0], field_key[1]
        key = (site, field)
        reads[key] = reads.get(key, 0) + sum(graph.freq[n]
                                             for n in nodes)
    results = []
    for key, write_count in writes.items():
        if write_count < min_writes:
            continue
        read_count = reads.get(key, 0)
        results.append(WriteReadImbalance(
            alloc_site=key[0], field=key[1],
            writes=write_count, reads=read_count,
            never_read=read_count == 0))
    results.sort(key=lambda r: (r.ratio, r.writes), reverse=True)
    return results

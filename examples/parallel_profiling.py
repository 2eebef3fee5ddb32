#!/usr/bin/env python
"""Sharded profiling: fan workload shards over workers, merge Gcost.

§3.2 notes Gcost can be written out and analyzed offline; because
nodes live in the bounded abstract domain ``(iid, h(context))`` the
per-shard graphs also merge *exactly*.  This example profiles four
seeded shards of the analysis-stress pipeline two ways — through the
`SupervisedProfiler` map-reduce path and through one tracker running
the shards back to back — verifies the two profiles are canonically
identical, and feeds the merged graph to the batched slicing engine.

Every shard is a distinct ``seed`` of the same generator, so all four
jobs share one abstract node set while computing different data — the
property that makes the merge exact.  With a telemetry hub installed
(``repro.observability``) the map/merge phases and each worker's
``shard.run`` span are traced; run with REPRO_TELEMETRY=events.jsonl
to see the stream (``docs/OBSERVABILITY.md`` documents the events).
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analyses.batch import engine_for
from repro.observability import JsonlSink, Telemetry, set_current
from repro.profiler import (ProfileJob, SupervisedProfiler,
                            canonical_form, profile_jobs_sequential)

SHARDS = 4
STRESS = {"stages": 8, "chain": 8, "rounds": 2}

telemetry_path = os.environ.get("REPRO_TELEMETRY")
if telemetry_path:
    set_current(Telemetry(sink=JsonlSink(telemetry_path)))

jobs = [ProfileJob.stress(seed=seed, **STRESS) for seed in range(SHARDS)]

print(f"profiling {SHARDS} seeded stress shards over 2 workers...")
merged = SupervisedProfiler(workers=2, slots=16).profile(jobs).profile
graph = merged.graph
print(f"merged graph: {graph.num_nodes} nodes / {graph.num_edges} edges"
      f" from {merged.instructions} instructions")
print(f"shard outputs: {merged.outputs}")
print(f"conflict ratio: {merged.conflict_ratio():.3f}")

oracle = profile_jobs_sequential(jobs, slots=16)
same = canonical_form(graph, merged.state) == \
    canonical_form(oracle.graph, oracle.state)
print(f"merge equals sequential oracle: {same}")
assert same

# The merged profile drops straight into the batched analyses.
engine = engine_for(graph)
racs = engine.field_racs()
costliest = max(racs, key=racs.get)
print(f"{len(racs)} field RACs computed on the merged graph; "
      f"costliest field: {costliest[1]} (RAC {racs[costliest]:.0f})")

if telemetry_path:
    from repro.observability import NULL, current
    current().close()
    set_current(NULL)
    print(f"telemetry events written to {telemetry_path}")

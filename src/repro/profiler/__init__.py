"""Abstract dynamic thin slicing: Gcost construction, the generic
bounded-domain slicing framework, and the parallel profiling runtime
(plus its fault-tolerant supervisor — see ``docs/RESILIENCE.md``)."""

from .base import TracerBase
from .checkpoint import jobs_fingerprint, load_checkpoint, write_checkpoint
from .context import (average_conflict_ratio, conflict_ratio, context_slot,
                      extend_context)
from .domains import AbstractThinSlicer
from .errors import (CheckpointError, ProfileChecksumError,
                     ProfileFormatError, ProfileInputError,
                     ProfilerError, ProfileTruncatedError,
                     ShardFailedError)
from .graph import (CONTEXTLESS, ELM, EFFECT_ALLOC, EFFECT_LOAD,
                    EFFECT_STORE, F_ALLOC, F_CONSUMER, F_HEAP_READ,
                    F_HEAP_WRITE, F_NATIVE, F_PREDICATE, CSRGraph,
                    DependenceGraph)
from .parallel import (AggregateProfile, ProfileJob, canonical_form,
                       fold_graph, merge_graphs, normalize_sampling,
                       profile_jobs_sequential)
from .sampling import (DEFAULT_SPEC, SampleCursor, SampleSchedule,
                       aggregate_factor, apply_sampling_scale,
                       parse_sample_spec)
from .serialize import (SalvageReport, content_checksum, graph_from_dict,
                        graph_to_dict, load_graph, load_graph_with_meta,
                        load_profile, read_document, salvage_profile,
                        save_graph, tracker_state_from_dict,
                        validate_shard, write_document)
from .state import TrackerState
from .supervisor import (RunReport, ShardPolicy, ShardResult,
                         SupervisedProfiler, SupervisedRun, backoff_delay)
from .tracker import CostTracker

__all__ = [
    "TracerBase", "CostTracker", "AbstractThinSlicer", "DependenceGraph",
    "CSRGraph", "TrackerState",
    "extend_context", "context_slot", "conflict_ratio",
    "average_conflict_ratio",
    "CONTEXTLESS", "ELM",
    "EFFECT_ALLOC", "EFFECT_LOAD", "EFFECT_STORE",
    "F_ALLOC", "F_CONSUMER", "F_HEAP_READ", "F_HEAP_WRITE", "F_NATIVE",
    "F_PREDICATE",
    "graph_to_dict", "graph_from_dict", "save_graph", "load_graph",
    "load_graph_with_meta", "load_profile", "tracker_state_from_dict",
    "salvage_profile", "SalvageReport", "content_checksum",
    "write_document", "read_document",
    "ProfileJob", "AggregateProfile", "merge_graphs",
    "fold_graph", "profile_jobs_sequential", "canonical_form",
    "normalize_sampling",
    "DEFAULT_SPEC", "SampleSchedule", "SampleCursor", "parse_sample_spec",
    "aggregate_factor", "apply_sampling_scale",
    "SupervisedProfiler", "SupervisedRun", "ShardPolicy", "ShardResult",
    "RunReport", "backoff_delay", "validate_shard",
    "jobs_fingerprint", "write_checkpoint", "load_checkpoint",
    "ProfilerError", "ProfileInputError", "ProfileFormatError",
    "ProfileChecksumError", "ProfileTruncatedError", "CheckpointError",
    "ShardFailedError",
]

"""Abstract dynamic thin slicing: Gcost construction, the generic
bounded-domain slicing framework, and the parallel profiling runtime
(plus its fault-tolerant supervisor — see ``docs/RESILIENCE.md``)."""

from .. import _lazy_surface

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "base": ("TracerBase",),
    "checkpoint": ("jobs_fingerprint", "load_checkpoint",
                   "write_checkpoint"),
    "context": ("average_conflict_ratio", "conflict_ratio",
                "context_slot", "extend_context"),
    "domains": ("AbstractThinSlicer",),
    "errors": ("CheckpointError", "ProfileChecksumError",
               "ProfileFormatError", "ProfileInputError", "ProfilerError",
               "ProfileTruncatedError", "ShardFailedError"),
    "graph": ("CONTEXTLESS", "ELM", "EFFECT_ALLOC", "EFFECT_LOAD",
              "EFFECT_STORE", "F_ALLOC", "F_CONSUMER", "F_HEAP_READ",
              "F_HEAP_WRITE", "F_NATIVE", "F_PREDICATE", "CSRGraph",
              "DependenceGraph"),
    "names": ("ProgramNames", "program_names", "site_descriptions"),
    "parallel": ("AggregateProfile", "ProfileJob", "canonical_form",
                 "fold_graph", "merge_graphs", "normalize_sampling",
                 "profile_jobs_sequential"),
    "sampling": ("DEFAULT_SPEC", "SampleCursor", "SampleSchedule",
                 "aggregate_factor", "apply_sampling_scale",
                 "parse_sample_spec"),
    "serialize": ("SalvageReport", "content_checksum", "fold_document",
                  "graph_from_dict", "graph_to_dict", "load_graph",
                  "load_graph_with_meta", "load_named_profile",
                  "load_profile", "read_document", "salvage_named_profile",
                  "salvage_profile", "save_graph",
                  "tracker_state_from_dict", "validate_shard",
                  "write_document"),
    "state": ("TrackerState",),
    "supervisor": ("RunReport", "ShardPolicy", "ShardResult",
                   "SupervisedProfiler", "SupervisedRun",
                   "backoff_delay"),
    "tracker": ("CostTracker",),
})

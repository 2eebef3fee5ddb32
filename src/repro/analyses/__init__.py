"""Client analyses over the abstract thin dependence graph."""

from .. import _lazy_surface

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "batch": ("BatchSliceEngine", "MethodLocalCostIndex",
              "ReachabilityIndex", "engine_for"),
    "cachecost": ("CacheReport", "analyze_caches", "format_cache_report"),
    "collections_rank": ("rank_collections",),
    "copyprofile": ("BOTTOM", "CopyChain", "CopyProfiler"),
    "cost": ("ConcreteThinSlicer", "TaintCostTracker", "absolute_cost",
             "abstract_cost", "sink_costs_from_graph"),
    "costbenefit": ("SiteReport", "analyze_cost_benefit", "explain_site",
                    "top_offenders"),
    "deadvalues": ("BloatMetrics", "DeadLine", "dead_lines", "dead_star",
                   "measure_bloat"),
    "methodcost": ("MethodCost", "ReturnCost", "method_costs",
                   "return_costs"),
    "nullprop": ("NullOrigin", "NullTracker", "explain_null_failure"),
    "overwrites": ("WriteReadImbalance", "write_read_imbalances"),
    "predicates": ("PredicateReport", "constant_predicates"),
    "relative": ("DEFAULT_TREE_DEPTH", "INFINITE", "ObjectCostBenefit",
                 "all_object_cost_benefits", "control_inclusive_hrac",
                 "field_racs", "field_rabs", "hrab", "hrac",
                 "multi_hop_hrab", "multi_hop_hrac", "object_cost_benefit",
                 "reference_tree"),
    "report": ("format_bloat_metrics", "format_copy_chains",
               "format_cost_benefit_report", "format_method_costs",
               "format_write_read_report"),
    "typestate": ("TypestateSpec", "TypestateTracker", "Violation",
                  "file_protocol"),
})

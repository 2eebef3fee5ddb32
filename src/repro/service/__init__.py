"""Profiling-as-a-service: the resident analysis tier.

The batch pipeline (profile → merge → analyze → report) turned out to
be a map-reduce over shards in a bounded abstract domain; this package
keeps the reduce side *resident*.  A long-lived daemon
(:class:`AnalysisDaemon`, ``python -m repro serve``) accepts
serialized profile shards over a framed socket protocol
(:mod:`repro.service.protocol`), folds them incrementally into
per-tenant merged Gcost state (:class:`TenantRegistry`, folding each
document with :func:`~repro.profiler.serialize.fold_document`, the
exact merge operator applied to its rows), and answers
report/RAC/RAB/bloat/summary/trace queries from the live graphs.
:class:`ServiceClient` / :class:`ShardPusher` are the blocking client
side (``client`` CLI subcommand, ``profile --push``).

``docs/SERVICE.md`` is the operator-facing specification: wire
format, message vocabulary, error codes, tenant and eviction
semantics, and a worked push-then-query session.
"""

from .. import _lazy_surface

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "client": ("ServiceClient", "ShardPusher", "parse_addr",
               "read_frame_sync"),
    "daemon": ("AnalysisDaemon",),
    "protocol": ("DEFAULT_MAX_FRAME", "ERROR_CODES", "MESSAGE_TYPES",
                 "QUERY_KINDS", "FrameError", "ServiceError",
                 "encode_frame"),
    "registry": ("TenantRegistry", "TenantState", "spill_filename"),
})

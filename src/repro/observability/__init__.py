"""Observability layer: run telemetry, tracing, self-profiling, reports.

Six modules, one instrumentation surface (see
``docs/OBSERVABILITY.md``):

* :mod:`~repro.observability.telemetry` — the :class:`Telemetry` hub
  (counters / gauges / timers / latency histograms, span tracing,
  JSONL sink), threaded through
  the VM, the cost tracker, the batched slicing engine, the shard
  supervisor, and the daemon; zero-cost when disabled; schema v2
  carries trace context (trace/span ids, ``pid``/``seq`` stamps) and
  relays worker-process events back into the parent's stream;
* :mod:`~repro.observability.trace` — the trace model: rebuild the
  cross-process span tree from a JSONL stream, attribute wall time
  per phase, compute the critical path (``python -m repro trace``);
* :mod:`~repro.observability.metrics` — the live-metrics format: the
  fixed-bucket latency :class:`Histogram` behind ``Telemetry.observe``
  and :func:`snapshot`, the stable-schema (:data:`METRICS_SCHEMA`)
  view of a hub the daemon serves for ``stats`` queries;
* :mod:`~repro.observability.flightrecorder` — the always-on bounded
  ring of recent telemetry events, dumped atomically to a JSONL file
  on faults / ``SIGUSR1`` / shutdown and replayable by ``repro trace``;
* :mod:`~repro.observability.overhead` — self-profiling, reporting
  tracker overhead as a ratio of untracked execution (the Table-1
  overhead-column analogue);
* :mod:`~repro.observability.bloatreport` — the Markdown / JSON bloat
  report behind ``python -m repro report``.
"""

from .. import _lazy_surface

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "bloatreport": ("bloat_report_data", "render_bloat_report"),
    "flightrecorder": ("DEFAULT_CAPACITY", "FlightRecorder", "RecorderSink",
                       "arm_signal", "current_recorder", "dump_current",
                       "install"),
    "metrics": ("LATENCY_BUCKETS", "METRICS_SCHEMA", "Histogram",
                "normalize_snapshot", "snapshot", "stable_json"),
    "overhead": ("OverheadReport", "measure_overhead", "overhead_from_dict",
                 "time_untracked"),
    "telemetry": ("DEFAULT_SAMPLE_INTERVAL", "NULL", "SCHEMA_VERSION",
                  "JsonlSink", "MemorySink", "NullTelemetry", "PipeSink",
                  "SpanHandle", "Telemetry", "TraceContext", "child_hub",
                  "current", "emit_tracker_stats", "new_trace_id",
                  "opcode_class_counts", "read_jsonl", "set_current",
                  "slot_collision_counts", "use"),
    "trace": ("Span", "Trace", "format_trace_report", "load_trace",
              "trace_from_events", "trace_to_dict"),
})

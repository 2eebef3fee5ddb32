"""The live-metrics snapshot format: histograms and stable snapshots.

The resident daemon (``python -m repro serve``) needs *queryable*
operational state — request rates, per-message-type latency
distributions, per-tenant memory accounting — without re-reading JSONL
telemetry files after the fact.  The
:class:`~repro.observability.telemetry.Telemetry` hub holds that state
(its counters, gauges, and ``Telemetry.observe`` histograms);
this module defines how it is measured and snapshotted for the
``stats`` query.  Metrics are on exactly when the command's hub is,
and inherit its zero-cost contract: the daemon guards every clock read
on ``hub.enabled``, so the :data:`~repro.observability.telemetry.NULL`
hub costs no per-request work (``tests/test_service.py`` asserts this
structurally).

Latency histograms use **fixed bucket bounds** (:data:`LATENCY_BUCKETS`,
seconds) so an ``observe`` is one bisect plus two adds — no per-sample
allocation, no reservoir, and snapshots from different daemons are
directly comparable.  p50/p95/p99 are derived from the buckets by
linear interpolation at snapshot time (upper-bounded by the bucket
ceiling, so a quantile never exaggerates a latency).

Snapshots follow a **stable JSON schema** (:data:`METRICS_SCHEMA`,
documented in ``docs/OBSERVABILITY.md``): keys are emitted sorted, and
every wall-clock-dependent field is named with an ``_s`` / ``_unix``
suffix so :func:`normalize_snapshot` can strip timing noise — two
snapshots taken after identical request loads normalize to
byte-identical JSON, which is what the service tests assert.
"""

from __future__ import annotations

import json
from bisect import bisect_left

#: Version stamped into every snapshot (bump on layout change).
METRICS_SCHEMA = 1

#: Fixed histogram bucket upper bounds, in seconds.  Spans 100 µs to
#: 10 s — the daemon's request latencies sit in the low-millisecond
#: range, heavy ``report`` queries in the hundreds of milliseconds.
#: The implicit final bucket catches everything above the last bound.
LATENCY_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                   0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                   10.0)


class Histogram:
    """One fixed-bucket latency histogram (bounds in seconds).

    ``counts`` has ``len(bounds) + 1`` cells; the last is the overflow
    bucket (observations above the largest bound).
    """

    __slots__ = ("bounds", "counts", "count", "sum_s")

    def __init__(self, bounds=LATENCY_BUCKETS):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum_s = 0.0

    def observe(self, seconds: float) -> None:
        self.counts[bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.sum_s += seconds

    def quantile(self, q: float) -> float:
        """The q-quantile (0 < q <= 1), linearly interpolated inside
        the bucket that crosses it; an overflow-bucket hit reports the
        largest finite bound (the histogram cannot resolve beyond it).
        Returns 0.0 for an empty histogram."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, cell in enumerate(self.counts):
            if cell == 0:
                continue
            if seen + cell >= rank:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                low = self.bounds[index - 1] if index else 0.0
                high = self.bounds[index]
                return low + (high - low) * (rank - seen) / cell
            seen += cell
        return self.bounds[-1]

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum_s": round(self.sum_s, 6),
            "buckets": {
                "le": [*self.bounds, "inf"],
                "counts": list(self.counts),
            },
            "p50_s": round(self.quantile(0.50), 6),
            "p95_s": round(self.quantile(0.95), 6),
            "p99_s": round(self.quantile(0.99), 6),
        }


def snapshot(hub) -> dict:
    """The hub's counters, gauges, and histograms as a stable
    JSON-ready dict (sorted keys); a disabled hub reports only
    ``{"schema", "enabled": False}``."""
    if not hub.enabled:
        return {"schema": METRICS_SCHEMA, "enabled": False}
    return {
        "schema": METRICS_SCHEMA,
        "enabled": True,
        "counters": dict(sorted(hub.counters.items())),
        "gauges": dict(sorted(hub.gauges.items())),
        "histograms": {name: histogram.snapshot()
                       for name, histogram
                       in sorted(hub.histograms.items())},
    }


# -- snapshot normalization ---------------------------------------------------

#: Key suffixes that mark wall-clock-dependent values.  Everything the
#: snapshot schema measures in wall time carries one of these, which is
#: what lets :func:`normalize_snapshot` strip timing without a schema-
#: specific field list.
TIMING_SUFFIXES = ("_s", "_unix")


def _is_timing_key(key) -> bool:
    return isinstance(key, str) and key.endswith(TIMING_SUFFIXES)


def normalize_snapshot(doc):
    """A deep copy of ``doc`` with every timing field zeroed.

    * any key ending in ``_s`` or ``_unix`` (latencies, uptimes,
      timestamps) becomes ``0``;
    * histogram bucket ``counts`` are zeroed too — *which* bucket a
      request lands in is wall-clock noise even though the total
      ``count`` is deterministic.

    Two stats responses taken after identical request loads normalize
    to equal documents; ``stable_json`` of each is byte-identical.
    """
    return _normalize(doc)


def _normalize(value, key=None):
    if isinstance(value, dict):
        if set(value) == {"le", "counts"}:   # a histogram bucket table
            return {"le": list(value["le"]),
                    "counts": [0] * len(value["counts"])}
        return {k: _normalize(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [_normalize(item, key) for item in value]
    if _is_timing_key(key) and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        return 0
    return value


def stable_json(doc) -> str:
    """Canonical serialization for byte-for-byte snapshot comparison."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))

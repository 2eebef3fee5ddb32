"""Live metrics on the telemetry hub (`repro.observability.metrics`):
fixed-bucket histograms with interpolated quantiles, the null hub's
zero-cost contract, and the stable `snapshot(hub)` schema that lets
two identical-load runs compare byte for byte."""

import json

import pytest

from repro.observability import (LATENCY_BUCKETS, METRICS_SCHEMA, NULL,
                                 Histogram, NullTelemetry, Telemetry,
                                 normalize_snapshot, snapshot,
                                 stable_json)

# -- histograms ---------------------------------------------------------------


def test_buckets_span_100us_to_10s_ascending():
    assert LATENCY_BUCKETS[0] == 0.0001
    assert LATENCY_BUCKETS[-1] == 10.0
    assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)


def test_observe_lands_in_the_right_bucket():
    histogram = Histogram()
    histogram.observe(0.0003)            # between 0.25 ms and 0.5 ms
    assert histogram.counts[LATENCY_BUCKETS.index(0.0005)] == 1
    histogram.observe(0.00025)           # exactly a bound: le semantics
    assert histogram.counts[LATENCY_BUCKETS.index(0.00025)] == 1
    assert histogram.count == 2
    assert histogram.sum_s == pytest.approx(0.00055)


def test_overflow_bucket_and_quantile_cap():
    histogram = Histogram()
    histogram.observe(60.0)              # beyond the last bound
    assert histogram.counts[-1] == 1
    # The histogram cannot resolve past its ceiling: report the
    # largest finite bound rather than inventing a number.
    assert histogram.quantile(0.5) == LATENCY_BUCKETS[-1]


def test_quantile_interpolates_within_the_bucket():
    histogram = Histogram()
    for _ in range(4):
        histogram.observe(0.0006)        # all in the (0.0005, 0.001] cell
    # rank q*4 sweeps the cell linearly from its low to its high edge.
    assert histogram.quantile(0.25) == pytest.approx(0.000625)
    assert histogram.quantile(1.0) == pytest.approx(0.001)


def test_empty_histogram_quantile_is_zero():
    assert Histogram().quantile(0.99) == 0.0


def test_histogram_snapshot_schema():
    histogram = Histogram()
    histogram.observe(0.002)
    doc = histogram.snapshot()
    assert doc["count"] == 1
    assert doc["buckets"]["le"] == [*LATENCY_BUCKETS, "inf"]
    assert len(doc["buckets"]["counts"]) == len(LATENCY_BUCKETS) + 1
    assert sum(doc["buckets"]["counts"]) == 1
    assert set(doc) == {"count", "sum_s", "buckets",
                        "p50_s", "p95_s", "p99_s"}
    json.dumps(doc)                      # JSON-ready as is


# -- the null hub --------------------------------------------------------------


def test_null_hub_is_disabled_and_inert():
    assert NULL.enabled is False
    assert isinstance(NULL, NullTelemetry)
    NULL.inc("x")
    NULL.gauge("x", 1)
    NULL.observe("x", 0.1)
    assert snapshot(NULL) == {"schema": METRICS_SCHEMA,
                              "enabled": False}


def test_daemon_defaults_to_the_null_hub():
    from repro.service import AnalysisDaemon, TenantRegistry
    daemon = AnalysisDaemon(TenantRegistry(), socket_path="/unused")
    stats = daemon.stats()
    assert stats["daemon"]["metrics_enabled"] is False
    assert stats["metrics"] == {"schema": METRICS_SCHEMA,
                                "enabled": False}
    assert daemon.health()["metrics_enabled"] is False


# -- the live hub --------------------------------------------------------------


def test_hub_counters_gauges_histograms():
    hub = Telemetry()
    assert hub.enabled is True
    hub.inc("service.requests")
    hub.inc("service.requests", 2)
    hub.gauge("service.tenants_resident", 5)
    hub.observe("service.request[ping]", 0.0002)
    doc = snapshot(hub)
    assert doc["schema"] == METRICS_SCHEMA
    assert doc["enabled"] is True
    assert doc["counters"]["service.requests"] == 3
    assert doc["gauges"]["service.tenants_resident"] == 5
    assert doc["histograms"]["service.request[ping]"]["count"] == 1
    assert set(doc) == {"schema", "enabled", "counters", "gauges",
                        "histograms"}


def test_snapshot_keys_are_sorted():
    hub = Telemetry()
    hub.inc("zz")
    hub.inc("aa")
    hub.observe("zz.lat", 0.1)
    hub.observe("aa.lat", 0.1)
    doc = snapshot(hub)
    assert list(doc["counters"]) == ["aa", "zz"]
    assert list(doc["histograms"]) == ["aa.lat", "zz.lat"]


# -- normalization / byte-for-byte stability ----------------------------------


def test_normalize_zeroes_timing_but_keeps_totals():
    hub = Telemetry()
    hub.observe("lat", 0.003)
    hub.observe("lat", 0.4)
    doc = {"uptime_s": 12.5, "last_ingest_unix": 1e9,
           "enabled": True, "metrics": snapshot(hub)}
    normalized = normalize_snapshot(doc)
    assert normalized["uptime_s"] == 0
    assert normalized["last_ingest_unix"] == 0
    assert normalized["enabled"] is True          # bool survives
    histogram = normalized["metrics"]["histograms"]["lat"]
    assert histogram["count"] == 2                # deterministic total
    assert histogram["sum_s"] == 0
    assert histogram["p95_s"] == 0
    assert set(histogram["buckets"]["counts"]) == {0}
    assert histogram["buckets"]["le"] == [*LATENCY_BUCKETS, "inf"]
    # The input is not mutated.
    assert doc["uptime_s"] == 12.5
    assert sum(doc["metrics"]["histograms"]["lat"]["buckets"]["counts"]) == 2


def test_identical_load_normalizes_byte_for_byte():
    def load(hub, latencies):
        for seconds in latencies:
            hub.inc("service.requests")
            hub.observe("service.request[push]", seconds)
        hub.gauge("service.tenants_resident", 2)

    fast, slow = Telemetry(), Telemetry()
    load(fast, [0.001, 0.002, 0.003])
    load(slow, [0.9, 1.5, 7.0])          # same load, different timings
    assert stable_json(normalize_snapshot(snapshot(fast))) == \
        stable_json(normalize_snapshot(snapshot(slow)))


def test_stable_json_is_sorted_and_compact():
    assert stable_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

"""Unit tests for the telemetry registry and its instruments."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.telemetry import (
    DEFAULT_TIME_BUCKETS,
    NULL,
    ChannelReport,
    Gauge,
    Histogram,
    PipelineReport,
    Telemetry,
    get_telemetry,
    log_buckets,
    set_default,
)

# -- instruments -------------------------------------------------------------


def test_gauge_tracks_extremes():
    g = Gauge("depth")
    for v in (3.0, -1.0, 7.0, 2.0):
        g.set(v)
    assert g.value == 2.0
    assert g.min == -1.0
    assert g.max == 7.0
    assert g.samples == 4
    g.add(10.0)
    assert g.value == 12.0
    assert g.max == 12.0


def test_log_buckets_geometric_and_covering():
    bounds = log_buckets(1e-6, 10.0, per_decade=4)
    assert bounds == tuple(sorted(bounds))
    assert bounds[0] == pytest.approx(1e-6)
    assert bounds[-1] >= 10.0
    # four per decade means adjacent edges differ by 10^(1/4)
    assert bounds[1] / bounds[0] == pytest.approx(10 ** 0.25)


def test_log_buckets_rejects_bad_range():
    with pytest.raises(ValueError):
        log_buckets(0, 1)
    with pytest.raises(ValueError):
        log_buckets(2, 1)


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram("h", (3.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        Histogram("h", ())


def test_histogram_empty_snapshot():
    h = Histogram("h")
    snap = h.snapshot()
    assert snap["count"] == 0
    assert snap["mean"] == 0.0
    assert snap["p99"] == 0.0


def test_histogram_single_value_percentiles_exact():
    h = Histogram("h")
    h.observe(0.125)
    for p in (1, 50, 90, 99, 100):
        assert h.percentile(p) == pytest.approx(0.125)


def test_histogram_overflow_bucket():
    h = Histogram("h", bounds=(1.0, 2.0))
    h.observe(100.0)
    assert h.buckets[-1] == 1
    assert h.percentile(99) == pytest.approx(100.0)
    assert h.vmax == 100.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1,
                max_size=200))
def test_histogram_percentiles_bounded_and_monotone(values):
    h = Histogram("h")
    for v in values:
        h.observe(v)
    ps = [h.percentile(p) for p in (0, 25, 50, 75, 90, 99, 100)]
    assert all(min(values) <= p <= max(values) for p in ps)
    assert ps == sorted(ps)
    assert h.mean == pytest.approx(sum(values) / len(values))


def test_histogram_median_accuracy():
    h = Histogram("h", bounds=tuple(float(i) for i in range(1, 101)))
    for v in range(1, 101):
        h.observe(float(v))
    # with one value per unit bucket the interpolated p50 must land close
    # to the true median of 50.5
    assert h.percentile(50) == pytest.approx(50.0, abs=1.0)
    assert h.percentile(90) == pytest.approx(90.0, abs=1.0)


# -- the registry ------------------------------------------------------------


def test_get_or_create_returns_same_instrument():
    tel = Telemetry()
    assert tel.gauge("g") is tel.gauge("g")
    assert tel.histogram("h") is tel.histogram("h")


def test_conveniences_record():
    tel = Telemetry()
    tel.set_gauge("g", 1.5)
    tel.observe("h", 0.01)
    assert tel.gauges["g"].value == 1.5
    assert tel.histograms["h"].count == 1


def test_clock_binds_to_sim():
    class FakeSim:
        now = 4.5

    tel = Telemetry(sim=FakeSim())
    assert tel.clock() == 4.5
    assert tel.tracer.clock() == 4.5


def test_snapshot_and_report_render():
    tel = Telemetry()
    tel.set_gauge("g", 3.0)
    tel.observe("h", 0.5)
    snap = tel.snapshot()
    assert snap["gauges"]["g"]["max"] == 3.0
    assert snap["histograms"]["h"]["count"] == 1
    text = tel.report()
    assert "gauges" in text and "histograms" in text


def test_empty_report():
    assert Telemetry().report() == "(no telemetry recorded)"


# -- disabled mode -----------------------------------------------------------


def test_null_registry_hands_out_shared_noops():
    assert NULL.gauge("a") is NULL.gauge("b")
    assert NULL.histogram("a") is NULL.histogram("b")
    assert not NULL.tracer.enabled


def test_null_instruments_record_nothing():
    NULL.set_gauge("y", 1.0)
    NULL.observe("z", 1.0)
    assert NULL.gauges == {}
    assert NULL.histograms == {}


def test_disabled_tracer_span_is_null_token():
    token = NULL.tracer.begin("work")
    assert NULL.tracer.end(token) == 0.0
    assert NULL.tracer.events == []


# -- the injectable default --------------------------------------------------


def test_default_starts_null_and_is_restorable():
    assert get_telemetry() is NULL
    mine = Telemetry()
    prev = set_default(mine)
    try:
        assert prev is NULL
        assert get_telemetry() is mine
    finally:
        set_default(None)
    assert get_telemetry() is NULL


# -- derived reports ---------------------------------------------------------


def test_channel_report_conservation_residual():
    c = ChannelReport(
        name="lobby", channel_id=1, speakers=3,
        data_sent=100, data_received=290, socket_drops=4, in_flight=6,
    )
    assert c.expected_deliveries == 300
    assert c.conservation_residual == 0


def test_channel_report_counts_send_failures_per_listener():
    c = ChannelReport(
        name="x", channel_id=1, speakers=2,
        data_sent=10, send_failures=1, data_received=18,
    )
    assert c.conservation_residual == 0


def test_pipeline_report_conservation_bounds_wire_loss():
    ch = ChannelReport(
        name="x", channel_id=1, speakers=2, data_sent=10, data_received=17,
    )
    rep = PipelineReport(duration=1.0, channels=[ch], wire_drops=2)
    assert rep.conservation_residual == 3
    assert rep.conservation_ok  # 3 <= 2 wire drops * 2 speakers
    rep.wire_drops = 1
    assert not rep.conservation_ok  # 3 > 1 * 2: packets truly unaccounted


def test_pipeline_report_summary_renders():
    ch = ChannelReport(name="x", channel_id=1, speakers=1,
                       data_sent=5, data_received=5, played=5)
    rep = PipelineReport(
        duration=2.0, channels=[ch],
        latency={"count": 5, "mean": 0.1, "p50": 0.1, "p90": 0.1,
                 "p99": 0.1, "min": 0.1, "max": 0.1},
    )
    text = rep.summary()
    assert "e2e latency" in text
    assert "conservation ok" in text
    assert rep.total_sent == 5
    assert rep.total_played == 5

"""Unit tests for the metrics registry: counters and histograms."""

import pytest

from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry


def test_counter_accumulates_ints_and_floats():
    c = Counter()
    c.inc()
    c.inc(41)
    assert c.value == 42
    c.inc(0.5)
    assert c.value == pytest.approx(42.5)
    assert c.snapshot() == pytest.approx(42.5)


# -- histogram quantile edge cases ---------------------------------------------


def test_histogram_empty_quantiles_are_zero():
    h = Histogram()
    assert h.count == 0
    assert h.mean == 0.0
    assert h.quantile(0.0) == 0.0
    assert h.quantile(0.5) == 0.0
    assert h.quantile(1.0) == 0.0
    snap = h.snapshot()
    assert snap == {"count": 0, "total": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}


def test_histogram_single_sample_is_every_quantile():
    h = Histogram()
    h.observe(3.5)
    for q in (0.0, 0.25, 0.5, 0.95, 1.0):
        assert h.quantile(q) == 3.5
    assert h.mean == 3.5


def test_histogram_quantile_out_of_range_raises():
    h = Histogram()
    h.observe(1.0)
    with pytest.raises(ValueError):
        h.quantile(-0.01)
    with pytest.raises(ValueError):
        h.quantile(1.01)


def test_histogram_nearest_rank_quantiles():
    h = Histogram()
    for x in [5.0, 1.0, 3.0, 2.0, 4.0]:  # deliberately unsorted
        h.observe(x)
    assert h.quantile(0.0) == 1.0  # q=0 is the minimum
    assert h.quantile(0.5) == 3.0
    assert h.quantile(1.0) == 5.0
    assert h.quantile(0.95) == 5.0  # ceil(0.95*5)=5 -> last element
    assert h.mean == pytest.approx(3.0)
    # observing after a quantile query keeps the lazy sort correct
    h.observe(0.5)
    assert h.quantile(0.0) == 0.5


def test_registry_get_or_create_and_kind_mismatch():
    reg = MetricsRegistry()
    c = reg.counter("tasks.done")
    assert reg.counter("tasks.done") is c
    reg.inc("tasks.done", 3)
    assert c.value == 3
    reg.observe("kernel.seconds", 0.25)
    with pytest.raises(TypeError):
        reg.histogram("tasks.done")
    with pytest.raises(TypeError):
        reg.counter("kernel.seconds")


def test_registry_snapshot_sorted_and_jsonable():
    import json

    reg = MetricsRegistry()
    reg.inc("b.counter", 2)
    reg.observe("a.hist", 1.0)
    reg.inc("c.counter")
    snap = reg.snapshot()
    assert list(snap) == ["a.hist", "b.counter", "c.counter"]
    assert snap["b.counter"] == {"kind": "counter", "value": 2}
    assert snap["a.hist"]["kind"] == "histogram"
    json.dumps(snap)

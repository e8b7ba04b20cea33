"""Histogram edge semantics and the promoted metrics registry.

The serving-side behaviour of these primitives is covered by
``tests/serve/test_metrics.py``; this file pins down the bucket-edge
and percentile guarantees the observability layer documents.
"""

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry


class TestHistogramEdges:
    def test_value_equal_to_bound_lands_in_that_bucket(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 5.0))
        hist.observe(2.0)  # == bounds[1]: bucket 1 covers (1.0, 2.0]
        assert hist.buckets == [0, 1, 0]
        assert hist.overflow == 0

    def test_value_above_last_bound_lands_in_overflow(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        hist.observe(2.0000001)
        hist.observe(100.0)
        assert hist.buckets == [0, 0]
        assert hist.overflow == 2

    def test_value_at_first_bound_lands_in_first_bucket(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        hist.observe(1.0)
        hist.observe(0.0)
        assert hist.buckets == [2, 0]

    def test_edge_placement_is_deterministic(self):
        # The same value observed repeatedly always lands in the same
        # bucket -- no float-noise flapping at the boundary.
        hist = Histogram("h", bounds=(0.001, 0.002, 0.005))
        for _ in range(100):
            hist.observe(0.002)
        assert hist.buckets == [0, 100, 0]

    def test_percentile_on_empty_histogram(self):
        hist = Histogram("h")
        assert hist.percentile(0.5) == 0.0
        assert hist.mean == 0.0

    def test_percentile_rejects_out_of_range_fraction(self):
        hist = Histogram("h")
        with pytest.raises(ValueError):
            hist.percentile(0.0)
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_percentile_on_one_sample(self):
        hist = Histogram("h", bounds=(1.0, 10.0))
        hist.observe(3.0)
        # Every percentile of a single observation is that observation.
        for fraction in (0.01, 0.5, 0.99, 1.0):
            assert hist.percentile(fraction) == pytest.approx(3.0)

    def test_percentile_clamped_to_observed_range(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 4.0, 8.0))
        hist.observe(1.5)
        hist.observe(3.0)
        assert hist.percentile(0.99) <= 3.0
        assert hist.percentile(0.01) >= 1.5

    def test_overflow_percentile_reports_observed_max(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(50.0)
        assert hist.percentile(0.99) == pytest.approx(50.0)


class TestSnapshotShape:
    def test_histogram_snapshot_exposes_raw_state(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency", bounds=(1.0, 2.0))
        hist.observe(1.5)
        hist.observe(99.0)
        snap = registry.snapshot()["histograms"]["latency"]
        assert snap["bounds"] == [1.0, 2.0]
        assert snap["buckets"] == [0, 1]
        assert snap["overflow"] == 1
        assert snap["sum"] == pytest.approx(100.5)
        assert snap["count"] == 2

    def test_counters_in_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(4)
        registry.labelled("by_kind").inc("world", 2)
        snap = registry.snapshot()
        assert snap["counters"]["requests"] == 4
        assert snap["labelled"]["by_kind"]["world"] == 2

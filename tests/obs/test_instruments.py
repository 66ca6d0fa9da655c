"""Metric instruments: counters, histograms, access statistics."""

import pytest

from repro.cluster.simulation import AccessStats
from repro.obs.registry import Counter, Histogram


class TestCounter:
    def test_add(self):
        counter = Counter("c")
        counter.add()
        counter.add(5)
        assert counter.value == 6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().add(-1)

    def test_window_delta(self):
        counter = Counter()
        counter.add(10)
        assert counter.window_delta() == 10
        counter.add(3)
        assert counter.window_delta() == 3
        assert counter.window_delta() == 0


class TestHistogram:
    def test_summary(self):
        histogram = Histogram("lat")
        histogram.observe_many([0.1, 0.2, 0.3, 0.4])
        summary = histogram.summary()
        assert summary.count == 4
        assert summary.mean_s == pytest.approx(0.25)
        assert summary.max_s == 0.4
        assert summary.p50_s == pytest.approx(0.25)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Histogram().summary()
        with pytest.raises(ValueError):
            Histogram().fraction_below(1)

    def test_fraction_below(self):
        histogram = Histogram()
        histogram.observe_many([0.05, 0.5, 1.5, 3.0])
        assert histogram.fraction_below(1.0) == 0.5
        assert histogram.fraction_below(10.0) == 1.0
        assert histogram.fraction_below(0.01) == 0.0



class TestHistogramReservoir:
    def test_sample_bounded_exact_aggregates(self):
        histogram = Histogram(reservoir=64)
        histogram.observe_many(float(i) for i in range(10_000))
        assert len(histogram.values) <= 64
        assert histogram.count == 10_000
        assert histogram.total == sum(range(10_000))
        assert histogram.max_value == 9999.0
        summary = histogram.summary()
        assert summary.count == 10_000
        assert summary.mean_s == pytest.approx(4999.5)
        assert summary.max_s == 9999.0

    def test_decimation_keeps_every_kth(self):
        histogram = Histogram(reservoir=4)
        histogram.observe_many(float(i) for i in range(9))
        # Reservoir 4 overflows twice: stride doubles 1 → 2 → 4,
        # so the retained set is every 4th observation of the stream.
        assert histogram._stride == 4
        assert histogram.values == [0.0, 4.0, 8.0]

    def test_decimation_deterministic(self):
        def build():
            histogram = Histogram(reservoir=32)
            histogram.observe_many(float(i % 97) for i in range(5_000))
            return histogram.values

        assert build() == build()

    def test_percentiles_survive_decimation(self):
        histogram = Histogram(reservoir=128)
        histogram.observe_many(float(i) for i in range(100_000))
        summary = histogram.summary()
        # Every-kth sampling of a uniform ramp keeps quantiles close.
        assert summary.p50_s == pytest.approx(50_000, rel=0.05)
        assert summary.p90_s == pytest.approx(90_000, rel=0.05)
        assert histogram.fraction_below(50_000) == pytest.approx(0.5, abs=0.05)

    def test_tiny_reservoir_rejected(self):
        with pytest.raises(ValueError):
            Histogram(reservoir=1)


class TestAccessStats:
    def test_record_accumulates_per_key(self):
        stats = AccessStats()
        stats.record("a", 5)
        stats.record("b", 10)
        stats.record("a", 1)
        assert stats.accesses == {"a": 6, "b": 10}

    def test_stddev(self):
        stats = AccessStats()
        stats.record("a", 2)
        stats.record("b", 4)
        assert stats.stddev() == 1.0

    def test_empty(self):
        assert AccessStats().stddev() == 0.0

"""Backpressure flow control tests (§4.2)."""

import pytest

from repro.common.errors import BackpressureError
from repro.raft.backpressure import BackpressureController, BoundedQueue


class TestBoundedQueue:
    def test_fifo(self):
        queue = BoundedQueue("q", max_items=10, max_bytes=1000)
        queue.push(b"a")
        queue.push(b"b")
        assert queue.pop() == b"a"
        assert queue.pop() == b"b"

    def test_item_limit(self):
        queue = BoundedQueue("q", max_items=2, max_bytes=1000)
        queue.push(b"a")
        queue.push(b"b")
        with pytest.raises(BackpressureError):
            queue.push(b"c")
        assert queue.stats.rejected == 1

    def test_byte_limit(self):
        """§4.2: 'a small number of massive inputs can also cause the
        system to overload' — byte budget binds before item budget."""
        queue = BoundedQueue("q", max_items=100, max_bytes=10)
        queue.push(b"x" * 8)
        with pytest.raises(BackpressureError):
            queue.push(b"y" * 8)

    def test_would_accept(self):
        queue = BoundedQueue("q", max_items=1, max_bytes=100)
        assert queue.would_accept(b"a")
        queue.push(b"a")
        assert not queue.would_accept(b"b")

    def test_saturation(self):
        queue = BoundedQueue("q", max_items=4, max_bytes=1000)
        assert queue.saturation == 0.0
        queue.push(b"a")
        queue.push(b"b")
        assert queue.saturation == pytest.approx(0.5)

    def test_pop_restores_capacity(self):
        queue = BoundedQueue("q", max_items=1, max_bytes=100)
        queue.push(b"a")
        queue.pop()
        queue.push(b"b")  # no error

    def test_drain(self):
        queue = BoundedQueue("q", max_items=10, max_bytes=1000)
        for i in range(5):
            queue.push(bytes([i]))
        assert queue.drain(limit=3) == [b"\x00", b"\x01", b"\x02"]
        assert queue.drain() == [b"\x03", b"\x04"]
        assert len(queue) == 0

    def test_peak_stats(self):
        queue = BoundedQueue("q", max_items=10, max_bytes=1000)
        queue.push(b"abc")
        queue.push(b"de")
        queue.pop()
        assert queue.stats.peak_items == 2
        assert queue.stats.peak_bytes == 5

    def test_custom_size_of(self):
        queue = BoundedQueue("q", max_items=10, max_bytes=10, size_of=lambda item: item["size"])
        queue.push({"size": 6})
        with pytest.raises(BackpressureError):
            queue.push({"size": 6})

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedQueue("q", max_items=0, max_bytes=1)
        with pytest.raises(ValueError):
            BoundedQueue("q", max_items=1, max_bytes=0)


class TestBackpressureController:
    def _controller(self, queue):
        return BackpressureController(
            [queue], high_watermark=0.8, low_watermark=0.5, decay=0.5, recovery=0.2
        )

    def test_decays_under_pressure(self):
        queue = BoundedQueue("q", max_items=10, max_bytes=10**9)
        controller = self._controller(queue)
        for _ in range(9):
            queue.push(b"x")
        assert controller.reevaluate() == pytest.approx(0.5)
        assert controller.reevaluate() == pytest.approx(0.25)

    def test_recovers_when_drained(self):
        queue = BoundedQueue("q", max_items=10, max_bytes=10**9)
        controller = self._controller(queue)
        for _ in range(9):
            queue.push(b"x")
        controller.reevaluate()
        queue.drain()
        assert controller.reevaluate() == pytest.approx(0.7)
        for _ in range(3):
            controller.reevaluate()
        assert controller.throttle == 1.0

    def test_hysteresis_band_freezes(self):
        queue = BoundedQueue("q", max_items=10, max_bytes=10**9)
        controller = self._controller(queue)
        for _ in range(7):  # 0.7: between low (0.5) and high (0.8)
            queue.push(b"x")
        before = controller.throttle
        assert controller.reevaluate() == before

    def test_floor_at_one_percent(self):
        queue = BoundedQueue("q", max_items=2, max_bytes=10**9)
        controller = self._controller(queue)
        queue.push(b"a")
        queue.push(b"b")
        for _ in range(20):
            controller.reevaluate()
        assert controller.throttle >= 0.01

    def test_validation(self):
        queue = BoundedQueue("q", max_items=1, max_bytes=1)
        with pytest.raises(ValueError):
            BackpressureController([queue], high_watermark=0.4, low_watermark=0.5)
        with pytest.raises(ValueError):
            BackpressureController([queue], decay=1.5)

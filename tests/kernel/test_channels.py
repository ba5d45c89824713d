"""Unit and property tests for FIFO channels."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import (
    Fifo,
    FifoEmptyError,
    FifoFullError,
    NS,
    Simulator,
    wait,
)


class TestFifoNonBlocking:
    def test_capacity_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Fifo("f", sim, capacity=0)

    def test_try_put_get(self):
        sim = Simulator()
        fifo = Fifo("f", sim, capacity=2)
        fifo.try_put("a")
        fifo.try_put("b")
        assert len(fifo) == 2
        assert len(fifo) == fifo.capacity
        with pytest.raises(FifoFullError):
            fifo.try_put("c")
        assert fifo.try_get() == "a"
        assert fifo.try_get() == "b"
        with pytest.raises(FifoEmptyError):
            fifo.try_get()

    def test_stats(self):
        sim = Simulator()
        fifo = Fifo("f", sim, capacity=4)
        for i in range(3):
            fifo.try_put(i)
        fifo.try_get()
        stats = fifo.stats()
        assert stats["puts"] == 3
        assert stats["gets"] == 1
        assert stats["max_occupancy"] == 3


class TestFifoBlocking:
    def test_producer_consumer_order(self):
        sim = Simulator()
        fifo = Fifo("f", sim, capacity=3)
        received = []

        def producer():
            for i in range(10):
                yield from fifo.put(i)

        def consumer():
            for _ in range(10):
                item = yield from fifo.get()
                received.append(item)
                yield wait(5, NS)

        sim.spawn("p", producer())
        sim.spawn("c", consumer())
        sim.run()
        assert received == list(range(10))

    def test_put_blocks_on_full(self):
        sim = Simulator()
        fifo = Fifo("f", sim, capacity=1)
        times = []

        def producer():
            yield from fifo.put("x")
            times.append(("put-x", sim.now_ps))
            yield from fifo.put("y")  # blocks until consumer reads
            times.append(("put-y", sim.now_ps))

        def consumer():
            yield wait(100, NS)
            item = yield from fifo.get()
            times.append(("got", item, sim.now_ps))

        sim.spawn("p", producer())
        sim.spawn("c", consumer())
        sim.run()
        put_y = [t for t in times if t[0] == "put-y"][0]
        assert put_y[1] == 100_000
        assert fifo.blocked_put_ps == 100_000

    def test_get_blocks_on_empty(self):
        sim = Simulator()
        fifo = Fifo("f", sim, capacity=1)
        got = []

        def consumer():
            item = yield from fifo.get()
            got.append((item, sim.now_ps))

        def producer():
            yield wait(42, NS)
            yield from fifo.put("late")

        sim.spawn("c", consumer())
        sim.spawn("p", producer())
        sim.run()
        assert got == [("late", 42_000)]
        assert fifo.blocked_get_ps == 42_000

    def test_max_occupancy_bounded_by_capacity(self):
        sim = Simulator()
        fifo = Fifo("f", sim, capacity=2)

        def producer():
            for i in range(20):
                yield from fifo.put(i)

        def consumer():
            for _ in range(20):
                yield from fifo.get()
                yield wait(1, NS)

        sim.spawn("p", producer())
        sim.spawn("c", consumer())
        sim.run()
        assert fifo.max_occupancy <= 2


@settings(max_examples=30, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=8),
    items=st.lists(st.integers(), min_size=0, max_size=50),
    consumer_delay=st.integers(min_value=0, max_value=20),
)
def test_fifo_preserves_order_and_content(capacity, items, consumer_delay):
    """Property: any FIFO delivers exactly the produced sequence, in order."""
    sim = Simulator()
    fifo = Fifo("f", sim, capacity=capacity)
    received = []

    def producer():
        for item in items:
            yield from fifo.put(item)

    def consumer():
        for _ in items:
            got = yield from fifo.get()
            received.append(got)
            if consumer_delay:
                yield wait(consumer_delay, NS)

    sim.spawn("p", producer())
    sim.spawn("c", consumer())
    sim.run()
    assert received == items
    assert fifo.max_occupancy <= capacity
    assert not sim.starved_processes

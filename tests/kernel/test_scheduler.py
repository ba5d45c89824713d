"""Unit tests for the DES scheduler: processes, events, delta cycles."""

import pytest

from repro.kernel import NS, Simulator, SimulationError, wait
from repro.kernel.process import ProcessState


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn("notagen", lambda: None)


def test_timed_wait_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield wait(10, NS)
        seen.append(sim.now_ps)
        yield wait(5, NS)
        seen.append(sim.now_ps)

    sim.spawn("p", proc())
    end = sim.run()
    assert seen == [10_000, 15_000]
    assert end == 15_000


def test_zero_time_wait_is_one_delta():
    sim = Simulator()
    order = []

    def first():
        order.append("first-start")
        yield wait(0)
        order.append("first-resume")

    def second():
        order.append("second-start")
        yield wait(0)
        order.append("second-resume")

    sim.spawn("a", first())
    sim.spawn("b", second())
    sim.run()
    # Both processes run their first segment before either resumes.
    assert order == ["first-start", "second-start", "first-resume", "second-resume"]


def test_event_notification_wakes_waiter():
    sim = Simulator()
    event = sim.event("go")
    seen = []

    def waiter():
        got = yield wait(event)
        seen.append((got, sim.now_ps))

    def notifier():
        yield wait(7, NS)
        event.notify()

    sim.spawn("w", waiter())
    sim.spawn("n", notifier())
    sim.run()
    assert seen == [(event, 7_000)]


def test_process_failure_raises_simulation_error():
    sim = Simulator()

    def bad():
        yield wait(1, NS)
        raise ValueError("boom")

    sim.spawn("bad", bad())
    with pytest.raises(SimulationError, match="bad"):
        sim.run()


def test_failure_mid_evaluate_runs_no_further_process():
    """A process failure ends the evaluate phase: the rest of the batch
    does not run."""
    sim = Simulator()
    ran = []

    def failing():
        ran.append("failing")
        raise ValueError("boom")
        yield wait(1, NS)

    def bystander():
        ran.append("bystander")
        yield wait(1, NS)

    sim.spawn("failing", failing())
    sim.spawn("bystander", bystander())
    with pytest.raises(SimulationError, match="failing"):
        sim.run()
    assert ran == ["failing"]


def test_starved_processes_reported():
    sim = Simulator()
    event = sim.event("never")

    def waiter():
        yield wait(event)

    proc = sim.spawn("w", waiter())
    sim.run()
    assert sim.starved_processes == [proc]
    assert proc.state is ProcessState.WAITING


def test_finished_event_fires():
    sim = Simulator()
    seen = []

    def worker():
        yield wait(10, NS)

    p = sim.spawn("worker", worker())

    def joiner():
        yield wait(p.finished)
        seen.append(sim.now_ps)

    sim.spawn("joiner", joiner())
    sim.run()
    assert seen == [10_000]


def test_yielding_garbage_fails_fast():
    sim = Simulator()

    def bad():
        yield 42  # not a wait request

    sim.spawn("bad", bad())
    with pytest.raises(SimulationError, match="wait"):
        sim.run()


def test_same_timestamp_actions_preserve_schedule_order():
    """Actions filed at one timestamp run in scheduling order (bucket FIFO)."""
    sim = Simulator()
    order = []

    def worker(tag, delay_ns):
        yield wait(delay_ns, NS)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.spawn(tag, worker(tag, 5))
    sim.spawn("later", worker("later", 7))
    sim.run()
    assert order == ["a", "b", "c", "later"]


def test_activation_and_delta_counters():
    sim = Simulator()

    def proc():
        for _ in range(5):
            yield wait(1, NS)

    sim.spawn("p", proc())
    sim.run()
    assert sim.activation_count >= 6  # initial + 5 resumes
    assert sim.delta_count >= 5
    assert "t=" in sim.describe()


def test_many_processes_order_deterministic():
    """Two identical runs produce identical event orderings."""

    def run_once():
        sim = Simulator()
        trace = []

        def worker(idx):
            for step in range(10):
                yield wait(1 + (idx % 3), NS)
                trace.append((idx, step, sim.now_ps))

        for i in range(20):
            sim.spawn(f"w{i}", worker(i))
        sim.run()
        return trace

    assert run_once() == run_once()

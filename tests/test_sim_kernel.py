"""Unit tests for the discrete-event kernel: clock, events, run modes."""

import pytest

from repro.sim import (
    Event,
    EventAlreadyTriggered,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_starts_at_custom_time():
    sim = Simulator(start_time=42.5)
    assert sim.now == 42.5


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(3.0)
    sim.run()
    assert sim.now == 3.0


def test_run_until_time_advances_clock_exactly():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_run_until_time_processes_due_events():
    sim = Simulator()
    fired = []

    def worker(sim):
        yield sim.timeout(2.0)
        fired.append(sim.now)

    sim.spawn(worker(sim))
    sim.run(until=5.0)
    assert fired == [2.0]


def test_run_until_past_time_raises():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def waiter(sim, delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.spawn(waiter(sim, 3.0, "c"))
    sim.spawn(waiter(sim, 1.0, "a"))
    sim.spawn(waiter(sim, 2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_creation_order():
    sim = Simulator()
    order = []

    def waiter(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("first", "second", "third"):
        sim.spawn(waiter(sim, tag))
    sim.run()
    assert order == ["first", "second", "third"]


def test_event_succeed_carries_value():
    sim = Simulator()
    event = sim.event("payload")
    results = []

    def waiter(sim, event):
        value = yield event
        results.append(value)

    sim.spawn(waiter(sim, event))
    event.succeed("hello")
    sim.run()
    assert results == ["hello"]


def test_event_double_succeed_raises():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        event.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    event = sim.event()
    caught = []

    def waiter(sim, event):
        try:
            yield event
        except RuntimeError as error:
            caught.append(str(error))

    sim.spawn(waiter(sim, event))
    event.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_event_fail_requires_exception_instance():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_run_until_event_returns_value():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(2.0)
        return "result"

    proc = sim.spawn(worker(sim))
    value = sim.run(until=proc)
    assert value == "result"
    assert sim.now == 2.0


def test_run_until_event_with_empty_heap_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        sim.run(until=event)


def test_step_on_empty_heap_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_any_of_fires_on_first():
    sim = Simulator()
    results = []

    def worker(sim):
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(5.0, value="slow")
        value = yield sim.any_of([fast, slow])
        results.append(sorted(v for v in value.values()))
        results.append(sim.now)

    sim.spawn(worker(sim))
    sim.run()
    assert results == [["fast"], 1.0]


def test_condition_rejects_foreign_events():
    sim_a = Simulator()
    sim_b = Simulator()
    foreign = sim_b.event()
    with pytest.raises(SimulationError):
        sim_a.any_of([foreign])


def test_waiting_on_processed_event_resumes_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed("early")
    sim.run()  # process the event fully
    assert event.processed
    results = []

    def late_waiter(sim, event):
        value = yield event
        results.append(value)

    sim.spawn(late_waiter(sim, event))
    sim.run()
    assert results == ["early"]


def test_rng_streams_are_stable_across_instances():
    draws_a = [Simulator(seed=9).rng("x").random() for _ in range(3)]
    draws_b = [Simulator(seed=9).rng("x").random() for _ in range(3)]
    assert draws_a == draws_b


def test_rng_streams_differ_by_label():
    sim = Simulator(seed=9)
    assert sim.rng("x").random() != sim.rng("y").random()


def test_rng_stream_is_cached_per_label():
    sim = Simulator(seed=9)
    assert sim.rng("x") is sim.rng("x")

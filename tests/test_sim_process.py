"""Unit tests for processes: lifecycle, failures, inter-process waits."""

import pytest

from repro.sim import Process, SimulationError, Simulator


def test_process_requires_generator():
    sim = Simulator()

    def not_a_generator():
        return 42

    with pytest.raises(TypeError):
        sim.spawn(not_a_generator)  # forgot to call / not a generator


def test_process_return_value_becomes_event_value():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)
        return 99

    proc = sim.spawn(worker(sim))
    sim.run()
    assert proc.value == 99


def test_process_is_alive_until_done():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(5.0)

    proc = sim.spawn(worker(sim))
    assert not proc.triggered
    sim.run(until=2.0)
    assert not proc.triggered
    sim.run()
    assert proc.triggered


def test_process_exception_propagates_to_waiter():
    sim = Simulator()
    caught = []

    def failing(sim):
        yield sim.timeout(1.0)
        raise ValueError("inner failure")

    def waiter(sim, proc):
        try:
            yield proc
        except ValueError as error:
            caught.append(str(error))

    proc = sim.spawn(failing(sim))
    sim.spawn(waiter(sim, proc))
    sim.run()
    assert caught == ["inner failure"]


def test_unwaited_process_failure_is_recorded():
    sim = Simulator()

    def failing(sim):
        yield sim.timeout(1.0)
        raise ValueError("lost")

    proc = sim.spawn(failing(sim))
    sim.run()
    assert isinstance(proc.exception, ValueError)


def test_process_waits_on_another_process():
    sim = Simulator()
    log = []

    def child(sim):
        yield sim.timeout(2.0)
        log.append(("child-done", sim.now))
        return "child-value"

    def parent(sim):
        value = yield sim.spawn(child(sim))
        log.append(("parent-got", value, sim.now))

    sim.spawn(parent(sim))
    sim.run()
    assert log == [("child-done", 2.0), ("parent-got", "child-value", 2.0)]


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 42

    proc = sim.spawn(bad(sim))
    sim.run()
    assert isinstance(proc.exception, SimulationError)


def test_yielding_foreign_event_fails_process():
    sim = Simulator()
    other = Simulator()

    def bad(sim, foreign):
        yield foreign

    proc = sim.spawn(bad(sim, other.event()))
    sim.run()
    assert isinstance(proc.exception, SimulationError)


def test_process_repr_contains_name():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)

    proc = sim.spawn(worker(sim), name="inquiry-loop")
    assert "inquiry-loop" in repr(proc)
    sim.run()


def test_process_bootstrap_runs_at_spawn_time_not_creation_order():
    """Two processes spawned at t=0 both start at t=0, in spawn order."""
    sim = Simulator()
    starts = []

    def worker(sim, tag):
        starts.append((tag, sim.now))
        yield sim.timeout(1.0)

    sim.spawn(worker(sim, "a"))
    sim.spawn(worker(sim, "b"))
    sim.run()
    assert starts == [("a", 0.0), ("b", 0.0)]


def test_process_is_event_usable_in_conditions():
    sim = Simulator()
    results = []

    def quick(sim):
        yield sim.timeout(1.0)
        return "quick"

    def slow(sim):
        yield sim.timeout(9.0)
        return "slow"

    def watcher(sim, a, b):
        value = yield sim.any_of([a, b])
        results.append(list(value.values()))

    a: Process = sim.spawn(quick(sim))
    b: Process = sim.spawn(slow(sim))
    sim.spawn(watcher(sim, a, b))
    sim.run()
    assert results == [["quick"]]

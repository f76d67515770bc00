"""Unit tests for the Store primitive."""

from repro.sim import Simulator, Store


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    request = store.get()
    assert request.triggered
    sim.run()
    assert request.value == "x"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    received = []

    def consumer(sim, store):
        item = yield store.get()
        received.append((item, sim.now))

    def producer(sim, store):
        yield sim.timeout(3.0)
        store.put("late-item")

    sim.spawn(consumer(sim, store))
    sim.spawn(producer(sim, store))
    sim.run()
    assert received == [("late-item", 3.0)]


def test_store_fifo_ordering():
    sim = Simulator()
    store = Store(sim)
    for item in (1, 2, 3):
        store.put(item)
    out = []

    def consumer(sim, store):
        for _ in range(3):
            item = yield store.get()
            out.append(item)

    sim.spawn(consumer(sim, store))
    sim.run()
    assert out == [1, 2, 3]


def test_store_multiple_getters_served_fifo():
    sim = Simulator()
    store = Store(sim)
    out = []

    def consumer(sim, store, tag):
        item = yield store.get()
        out.append((tag, item))

    sim.spawn(consumer(sim, store, "first"))
    sim.spawn(consumer(sim, store, "second"))
    sim.run(until=1.0)
    assert store.pending_getters == 2
    store.put("a")
    store.put("b")
    sim.run()
    assert out == [("first", "a"), ("second", "b")]

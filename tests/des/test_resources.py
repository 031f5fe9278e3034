"""Unit tests for the Store primitive."""

from repro.des import Simulator, Store


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("msg1")
    store.put("msg2")

    def proc(sim, store):
        a = yield store.get()
        b = yield store.get()
        return [a, b]

    p = sim.process(proc(sim, store))
    sim.run()
    assert p.value == ["msg1", "msg2"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def getter(sim, store):
        item = yield store.get()
        return (item, sim.now)

    def putter(sim, store):
        yield sim.timeout(4)
        store.put("late")

    p = sim.process(getter(sim, store))
    sim.process(putter(sim, store))
    sim.run()
    assert p.value == ("late", 4.0)


def test_store_try_get_nonblocking():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put(7)
    assert len(store) == 1
    assert store.try_get() == 7
    assert store.try_get() is None


def test_store_multiple_getters_fifo():
    sim = Simulator()
    store = Store(sim)
    results = []

    def getter(sim, store, tag):
        item = yield store.get()
        results.append((tag, item))

    for tag in ("g1", "g2"):
        sim.process(getter(sim, store, tag))

    def putter(sim, store):
        yield sim.timeout(1)
        store.put("first")
        yield sim.timeout(1)
        store.put("second")

    sim.process(putter(sim, store))
    sim.run()
    assert results == [("g1", "first"), ("g2", "second")]

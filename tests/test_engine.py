import pytest
from hypothesis import given, strategies as st

from manetsim.engine import Engine, EventKind, RngStream, SimulationError, StreamFactory


def test_events_processed_in_time_order():
    eng = Engine()
    order = []
    for t in (5.0, 1.0, 3.0):
        eng.schedule(t, EventKind.TIMER, lambda t=t: order.append(t))
    assert eng.run_until(10.0) == 3
    assert order == [1.0, 3.0, 5.0]
    assert eng.now == 10.0


def test_equal_time_fifo_tie_break():
    eng = Engine()
    order = []
    eng.schedule(7.0, EventKind.TIMER, lambda: order.append("A"))
    eng.schedule(7.0, EventKind.TIMER, lambda: order.append("B"))
    eng.run_until(7.0)
    assert order == ["A", "B"]


def test_empty_queue_run():
    eng = Engine()
    assert eng.run_until(120.0) == 0
    assert eng.now == 120.0


def test_near_simultaneous_events_run_in_time_order():
    eng = Engine()
    order = []
    eng.schedule(1.0 + 1e-12, EventKind.TIMER, lambda: order.append("later"))
    eng.schedule(1.0, EventKind.TIMER, lambda: order.append("earlier"))
    eng.run_until(2.0)
    assert order == ["earlier", "later"]


def test_schedule_in_past_is_hard_fault():
    eng = Engine()
    eng.schedule(3.0, EventKind.TIMER, lambda: None)
    eng.run_until(3.0)
    with pytest.raises(SimulationError):
        eng.schedule(2.0, EventKind.TIMER, lambda: None)
    with pytest.raises(SimulationError):
        eng.schedule(3.0 - 2e-9, EventKind.TIMER, lambda: None)
    # at or just behind the clock is clamped to it, not a fault
    fired = []
    assert eng.schedule(3.0, EventKind.TIMER, lambda: fired.append(eng.now))[0] == 3.0
    assert eng.schedule(3.0 - 5e-10, EventKind.TIMER, lambda: fired.append(eng.now))[0] == 3.0
    eng.run_until(3.0)
    assert fired == [3.0, 3.0]


def test_reserved_number_breaks_ties_from_its_reservation():
    eng = Engine()
    order = []
    base = eng.reserve(2)
    eng.schedule(5.0, EventKind.TIMER, lambda: order.append("scheduled"))
    # pushed after the plain event, but numbered before it
    eng.schedule_reserved(5.0, base + 1, EventKind.TIMER, lambda: order.append("second"))
    eng.schedule_reserved(5.0, base, EventKind.TIMER, lambda: order.append("first"))
    assert eng.reserve(0) == base + 3
    eng.run_until(5.0)
    assert order == ["first", "second", "scheduled"]


def test_reserved_push_in_past_is_hard_fault():
    eng = Engine()
    base = eng.reserve(3)
    eng.schedule(3.0, EventKind.TIMER, lambda: None)
    eng.run_until(3.0)
    with pytest.raises(SimulationError):
        eng.schedule_reserved(2.0, base, EventKind.TIMER, lambda: None)
    with pytest.raises(SimulationError):
        eng.schedule_reserved(3.0 - 2e-9, base, EventKind.TIMER, lambda: None)
    # just behind the clock is clamped to it, as schedule() does
    fired = []
    handle = eng.schedule_reserved(
        3.0 - 5e-10, base + 1, EventKind.TIMER, lambda: fired.append(eng.now)
    )
    assert handle[:2] == [3.0, base + 1]
    eng.run_until(3.0)
    assert fired == [3.0]


def test_cancelled_event_never_fires():
    eng = Engine()
    fired = []
    handle = eng.schedule(1.0, EventKind.TIMER, lambda: fired.append(1))
    eng.cancel(handle)
    eng.run_until(5.0)
    assert fired == []


def test_cancelled_event_is_not_counted():
    eng = Engine()
    handles = [eng.schedule(t, EventKind.TIMER, lambda: None) for t in (1.0, 2.0, 3.0)]
    eng.cancel(handles[1])
    assert eng.run_until(5.0) == 2
    assert eng.processed == 2


def test_cancelling_a_fired_event_is_a_noop():
    eng = Engine()
    fired = []
    handle = eng.schedule(1.0, EventKind.TIMER, lambda: fired.append(eng.now))
    eng.schedule(2.0, EventKind.TIMER, lambda: fired.append(eng.now))
    eng.run_until(1.0)
    eng.cancel(handle)
    assert eng.run_until(5.0) == 1
    assert fired == [1.0, 2.0]
    assert eng.processed == 2


def test_events_scheduled_during_run_are_processed():
    eng = Engine()
    seen = []

    def first():
        seen.append(eng.now)
        eng.schedule(eng.now + 1.0, EventKind.TIMER, lambda: seen.append(eng.now))

    eng.schedule(1.0, EventKind.TIMER, first)
    eng.run_until(10.0)
    assert seen == [1.0, 2.0]


@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=40))
def test_clock_never_decreases(times):
    eng = Engine()
    stamps = []
    for t in times:
        eng.schedule(t, EventKind.TIMER, lambda: stamps.append(eng.now))
    eng.run_until(101.0)
    assert stamps == sorted(stamps)
    assert len(stamps) == len(times)


def test_rng_streams_reproducible_and_independent():
    a = RngStream(42, "mobility/3")
    b = RngStream(42, "mobility/3")
    c = RngStream(42, "mobility/4")
    seq_a = [a.random() for _ in range(20)]
    seq_b = [b.random() for _ in range(20)]
    seq_c = [c.random() for _ in range(20)]
    assert seq_a == seq_b
    assert seq_a != seq_c


def test_stream_factory_caches_streams():
    factory = StreamFactory(7)
    s1 = factory.stream("traffic")
    s1.random()
    s2 = factory.stream("traffic")
    assert s1 is s2

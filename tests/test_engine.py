import contextlib
import gc
import math
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from manetsim import parse_scenario, runner
from manetsim.engine import TIME_EPSILON, Engine, EventKind, RngStream, SimulationError
from manetsim.runner import run_scenario
from manetsim.traffic import FlowSpec

from conftest import BASELINE, HeapEngine, run_outcome, small_scenarios


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


def test_ranked_pushes_run_by_rank_then_push_order():
    eng = Engine()
    order = []
    eng.schedule(5.0, EventKind.TIMER, lambda: order.append("plain"))
    # pushed after the plain event, but ranked below every fresh number
    eng.schedule_ranked(5.0, -1, EventKind.TIMER, lambda: order.append("-1 first"))
    eng.schedule_ranked(5.0, -2, EventKind.TIMER, lambda: order.append("-2"))
    eng.schedule_ranked(5.0, -1, EventKind.TIMER, lambda: order.append("-1 second"))
    # a ranked push takes no number from schedule()
    assert eng.schedule(6.0, EventKind.TIMER, lambda: None)[1] == 1
    eng.run_until(5.0)
    assert order == ["-2", "-1 first", "-1 second", "plain"]


def test_ranked_push_in_past_is_hard_fault():
    eng = Engine()
    eng.schedule(3.0, EventKind.TIMER, lambda: None)
    eng.run_until(3.0)
    with pytest.raises(SimulationError):
        eng.schedule_ranked(2.0, -1, EventKind.TIMER, lambda: None)
    with pytest.raises(SimulationError):
        eng.schedule_ranked(3.0 - 2e-9, -1, EventKind.TIMER, lambda: None)
    # just behind the clock is clamped to it, as schedule() does
    fired = []
    handle = eng.schedule_ranked(3.0 - 5e-10, -1, EventKind.TIMER, lambda: fired.append(eng.now))
    assert handle[:2] == [3.0, -1]
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


@pytest.mark.parametrize("time", [math.nan, -math.nan])
def test_nan_time_is_hard_fault(time):
    eng = Engine()
    with pytest.raises(SimulationError, match="nan: not a number"):
        eng.schedule(time, EventKind.TIMER, lambda: None)
    with pytest.raises(SimulationError, match="nan: not a number"):
        eng.schedule_ranked(time, -1, EventKind.TIMER, lambda: None)
    # a NaN end is refused with the clock left where it was
    with pytest.raises(SimulationError, match=r"run_until\(nan\): not a number"):
        eng.run_until(time)
    assert eng.now == 0.0
    eng.schedule(1.0, EventKind.TIMER, lambda: None)
    assert eng.run_until(math.inf) == 1


@pytest.mark.parametrize("raising", [False, True])
@pytest.mark.parametrize("collecting", [True, False])
def test_run_until_pauses_the_collector_and_restores_the_callers_setting(collecting, raising):
    seen = []

    def event():
        seen.append(gc.isenabled())
        if raising:
            raise RuntimeError("callback failed")

    eng = Engine()
    eng.schedule(1.0, EventKind.TIMER, event)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        with pytest.raises(RuntimeError) if raising else contextlib.nullcontext():
            eng.run_until(2.0)
        assert seen == [False]
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_a_baseline_run_makes_no_collector_pass_inside_the_loop():
    # a pass is inside the loop when run_until is on the stack that set it off
    loop = Engine.run_until.__code__
    inside = []

    def on_gc(phase, info):
        if phase == "start":
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not loop:
                frame = frame.f_back
            if frame is not None:
                inside.append(info["generation"])

    sc = parse_scenario(BASELINE.read_text()).variant(duration=20.0)
    assert gc.isenabled()
    gc.callbacks.append(on_gc)
    try:
        result = run_scenario(sc)
    finally:
        gc.callbacks.remove(on_gc)
    assert result.report.delivered > 0
    assert inside == []


class Boom(Exception):
    pass


# Absolute times share instants and include a pair 1e-12 apart; offsets from
# the clock include one clamped to it and one refused.
TIMES = [0.0, 0.5, 1.0, 1.0 + 1e-12, 2.0, 3.0]
OFFSETS = [-2 * TIME_EPSILON, -TIME_EPSILON / 2, 0.0, 0.0, 1e-12, 0.5, 1.0]
RUN_ENDS = [0.0, 0.5, 1.0, 1.0 + 5e-13, 2.0, 0.25]

# A push takes a fresh insertion number (rank None) or one of a few negative
# ranks, which pushes may share; inside a running event its time is an offset
# from the clock. A running event may also cancel a handle, pending or
# already run, or raise.
def push_op(times):
    return st.tuples(
        st.just("push"), st.none() | st.integers(-3, -1), st.integers(0, len(times) - 1),
        st.integers(0, 7),
    )


CANCEL_OP = st.tuples(st.just("cancel"), st.integers(0, 63))
SUB_OP = push_op(OFFSETS) | CANCEL_OP | st.tuples(st.just("raise"))
TOP_OP = (
    push_op(TIMES) | CANCEL_OP
    | st.tuples(st.just("run"), st.integers(0, len(RUN_ENDS) - 1))
)


def replay(eng, actions, ops):
    """Run one drawn program on `eng`; returns everything it observed."""
    log, handles = [], []

    def push(rank, time, action):
        label = len(handles)

        def fn():
            log.append(("ran", label, eng.now))
            for op, *args in actions[action]:
                if op == "raise":
                    raise Boom(label)
                if op == "cancel":
                    eng.cancel(handles[args[0] % len(handles)])
                elif len(handles) < 120:
                    push(args[0], eng.now + OFFSETS[args[1]], args[2])

        try:
            handles.append(
                eng.schedule(time, EventKind.TIMER, fn) if rank is None
                else eng.schedule_ranked(time, rank, EventKind.TIMER, fn)
            )
        except SimulationError:
            log.append(("refused", label))

    def run(t_end):
        try:
            log.append(("run", eng.run_until(t_end), eng.now))
        except (Boom, SimulationError) as exc:
            log.append(("raised", type(exc).__name__, eng.now))

    for op, *args in ops:
        if op == "push":
            push(args[0], TIMES[args[1]], args[2])
        elif op == "cancel" and handles:
            eng.cancel(handles[args[0] % len(handles)])
        elif op == "run":
            run(RUN_ENDS[args[0]])
    for _ in range(len(handles) + 1):  # each raise spends one event
        run(10.0)
    return log, eng.processed, eng.now


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(SUB_OP, max_size=4), min_size=8, max_size=8),
    st.lists(TOP_OP, max_size=30),
)
def test_event_order_matches_a_single_heap(actions, ops):
    assert replay(Engine(), actions, ops) == replay(HeapEngine(), actions, ops)


@st.composite
def twin_scenarios(draw):
    """small_scenarios, half of them with 1-4 explicit flows at mixed
    intervals and shared starts, so the ticks of several flows and the hello
    ticks fall on the same instants."""
    sc = draw(small_scenarios())
    if draw(st.booleans()):
        n = sc.node_count
        starts = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=1, max_size=2))
        pairs = draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), min_size=1, max_size=4
        ))
        flows = []
        for src, step in pairs:  # the destination is `step` ids on, never the source
            interval = draw(st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]))
            start = draw(st.sampled_from(starts))
            flows.append(FlowSpec(src, (src + step) % n, sc.payload, interval, start, sc.duration))
        sc.flows = flows
    return sc


def run_on(engine_cls, sc):
    """One traced run of `sc` on a fresh `engine_cls`: its trace digest,
    report row and event count."""
    engines = []

    def make():
        engines.append(engine_cls())
        return engines[-1]

    with mock.patch.object(runner, "Engine", make):
        digest, row = run_outcome(sc)
    return digest, row, engines[0].processed


@settings(max_examples=100, deadline=None)
@given(twin_scenarios())
def test_whole_runs_match_on_the_heap_twin(sc):
    assert run_on(Engine, sc) == run_on(HeapEngine, sc)


def test_rng_streams_reproducible_and_independent():
    a = RngStream(42, "mobility/3")
    b = RngStream(42, "mobility/3")
    c = RngStream(42, "mobility/4")
    seq_a = [a.random() for _ in range(20)]
    seq_b = [b.random() for _ in range(20)]
    seq_c = [c.random() for _ in range(20)]
    assert seq_a == seq_b
    assert seq_a != seq_c


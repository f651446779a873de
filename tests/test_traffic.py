from pathlib import Path

import pytest

from manetsim import Scenario, parse_scenario
from manetsim.engine import EventKind, RngStream
from manetsim.runner import build_network, resolve_flows
from manetsim.traffic import FlowSpec, TrafficSource, generate_flows

from conftest import pending_events, static_model

BASELINE = Path(__file__).resolve().parent.parent / "scenarios" / "baseline.scn"


def started(flows, duration=120.0):
    """A static two-node network with `flows` started on it, nothing run."""
    sc = Scenario(node_count=2, duration=duration, flows=flows)
    net = build_network(sc, mobility=static_model([(0, 0), (100, 0)]))
    TrafficSource(flows, net).start()
    return net


def sends(net, until):
    """(flow, data_seq, sent_at) of every send up to `until`, in send order."""
    net.engine.run_until(until)
    return [(r.flow_id, r.data_seq, r.sent_at) for r in net.metrics.records.values()]


def pending_ticks(engine):
    """Pending entries [time, seq, fn] whose callback a TrafficSource armed."""
    return [
        entry for entry in pending_events(engine)
        if entry[2] is not None and entry[2].__qualname__.startswith("TrafficSource.")
    ]


def test_cbr_packet_count():
    net = started([FlowSpec(0, 1, 512, 0.25, 1.0, 120.0, flow_id=0)])
    times = [t for _, _, t in sends(net, 200.0)]
    assert len(times) == 477
    assert times[0] == 1.0
    assert times[-1] == pytest.approx(120.0)


def test_offered_load_arithmetic():
    flow = FlowSpec(0, 1, 512, 0.25, 1.0, 120.0)
    offered_kbps = flow.payload * 8 / flow.interval / 1000
    assert offered_kbps == pytest.approx(16.384)


def test_emission_spacing_is_exact():
    net = started([FlowSpec(0, 1, 512, 0.5, 0.0, 10.0, flow_id=0)], duration=10.0)
    times = [t for _, _, t in sends(net, 10.0)]
    assert len(times) == 21
    for a, b in zip(times, times[1:]):
        assert b - a == pytest.approx(0.5)


def baseline_started(**overrides):
    sc = parse_scenario(BASELINE.read_text()).variant(**overrides)
    net = build_network(sc)
    flows = resolve_flows(sc)
    TrafficSource(flows, net).start()
    return net, flows


def test_one_pending_tick_per_flow():
    net, flows = baseline_started()
    ticks = pending_ticks(net.engine)
    assert len(ticks) == len(flows) == 8
    assert sorted(time for time, _, _ in ticks) == [f.start for f in flows]
    # every send's insertion number is taken at start, as if each were
    # scheduled up front: 8 flows x 1191 sends over [1, 120] at 0.1 s
    assert net.engine.reserve(0) == 9528


def test_tiny_interval_starts_at_once():
    net, flows = baseline_started(interval=1e-9)
    assert len(pending_ticks(net.engine)) == len(flows) == 8
    net.engine.run_until(1.0 + 2.5e-9)
    assert len(net.metrics.records) == 3 * 8


def test_tick_wins_tie_with_later_event():
    net = started([FlowSpec(0, 1, 512, 0.5, 1.0, 3.0, flow_id=0)])
    seen = []
    # tick 2 (t = 2.0) is only pushed when tick 1 fires, after this event
    net.engine.schedule(2.0, EventKind.TIMER, lambda: seen.append(len(net.metrics.records)))
    net.engine.run_until(3.0)
    assert seen == [3]


def test_equal_flows_emit_in_flow_order():
    net = started([
        FlowSpec(0, 1, 512, 0.25, 1.0, 3.0, flow_id=0),
        FlowSpec(1, 0, 512, 0.25, 1.0, 3.0, flow_id=1),
    ])
    sent = sends(net, 3.0)
    assert len(sent) == 2 * 9
    for k, (first, second) in enumerate(zip(sent[::2], sent[1::2])):
        assert (first[0], second[0]) == (0, 1)
        assert first[1] == second[1] == k
        assert first[2] == second[2]


def test_generate_flows_distinct_pairs():
    rng = RngStream(4, "traffic")
    flows = generate_flows(20, 10, 512, 0.25, 1.0, 120.0, rng)
    assert len(flows) == 10
    pairs = [(f.src, f.dest) for f in flows]
    assert len(set(pairs)) == 10
    assert all(f.src != f.dest for f in flows)
    assert all(0 <= f.src < 20 and 0 <= f.dest < 20 for f in flows)


def test_generate_flows_reproducible():
    a = generate_flows(20, 5, 512, 0.25, 1.0, 120.0, RngStream(4, "traffic"))
    b = generate_flows(20, 5, 512, 0.25, 1.0, 120.0, RngStream(4, "traffic"))
    assert a == b
    c = generate_flows(20, 5, 512, 0.25, 1.0, 120.0, RngStream(5, "traffic"))
    assert a != c


def test_generate_flows_exhausts_pairs():
    rng = RngStream(1, "traffic")
    flows = generate_flows(3, 6, 512, 0.25, 0.0, 1.0, rng)
    assert sorted((f.src, f.dest) for f in flows) == [
        (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1),
    ]
    with pytest.raises(ValueError):
        generate_flows(3, 7, 512, 0.25, 0.0, 1.0, rng)


def test_flow_validation():
    with pytest.raises(ValueError):
        FlowSpec(0, 0, 512, 0.25, 0.0, 1.0).validate(5)
    with pytest.raises(ValueError):
        FlowSpec(0, 9, 512, 0.25, 0.0, 1.0).validate(5)
    with pytest.raises(ValueError):
        FlowSpec(0, 1, 512, 0.25, 2.0, 1.0).validate(5)
    with pytest.raises(ValueError):
        FlowSpec(0, 1, 512, -0.25, 0.0, 1.0).validate(5)
    FlowSpec(0, 1, 512, 0.25, 0.0, 1.0).validate(5)

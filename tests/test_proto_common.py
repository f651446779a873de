import pytest
from hypothesis import given, strategies as st

from manetsim import Scenario
from manetsim.proto_common import SEQ_SPACE, ProtocolParams, fresher
from manetsim.runner import build_network
from manetsim.traffic import TrafficSource

from conftest import departing_model, static_model


def test_fresher_basic():
    assert fresher(5, 3)
    assert not fresher(3, 5)


def test_fresher_equality():
    assert not fresher(4, 4)


def test_fresher_wraparound():
    assert fresher(0, 2**31 - 1)
    assert not fresher(2**31 - 1, 0)


@given(st.integers(min_value=0, max_value=SEQ_SPACE - 1), st.integers(min_value=0, max_value=SEQ_SPACE - 1))
def test_fresher_never_both_ways(a, b):
    assert not (fresher(a, b) and fresher(b, a))


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(rreq_retries=0).validate()
    with pytest.raises(ValueError):
        ProtocolParams(n0=2, s0=2).validate()
    ProtocolParams().validate()


def make_pair_net(protocol="aodv", mobility=None, duration=30.0, **proto_kw):
    sc = Scenario(node_count=2, duration=duration, protocol=protocol)
    for key, value in proto_kw.items():
        setattr(sc.proto, key, value)
    net = build_network(sc, with_trace=True, mobility=mobility or static_model([(0, 0), (100, 0)]))
    for r in net.routers:
        r.start_maintenance()
    return net


def test_hello_deadline_refresh_rule():
    # hello_interval=1, allowed_hello_loss=2: a hello at t sets deadline t+2
    net = make_pair_net()
    net.routers[1].hello_deadline.clear()
    from manetsim.proto_common import Hello

    net.engine.run_until(10.0)
    net.routers[1]._on_hello(Hello(0, 1), sender=0)
    assert net.routers[1].hello_deadline[0] == 12.0


def test_no_hello_without_active_route():
    net = make_pair_net()
    net.engine.run_until(20.0)
    assert net.trace.count("tx_hello") == 0


def test_hello_flows_on_active_route():
    from manetsim.engine import EventKind
    from manetsim.proto_common import Data

    net = make_pair_net()
    pkt = Data(0, 1, 512, 0, 1.0, 0, 0, traversed=[0])
    net.metrics.on_sent(pkt)
    net.engine.schedule(
        1.0, EventKind.TIMER, lambda: net.routers[0].send_data(pkt)
    )
    net.engine.run_until(10.0)
    assert net.trace.count("tx_hello") > 0


def test_neighbor_departure_detected_one_break():
    # node 1 walks out of range; exactly one break event at node 0
    from manetsim.runner import run_scenario
    from manetsim.traffic import FlowSpec

    mobility = departing_model(
        [(0, 0), (100, 0)], movers={1: (5.0, (2000.0, 0.0), 50.0)}
    )
    sc = Scenario(
        node_count=2,
        duration=30.0,
        flows=[FlowSpec(0, 1, 512, 0.25, 1.0, 29.0)],
    )
    result = run_scenario(sc, with_trace=True, mobility=mobility)
    assert result.report.protocol_events.get("link_break", 0) == 1


def test_forced_death_detected_within_allowance():
    # neighbor dies of energy depletion; break detected within
    # allowed_hello_loss * hello_interval of its last sign of life
    from manetsim.traffic import FlowSpec

    sc = Scenario(
        node_count=2,
        duration=30.0,
        flows=[FlowSpec(0, 1, 512, 0.25, 1.0, 29.0)],
    )
    net = build_network(sc, with_trace=True, mobility=static_model([(0, 0), (100, 0)]))
    # leave the destination just enough charge for the first seconds
    net.energy.states[1].remaining_pj = round(0.008 * 1e12)
    TrafficSource(
        [FlowSpec(0, 1, 512, 0.25, 1.0, 29.0, flow_id=0)], net.ctx
    ).start()
    for r in net.routers:
        r.start_maintenance()
    net.engine.run_until(30.0)

    death_times = [
        float(line.split()[0])
        for line in net.trace.lines
        if " death " in line and line.split()[1] == "1"
    ]
    break_times = [
        float(line.split()[0]) for line in net.trace.lines if " link_break " in line
    ]
    assert death_times and break_times
    allowance = sc.proto.allowed_hello_loss * sc.proto.hello_interval
    # the dead node's last hello predates death, so detection must come
    # within one allowance of the death itself
    assert break_times[0] - death_times[0] <= allowance + 1e-9

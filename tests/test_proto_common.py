import gc
import math

import pytest
from hypothesis import given, strategies as st

from manetsim import Scenario, parse_scenario
from manetsim.engine import EventKind, SimulationError
from manetsim.proto_common import HELLO, SEQ_SPACE, Data, RouterBase, fresher
from manetsim.runner import build_network, run_scenario
from manetsim.traffic import TrafficSource

from conftest import BASELINE, departing_model, pending_events, static_model
from test_golden import assert_pin


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


def make_pair_net(protocol="aodv", mobility=None, duration=30.0, **proto_kw):
    sc = Scenario(node_count=2, duration=duration, protocol=protocol)
    for key, value in proto_kw.items():
        setattr(sc.proto, key, value)
    net = build_network(sc, with_trace=True, mobility=mobility or static_model([(0, 0), (100, 0)]))
    for r in net.routers:
        r.start_maintenance()
    return net


@pytest.mark.parametrize("protocol", ["aodv", "maodv"])
def test_derived_timings_on_baseline(protocol):
    sc = parse_scenario(BASELINE.read_text()).variant(protocol=protocol)
    net = build_network(sc)
    p = sc.proto
    assert p.rrep_wait == 0 and p.discovery_timeout == 0
    w, h = sc.mobility.area
    diameter = math.ceil(math.hypot(w, h) / sc.radio.range) + 1
    airtime = p.control_bytes * 8 / sc.radio.bandwidth
    rrep_wait = 2 * diameter * airtime
    assert net.rrep_wait == rrep_wait
    assert net.discovery_timeout == 4 * (diameter + p.mpath_slack) * airtime + rrep_wait + 0.005
    # 800 x 600 m at 250 m range is 5 hops; a 64-byte frame at 2 Mb/s is 256 us
    assert net.rrep_wait == pytest.approx(2 * 5 * 256e-6)
    assert net.discovery_timeout == pytest.approx(4 * 7 * 256e-6 + 2.56e-3 + 0.005)
    assert all(r.ctx is net for r in net.routers)


# the `rreq_dispatch` pins of tests/golden.json's baseline runs at n = 100,
# seed 1: the RREQ receptions, and those that reach on_frame; the radio turns
# the rest away before dispatch, by each copy's route record and its flood's
# table (RFC 3561 6.5 for AODV, the floods a MAODV node has closed)
@pytest.mark.parametrize("protocol", ["aodv", "maodv"])
def test_discarded_request_copies_never_reach_dispatch(protocol):
    assert_pin(f"baseline/{protocol}/100/1", "rreq_dispatch")


def test_explicit_timings_used_as_given():
    base = parse_scenario(BASELINE.read_text())
    derived = build_network(base)
    net = build_network(base.variant(rrep_wait=0.5))
    assert net.rrep_wait == 0.5
    # the derived timeout waits out the collection window it is given
    assert net.discovery_timeout == pytest.approx(
        derived.discovery_timeout - derived.rrep_wait + 0.5
    )
    net = build_network(base.variant(discovery_timeout=2))
    assert net.discovery_timeout == 2.0
    assert net.rrep_wait == derived.rrep_wait
    # a discovery started at t=0 retries at t=2
    assert net.routers[0].start_discovery(1).timer[0] == 2.0


# Baseline keys replaced for the runs that must leave no reference cycle:
# the plain baseline; the lossy, delayed, 2 J stress shape of the CI run on
# the baseline, where nodes die, discoveries retry and routes break; and the
# late-copy shape of tests/test_golden.py, whose request copies arrive after
# their flood's cache entry has expired.
RUN_SHAPES = {
    "baseline": {"duration": 20.0},
    "stress": {
        "duration": 60.0, "loss_prob": 0.05, "propagation_delay": 2e-5, "initial_energy": 2,
    },
    "late-copy": {"duration": 8.0, "propagation_delay": 0.004, "rreq_id_cache_ttl": 0.5},
}


@pytest.mark.parametrize(
    "protocol,shape",
    [
        pytest.param(p, shape, id=p if shape == "baseline" else f"{p}-{shape}")
        for shape in RUN_SHAPES
        for p in ("aodv", "maodv")
    ],
)
def test_finished_run_is_freed_without_the_cycle_collector(protocol, shape):
    sc = parse_scenario(BASELINE.read_text()).variant(protocol=protocol, **RUN_SHAPES[shape])
    gc.collect()
    gc.disable()
    try:
        result = run_scenario(sc, with_trace=True)
        assert result.trace.lines
        if shape == "stress":
            assert all(result.trace.count(e) for e in ("death", "discovery_retry", "tx_rerr"))
        del result
        assert gc.collect() == 0  # no unreachable cycle was left behind
    finally:
        gc.enable()


def test_hello_deadline_refresh_rule():
    # hello_interval=1, allowed_hello_loss=2: a hello received at t sets deadline t+2
    net = make_pair_net()
    p = net.scenario.proto
    assert p.allowed_hello_loss * p.hello_interval == 2.0
    net.routers[1].hello_deadline.clear()
    net.engine.run_until(10.0)
    net.radio.send(0, HELLO, p.control_bytes)
    net.engine.run_until(11.0)
    received_at = 10.0 + net.radio.tx_duration(p.control_bytes)
    assert net.routers[1].hello_deadline == {0: received_at + 2.0}
    assert net.routers[0].hello_deadline == {}


@pytest.mark.parametrize("protocol", ["aodv", "maodv"])
def test_a_hello_never_reaches_on_frame(protocol):
    net = make_pair_net(protocol)
    with pytest.raises(SimulationError, match="unknown packet type"):
        net.routers[1].on_frame(HELLO, 0)
    # nor a handler, when one is unicast
    with pytest.raises(SimulationError, match="unknown packet type"):
        net.radio.send(0, HELLO, net.scenario.proto.control_bytes, addressee=1)


def test_a_stale_deadline_restarts_the_watch():
    # no route is active, so no hellos are sent and node 1 is never heard
    net = make_pair_net()
    router = net.routers[0]
    lost = []
    router.on_neighbor_lost = lambda n: lost.append((net.engine.now, n))
    router.watch(1)
    net.engine.run_until(5.0)
    assert lost == [(2.0, 1)]
    # the deadline from before the loss is stale: a fresh allowance starts
    router.watch(1)
    assert router.hello_deadline[1] == 7.0
    net.engine.run_until(6.9)
    assert lost == [(2.0, 1)]
    net.engine.run_until(7.0)
    assert lost == [(2.0, 1), (7.0, 1)]
    assert net.trace.count("tx_hello") == 0


def forward(net, router, next_hop):
    """Forward one fresh data packet from `router` to `next_hop` now."""
    pkt = Data(router.node, next_hop, 512, 0, net.engine.now, 0, len(net.metrics.records))
    pkt.traversed.append(router.node)
    net.metrics.on_sent(pkt)
    router._forward_data(pkt, next_hop)


def watch_timers(engine):
    """Times of the pending hello-watch timers, in the order they run."""
    owners = ("RouterBase.watch.", "RouterBase._watch_fired.")
    return [
        time for time, _, fn in pending_events(engine)
        if fn is not None and fn.__qualname__.startswith(owners)
    ]


def spy_watch(router):
    """Record each call of the router's watch(), which still runs."""
    calls = []
    router.watch = lambda neighbor: calls.append(neighbor) or RouterBase.watch(router, neighbor)
    return calls


def test_forwarding_to_a_watched_hop_with_a_fresh_deadline_changes_nothing():
    net = make_pair_net()
    router = net.routers[0]
    router.watch(1)
    net.engine.run_until(1.0)
    deadlines = dict(router.hello_deadline)
    before = [entry[:] for entry in pending_events(net.engine)]
    calls = spy_watch(router)
    forward(net, router, 1)
    assert router.hello_deadline == deadlines == {1: 2.0}
    # the frame's delivery is the one new entry
    after = [entry[:] for entry in pending_events(net.engine)]
    new = [entry[2].__qualname__ for entry in after if entry not in before]
    assert new == ["Radio.send.<locals>.deliver"]
    assert [entry for entry in after if entry in before] == before
    assert calls == []


def test_forwarding_at_a_watched_hops_deadline_refreshes_it():
    net = make_pair_net()
    router = net.routers[0]
    lost = []
    router.on_neighbor_lost = lost.append
    # scheduled before the watch, the forward runs at t = 2.0 ahead of the
    # watch's timer: the watch is armed and its deadline is now
    net.engine.schedule(2.0, EventKind.TIMER, lambda: forward(net, router, 1))
    router.watch(1)
    net.engine.run_until(2.0)
    assert router.hello_deadline == {1: 2.0 + router.hello_allowance}
    # the timer found the refreshed deadline and waits for it
    assert lost == []
    assert watch_timers(net.engine) == [4.0]


@pytest.mark.parametrize("heard", [False, True])
def test_forwarding_to_an_unwatched_hop_arms_one_timer(heard):
    net = make_pair_net()
    router = net.routers[0]
    net.engine.run_until(1.0)
    if heard:
        # a hello from the next hop sets a deadline, but arms no watch
        net.radio.send(1, HELLO, net.scenario.proto.control_bytes)
    net.engine.run_until(1.5)
    deadline = router.hello_deadline[1] if heard else 1.5 + router.hello_allowance
    assert watch_timers(net.engine) == []
    forward(net, router, 1)
    forward(net, router, 1)
    assert router.hello_deadline == {1: deadline}
    assert watch_timers(net.engine) == [deadline]


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
    net.energy.remaining_pj[1] = round(0.008 * 1e12)
    TrafficSource(
        [FlowSpec(0, 1, 512, 0.25, 1.0, 29.0, flow_id=0)], net
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


def routing_state(router):
    """What a break could touch, rendered so that any change shows: routes,
    path caches, carried paths, discoveries and back-offs."""
    caches = {dest: cache.routes for dest, cache in getattr(router, "caches", {}).items()}
    return repr((
        getattr(router, "table", None),
        caches,
        getattr(router, "carried", None),
        router.discoveries,
        router.discovery_backoff,
    ))


@pytest.mark.parametrize("protocol", ["aodv", "maodv"])
def test_losing_a_neighbor_no_route_uses_changes_nothing(protocol):
    # a line 0-1-2 carries the flow 0 -> 2; node 3 sits beside the source
    # on no route
    from manetsim.traffic import FlowSpec

    flow = FlowSpec(0, 2, 512, 0.25, 1.0, 9.0, flow_id=0)
    sc = Scenario(node_count=4, duration=10.0, protocol=protocol, flows=[flow])
    positions = [(0, 0), (200, 0), (400, 0), (0, 200)]
    net = build_network(sc, with_trace=True, mobility=static_model(positions))
    TrafficSource([flow], net).start()
    for r in net.routers:
        r.start_maintenance()
    net.engine.run_until(5.0)
    source = net.routers[0]
    if protocol == "aodv":
        assert source.table[2].next_hop == 1
    else:
        assert source.caches[2].primary_route() == (0, 1, 2)
        assert net.routers[1].carried

    lines, pending = len(net.trace.lines), len(pending_events(net.engine))
    before = [routing_state(r) for r in net.routers]
    for r in net.routers[:3]:
        r.on_neighbor_lost(3)
    assert net.trace.lines[lines:] == []  # no link_break, no frame sent
    assert len(pending_events(net.engine)) == pending
    assert [routing_state(r) for r in net.routers] == before

    # the neighbor the flow runs through is a break
    source.on_neighbor_lost(1)
    assert any(" link_break " in line for line in net.trace.lines[lines:])

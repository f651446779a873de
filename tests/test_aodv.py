
import pytest

from manetsim import Scenario, parse_scenario, runner
from manetsim.aodv import RoutingTableEntry
from manetsim.proto_common import Data, Rreq
from manetsim.runner import build_network, run_scenario
from manetsim.traffic import FlowSpec

from conftest import (
    BASELINE,
    BENCH_POSITIONS,
    adjacency_from_positions,
    bfs_hops,
    departing_model,
    receive,
    router_state,
    run_static,
    static_model,
)


# diamond: source - relay - (mover|backup) - dest, backup reachable only via relay
DIAMOND = {
    0: (0.0, 300.0),  # source
    1: (200.0, 300.0),  # relay that repairs
    2: (400.0, 300.0),  # mover on the primary path
    3: (400.0, 440.0),  # backup relay
    4: (600.0, 300.0),  # dest
}

CHAIN = {0: (0.0, 0.0), 1: (240.0, 0.0), 2: (480.0, 0.0), 3: (720.0, 0.0)}


def test_bench_route_matches_bfs_oracle():
    flows = [FlowSpec(0, 8, 512, 0.25, 1.0, 29.0)]
    result = run_static(BENCH_POSITIONS, flows)
    report = result.report
    assert report.delivered > 0
    adjacency = adjacency_from_positions(BENCH_POSITIONS, 250.0)
    expected_hops = bfs_hops(adjacency, 0, 8)
    assert expected_hops == 4
    # every steady-state delivery runs along a shortest path
    steady = [r for r in report.records if r.delivered_at and r.data_seq >= 2]
    assert steady
    assert all(len(r.traversed) - 1 == expected_hops for r in steady)


def test_partitioned_fails_after_all_retries():
    flows = [FlowSpec(0, 1, 512, 2.0, 1.0, 8.0)]
    positions = [(0.0, 0.0), (2000.0, 0.0)]
    result = run_static(positions, flows, duration=10.0)
    events = result.report.protocol_events
    # one send per discovery failure window; every discovery floods retries+1 times
    floods = result.trace.count("tx_rreq")
    discoveries = events["discovery_start"]
    assert floods == discoveries * 3  # rreq_retries=2 -> 3 floods each
    assert result.report.drop_breakdown.get("no_route", 0) > 0


def test_duplicate_rreq_dropped_on_flood():
    # on the bench topology every node forwards one copy per discovery
    flows = [FlowSpec(0, 8, 512, 5.0, 1.0, 6.0)]
    result = run_static(BENCH_POSITIONS, flows, duration=10.0)
    assert result.report.protocol_events["discovery_start"] == 1
    # origin plus at most every non-destination node transmits once
    assert result.trace.count("tx_rreq") <= 8


def test_destination_replies_with_incremented_seq():
    sc = Scenario(node_count=2, duration=1.0)
    net = build_network(sc, mobility=static_model([(0, 0), (100, 0)]))
    from manetsim.proto_common import Rreq

    net.routers[1].seq = 7
    rreq = Rreq(origin=0, dest=1, hop_count=0, route_record=(0,), seqs=(3, 0))
    net.routers[1]._handle_rreq(rreq, sender=0)
    assert net.routers[1].seq == 8


def test_a_discarded_request_copy_changes_nothing():
    # 0 - 1 - 2 in a line: node 1 relays 0's request once, then turns away
    # the copy 2 relays back, and 0 turns away its own request
    sc = Scenario(node_count=3, duration=10.0)
    net = build_network(sc, with_trace=True, mobility=static_model([(0, 0), (200, 0), (400, 0)]))
    rreq = Rreq(origin=0, dest=2, hop_count=0, route_record=(0,), seqs=(1, 0))
    relay = net.routers[1]
    receive(net, 1, rreq, 0)
    ttl = sc.proto.rreq_id_cache_ttl
    assert rreq.flood == {1: ttl}
    assert net.trace.count("tx_rreq") == 1
    echo = Rreq(0, 2, 2, (0,), (1, 0), rreq.flood)
    for router, sender in ((relay, 2), (net.routers[0], 1)):
        before = router_state(router)
        receive(net, router.node, echo, sender)
        assert router_state(router) == before
    # a seen entry lasts the cache lifetime, no longer
    net.engine.run_until(ttl)
    sent = net.trace.count("tx_rreq")
    receive(net, 1, echo, 2)
    assert rreq.flood[1] == 2 * ttl
    assert net.trace.count("tx_rreq") == sent + 1


def test_intermediate_reply_from_cached_route():
    # phase 1: node 3 -> node 2 seeds node 1's cache; phase 2: node 0 asks
    positions = {0: (0.0, 0.0), 1: (200.0, 0.0), 2: (400.0, 0.0), 3: (200.0, 200.0)}
    flows = [
        FlowSpec(3, 2, 512, 1.0, 1.0, 3.0),
        FlowSpec(0, 2, 512, 1.0, 5.0, 8.0),
    ]
    result = run_static(positions, flows, duration=10.0)
    # the second discovery must be answered without the destination seeing it
    rreq_receipts_at_dest = [
        line
        for line in result.trace.lines
        if " tx_rreq " in line and float(line.split()[0]) > 4.0 and line.split()[1] == "1"
    ]
    assert not rreq_receipts_at_dest  # node 1 answered, did not rebroadcast
    assert result.report.delivered >= 5


def test_diamond_break_repairs_locally():
    mobility = departing_model(DIAMOND, movers={2: (10.0, (400.0, 1500.0), 50.0)})
    flows = [FlowSpec(0, 4, 512, 0.25, 1.0, 29.0)]
    result = run_static(DIAMOND, flows, mobility=mobility)
    events = result.report.protocol_events
    assert events.get("repair_start") == 1
    assert events.get("repair_ok") == 1
    assert events.get("repair_fail", 0) == 0
    # source never rediscovers: repair stays local
    assert events.get("discovery_start") == 1
    assert result.trace.count("tx_rerr") == 0
    # traffic keeps flowing on the spliced route after the break
    late_deliveries = [
        line
        for line in result.trace.lines
        if " deliver " in line and float(line.split()[0]) > 20.0
    ]
    assert late_deliveries


def repairing_relay(queue_capacity=50):
    """The diamond after its mover has left: the relay (1) held an active
    route to the destination (4) through the mover (2) and has just lost it,
    so it repairs, flooding one request that the backup relay (3) answers."""
    positions = {**DIAMOND, 2: (400.0, 1500.0)}
    sc = Scenario(node_count=5, duration=5.0)
    sc.proto.queue_capacity = queue_capacity
    net = build_network(sc, with_trace=True, mobility=static_model(positions))
    relay = net.routers[1]
    relay.table[4] = RoutingTableEntry(4, 2, 2, 1, expires_at=10.0, last_used=0.0)
    relay.on_neighbor_lost(2)
    return net, relay


def node_events(net, node, event):
    """Indices of the trace lines where `node` logged `event`."""
    return [
        i for i, line in enumerate(net.trace.lines)
        if line.split()[1:3] == [str(node), event]
    ]


def test_relay_buffers_transit_data_during_repair():
    net, relay = repairing_relay(queue_capacity=3)
    for k in range(5):
        pkt = Data(0, 4, 512, k, 0.0, 0, k, traversed=[0])
        net.metrics.on_sent(pkt)
        relay._handle_data(pkt, sender=0)
    assert len(relay.discoveries[4].buffered) == 3
    net.engine.run_until(1.0)
    report = net.metrics.finalize(1.0, net.energy)
    assert report.protocol_events["repair_start"] == 1
    assert report.protocol_events["repair_ok"] == 1
    # the queue holds three; the other two are dropped at the relay
    assert report.drop_breakdown == {"queue_overflow": 2}
    assert report.delivered == 3
    # nothing left the relay before its repair succeeded
    (repair_ok,) = node_events(net, 1, "repair_ok")
    forwarded = node_events(net, 1, "tx_data")
    assert len(forwarded) == 3 and min(forwarded) > repair_ok
    assert not relay.discoveries


def test_sourcing_during_repair_queues_behind_it():
    net, relay = repairing_relay()
    pkt = Data(1, 4, 512, 0, 0.0, 0, 0, traversed=[1])
    net.metrics.on_sent(pkt)
    relay.send_data(pkt)
    # the packet waits on the running repair: no second request is flooded
    assert len(node_events(net, 1, "tx_rreq")) == 1
    net.engine.run_until(1.0)
    report = net.metrics.finalize(1.0, net.energy)
    assert len(node_events(net, 1, "tx_rreq")) == 1
    assert "discovery_start" not in report.protocol_events
    assert report.protocol_events["repair_ok"] == 1
    assert report.delivered == 1


def test_chain_break_without_alternative_reaches_source():
    mobility = departing_model(CHAIN, movers={2: (10.0, (480.0, 1500.0), 50.0)})
    flows = [FlowSpec(0, 3, 512, 0.25, 1.0, 29.0)]
    result = run_static(CHAIN, flows, duration=30.0)
    result_moving = run_static(
        CHAIN, flows, duration=30.0, mobility=mobility
    )
    events = result_moving.report.protocol_events
    assert events.get("repair_start", 0) == 1
    assert events.get("repair_fail", 0) == 1
    assert result_moving.trace.count("tx_rerr") >= 1
    # the source reacts by starting a fresh discovery
    assert events.get("discovery_start", 0) >= 2
    # control run without the break needs no repair at all
    assert result.report.protocol_events.get("repair_start", 0) == 0


def test_break_at_source_first_hop_skips_repair():
    positions = {0: (0.0, 0.0), 1: (200.0, 0.0), 2: (400.0, 0.0)}
    mobility = departing_model(positions, movers={1: (10.0, (200.0, 1500.0), 50.0)})
    flows = [FlowSpec(0, 2, 512, 0.25, 1.0, 29.0)]
    result = run_static(positions, flows, mobility=mobility)
    events = result.report.protocol_events
    assert events.get("repair_start", 0) == 0
    assert events.get("discovery_start", 0) >= 2


def test_three_hop_chain_delay():
    flows = [FlowSpec(0, 3, 512, 0.5, 1.0, 9.0)]
    result = run_static(CHAIN, flows, duration=10.0)
    per_hop = 512 * 8 / 2_000_000
    deliver_times = {}
    send_times = {}
    for line in result.trace.lines:
        parts = line.split()
        if parts[2] == "cbr_send":
            send_times[parts[3]] = float(parts[0])
        elif parts[2] == "deliver":
            deliver_times[parts[3]] = float(parts[0])
    steady = [k for k in deliver_times if send_times[k] > 2.0]
    assert steady
    for k in steady:
        assert deliver_times[k] - send_times[k] == pytest.approx(3 * per_hop)


def test_expired_entry_drops_and_reports():
    positions = {0: (0.0, 0.0), 1: (200.0, 0.0), 2: (400.0, 0.0)}
    sc = Scenario(node_count=3, duration=1.0)
    net = build_network(sc, with_trace=True, mobility=static_model(positions))
    net.routers[1].table[2] = RoutingTableEntry(2, 2, 1, 1, expires_at=0.0)
    pkt = Data(0, 2, 512, 0, 0.0, 0, 0, traversed=[0])
    net.metrics.on_sent(pkt)
    net.routers[1]._handle_data(pkt, sender=0)
    assert net.metrics.finalize(1.0, net.energy).drop_breakdown == {"no_route": 1}
    assert net.trace.count("tx_rerr") == 1


def test_queue_overflow_counted():
    positions = [(0.0, 0.0), (2000.0, 0.0)]
    flows = [FlowSpec(0, 1, 512, 0.05, 1.0, 9.0)]
    result = run_static(
        positions, flows, duration=10.0, discovery_timeout=5.0, queue_capacity=50
    )
    drops = result.report.drop_breakdown
    assert drops.get("queue_overflow", 0) > 0
    conservation = (
        result.report.delivered + result.report.dropped + result.report.in_flight
    )
    assert conservation == result.report.sent


def test_rrep_travels_installed_reverse_hops_only():
    flows = [FlowSpec(0, 8, 512, 1.0, 1.0, 5.0)]
    result = run_static(BENCH_POSITIONS, flows, duration=6.0)
    # every reply hop (sender) must previously have transmitted the request
    rreq_senders = set()
    for line in result.trace.lines:
        parts = line.split()
        if parts[2] == "tx_rreq":
            rreq_senders.add(parts[1])
        elif parts[2] == "tx_rrep" and parts[1] != "8":
            assert parts[1] in rreq_senders


@pytest.mark.parametrize("protocol", ["aodv", "maodv"])
def test_router_state_stays_bounded_over_a_long_run(monkeypatch, protocol):
    # Every dict and set a router keeps is bounded by what the network holds
    # (neighbors, destinations, live floods), not by how long it runs: at
    # n = 50 the most entries any router holds stays well under 2 n after
    # 480 s. An AODV request-id cache that only expired its entries reached
    # 223 there, and MAODV's per-node flood records and reply-seen set 258.
    # The count sees MAODV's `carried` per flow, not per path. Of its paths,
    # only a relay's are kept: a flow's source and destination held 1,074 of
    # the 2,023 here when they kept theirs too.
    nets = []
    build = runner.build_network

    def keep(*args, **kwargs):
        nets.append(build(*args, **kwargs))
        return nets[-1]

    monkeypatch.setattr(runner, "build_network", keep)
    base = parse_scenario(BASELINE.read_text(), "baseline")
    n = 50
    run_scenario(base.variant(protocol=protocol, node_count=n, master_seed=1, duration=480.0))
    entries = [
        sum(len(v) for v in vars(router).values() if isinstance(v, (dict, set)))
        for router in nets[0].routers
    ]
    assert max(entries) <= 2 * n
    if protocol == "maodv":
        endpoint_paths = [
            path
            for router in nets[0].routers
            for flow, paths in router.carried.items()
            if router.node in flow
            for path in paths
        ]
        assert endpoint_paths == []

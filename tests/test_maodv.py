import copy
import math

import pytest
from hypothesis import given, strategies as st

from manetsim import Scenario, parse_scenario
from manetsim.engine import SimulationError
from manetsim.maodv import PathCache, select_disjoint
from manetsim.proto_common import Rrep, Rreq
from manetsim.runner import build_network, run_scenario
from manetsim.traffic import FlowSpec

from conftest import (
    BASELINE,
    BENCH_LISTED_PATHS,
    BENCH_POSITIONS,
    adjacency_from_positions,
    all_simple_paths,
    bench_discovery_frames,
    departing_model,
    receive,
    router_state,
    run_bench_discovery,
    run_static,
    sent_frames,
    static_model,
)


# star of three node-disjoint two-hop routes between 0 and 4
STAR3 = {
    0: (100.0, 300.0),
    1: (300.0, 160.0),
    2: (300.0, 300.0),
    3: (300.0, 440.0),
    4: (500.0, 300.0),
}


# -- disjoint route selection ---------------------------------------------------


def test_select_disjoint_benchmark_pair():
    chosen = select_disjoint(BENCH_LISTED_PATHS, n0=3)
    assert chosen == [(0, 1, 3, 6, 8), (0, 2, 5, 7, 8)]


def test_select_disjoint_single_path():
    assert select_disjoint([(0, 5, 9)], n0=3) == [(0, 5, 9)]


def test_select_disjoint_empty():
    assert select_disjoint([], n0=3) == []


def test_select_disjoint_respects_n0():
    paths = [(0, 1, 9), (0, 2, 9), (0, 3, 9), (0, 4, 9)]
    assert len(select_disjoint(paths, n0=2)) == 2


def test_select_disjoint_preselected_blocks_overlap():
    existing = ((0, 1, 9),)
    new = select_disjoint([(0, 1, 9), (0, 1, 2, 9), (0, 3, 9)], n0=3, preselected=existing)
    assert new == [(0, 3, 9)]


@given(st.randoms(use_true_random=False))
def test_select_disjoint_order_invariant(rng):
    paths = list(BENCH_LISTED_PATHS)
    rng.shuffle(paths)
    assert select_disjoint(paths, n0=3) == [(0, 1, 3, 6, 8), (0, 2, 5, 7, 8)]


def test_select_disjoint_output_maximal_and_disjoint():
    adjacency = adjacency_from_positions(BENCH_POSITIONS, 250.0)
    paths = all_simple_paths(adjacency, 0, 8, 6)
    chosen = select_disjoint(paths, n0=99)
    used = set()
    for path in chosen:
        inter = set(path[1:-1])
        assert not (inter & used)
        used |= inter
    for path in paths:
        if path in chosen:
            continue
        assert set(path[1:-1]) & used  # nothing disjoint was left behind


# -- path cache ---------------------------------------------------------------


def test_cache_invalidate_link_directed():
    cache = PathCache(9, [(0, 1, 9), (0, 2, 9)])
    assert not cache.invalidate_link((9, 1))  # reversed direction: no-op
    assert cache.invalidate_link((0, 1))
    assert len(cache.routes) == 1
    assert cache.primary_route() == (0, 2, 9)


def test_cache_break_on_unknown_link_is_noop():
    cache = PathCache(9, [(0, 1, 9)])
    assert not cache.invalidate_link((5, 6))
    assert len(cache.routes) == 1


def test_cache_break_on_spare_keeps_primary():
    cache = PathCache(9, [(0, 1, 9), (0, 2, 9), (0, 3, 9)])
    assert cache.invalidate_link((2, 9))
    assert cache.primary_route() == (0, 1, 9)
    assert cache.routes == [(0, 1, 9), (0, 3, 9)]


def test_cache_replenished_routes_queue_behind_survivor():
    cache = PathCache(9, [(0, 1, 9), (0, 2, 9)])
    assert cache.invalidate_link((0, 1))
    cache.add_routes([(0, 3, 9), (0, 4, 9)])
    assert cache.primary_route() == (0, 2, 9)
    assert cache.routes == [(0, 2, 9), (0, 3, 9), (0, 4, 9)]


def test_cache_disjointness_enforced():
    with pytest.raises(SimulationError):
        PathCache(9, [(0, 1, 9), (0, 1, 2, 9)])
    cache = PathCache(9, [(0, 1, 9)])
    with pytest.raises(SimulationError):
        cache.add_routes([(0, 1, 3, 9)])


# -- discovery mechanics ---------------------------------------------------------


def test_forward_drops_when_already_on_record():
    sc = Scenario(node_count=3, duration=1.0, protocol="maodv")
    net = build_network(sc, with_trace=True, mobility=static_model([(0, 0), (100, 0), (200, 0)]))
    rreq = Rreq(origin=0, dest=2, hop_count=1, route_record=(0, 1))
    receive(net, 1, rreq, 0)
    assert net.trace.count("tx_rreq") == 0
    assert rreq.records == {}


def test_requests_carry_no_sequence_numbers():
    # MAODV reads no sequence number, so its floods and relays carry none
    sc = Scenario(node_count=3, duration=1.0, protocol="maodv")
    net = build_network(sc, mobility=static_model([(0, 0), (100, 0), (200, 0)]))
    sent = []
    net.radio.send = lambda sender, pkt, size, addressee=None: sent.append(pkt)
    net.routers[0].start_discovery(2)
    net.routers[1]._handle_rreq(sent[0], sender=0)
    assert [(p.route_record, p.seqs) for p in sent] == [((0,), None), ((0, 1), None)]
    assert not any(hasattr(r, "seq") for r in net.routers)


# -- a node closes a flood when it can admit no more --------------------------------

# eight nodes 300 m apart: nobody hears anybody, so only the handler under
# test acts, and a frame it sends reaches no one
APART = [(300.0 * i, 0.0) for i in range(8)]


class NoConcat(tuple):
    """A route record that must never be extended."""

    def __add__(self, other):
        raise AssertionError("built a route record for a closed flood")


def flood_net(**proto_kw):
    sc = Scenario(node_count=len(APART), duration=5.0, protocol="maodv")
    for key, value in proto_kw.items():
        setattr(sc.proto, key, value)
    return build_network(sc, with_trace=True, mobility=static_model(APART))


def copy_of(record, table, records):
    """A copy of node 0's flood toward node 7 that travelled `record`; all
    copies of the flood share its `table` and its `records`."""
    return Rreq(origin=0, dest=7, hop_count=len(record) - 1, route_record=record,
                flood=table, records=records)


# four distinct route records from 0, hop counts 1, 1, 1 and 2
COPIES = [(0, 1), (0, 2), (0, 3), (0, 1, 2)]


def test_relay_forwards_up_to_its_copy_cap_then_closes():
    net = flood_net(mpath_max_copies=2)
    table, records = {}, {}
    for record in COPIES:
        receive(net, 5, copy_of(record, table, records), record[-1])
    assert net.trace.count("tx_rreq") == 2
    assert table == {5: math.inf}
    assert list(records[5].paths) == [(0, 1, 5), (0, 2, 5)]


def test_closed_flood_rejects_a_copy_before_building_its_record():
    net = flood_net(mpath_max_copies=1)
    table, records = {}, {}
    receive(net, 5, copy_of((0, 1), table, records), 1)
    receive(net, 5, copy_of(NoConcat((0, 2)), table, records), 2)
    assert net.trace.count("tx_rreq") == 1
    assert list(records[5].paths) == [(0, 1, 5)]


def test_a_discarded_request_copy_changes_nothing():
    net = flood_net(mpath_max_copies=1)
    table, records = {}, {}
    receive(net, 5, copy_of((0, 1), table, records), 1)
    assert table == {5: math.inf}
    # a copy of a flood the relay has closed, a copy of a new flood whose
    # record already holds the relay, and the origin's own request; a node's
    # flood state lives in the copy's tables, so neither may change either
    on_record = Rreq(origin=0, dest=7, hop_count=2, route_record=(0, 5, 6))
    for node, rreq in ((5, copy_of((0, 2), table, records)), (5, on_record),
                       (0, copy_of((0, 3), table, records))):
        router = net.routers[node]
        before = router_state(router), copy.deepcopy((rreq.flood, rreq.records))
        receive(net, node, rreq, rreq.route_record[-1])
        assert (router_state(router), (rreq.flood, rreq.records)) == before


def test_unbounded_copy_cap_admits_every_in_slack_copy_and_never_closes():
    net = flood_net(mpath_max_copies=0, mpath_slack=1)
    table, records = {}, {}
    # (0, 1, 2, 3) is 3 hops against a best of 1 and a slack of 1
    for record in COPIES + [(0, 1, 2, 3), (0, 4)]:
        receive(net, 5, copy_of(record, table, records), record[-1])
    assert net.trace.count("tx_rreq") == 5
    assert table == {}
    assert list(records[5].paths) == [r + (5,) for r in COPIES + [(0, 4)]]


def test_destination_collects_up_to_its_path_cap_and_replies_once():
    net = flood_net(mpath_max_paths=2)
    table, records = {}, {}
    for record in COPIES[:3]:
        receive(net, 7, copy_of(record, table, records), record[-1])
    assert table == {7: math.inf}
    assert list(records[7].paths) == [(0, 1, 7), (0, 2, 7)]
    net.engine.run_until(5.0)
    replies = [l for l in net.trace.lines if " paths_collected " in l]
    assert len(replies) == 1
    assert replies[0].endswith("origin=0 n=2")
    assert net.trace.count("tx_rrep") == 1


def test_destination_closes_its_flood_when_it_replies():
    net = flood_net(mpath_max_paths=0)
    table, records = {}, {}
    receive(net, 7, copy_of((0, 1), table, records), 1)
    assert table == {}
    net.engine.run_until(5.0)
    assert net.trace.count("tx_rrep") == 1
    assert table == {7: math.inf}
    before = router_state(net.routers[7])
    receive(net, 7, copy_of((0, 2), table, records), 2)
    assert router_state(net.routers[7]) == before


def test_a_relay_handles_a_reply_once_and_its_destination_ignores_the_echo():
    net = flood_net()
    sent = sent_frames(net)
    receive(net, 7, copy_of((0, 5), {}, {}), 5)
    net.engine.run_until(5.0)
    [rrep] = [packet for _, packet in sent if type(packet) is Rrep]
    assert rrep.path_set == ((0, 5, 7),)
    # the relay rebroadcasts the reply once, however often it hears it
    receive(net, 5, rrep, 7)
    assert net.trace.count("tx_rrep") == 2
    assert net.routers[5].carried == {(0, 7): {(0, 5, 7): True}}
    before = router_state(net.routers[5])
    receive(net, 5, rrep, 7)
    assert router_state(net.routers[5]) == before
    # the destination hears its own reply echoed back and ignores it
    before = router_state(net.routers[7])
    receive(net, 7, rrep, 5)
    assert router_state(net.routers[7]) == before
    assert net.trace.count("tx_rrep") == 2


# trace sha256 of the 30 s baseline at n=40, seed 1, maodv, keyed by
# (mpath_max_copies, mpath_max_paths): closing a full flood record early must
# not move a single line, whichever cap fills first
CAP_DIGESTS = {
    (0, 1): "ea1eb311d1b22cab5dc1c13ee6b26c8ca0b246b6b044982b17d0d35c4b8cabde",
    (0, 3): "3d95e53a837f5dd19a71b380518706f8ae5f833d9d2ad8d6a355611fc9df9666",
    (1, 1): "f839d855e232758f94639d3b2b62d35fd7a5f2df9a7bfb657dc86cef8b9dc43a",
    (1, 3): "133403c9a4ef8e4dea3ffd18eff7f56379be38b576337c51fac407c35d82c430",
    (3, 1): "c2fdb1a99020ee0614df4b13bfd232665915769bfdfa31efba3f18168df76e74",
    (3, 3): "291acb231ca5811693ced3dcbd4604876c09e16edeef6e1d87e2c5f9a61c17c9",
}


@pytest.mark.parametrize("caps", sorted(CAP_DIGESTS))
def test_trace_digest_under_flood_caps(caps):
    copies, paths = caps
    base = parse_scenario(BASELINE.read_text(), "baseline")
    sc = base.variant(protocol="maodv", node_count=40, master_seed=1, duration=30.0,
                      mpath_max_copies=copies, mpath_max_paths=paths)
    assert run_scenario(sc, with_trace=True).trace.digest() == CAP_DIGESTS[caps]


def test_benchmark_collection_matches_dfs_oracle():
    collected = run_bench_discovery()
    adjacency = adjacency_from_positions(BENCH_POSITIONS, 250.0)
    oracle = all_simple_paths(adjacency, 0, 8, max_hops=4 + 2)
    assert set(collected) == set(oracle)
    assert len(collected) == 14
    # the eight canonical routes are all found
    assert set(BENCH_LISTED_PATHS) <= set(collected)


def test_no_two_request_copies_of_a_flood_share_a_route_record():
    # with neither cap every node relays each copy it admits once, and a
    # broadcast reaches each receiver once, so no node is handed one route
    # record twice within a flood
    copies = [p for _, p in bench_discovery_frames() if type(p) is Rreq]
    assert len({id(p.flood) for p in copies}) == 1
    records = [p.route_record for p in copies]
    assert len(records) > len(BENCH_POSITIONS)
    assert len(set(records)) == len(records)


def test_benchmark_selection_is_fig4_pair():
    flows = [FlowSpec(0, 8, 512, 1.0, 1.0, 5.0)]
    result = run_static(
        BENCH_POSITIONS, flows, duration=6.0, protocol="maodv",
        mpath_max_copies=0, mpath_max_paths=0,
    )
    lines = [l for l in result.trace.lines if " routes_selected " in l]
    assert lines
    assert "routes=0-1-3-6-8;0-2-5-7-8" in lines[0]


def test_reply_reaches_source_within_longest_path_hops():
    flows = [FlowSpec(0, 8, 512, 1.0, 1.0, 5.0)]
    result = run_static(
        BENCH_POSITIONS, flows, duration=6.0, protocol="maodv",
        mpath_max_copies=0, mpath_max_paths=0,
    )
    emitted = [l for l in result.trace.lines if " paths_collected " in l]
    selected = [l for l in result.trace.lines if " routes_selected " in l]
    per_hop = 64 * 8 / 2_000_000
    longest = 6  # slack-bounded collection depth on the benchmark graph
    delta = float(selected[0].split()[0]) - float(emitted[0].split()[0])
    assert 0 < delta <= longest * per_hop + 1e-9


def test_rrep_installs_entries_at_intermediates():
    sc = Scenario(node_count=9, duration=6.0, protocol="maodv",
                  flows=[FlowSpec(0, 8, 512, 1.0, 1.0, 5.0)])
    net = build_network(sc, mobility=static_model(BENCH_POSITIONS))
    from manetsim.traffic import TrafficSource

    TrafficSource([FlowSpec(0, 8, 512, 1.0, 1.0, 5.0, flow_id=0)], net).start()
    for r in net.routers:
        r.start_maintenance()
    net.engine.run_until(6.0)
    # node 1 sits on carried paths, each reaching from source 0 to dest 8
    carried = net.routers[1].carried
    assert list(carried) == [(0, 8)]
    paths = list(carried[0, 8])
    assert paths
    assert all(p[0] == 0 and p[-1] == 8 and 1 in p for p in paths)
    # the flow's endpoints keep the flow, not its paths
    assert net.routers[0].carried == net.routers[8].carried == {(0, 8): {}}


def test_single_path_degenerate_reply():
    positions = [(0.0, 0.0), (200.0, 0.0)]
    flows = [FlowSpec(0, 1, 512, 0.5, 1.0, 9.0)]
    result = run_static(positions, flows, protocol="maodv", duration=10.0)
    assert result.report.delivered > 10
    assert result.report.protocol_events.get("routes_selected") == 1


# -- failover and replenishment ----------------------------------------------------


def test_failover_without_new_discovery_then_replenish_at_threshold():
    mobility = departing_model(
        STAR3,
        movers={
            1: (5.0, (300.0, -1500.0), 100.0),
            3: (15.0, (300.0, 2000.0), 100.0),
        },
    )
    flows = [FlowSpec(0, 4, 512, 0.25, 1.0, 29.0)]
    result = run_static(STAR3, flows, protocol="maodv", mobility=mobility, n0=3, s0=1)
    events = result.report.protocol_events
    assert events.get("failover", 0) == 2
    assert events.get("replenish_start", 0) == 1

    rreq_times = [
        float(l.split()[0]) for l in result.trace.lines if " tx_rreq " in l
    ]
    failover_times = [
        float(l.split()[0]) for l in result.trace.lines if " failover " in l
    ]
    replenish_times = [
        float(l.split()[0]) for l in result.trace.lines if " replenish_start " in l
    ]
    first_failover = failover_times[0]
    # spare-route failover needs zero request traffic: every request before
    # the replenishment trigger belongs to the initial discovery
    assert all(t < 2.0 or t >= replenish_times[0] for t in rreq_times)
    assert replenish_times[0] > first_failover
    # the second break is what crosses the threshold
    assert replenish_times[0] == pytest.approx(failover_times[1])
    # primary switched: deliveries continue between the two breaks
    between = [
        l for l in result.trace.lines
        if " deliver " in l and first_failover < float(l.split()[0]) < 15.0
    ]
    assert between


def test_delivered_hops_equal_source_route():
    flows = [FlowSpec(0, 4, 512, 0.25, 1.0, 29.0)]
    result = run_static(STAR3, flows, protocol="maodv")
    delivered = [r for r in result.report.records if r.delivered_at is not None]
    assert delivered
    for rec in delivered:
        assert rec.traversed == rec.source_route


def test_mid_route_departure_reports_to_source():
    # chain 0-1-2-3; node 2 leaves mid-flow; node 1 reports, source reacts
    chain = {0: (0.0, 0.0), 1: (240.0, 0.0), 2: (480.0, 0.0), 3: (720.0, 0.0)}
    mobility = departing_model(chain, movers={2: (10.0, (480.0, 1500.0), 50.0)})
    flows = [FlowSpec(0, 3, 512, 0.25, 1.0, 29.0)]
    result = run_static(chain, flows, protocol="maodv", mobility=mobility)
    events = result.report.protocol_events
    assert result.trace.count("tx_rerr") >= 1
    assert events.get("link_break", 0) >= 1
    # only one route existed: the source falls back to a fresh (failing) discovery
    assert events.get("discovery_start", 0) >= 2
    route_invalid = [l for l in result.trace.lines if " route_invalid " in l and l.split()[1] == "0"]
    assert route_invalid


def test_no_repair_events_ever():
    for positions, flows, mobility in (
        (STAR3, [FlowSpec(0, 4, 512, 0.25, 1.0, 29.0)],
         departing_model(STAR3, movers={1: (5.0, (300.0, -1500.0), 100.0)})),
        (BENCH_POSITIONS, [FlowSpec(0, 8, 512, 0.5, 1.0, 29.0)], None),
    ):
        result = run_static(positions, flows, protocol="maodv", mobility=mobility)
        events = result.report.protocol_events
        assert "repair_start" not in events
        assert "repair_ok" not in events
        assert "repair_fail" not in events
        assert result.trace.count("repair_start") == 0


def test_cache_state_after_benchmark_break():
    # cut the primary (through node 3); the spare takes over with no new flood
    mobility = departing_model(
        BENCH_POSITIONS, movers={3: (8.0, (10.0, 3000.0), 100.0)}
    )
    flows = [FlowSpec(0, 8, 512, 0.25, 1.0, 29.0)]
    result = run_static(BENCH_POSITIONS, flows, protocol="maodv", mobility=mobility, n0=3, s0=1)
    events = result.report.protocol_events
    assert events.get("failover", 0) >= 1
    # replenishment fires because only one spare remains
    assert events.get("replenish_start", 0) >= 1
    late = [
        r for r in result.report.records
        if r.delivered_at is not None and r.sent_at > 12.0
    ]
    assert late
    # deliveries after the break ride the spare route
    assert all(r.source_route[1] == 2 for r in late)

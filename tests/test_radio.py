import math
from functools import partial
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manetsim import runner
from manetsim.energy import RX_CONTROL, RX_DATA, TX_CONTROL, TX_DATA, EnergyLedger, EnergyParams
from manetsim.engine import Engine, RngStream
from manetsim.metrics import PacketLedger
from manetsim.mobility import MobilityModel, MobilityParams, WaypointLeg
from manetsim.proto_common import HELLO, Data, Rerr, Rrep, Rreq
from manetsim.radio import Radio, RadioParams
from manetsim.runner import build_network
from manetsim.scenario import Scenario
from manetsim.trace import Trace

from conftest import (
    HeapEngine, ReferenceRadio, pending_events, run_outcome, small_scenarios, static_model,
)


def stub_routers(node_count, on_frame):
    """Router stand-ins: a reception at node n, a broadcast's or a unicast's,
    calls on_frame(n, pkt, sender) through the router's on_frame."""
    return [SimpleNamespace(on_frame=partial(on_frame, n)) for n in range(node_count)]


def make_radio(positions, params=None, initial_j=10.0):
    engine = Engine()
    model = static_model(positions)
    energy = EnergyLedger(model.node_count, EnergyParams(initial=initial_j))
    metrics = PacketLedger(Trace(False))
    inbox = []
    radio = Radio(
        params or RadioParams(),
        engine,
        model,
        energy,
        metrics,
        Trace(False),
        stub_routers(model.node_count, lambda *frame: inbox.append(frame)),
        loss_rng=RngStream(1, "radio/loss"),
    )
    return engine, radio, energy, metrics, inbox


def data_pkt(origin, dest, pkt_id=0):
    return Data(origin, dest, 512, 0, 0.0, 0, pkt_id, traversed=[origin])


def control_pkt(origin):
    """A broadcast control frame that reaches on_frame (a hello does not)."""
    return Rreq(origin, 0, 0, (origin,))


def test_tx_duration_arithmetic():
    radio = make_radio([(0, 0)])[1]
    assert radio.tx_duration(512) == 512 * 8 / 2_000_000
    assert radio.tx_duration(512) == pytest.approx(2.048e-3)


def test_each_counter_books_its_own_frames_at_a_shared_size():
    # a 64 B data frame has the size of a control frame, so a price looked
    # up by size alone books it under the wrong counters
    engine, radio, energy, _, inbox = make_radio([(0, 0), (50, 0)])
    frames = [
        (control_pkt(0), 64), (data_pkt(0, 1, 1), 64), (data_pkt(0, 1, 2), 512),
        (control_pkt(0), 512), (control_pkt(0), 64), (data_pkt(0, 1, 3), 512),
    ]
    for pkt, size in frames:
        radio.send(0, pkt, size, addressee=1 if isinstance(pkt, Data) else None)
    engine.run_until(1.0)
    assert len(inbox) == len(frames)

    def booked(counter, is_data):
        return sum(
            energy.cost_pj(counter, radio.tx_duration(size))
            for pkt, size in frames
            if isinstance(pkt, Data) == is_data
        )

    assert energy.consumed_by[0] == [
        booked(TX_CONTROL, False), booked(TX_DATA, True), 0, 0
    ]
    assert energy.consumed_by[1] == [
        0, 0, booked(RX_CONTROL, False), booked(RX_DATA, True)
    ]


def test_range_boundary_inclusive():
    # receivers at 100 m and 251 m; boundary receiver exactly at 250.0
    engine, radio, _, _, inbox = make_radio([(0, 0), (100, 0), (251, 0), (250, 0)])
    count = radio.send(0, control_pkt(0), 64)
    engine.run_until(1.0)
    assert count == 2
    assert sorted(r for r, _, _ in inbox) == [1, 3]


def test_propagation_delay_delivers_by_distance():
    # receivers at 200, 50 and 120 m, one out of range; 1 ms per meter
    positions = [(0, 0), (200, 0), (0, 50), (120, 0), (0, 300)]
    delay = 1e-3
    engine, radio, energy, _, _ = make_radio(positions, RadioParams(propagation_delay=delay))
    arrivals = []
    radio.routers[:] = stub_routers(
        len(positions), lambda n, pkt, sender: arrivals.append((engine.now, n))
    )
    engine.run_until(0.5)
    assert radio.send(0, control_pkt(0), 64) == 3
    engine.run_until(2.0)
    airtime = radio.tx_duration(64)
    assert arrivals == [(0.5 + (airtime + delay * d), n) for n, d in ((2, 50), (3, 120), (1, 200))]
    # charged as with no delay: the sender's airtime, and each receiver's
    tx_pj = energy.cost_pj(TX_CONTROL, airtime)
    rx_pj = energy.cost_pj(RX_CONTROL, airtime)
    assert energy.consumed_by == [
        [tx_pj, 0, 0, 0], [0, 0, rx_pj, 0], [0, 0, rx_pj, 0], [0, 0, rx_pj, 0], [0, 0, 0, 0]
    ]

    # On a moving network each arrival follows the distance at send time,
    # not at an earlier query: node 0 stands still, node 1 walks away along
    # x (110 m out at 1 s, 120 m at 2 s), node 2 leaves the range (245 m,
    # then 255 m) and node 3 comes closer (230 m, then 220 m); node 4 is out.
    model = MobilityModel([
        [WaypointLeg(start, end, 0.0, 10.0 if start != end else 0.0, 1e12)]
        for start, end in (
            ((0.0, 0.0), (0.0, 0.0)), ((100.0, 0.0), (300.0, 0.0)),
            ((0.0, 235.0), (0.0, 535.0)), ((0.0, -240.0), (0.0, -40.0)),
            ((-400.0, 0.0), (-400.0, 0.0)),
        )
    ])
    engine, radio, _ = mobile_radio(model, RadioParams(propagation_delay=delay))
    arrivals = []
    radio.routers[:] = stub_routers(
        len(model.schedules), lambda n, pkt, sender: arrivals.append((engine.now, n))
    )
    engine.run_until(1.0)
    assert radio.neighbors(0) == [1, 2, 3]
    engine.run_until(2.0)
    assert radio.send(0, control_pkt(0), 64) == 2
    assert radio.send(0, data_pkt(0, 3), 512, addressee=3) == 1
    engine.run_until(3.0)

    def arrival(recv, size):
        (sx, sy), (ox, oy) = model.position(0, 2.0), model.position(recv, 2.0)
        dx, dy = ox - sx, oy - sy
        return 2.0 + (radio.tx_duration(size) + delay * math.sqrt(dx * dx + dy * dy))

    assert arrivals == [(arrival(1, 64), 1), (arrival(3, 64), 3), (arrival(3, 512), 3)]
    assert [model.position(n, 2.0) for n in (1, 3)] == [(120.0, 0.0), (0.0, -220.0)]


def test_empty_neighborhood_still_debits_tx():
    engine, radio, energy, _, inbox = make_radio([(0, 0), (9000, 0)])
    radio.send(0, HELLO, 64)
    engine.run_until(1.0)
    assert inbox == []
    spent = energy.consumed_by[0]
    assert spent[TX_CONTROL] + spent[TX_DATA] > 0


def test_single_node_has_no_neighbors():
    radio = make_radio([(0, 0)])[1]
    assert radio.neighbors(0) == []


def test_two_nodes_list_each_other():
    radio = make_radio([(0, 0), (100, 0)])[1]
    assert radio.neighbors(0) == [1]
    assert radio.neighbors(1) == [0]


def test_neighbors_match_brute_force_oracle():
    rng = np.random.default_rng(5)
    pts = rng.uniform((0, 0), (800, 600), size=(20, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    dead = {4, 11}
    # the nodes die before any row is taken, or after every row is taken from
    # the one snapshot, which a static network keeps for the whole run
    for rows_first in (False, True):
        engine, radio, energy, _, inbox = make_radio([tuple(p) for p in pts])
        if rows_first:
            for node in range(20):
                radio.neighbors(node)
        for node in dead:
            energy.debit(node, TX_DATA, energy.remaining_pj[node])
        for node in sorted(set(range(20)) - dead):
            expected = sorted(
                j for j in range(20) if j != node and j not in dead and d[node, j] <= 250.0
            )
            assert radio.neighbors(node) == expected
            # broadcast and unicast sends reach exactly the oracle's receivers
            assert [j for j in range(20) if radio.reaches(node, j)] == expected
            inbox.clear()
            assert radio.send(node, control_pkt(node), 64) == len(expected)
            for j in range(20):
                radio.send(node, control_pkt(node), 64, addressee=j)
            engine.run_until(engine.now + 1.0)
            assert [r for r, _, _ in inbox] == expected * 2


def test_link_symmetry():
    rng = np.random.default_rng(11)
    pts = [tuple(p) for p in rng.uniform((0, 0), (800, 600), size=(15, 2))]
    radio = make_radio(pts)[1]
    nbrs = {n: set(radio.neighbors(n)) for n in range(15)}
    for a in range(15):
        for b in nbrs[a]:
            assert a in nbrs[b]


def test_zero_loss_delivers_exactly_once():
    engine, radio, _, _, inbox = make_radio([(0, 0), (50, 0), (100, 0)])
    radio.send(0, control_pkt(0), 64)
    engine.run_until(1.0)
    assert sorted(r for r, _, _ in inbox) == [1, 2]


def test_unicast_consumed_only_by_addressee():
    engine, radio, energy, metrics, inbox = make_radio([(0, 0), (50, 0), (100, 0)])
    pkt = data_pkt(0, 2)
    metrics.on_sent(pkt)
    radio.send(0, pkt, 512, addressee=2)
    engine.run_until(1.0)
    assert [(r, s) for r, _, s in inbox] == [(2, 0)]
    # bystander pays nothing
    bystander, addressee = energy.consumed_by[1], energy.consumed_by[2]
    assert bystander[RX_CONTROL] + bystander[RX_DATA] == 0
    assert addressee[RX_CONTROL] + addressee[RX_DATA] > 0


def test_unicast_void_counts_link_break():
    engine, radio, energy, metrics, inbox = make_radio([(0, 0), (1000, 0)])
    pkt = data_pkt(0, 1)
    metrics.on_sent(pkt)
    radio.send(0, pkt, 512, addressee=1)
    engine.run_until(1.0)
    assert inbox == []
    report = metrics.finalize(1.0, energy)
    assert report.drop_breakdown == {"link_break": 1}


def test_dead_sender_sends_nothing():
    engine, radio, energy, metrics, inbox = make_radio([(0, 0), (50, 0)])
    energy.debit(0, TX_DATA, energy.remaining_pj[0])  # drain completely
    assert not energy.alive(0)
    pkt = data_pkt(0, 1)
    metrics.on_sent(pkt)
    radio.send(0, pkt, 512, addressee=1)
    engine.run_until(1.0)
    assert inbox == []
    assert metrics.finalize(1.0, energy).drop_breakdown == {"dead_node": 1}


@pytest.mark.xfail(
    strict=True,
    reason="FOUND in CHANGES.md, ROADMAP item 20: a data reception that empties or finds "
    "dead its addressee goes to debit, and the packet is never delivered or dropped",
)
def test_data_frame_to_a_dying_addressee_ends_terminal():
    engine, radio, energy, metrics, inbox = make_radio([(0, 0), (50, 0)])
    # the addressee can pay for exactly one data reception, which empties it
    energy.remaining_pj[1] = energy.cost_pj(RX_DATA, radio.tx_duration(512))
    pkt = data_pkt(0, 1)
    metrics.on_sent(pkt)
    radio.send(0, pkt, 512, addressee=1)
    engine.run_until(1.0)
    assert inbox == []
    assert not energy.alive(1)
    assert pkt.terminal
    assert metrics.finalize(1.0, energy).in_flight == 0


def test_delivery_delayed_by_tx_duration():
    engine, radio, _, _, inbox = make_radio([(0, 0), (50, 0)])
    times = []
    radio.routers[:] = stub_routers(2, lambda *_: times.append(engine.now))
    radio.send(0, control_pkt(0), 512)
    engine.run_until(1.0)
    assert times == [pytest.approx(512 * 8 / 2_000_000)]


def test_membership_decided_at_send_time():
    # receiver walks out of range immediately after the frame leaves
    legs = [
        [WaypointLeg((0.0, 0.0), (0.0, 0.0), 0.0, 0.0, 1e12)],
        [
            WaypointLeg((249.0, 0.0), (249.0, 0.0), 0.0, 0.0, 1e-6),
            WaypointLeg((249.0, 0.0), (500.0, 0.0), 1e-6, 1e6, 1e12),
        ],
    ]
    model = MobilityModel(legs)
    engine = Engine()
    energy = EnergyLedger(2, EnergyParams())
    metrics = PacketLedger(Trace(False))
    inbox = []
    routers = stub_routers(2, lambda recv, *_: inbox.append(recv))
    radio = Radio(
        RadioParams(), engine, model, energy, metrics, Trace(False), routers,
        RngStream(1, "radio/loss"),
    )
    radio.send(0, control_pkt(0), 64)
    engine.run_until(1.0)
    assert inbox == [1]


def mobile_radio(model, params=None):
    """A radio over `model`; its queries answer at the engine's clock, which
    a test moves with `engine.run_until`."""
    engine = Engine()
    energy = EnergyLedger(model.node_count, EnergyParams())
    radio = Radio(
        params or RadioParams(), engine, model, energy, PacketLedger(Trace(False)), Trace(False),
        stub_routers(model.node_count, lambda *_: None), RngStream(1, "radio/loss"),
    )
    return engine, radio, energy


def test_a_snapshot_lasts_one_instant_or_the_whole_static_run():
    def counted(model):
        calls = []
        position = model.position
        model.position = lambda node, t: calls.append(t) or position(node, t)
        return model, calls

    # a network that never moves takes one snapshot, n calls, that answers
    # every later instant, before and after a death; reaches reads the model
    model, calls = counted(static_model([(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)]))
    assert model.speed_bound == 0.0
    engine, radio, energy = mobile_radio(model)
    engine.run_until(1.0)
    assert radio.neighbors(1) == [0, 2]
    engine.run_until(50.0)
    assert radio.neighbors(0) == [1]
    engine.run_until(1e6)
    assert radio.reaches(2, 1)
    energy.debit(1, TX_DATA, energy.remaining_pj[1])
    engine.run_until(2e6)
    assert radio.neighbors(0) == []
    engine.run_until(3e6)
    assert not radio.reaches(2, 1)
    engine.run_until(4e6)
    assert radio.neighbors(1) == [0, 2]
    assert calls == [1.0] * 3 + [1e6] * 2
    # node 1 stands 200 m from node 0 until it departs at 5 s, then walks off:
    # every node is paused before 5 s, yet each instant takes its own snapshot
    model, calls = counted(MobilityModel([
        [WaypointLeg((0.0, 0.0), (0.0, 0.0), 0.0, 0.0, 1e12)],
        [
            WaypointLeg((200.0, 0.0), (200.0, 0.0), 0.0, 0.0, 5.0),
            WaypointLeg((200.0, 0.0), (600.0, 0.0), 5.0, 100.0, 1e12),
        ],
    ]))
    engine, radio, _ = mobile_radio(model)
    engine.run_until(1.0)
    assert radio.neighbors(0) == [1]
    assert radio.neighbors(1) == [0]
    assert calls == [1.0, 1.0]
    engine.run_until(4.5)
    assert radio.neighbors(0) == [1]
    # one second after its departure node 1 is 300 m out
    engine.run_until(6.0)
    assert radio.neighbors(0) == []
    assert calls == [1.0, 1.0, 4.5, 4.5, 6.0, 6.0]


def test_a_schedule_that_jumps_holds_nothing():
    # node 1 stands 100 m from node 0 and jumps 1 km away at 5 s; node 2
    # walks slowly far off, so the network moves at every instant and only
    # a hold could carry an answer from one instant to the next
    model = MobilityModel([
        [WaypointLeg((0.0, 0.0), (0.0, 0.0), 0.0, 0.0, 1e12)],
        [
            WaypointLeg((100.0, 0.0), (100.0, 0.0), 0.0, 0.0, 5.0),
            WaypointLeg((100.0, 0.0), (1000.0, 0.0), 5.0, 0.0, 1e12),
        ],
        [WaypointLeg((0.0, 5000.0), (10.0, 5000.0), 0.0, 0.1, 1e12)],
    ])
    assert model.speed_bound == math.inf
    engine, radio, _ = mobile_radio(model)
    engine.run_until(1.0)
    assert radio.neighbors(0) == [1]
    assert radio.reaches(0, 1)
    engine.run_until(5.0)
    assert radio.neighbors(0) == []
    assert not radio.reaches(0, 1)


def test_holds_end_in_time_for_nodes_at_the_speed_bound():
    # every node flies along the x axis at the bound, 10 m/s, node 0 to the
    # right and the others to the left, so their distances to node 0 grow
    # or shrink at 20 m/s, the fastest any two nodes' distance can change.
    # Node 1 (200 m behind) leaves the range at 2.5 s, node 2 (230 m behind,
    # in the ring) at 1 s and node 3 (225 m behind, on the ring's inner
    # edge) at 1.25 s. Node 4 (270 m ahead, in the ring) enters at 1 s and
    # node 5 (276 m ahead, past the ring) at 1.3 s. Node 6 (210 m ahead)
    # stays in throughout.
    speed, far = 10.0, 1e5
    starts = (0, -200, -230, -225, 270, 276, 210)
    model = MobilityModel([
        [WaypointLeg((x, 0.0), (x + (far if x == 0 else -far), 0.0), 0.0, speed, 1e12)]
        for x in starts
    ])
    assert model.speed_bound == speed
    engine, radio, _ = mobile_radio(model)
    nodes = range(len(starts))
    for step in range(61):
        t = step / 20
        engine.run_until(t)
        pos = [model.position(n, t) for n in nodes]
        expected = [n for n in nodes[1:] if abs(pos[n][0] - pos[0][0]) <= 250.0]
        assert radio.neighbors(0) == expected, t
        assert [n for n in nodes if radio.reaches(0, n)] == expected, t
        assert [n for n in nodes if radio.reaches(n, 0)] == expected, t


# a query step: how far the clock moves, then what is asked at the new time
_gaps = st.one_of(
    st.just(0.0),  # another query at the same instant
    st.floats(0.0, 1e-3),  # the next hop of a flood wave
    st.floats(1e-3, 0.5),
    st.floats(0.5, 8.0),  # a hello period or more
)
_asks = st.one_of(
    st.just(("neighbors", 0)),  # every node's row
    st.tuples(st.just("reaches"), st.integers(0, 29)),  # from one node to every node
    st.tuples(st.just("kill"), st.integers(0, 29)),
)


@settings(max_examples=60, deadline=None)
@given(
    node_count=st.integers(2, 30),
    v_max=st.floats(0.5, 50.0),
    slowest=st.floats(0.0, 1.0),  # v_min as a share of v_max
    pause_time=st.sampled_from([0.0, 0.0, 2.0, 15.0, 200.0]),  # 200: static
    seed=st.integers(1, 10_000),
    steps=st.lists(st.tuples(_gaps, _asks), min_size=1, max_size=60),
)
def test_answers_match_a_brute_force_check_at_every_query(
    node_count, v_max, slowest, pause_time, seed, steps
):
    # random-waypoint nodes in a small area, so many pairs sit near the range
    # edge and cross it; time never runs backwards, as in a run
    params = MobilityParams(
        area=(500.0, 400.0), v_max=v_max, v_min=max(slowest * v_max, 0.1), pause_time=pause_time
    )
    model = MobilityModel.generate(
        node_count, params, 200.0, lambda label: RngStream(seed, label)
    )
    engine, radio, energy = mobile_radio(model)
    nodes = range(node_count)
    t = 0.0
    for gap, (ask, node) in steps:
        t = min(t + gap, 200.0)
        engine.run_until(t)
        node %= node_count
        if ask == "kill":
            energy.debit(node, TX_DATA, energy.remaining_pj[node])
            continue
        pos = [model.position(n, t) for n in nodes]
        expected = [
            [
                o for o in nodes
                if o != n and energy.remaining_pj[o] > 0
                and (pos[o][0] - pos[n][0]) ** 2 + (pos[o][1] - pos[n][1]) ** 2 <= 250.0**2
            ]
            for n in nodes
        ]
        if ask == "neighbors":
            assert [radio.neighbors(n) for n in nodes] == expected
        else:
            assert [o for o in nodes if radio.reaches(node, o)] == expected[node]


def test_per_frame_loss_prob_drops_some():
    params = RadioParams(per_frame_loss_prob=0.5)
    engine, radio, _, _, inbox = make_radio([(0, 0), (50, 0)], params=params)
    for _ in range(100):
        radio.send(0, control_pkt(0), 64)
    engine.run_until(10.0)
    assert 20 < len(inbox) < 80


def test_receiver_drained_mid_frame_is_charged_after_earlier_receivers():
    # receiver 2 holds exactly one reception's charge; receiver 1 handles the
    # frame first and broadcasts at once, while 2 still counts as alive
    engine, radio, energy, _, _ = make_radio([(0, 0), (50, 0), (100, 0)])
    log = []
    energy.on_death = lambda node: log.append(("death", node))

    def relay(node, pkt, sender):
        log.append(("rx", node, sender))
        if node == 1 and sender == 0:
            log.append(("neighbors", radio.neighbors(1)))
            log.append(("tx", radio.send(1, control_pkt(1), 64)))

    radio.routers[:] = stub_routers(3, relay)
    energy.remaining_pj[2] = energy.cost_pj(RX_CONTROL, radio.tx_duration(64))
    assert radio.send(0, control_pkt(0), 64) == 2
    engine.run_until(1.0)
    assert log == [
        ("rx", 1, 0),
        ("neighbors", [0, 2]),
        ("tx", 2),
        ("death", 2),
        ("rx", 0, 1),
    ]
    assert energy.remaining_pj[2] == 0


@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=8),
    st.integers(0, 12),
    st.sampled_from([RX_CONTROL, RX_DATA]),
    st.data(),
)
def test_batch_delivery_books_like_a_debit_per_receiver(budgets, amount_pj, rx, data):
    receivers = tuple(data.draw(st.permutations(range(len(budgets)))))
    receivers = receivers[: data.draw(st.integers(0, len(receivers)))]
    sender = len(budgets)
    # the request copy's route record and its flood's table, at time 0: a
    # receiver on the record, or one the table holds past now, is booked
    # alike and never handled; an entry at or before now turns nobody away
    on_record = data.draw(st.sets(st.sampled_from(range(sender))))
    until = st.sampled_from([-1.0, 0.0, 1e-9, math.inf])
    table = data.draw(st.dictionaries(st.sampled_from(range(sender)), until))
    packet = Rreq(sender, 0, 0, (sender, *sorted(on_record)), flood=dict(table))
    positions = [(10 * n, 0) for n in range(len(budgets) + 1)]

    def ledger(handled, deaths):
        _, radio, energy, _, _ = make_radio(positions)
        energy.remaining_pj[:sender] = budgets
        energy.on_death = deaths.append
        radio.routers[:] = stub_routers(sender + 1, lambda node, *_: handled.append(node))
        return radio, energy

    handled, deaths, debited = [], [], []
    radio, energy = ledger(handled, deaths)
    debit = energy.debit
    energy.debit = lambda node, *charge: debited.append(node) or debit(node, *charge)
    radio._deliver_batch(receivers, packet, sender, rx, amount_pj)

    ref_deaths = []
    _, ref = ledger([], ref_deaths)
    survivors = [recv for recv in receivers if ref.debit(recv, rx, amount_pj)]

    assert energy.remaining_pj == ref.remaining_pj
    assert energy.consumed_by == ref.consumed_by
    assert deaths == ref_deaths
    # a charge that drains its receiver goes to debit
    assert debited == [recv for recv in receivers if recv not in survivors]
    admitted = [r for r in survivors if r not in on_record and table.get(r, -1.0) <= 0.0]
    assert handled == admitted
    assert packet.flood == table


# a unicast frame kind: (packet for an addressee, frame size, rx counter)
UNICASTS = {
    "data": (lambda recv, i: data_pkt(0, recv, pkt_id=i), 512, RX_DATA),
    "rrep": (lambda recv, i: Rrep(0, recv), 64, RX_CONTROL),
    "rerr": (lambda recv, i: Rerr((recv,)), 64, RX_CONTROL),
}


@given(
    st.lists(st.sampled_from(["above", "at", "below", "dead"]), min_size=1, max_size=6),
    st.sampled_from(sorted(UNICASTS)),
    st.data(),
)
def test_unicast_delivery_books_like_a_debit_and_handles_only_a_survivor(levels, kind, data):
    # each addressee's budget lies above, at or below one rx charge, or is
    # spent; unicasts go out at time 0 and arrive in send order, so a second
    # frame to an addressee the first one drained reaches a dead node
    make_packet, size, rx = UNICASTS[kind]
    sender = len(levels)
    frames = data.draw(st.lists(st.sampled_from(range(sender)), max_size=12))
    offsets = data.draw(st.lists(st.integers(1, 10**6), min_size=sender, max_size=sender))
    positions = [(10 * n, 0) for n in range(sender + 1)]

    def ledger(handled, deaths):
        engine, radio, energy, metrics, _ = make_radio(positions)
        radio.routers[:] = stub_routers(sender + 1, lambda node, *_: handled.append(node))
        charge = energy.cost_pj(rx, radio.tx_duration(size))
        for node, (level, k) in enumerate(zip(levels, offsets)):
            budget = {"above": charge + k, "at": charge, "below": charge - k, "dead": 0}[level]
            energy.debit(node, TX_CONTROL, energy.initial_pj - budget)  # the books stay closed
        energy.on_death = deaths.append
        for i, recv in enumerate(frames):
            packet = make_packet(recv, i)
            if kind == "data":
                metrics.on_sent(packet)
            radio.send(sender, packet, size, addressee=recv)
        return engine, energy, charge

    handled, deaths, debited = [], [], []
    engine, energy, charge = ledger(handled, deaths)
    assert all(0 < k < charge for k in offsets)  # "below" leaves a live budget
    debit = energy.debit
    energy.debit = lambda node, *charge: debited.append(node) or debit(node, *charge)
    engine.run_until(1.0)

    # the reference: an addressee alive at send time is charged by debit
    ref_deaths = []
    _, ref, _ = ledger([], ref_deaths)
    sent = [recv for recv in frames if levels[recv] != "dead"]
    survivors = [ref.debit(recv, rx, charge) for recv in sent]

    assert energy.remaining_pj == ref.remaining_pj
    assert energy.consumed_by == ref.consumed_by
    assert deaths == ref_deaths
    assert energy.closed()
    # booked in place and handled while the charge leaves the addressee
    # alive; otherwise booked by debit and never handled
    assert handled == [recv for recv, alive in zip(sent, survivors) if alive]
    assert debited == [recv for recv, alive in zip(sent, survivors) if not alive]


# a frame a sender transmits to the addressee: (packet from sender with id
# i, frame size, tx counter, whether it is unicast)
SENDS = {
    "data": (lambda sender, addressee, i: data_pkt(sender, addressee, i), 512, TX_DATA, True),
    "rrep": (lambda sender, addressee, i: Rrep(sender, addressee), 64, TX_CONTROL, True),
    "broadcast": (lambda sender, addressee, i: control_pkt(sender), 64, TX_CONTROL, False),
}


@given(
    st.lists(
        st.tuples(st.sampled_from(["above", "at", "below", "dead"]), st.sampled_from(sorted(SENDS))),
        min_size=1,
        max_size=6,
    ),
    st.data(),
)
def test_a_send_books_its_sender_like_a_debit_and_schedules_only_for_a_survivor(senders, data):
    # each sender sends one kind of frame, and its budget lies above, at or
    # below one tx charge of that kind, or is spent; a sender sends twice or
    # more in some draws, so a later frame can find it drained by an earlier
    addressee = len(senders)
    frames = data.draw(st.lists(st.sampled_from(range(addressee)), min_size=1, max_size=12))
    offsets = data.draw(st.lists(st.integers(1, 10**6), min_size=addressee, max_size=addressee))
    positions = [(10 * n, 0) for n in range(addressee + 1)]

    def ledger(deaths):
        engine, radio, energy, metrics, _ = make_radio(positions)
        charges = []
        for node, ((level, kind), k) in enumerate(zip(senders, offsets)):
            _, size, tx, _ = SENDS[kind]
            charge = energy.cost_pj(tx, radio.tx_duration(size))
            budget = {"above": charge + k, "at": charge, "below": charge - k, "dead": 0}[level]
            energy.debit(node, TX_CONTROL, energy.initial_pj - budget)  # the books stay closed
            charges.append(charge)
        energy.on_death = deaths.append
        return engine, radio, energy, metrics, charges

    deaths = []
    engine, radio, energy, metrics, charges = ledger(deaths)
    assert all(0 < k < charge for k, charge in zip(offsets, charges))
    scheduled, packets = [], []
    for sender in frames:
        make_packet, size, _, unicast = SENDS[senders[sender][1]]
        packet = make_packet(sender, addressee, len(packets))
        if type(packet) is Data:
            metrics.on_sent(packet)
            packets.append(packet)
        pending = len(pending_events(engine))
        count = radio.send(sender, packet, size, addressee=addressee if unicast else None)
        scheduled.append((count, len(pending_events(engine)) - pending))

    # the reference: every frame's tx charge is booked by debit, and a
    # broadcast reaches the other nodes alive when it is sent
    ref_deaths = []
    _, _, ref, _, _ = ledger(ref_deaths)
    survived, in_range = [], []
    for sender in frames:
        in_range.append(sum(ref.alive(n) for n in range(addressee + 1) if n != sender))
        survived.append(ref.debit(sender, SENDS[senders[sender][1]][2], charges[sender]))

    assert energy.remaining_pj == ref.remaining_pj
    assert energy.consumed_by == ref.consumed_by
    assert deaths == ref_deaths
    assert energy.deaths == ref.deaths
    assert energy.closed()
    # a sender the charge leaves alive reaches the addressee (a unicast) or
    # every live node in range (a broadcast) in one delivery event; any
    # other schedules nothing
    for (count, events), sender, alive, others in zip(scheduled, frames, survived, in_range):
        receivers = 1 if SENDS[senders[sender][1]][3] else others
        assert (count, events) == ((receivers, 1) if alive else (0, 0))
    # data is lost at a sender the charge empties or finds spent
    data_alive = [alive for sender, alive in zip(frames, survived) if senders[sender][1] == "data"]
    assert [metrics.records[p.pkt_id].drop_cause for p in packets] == [
        None if alive else "dead_node" for alive in data_alive
    ]
    assert metrics.data_transmissions == sum(data_alive)
    assert metrics.control_transmissions == sum(
        alive for sender, alive in zip(frames, survived) if senders[sender][1] != "data"
    )


@pytest.mark.parametrize("kind", ["data", "rrep"])
def test_a_held_link_to_an_addressee_dead_since_schedules_nothing(kind):
    make_packet, size, _, _ = SENDS[kind]
    engine, radio, energy, metrics, inbox = make_radio([(0, 0), (50, 0)])
    first, second = make_packet(0, 1, 0), make_packet(0, 1, 1)
    if kind == "data":
        metrics.on_sent(first)
        metrics.on_sent(second)
    assert radio.send(0, first, size, addressee=1) == 1
    # the first unicast measured the pair and holds the link for the run
    assert radio._links[0] == {1: math.inf}
    energy.debit(1, RX_CONTROL, energy.remaining_pj[1])
    pending = pending_events(engine)
    assert radio.send(0, second, size, addressee=1) == 0
    assert pending_events(engine) == pending
    engine.run_until(1.0)
    assert inbox == []
    if kind == "data":
        assert metrics.records[1].drop_cause == "link_break"


@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=8),
    st.integers(0, 12),
    st.floats(0.0, 1e4),
    st.floats(0.01, 10.0),
    st.integers(1, 5),
    st.data(),
)
def test_hello_batch_books_like_a_debit_and_a_deadline_per_receiver(
    budgets, amount_pj, now, hello_interval, allowed_hello_loss, data
):
    receivers = tuple(data.draw(st.permutations(range(len(budgets)))))
    receivers = receivers[: data.draw(st.integers(0, len(receivers)))]
    sender = len(budgets)
    # deadlines some receivers already hold for the sender, some long past
    prior = data.draw(st.dictionaries(st.integers(0, sender - 1), st.floats(0.0, 2e4)))
    sc = Scenario(node_count=sender + 1)
    sc.proto.hello_interval = hello_interval
    sc.proto.allowed_hello_loss = allowed_hello_loss
    positions = [(10 * n, 0) for n in range(sender + 1)]

    def network(deaths):
        net = build_network(sc, mobility=static_model(positions))
        net.energy.remaining_pj[:sender] = budgets
        net.energy.on_death = deaths.append
        for node, deadline in prior.items():
            net.routers[node].hello_deadline[sender] = deadline
        net.engine.run_until(now)
        return net

    deaths = []
    net = network(deaths)
    net.radio._deliver_batch(receivers, HELLO, sender, RX_CONTROL, amount_pj)

    ref_deaths = []
    ref = network(ref_deaths)
    for recv in receivers:
        if ref.energy.debit(recv, RX_CONTROL, amount_pj):
            ref.routers[recv].hello_deadline[sender] = now + ref.routers[recv].hello_allowance

    assert net.energy.remaining_pj == ref.energy.remaining_pj
    assert net.energy.consumed_by == ref.energy.consumed_by
    assert deaths == ref_deaths
    assert [r.hello_deadline for r in net.routers] == [r.hello_deadline for r in ref.routers]


@st.composite
def reference_scenarios(draw):
    """small_scenarios, some of them faster (so held links and ring members
    change within a run) and some with batteries that run out mid-run (so
    held links meet dead addressees)."""
    sc = draw(small_scenarios())
    if draw(st.booleans()):
        sc = sc.variant(v_max=draw(st.sampled_from([1.0, 5.0, 20.0])))
    if draw(st.booleans()):
        sc = sc.variant(initial_energy=draw(st.sampled_from([0.05, 0.1, 0.2])))
    return sc


@settings(max_examples=200, deadline=None)
@given(reference_scenarios())
def test_whole_runs_match_on_the_reference_radio(sc):
    # the reference has one delivery event per receiver, so Engine.processed
    # differs by design and is not compared
    outcome = run_outcome(sc)
    with mock.patch.object(runner, "Radio", ReferenceRadio), mock.patch.object(
        runner, "Engine", HeapEngine
    ):
        assert run_outcome(sc) == outcome

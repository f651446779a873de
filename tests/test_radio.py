from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from manetsim.energy import RX_CONTROL, RX_DATA, TX_CONTROL, TX_DATA, EnergyLedger, EnergyParams
from manetsim.engine import Engine, RngStream
from manetsim.metrics import PacketLedger
from manetsim.proto_common import Data, Hello
from manetsim.radio import Radio, RadioParams
from manetsim.trace import Trace

from conftest import static_model


def stub_routers(node_count, on_frame):
    """Router stand-ins: a reception at node n calls on_frame(n, pkt, sender)."""
    return [SimpleNamespace(on_frame=partial(on_frame, n)) for n in range(node_count)]


def make_radio(positions, params=None, initial_j=10.0):
    engine = Engine()
    model = static_model(positions)
    energy = EnergyLedger(model.node_count, EnergyParams(initial=initial_j))
    metrics = PacketLedger()
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


def test_tx_duration_arithmetic():
    radio = make_radio([(0, 0)])[1]
    assert radio.tx_duration(512) == 512 * 8 / 2_000_000
    assert radio.tx_duration(512) == pytest.approx(2.048e-3)


def test_each_counter_books_its_own_frames_at_a_shared_size():
    # a 64 B data frame has the size of a control frame, so a price looked
    # up by size alone books it under the wrong counters
    engine, radio, energy, _, inbox = make_radio([(0, 0), (50, 0)])
    frames = [
        (Hello(0, 1), 64), (data_pkt(0, 1, 1), 64), (data_pkt(0, 1, 2), 512),
        (Hello(0, 2), 512), (Hello(0, 3), 64), (data_pkt(0, 1, 3), 512),
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

    assert energy.states[0].consumed_by == [
        booked(TX_CONTROL, False), booked(TX_DATA, True), 0, 0
    ]
    assert energy.states[1].consumed_by == [
        0, 0, booked(RX_CONTROL, False), booked(RX_DATA, True)
    ]


def test_range_boundary_inclusive():
    # receivers at 100 m and 251 m; boundary receiver exactly at 250.0
    engine, radio, _, _, inbox = make_radio([(0, 0), (100, 0), (251, 0), (250, 0)])
    count = radio.send(0, Hello(0, 1), 64)
    engine.run_until(1.0)
    assert count == 2
    assert sorted(r for r, _, _ in inbox) == [1, 3]


def test_empty_neighborhood_still_debits_tx():
    engine, radio, energy, _, inbox = make_radio([(0, 0), (9000, 0)])
    radio.send(0, Hello(0, 1), 64)
    engine.run_until(1.0)
    assert inbox == []
    spent = energy.states[0].consumed_by
    assert spent[TX_CONTROL] + spent[TX_DATA] > 0


def test_single_node_has_no_neighbors():
    radio = make_radio([(0, 0)])[1]
    assert radio.neighbors(0, 0.0) == []


def test_two_nodes_list_each_other():
    radio = make_radio([(0, 0), (100, 0)])[1]
    assert radio.neighbors(0, 0.0) == [1]
    assert radio.neighbors(1, 0.0) == [0]


def test_neighbors_match_brute_force_oracle():
    rng = np.random.default_rng(5)
    pts = rng.uniform((0, 0), (800, 600), size=(20, 2))
    engine, radio, energy, _, inbox = make_radio([tuple(p) for p in pts])
    dead = {4, 11}
    for node in dead:
        energy.debit(node, TX_DATA, energy.states[node].remaining_pj)
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    for node in sorted(set(range(20)) - dead):
        expected = sorted(
            j for j in range(20) if j != node and j not in dead and d[node, j] <= 250.0
        )
        assert radio.neighbors(node, 0.0) == expected
        # broadcast and unicast sends reach exactly the oracle's receivers
        assert [j for j in range(20) if radio.reaches(node, j, 0.0)] == expected
        inbox.clear()
        assert radio.send(node, Hello(node, 1), 64) == len(expected)
        for j in range(20):
            radio.send(node, Hello(node, 1), 64, addressee=j)
        engine.run_until(engine.now + 1.0)
        assert [r for r, _, _ in inbox] == expected * 2


def test_link_symmetry():
    rng = np.random.default_rng(11)
    pts = [tuple(p) for p in rng.uniform((0, 0), (800, 600), size=(15, 2))]
    radio = make_radio(pts)[1]
    nbrs = {n: set(radio.neighbors(n, 0.0)) for n in range(15)}
    for a in range(15):
        for b in nbrs[a]:
            assert a in nbrs[b]


def test_zero_loss_delivers_exactly_once():
    engine, radio, _, _, inbox = make_radio([(0, 0), (50, 0), (100, 0)])
    radio.send(0, Hello(0, 1), 64)
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
    bystander, addressee = energy.states[1].consumed_by, energy.states[2].consumed_by
    assert bystander[RX_CONTROL] + bystander[RX_DATA] == 0
    assert addressee[RX_CONTROL] + addressee[RX_DATA] > 0


def test_unicast_void_counts_link_break():
    engine, radio, _, metrics, inbox = make_radio([(0, 0), (1000, 0)])
    pkt = data_pkt(0, 1)
    metrics.on_sent(pkt)
    radio.send(0, pkt, 512, addressee=1)
    engine.run_until(1.0)
    assert inbox == []
    report = metrics.finalize(1.0)
    assert report.drop_breakdown == {"link_break": 1}


def test_dead_sender_sends_nothing():
    engine, radio, energy, metrics, inbox = make_radio([(0, 0), (50, 0)])
    energy.debit(0, TX_DATA, energy.states[0].remaining_pj)  # drain completely
    assert not energy.alive(0)
    pkt = data_pkt(0, 1)
    metrics.on_sent(pkt)
    radio.send(0, pkt, 512, addressee=1)
    engine.run_until(1.0)
    assert inbox == []
    assert metrics.finalize(1.0).drop_breakdown == {"dead_node": 1}


def test_delivery_delayed_by_tx_duration():
    engine, radio, _, _, inbox = make_radio([(0, 0), (50, 0)])
    times = []
    radio.routers[:] = stub_routers(2, lambda *_: times.append(engine.now))
    radio.send(0, Hello(0, 1), 512)
    engine.run_until(1.0)
    assert times == [pytest.approx(512 * 8 / 2_000_000)]


def test_membership_decided_at_send_time():
    # receiver walks out of range immediately after the frame leaves
    from manetsim.mobility import MobilityModel, WaypointLeg

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
    metrics = PacketLedger()
    inbox = []
    routers = stub_routers(2, lambda recv, *_: inbox.append(recv))
    radio = Radio(RadioParams(), engine, model, energy, metrics, Trace(False), routers)
    radio.send(0, Hello(0, 1), 64)
    engine.run_until(1.0)
    assert inbox == [1]


def test_per_frame_loss_prob_drops_some():
    params = RadioParams(per_frame_loss_prob=0.5)
    engine, radio, _, _, inbox = make_radio([(0, 0), (50, 0)], params=params)
    for _ in range(100):
        radio.send(0, Hello(0, 1), 64)
    engine.run_until(10.0)
    assert 20 < len(inbox) < 80


def test_radio_param_validation():
    with pytest.raises(ValueError):
        RadioParams(range=0).validate()
    with pytest.raises(ValueError):
        RadioParams(bandwidth=0).validate()
    with pytest.raises(ValueError):
        RadioParams(per_frame_loss_prob=1.5).validate()

import math

import pytest

from manetsim.energy import EnergyLedger, EnergyParams
from manetsim.engine import SimulationError
from manetsim.metrics import PacketLedger
from manetsim.proto_common import Data
from manetsim.trace import Trace

# the energy ledger finalize reads; nothing here charges it
IDLE = EnergyLedger(2, EnergyParams())


def pkt(pkt_id, sent_at=0.0, size=512):
    return Data(0, 1, size, pkt_id, sent_at, 0, pkt_id, traversed=[0])


def test_pdr_and_loss_arithmetic():
    ledger = PacketLedger(Trace(enabled=False))
    for i in range(100):
        p = pkt(i)
        ledger.on_sent(p)
        if i < 90:
            p.traversed.append(1)
            ledger.on_delivered(p, 0.5)
        else:
            ledger.on_dropped(p, "no_route", 1.0, 0)
    report = ledger.finalize(120.0, IDLE)
    assert report.pdr == pytest.approx(0.90)
    assert report.loss_ratio == pytest.approx(0.10)
    assert report.in_flight == 0
    assert report.drop_breakdown == {"no_route": 10}


def test_nrl_arithmetic():
    ledger = PacketLedger(Trace(enabled=False))
    for _ in range(300):
        ledger.on_control_tx()
    for i in range(150):
        p = pkt(i)
        ledger.on_sent(p)
        p.traversed.append(1)
        ledger.on_delivered(p, 1.0)
    assert ledger.finalize(120.0, IDLE).nrl == pytest.approx(2.0)


def test_throughput_arithmetic():
    ledger = PacketLedger(Trace(enabled=False))
    for i in range(90):
        p = pkt(i)
        ledger.on_sent(p)
        p.traversed.append(1)
        ledger.on_delivered(p, 1.0)
    assert ledger.finalize(120.0, IDLE).throughput_kbps == pytest.approx(3.072)


def test_delay_is_mean_over_delivered():
    ledger = PacketLedger(Trace(enabled=False))
    a = pkt(0, sent_at=1.0)
    b = pkt(1, sent_at=2.0)
    ledger.on_sent(a)
    ledger.on_sent(b)
    ledger.on_delivered(a, 1.5)
    ledger.on_delivered(b, 2.1)
    assert ledger.finalize(10.0, IDLE).avg_e2e_delay == pytest.approx((0.5 + 0.1) / 2)


def test_duplicate_delivery_is_hard_fault():
    ledger = PacketLedger(Trace(enabled=False))
    p = pkt(0)
    ledger.on_sent(p)
    ledger.on_delivered(p, 1.0)
    with pytest.raises(SimulationError):
        ledger.on_delivered(p, 2.0)


def test_drop_then_deliver_is_hard_fault():
    ledger = PacketLedger(Trace(enabled=False))
    p = pkt(0)
    ledger.on_sent(p)
    ledger.on_dropped(p, "no_route", 1.0, 0)
    with pytest.raises(SimulationError):
        ledger.on_delivered(p, 2.0)


def test_drop_cause_with_no_report_column_is_hard_fault():
    ledger = PacketLedger(Trace(enabled=False))
    p = pkt(0)
    ledger.on_sent(p)
    ledger.on_dropped(p, "bogus", 1.0, 0)
    with pytest.raises(SimulationError, match="bogus"):
        ledger.finalize(120.0, IDLE)


def test_zero_deliveries_use_nan_sentinels():
    ledger = PacketLedger(Trace(enabled=False))
    p = pkt(0)
    ledger.on_sent(p)
    ledger.on_dropped(p, "no_route", 1.0, 0)
    report = ledger.finalize(120.0, IDLE)
    assert math.isnan(report.nrl)
    assert math.isnan(report.avg_e2e_delay)
    assert report.throughput_kbps == 0.0


def test_conservation_with_in_flight():
    ledger = PacketLedger(Trace(enabled=False))
    states = []
    for i in range(10):
        p = pkt(i)
        ledger.on_sent(p)
        states.append(p)
    for p in states[:6]:
        p.traversed.append(1)
        ledger.on_delivered(p, 1.0)
    for p in states[6:8]:
        ledger.on_dropped(p, "link_break", 1.0, 0)
    report = ledger.finalize(5.0, IDLE)
    assert report.sent == 10
    assert report.delivered == 6
    assert report.dropped == 2
    assert report.in_flight == 2
    assert report.sent == report.delivered + report.dropped + report.in_flight
    assert report.pdr + report.loss_ratio + report.in_flight / report.sent == pytest.approx(1.0)


def test_control_counts_per_hop_transmission():
    ledger = PacketLedger(Trace(enabled=False))
    for _ in range(5):
        ledger.on_control_tx()
    assert ledger.control_transmissions == 5


def test_the_records_are_the_sent_packets_in_pkt_id_order():
    ledger = PacketLedger(Trace(enabled=False))
    packets = [pkt(i) for i in range(4)]
    for p in packets:
        ledger.on_sent(p)
    ledger.on_dropped(packets[1], "no_route", 1.0, 0)
    packets[2].traversed.append(1)
    ledger.on_delivered(packets[2], 1.0)
    report = ledger.finalize(5.0, IDLE)
    assert report.records is ledger.records  # no copy
    assert len(report.records) == len(packets)
    for i, p in enumerate(packets):
        assert report.records[i] is p
    assert [p.terminal for p in report.records] == [False, True, True, False]


@pytest.mark.parametrize("end", ["delivered", "dropped"])
def test_a_terminal_stamp_freezes_the_path_and_a_second_is_a_hard_fault(end):
    ledger = PacketLedger(Trace(enabled=False))
    p = pkt(0)
    ledger.on_sent(p)
    p.traversed += [3, 1]
    if end == "delivered":
        ledger.on_delivered(p, 1.0)
        assert (p.delivered_at, p.drop_cause) == (1.0, None)
    else:
        ledger.on_dropped(p, "link_break", 1.0, 3)
        assert (p.delivered_at, p.drop_cause) == (None, "link_break")
    assert p.traversed == (0, 3, 1)
    with pytest.raises(SimulationError, match="duplicate terminal state"):
        ledger.on_dropped(p, "loop", 2.0, 1)
    with pytest.raises(SimulationError, match="duplicate terminal state"):
        ledger.on_delivered(p, 2.0)
    assert p.traversed == (0, 3, 1)


@pytest.mark.parametrize("ids", [[0, 0], [1], [0, 2], [0, 1, 1]])
def test_a_packet_sent_out_of_pkt_id_order_is_a_hard_fault(ids):
    ledger = PacketLedger(Trace(enabled=False))
    *first, last = ids
    for i in first:
        ledger.on_sent(pkt(i))
    with pytest.raises(SimulationError, match=f"packet {last} sent out of turn"):
        ledger.on_sent(pkt(last))
    assert [p.pkt_id for p in ledger.records] == first

import pytest
from hypothesis import given, strategies as st

from manetsim.energy import (
    PJ,
    RX_CONTROL,
    RX_DATA,
    TX_CONTROL,
    TX_DATA,
    EnergyLedger,
    EnergyParams,
)


def spend(ledger, node, counter, duration):
    """Charge `duration` seconds on air; returns whether the node survives."""
    return ledger.debit(node, counter, ledger.cost_pj(counter, duration))


def test_initial_value_untouched():
    ledger = EnergyLedger(3, EnergyParams())
    assert ledger.remaining_pj == [10 * PJ] * 3


def test_debit_arithmetic():
    ledger = EnergyLedger(1, EnergyParams())
    assert spend(ledger, 0, TX_DATA, 2.048e-3)
    consumed = (10 * PJ - ledger.remaining_pj[0]) / PJ
    assert consumed == pytest.approx(0.66 * 2.048e-3, abs=1e-12)
    assert consumed == pytest.approx(1.35168e-3)
    # reception is priced at p_rx, for either traffic class
    assert ledger.cost_pj(RX_CONTROL, 2.048e-3) == round(0.395 * 2.048e-3 * PJ)
    assert ledger.cost_pj(RX_DATA, 2.048e-3) == ledger.cost_pj(RX_CONTROL, 2.048e-3)


def test_clamp_and_die():
    ledger = EnergyLedger(1, EnergyParams(initial=0.5e-3))
    deaths = []
    ledger.on_death = deaths.append
    assert not spend(ledger, 0, TX_DATA, 2.048e-3)  # wants 1.35 mJ
    assert ledger.remaining_pj[0] == 0
    assert not ledger.alive(0)
    assert deaths == [0]
    # ledger still closes exactly after the clamp
    assert sum(ledger.consumed_by[0]) == round(0.5e-3 * PJ)


def test_debit_on_dead_node_is_noop():
    ledger = EnergyLedger(1, EnergyParams(initial=1e-6))
    spend(ledger, 0, TX_DATA, 1.0)
    assert not ledger.alive(0)
    before = list(ledger.consumed_by[0])
    assert not spend(ledger, 0, RX_DATA, 1.0)
    assert ledger.consumed_by[0] == before


def test_negative_duration_rejected():
    ledger = EnergyLedger(1, EnergyParams())
    with pytest.raises(ValueError):
        ledger.cost_pj(TX_DATA, -1.0)


@given(
    st.lists(
        st.tuples(
            st.sampled_from([TX_CONTROL, TX_DATA, RX_CONTROL, RX_DATA]),
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        ),
        max_size=60,
    )
)
def test_ledger_closes_exactly(debits):
    ledger = EnergyLedger(1, EnergyParams())
    for counter, duration in debits:
        spend(ledger, 0, counter, duration)
    # integer bookkeeping: the books close with zero drift
    c = ledger.consumed_by[0]
    assert ledger.remaining_pj[0] + sum(c) == ledger.initial_pj
    assert c[TX_CONTROL] + c[TX_DATA] + c[RX_CONTROL] + c[RX_DATA] == ledger.network_consumed_pj()


def test_class_split_matches_direction_split():
    ledger = EnergyLedger(1, EnergyParams())
    spend(ledger, 0, TX_CONTROL, 0.01)
    spend(ledger, 0, RX_CONTROL, 0.02)
    spend(ledger, 0, TX_DATA, 0.03)
    spend(ledger, 0, RX_DATA, 0.04)
    c = ledger.consumed_by[0]
    control, data = c[TX_CONTROL] + c[RX_CONTROL], c[TX_DATA] + c[RX_DATA]
    tx, rx = c[TX_CONTROL] + c[TX_DATA], c[RX_CONTROL] + c[RX_DATA]
    assert control + data == tx + rx


def test_remaining_non_increasing():
    ledger = EnergyLedger(1, EnergyParams())
    last = ledger.remaining_pj[0]
    for _ in range(50):
        spend(ledger, 0, RX_DATA, 0.013)
        now = ledger.remaining_pj[0]
        assert now <= last
        last = now


def test_routing_never_exceeds_network():
    ledger = EnergyLedger(2, EnergyParams())
    spend(ledger, 0, TX_CONTROL, 0.5)
    spend(ledger, 1, RX_DATA, 0.25)
    assert ledger.routing_consumed() <= ledger.network_consumed()


def test_param_validation():
    with pytest.raises(ValueError):
        EnergyParams(p_tx=0.3, p_rx=0.4).validate()
    with pytest.raises(ValueError):
        EnergyParams(initial=0.0).validate()


def test_initial_charge_must_round_to_a_picojoule():
    # below 0.5 pJ the charge rounds to 0 pJ, a node born dead
    for tiny in (1e-13, 0.4e-12, 0.5e-12):
        with pytest.raises(ValueError, match="initial_energy"):
            EnergyParams(initial=tiny).validate()
    ledger = EnergyLedger(1, EnergyParams(initial=1e-12))
    assert ledger.remaining_pj == [1] and ledger.alive(0)

"""Per-node energy ledger splitting consumption into control and data classes."""

from dataclasses import dataclass, field
from typing import Callable

# Ledger arithmetic runs on integer picojoules so the books close exactly:
# initial - remaining == sum of debits with zero float drift.
PJ = 10**12


@dataclass(slots=True)
class EnergyParams:
    p_tx: float = 0.660  # watts
    p_rx: float = 0.395
    initial: float = 10.0  # joules

    def validate(self) -> None:
        if not (self.p_tx > self.p_rx > 0):
            raise ValueError("energy powers must satisfy p_tx > p_rx > 0")
        if self.initial <= 0:
            raise ValueError("energy.initial must be > 0")


# A charge is booked under one of four counters: direction x traffic class.
TX_CONTROL, TX_DATA, RX_CONTROL, RX_DATA = range(4)


@dataclass(slots=True)
class EnergyState:
    remaining_pj: int
    consumed_by: list[int] = field(default_factory=lambda: [0, 0, 0, 0])  # pJ per counter
    alive: bool = True

    @property
    def control_pj(self) -> int:
        return self.consumed_by[TX_CONTROL] + self.consumed_by[RX_CONTROL]

    @property
    def consumed_pj(self) -> int:
        return sum(self.consumed_by)


class EnergyLedger:
    """Tracks every node's battery; kills nodes that hit zero."""

    def __init__(
        self,
        node_count: int,
        params: EnergyParams,
        on_death: Callable[[int], None] | None = None,
    ):
        params.validate()
        self.params = params
        self.initial_pj = round(params.initial * PJ)
        self.states = [EnergyState(self.initial_pj) for _ in range(node_count)]
        self._power = (params.p_tx, params.p_tx, params.p_rx, params.p_rx)  # by counter
        self.on_death = on_death

    def alive(self, node: int) -> bool:
        return self.states[node].alive

    def cost_pj(self, counter: int, duration: float) -> int:
        """Integer pJ that `duration` seconds on air cost under `counter`."""
        if duration < 0:
            raise ValueError("debit duration must be >= 0")
        return round(self._power[counter] * duration * PJ)

    def debit(self, node: int, counter: int, amount_pj: int) -> bool:
        """Charge amount_pj under `counter`, clamped at zero; returns whether
        the node is still alive afterwards.

        Debiting a dead node is a no-op (it can no longer process packets).
        """
        st = self.states[node]
        if not st.alive:
            return False
        if amount_pj > st.remaining_pj:
            amount_pj = st.remaining_pj
        st.remaining_pj -= amount_pj
        st.consumed_by[counter] += amount_pj
        if st.remaining_pj == 0:
            st.alive = False
            if self.on_death is not None:
                self.on_death(node)
            return False
        return True

    def network_consumed(self) -> float:
        """Total joules burned by all nodes so far."""
        return sum(st.consumed_pj for st in self.states) / PJ

    def routing_consumed(self) -> float:
        """Joules burned on control traffic (discovery plus maintenance)."""
        return sum(st.control_pj for st in self.states) / PJ

    def network_consumed_pj(self) -> int:
        return sum(st.consumed_pj for st in self.states)

    def routing_consumed_pj(self) -> int:
        return sum(st.control_pj for st in self.states)

    def closed(self) -> bool:
        """Every node's books balance exactly: initial == remaining + debits."""
        return all(
            st.remaining_pj + st.consumed_pj == self.initial_pj for st in self.states
        )

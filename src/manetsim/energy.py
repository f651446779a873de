"""Per-node energy ledger splitting consumption into control and data classes."""

from dataclasses import dataclass
from typing import Callable

# Ledger arithmetic runs on integer picojoules so the books close exactly:
# initial - remaining == sum of debits with zero float drift.
PJ = 10**12


@dataclass(slots=True)
class EnergyParams:
    p_tx: float = 0.660  # watts
    p_rx: float = 0.395
    initial: float = 10.0  # joules


# A charge is booked under one of four counters: direction x traffic class.
TX_CONTROL, TX_DATA, RX_CONTROL, RX_DATA = range(4)


class EnergyLedger:
    """Tracks every node's battery; kills nodes that hit zero.

    remaining_pj[node] is the node's charge and consumed_by[node] its pJ
    spent per counter. A node is alive while its charge is above zero;
    `deaths` counts the nodes that have died, so a view of which nodes are
    alive holds for as long as it stays the same.
    """

    def __init__(
        self,
        node_count: int,
        params: EnergyParams,
        on_death: Callable[[int], None] | None = None,
    ):
        self.params = params
        self.initial_pj = round(params.initial * PJ)
        self.remaining_pj = [self.initial_pj] * node_count
        self.consumed_by = [[0, 0, 0, 0] for _ in range(node_count)]
        self._power = (params.p_tx, params.p_tx, params.p_rx, params.p_rx)  # by counter
        self.on_death = on_death
        self.deaths = 0

    def alive(self, node: int) -> bool:
        return self.remaining_pj[node] > 0

    def cost_pj(self, counter: int, duration: float) -> int:
        """Integer pJ that `duration` seconds on air cost under `counter`."""
        return round(self._power[counter] * duration * PJ)

    def debit(self, node: int, counter: int, amount_pj: int) -> bool:
        """Charge amount_pj under `counter`, clamped at zero; returns whether
        the node is still alive afterwards.

        Debiting a dead node is a no-op (it can no longer process packets).
        This is the one place that clamps a charge and kills a node.
        """
        remaining = self.remaining_pj[node]
        if remaining <= 0:
            return False
        if amount_pj < remaining:
            self.remaining_pj[node] = remaining - amount_pj
            self.consumed_by[node][counter] += amount_pj
            return True
        self.remaining_pj[node] = 0
        self.consumed_by[node][counter] += remaining
        self.deaths += 1
        if self.on_death is not None:
            self.on_death(node)
        return False

    def network_consumed(self) -> float:
        """Total joules burned by all nodes so far."""
        return self.network_consumed_pj() / PJ

    def routing_consumed(self) -> float:
        """Joules burned on control traffic (discovery plus maintenance)."""
        return self.routing_consumed_pj() / PJ

    def network_consumed_pj(self) -> int:
        return sum(map(sum, self.consumed_by))

    def routing_consumed_pj(self) -> int:
        return sum(c[TX_CONTROL] + c[RX_CONTROL] for c in self.consumed_by)

    def closed(self) -> bool:
        """Every node's books balance exactly: initial == remaining + debits."""
        return all(
            remaining + sum(c) == self.initial_pj
            for remaining, c in zip(self.remaining_pj, self.consumed_by)
        )

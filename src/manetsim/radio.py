"""Unit-disk broadcast medium with transmission delay and energy charging."""

import math
from dataclasses import dataclass

from .energy import RX_CONTROL, RX_DATA, TX_CONTROL, TX_DATA
from .engine import Engine, EventKind, RngStream
from .mobility import MobilityModel
from .proto_common import Data, Hello, Rerr, Rrep, Rreq

# trace event of a transmitted frame, by packet class
TX_EVENT = {cls: f"tx_{cls.__name__.lower()}" for cls in (Rreq, Rrep, Rerr, Hello, Data)}


@dataclass(slots=True)
class RadioParams:
    range: float = 250.0
    bandwidth: float = 2_000_000.0  # bits/s
    propagation_delay: float = 0.0  # s per meter
    per_frame_loss_prob: float = 0.0

    def validate(self) -> None:
        if self.range <= 0:
            raise ValueError("radio.range must be > 0")
        if self.bandwidth <= 0:
            raise ValueError("radio.bandwidth must be > 0")
        if self.propagation_delay < 0:
            raise ValueError("radio.propagation_delay must be >= 0")
        if not 0.0 <= self.per_frame_loss_prob <= 1.0:
            raise ValueError("radio.per_frame_loss_prob must be in [0, 1]")


class Radio:
    """Delivers frames to every alive node within range of the sender.

    Range membership is decided once per frame, at send time. Unicast frames
    (addressee set) are consumed only by the addressee; bystanders pay no
    energy. A unicast whose addressee is not reachable vanishes, which for
    data packets is recorded as a link-break loss.
    """

    def __init__(
        self,
        params: RadioParams,
        engine: Engine,
        mobility: MobilityModel,
        energy,
        metrics,
        trace,
        routers: list,
        loss_rng: RngStream | None = None,
    ):
        params.validate()
        self.params = params
        self.engine = engine
        self.mobility = mobility
        self.energy = energy
        self.metrics = metrics
        self.trace = trace
        self.routers = routers  # by node id; a reception calls on_frame(packet, sender)
        self.loss_rng = loss_rng
        # broadcasts cluster at shared instants (flood waves, hello ticks),
        # so one whole-network position snapshot per timestamp pays off
        self._pos_time = -1.0
        self._pos_cache: list[tuple[float, float]] = []
        # a run sends only a few (data?, size) frame kinds, so each is priced
        # once: (airtime, tx counter, tx pJ, rx counter, rx pJ)
        self._prices: dict[tuple[bool, int], tuple[float, int, int, int, int]] = {}

    def tx_duration(self, size_bytes: int) -> float:
        return size_bytes * 8 / self.params.bandwidth

    def _price(self, key: tuple[bool, int]) -> tuple[float, int, int, int, int]:
        is_data, size_bytes = key
        duration = self.tx_duration(size_bytes)
        tx, rx = (TX_DATA, RX_DATA) if is_data else (TX_CONTROL, RX_CONTROL)
        cost_pj = self.energy.cost_pj
        price = (duration, tx, cost_pj(tx, duration), rx, cost_pj(rx, duration))
        self._prices[key] = price
        return price

    def positions(self, t: float) -> list[tuple[float, float]]:
        if t != self._pos_time:
            position = self.mobility.position
            self._pos_cache = [position(n, t) for n in range(self.mobility.node_count)]
            self._pos_time = t
        return self._pos_cache

    def neighbors(self, node: int, t: float) -> list[int]:
        """Alive nodes within range of `node` at time t, ascending id."""
        pos = self.positions(t)
        px, py = pos[node]
        rng2 = self.params.range * self.params.range
        remaining = self.energy.remaining_pj
        out = []
        for other, (ox, oy) in enumerate(pos):
            dx, dy = ox - px, oy - py
            if dx * dx + dy * dy <= rng2 and other != node and remaining[other] > 0:
                out.append(other)
        return out

    def reaches(self, sender: int, recv: int, t: float) -> bool:
        """Whether `recv` is among neighbors(sender, t), from two positions."""
        if recv == sender or self.energy.remaining_pj[recv] <= 0:
            return False
        position = self.mobility.position
        sx, sy = position(sender, t)
        ox, oy = position(recv, t)
        dx, dy = ox - sx, oy - sy
        return dx * dx + dy * dy <= self.params.range * self.params.range

    def send(self, sender: int, packet, size_bytes: int, addressee: int | None = None) -> int:
        """Transmit a frame; returns the number of deliveries scheduled."""
        now = self.engine.now
        is_data = type(packet) is Data
        key = (is_data, size_bytes)
        duration, tx, tx_pj, rx, rx_pj = self._prices.get(key) or self._price(key)
        if not self.energy.debit(sender, tx, tx_pj):
            # A dead node transmits nothing, and a battery drained
            # mid-transmission never completes the frame; data is lost.
            if is_data:
                self.metrics.on_dropped(packet, "dead_node", now, sender)
            return 0
        if is_data:
            self.metrics.on_data_tx()
        else:
            self.metrics.on_control_tx()
        if self.trace.enabled:
            tgt = "*" if addressee is None else addressee
            pid = packet.pkt_id if is_data else "-"
            self.trace.emit(now, sender, TX_EVENT[type(packet)], pid, f"to={tgt}")

        # a broadcast needs every position, a unicast only two
        if addressee is None:
            receivers = self.neighbors(sender, now)
        else:
            receivers = [addressee] if self.reaches(sender, addressee, now) else []
        loss_p = self.params.per_frame_loss_prob
        if receivers and loss_p > 0.0 and self.loss_rng is not None:
            # one draw per in-range receiver, in ascending id order
            receivers = [r for r in receivers if not self.loss_rng.random() < loss_p]
        if not receivers:
            if addressee is not None and is_data:
                # Unicast into the void: the frame reaches nobody.
                self.metrics.on_dropped(packet, "link_break", now, sender)
            return 0
        if self.params.propagation_delay == 0.0:
            # one shared delivery instant; batching keeps ordering identical
            self.engine.schedule(
                now + duration,
                EventKind.FRAME_DELIVERY,
                lambda rs=tuple(receivers), p=packet, s=sender: self._deliver_batch(
                    rs, p, s, rx, rx_pj
                ),
            )
        else:
            position = self.mobility.position
            sx, sy = position(sender, now)
            for recv in receivers:
                ox, oy = position(recv, now)
                dx, dy = ox - sx, oy - sy
                distance = math.sqrt(dx * dx + dy * dy)
                delay = duration + self.params.propagation_delay * distance
                self.engine.schedule(
                    now + delay,
                    EventKind.FRAME_DELIVERY,
                    lambda rs=(recv,), p=packet, s=sender: self._deliver_batch(
                        rs, p, s, rx, rx_pj
                    ),
                )
        return len(receivers)

    def _deliver_batch(
        self, receivers: tuple[int, ...], packet, sender: int, rx: int, amount_pj: int
    ) -> None:
        energy = self.energy
        remaining, consumed_by = energy.remaining_pj, energy.consumed_by
        routers = self.routers
        for recv in receivers:
            # A charge that leaves the receiver alive is booked here, any other
            # goes to debit, each in turn: the forwards of the receivers before
            # it read its aliveness, so it must not be charged any earlier.
            left = remaining[recv] - amount_pj
            if left > 0:
                remaining[recv] = left
                consumed_by[recv][rx] += amount_pj
                routers[recv].on_frame(packet, sender)
            else:
                energy.debit(recv, rx, amount_pj)

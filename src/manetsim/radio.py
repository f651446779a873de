"""Unit-disk broadcast medium with transmission delay and energy charging."""

import math
from dataclasses import dataclass

from .energy import RX_CONTROL, RX_DATA, TX_CONTROL, TX_DATA
from .engine import Engine, EventKind, RngStream, SimulationError
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


class Radio:
    """Delivers frames to every alive node within range of the sender.

    Range membership is decided once per frame, at send time. Unicast frames
    (addressee set) are consumed only by the addressee; bystanders pay no
    energy. A unicast whose addressee is not reachable vanishes, which for
    data packets is recorded as a link-break loss.

    Membership is the exact test `dx*dx + dy*dy <= range*range` on the
    mobility model's positions, but an answer may be reused while it cannot
    have changed. No node moves faster than the model's `speed_bound` v, so
    two nodes' distance changes by at most 2·v·|t - t0| between t0 and t.
    A pair found d0 <= range apart at t0 therefore stays in range for
    |t - t0| <= (range - d0 - eps) / (2v), and a node more than w metres
    inside or outside the range stays so for |t - t0| <= (w - eps) / (2v).
    eps = 1e-6 * range absorbs float rounding in the positions, which is
    many orders of magnitude smaller, so each reused answer is the one the
    exact test gives. A schedule that jumps has v = math.inf, and then
    nothing is reused across instants. A network that never moves has v = 0,
    and then the positions and every in-range answer hold for the whole run.
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
        loss_rng: RngStream,
    ):
        self.params = params
        self.engine = engine
        self.mobility = mobility
        self.energy = energy
        self.metrics = metrics
        self.trace = trace
        # by node id; a hello reception writes the receiver's hello_deadline,
        # a request copy goes no further when the receiver is on its route
        # record or the flood's table holds it past now, a unicast calls the
        # addressee's handler from its `_frame_handlers` table, and any other
        # reception calls the receiver's on_frame(packet, sender)
        self.routers = routers
        self.loss_rng = loss_rng
        # One whole-network position snapshot, taken at _pos_from, holds for
        # [_pos_from, _pos_until]: that one instant, or the whole run if the
        # speed bound is 0. Broadcasts cluster at shared instants (flood
        # waves, hello ticks), and each sender's neighbor row, computed from
        # the snapshot, holds as long as the snapshot does while the death
        # count it was taken at stays the same.
        self._pos_from = self._pos_until = math.nan
        self._pos_cache: list[tuple[float, float]] = []
        self._rows: dict[int, tuple[int, list[int]]] = {}  # sender -> (deaths, row)
        # The holds of the class notes: a metre between a pair's distance and
        # the range edge lasts `_per_metre` = 1 / (2v) seconds, and a scan's
        # split into sure-in `near` and unsure `ring` lasts `_ring_hold`.
        r, v = params.range, mobility.speed_bound
        ring = r / 10
        self._range2 = r * r
        self._eps = 1e-6 * r
        self._near2, self._far2 = (r - ring) ** 2, (r + ring) ** 2
        self._per_metre = 0.5 / v if v > 0.0 else math.inf
        self._ring_hold = (ring - self._eps) * self._per_metre
        # sender -> (deaths, from, until, near, ring)
        self._splits: dict[int, tuple[int, float, float, list[int], list[int]]] = {}
        # by sender: addressee -> (from, until) in which it is surely in range
        self._links: list[dict[int, tuple[float, float]]] = [
            {} for _ in range(mobility.node_count)
        ]
        # a run sends only a few frame sizes per traffic class, so each is
        # priced once: size -> (airtime, tx counter, tx pJ, rx counter, rx pJ),
        # control frames at [False] and data at [True]
        self._prices: tuple[dict[int, tuple[float, int, int, int, int]], ...] = ({}, {})

    def tx_duration(self, size_bytes: int) -> float:
        return size_bytes * 8 / self.params.bandwidth

    def _price(self, is_data: bool, size_bytes: int) -> tuple[float, int, int, int, int]:
        duration = self.tx_duration(size_bytes)
        tx, rx = (TX_DATA, RX_DATA) if is_data else (TX_CONTROL, RX_CONTROL)
        cost_pj = self.energy.cost_pj
        price = (duration, tx, cost_pj(tx, duration), rx, cost_pj(rx, duration))
        self._prices[is_data][size_bytes] = price
        return price

    def positions(self, t: float) -> list[tuple[float, float]]:
        """Every node's position at t, by node id, from the snapshot.

        A snapshot lasts the instant it is taken at, or the whole run when
        the speed bound is 0: no node then leaves the point it starts at.
        """
        if not self._pos_from <= t <= self._pos_until:
            mobility = self.mobility
            position = mobility.position
            self._pos_cache = [position(n, t) for n in range(mobility.node_count)]
            self._pos_from = t
            self._pos_until = math.inf if self._per_metre == math.inf else t
            self._rows = {}
        return self._pos_cache

    def neighbors(self, node: int, t: float) -> list[int]:
        """Alive nodes within range of `node` at time t, ascending id.

        The row is kept as long as the snapshot lasts (one instant, or the
        whole run when the speed bound is 0) while the death count is the one
        it was computed at. A full scan also keeps the node's split: the alive
        nodes within range - w (`near`, in range for the split's hold) and
        those within range ± w (`ring`), w = range / 10. While t lies in the
        hold and the death count is the one it was taken at, the row is
        `near` plus the ring members the exact test admits on the snapshot.

        The list is shared with later calls while the row or split holds, so
        a caller must not change it.
        """
        pos = self.positions(t)
        deaths = self.energy.deaths
        row = self._rows.get(node)
        if row is not None and row[0] == deaths:
            return row[1]
        px, py = pos[node]
        rng2 = self._range2
        split = self._splits.get(node)
        if split is not None and split[0] == deaths and split[1] <= t <= split[2]:
            near = split[3]
            admitted = []
            for other in split[4]:
                ox, oy = pos[other]
                dx, dy = ox - px, oy - py
                if dx * dx + dy * dy <= rng2:
                    admitted.append(other)
            out = sorted(near + admitted) if admitted else near
        else:
            near2, far2 = self._near2, self._far2
            remaining = self.energy.remaining_pj
            out, near, ring = [], [], []
            for other, (ox, oy) in enumerate(pos):
                dx, dy = ox - px, oy - py
                d2 = dx * dx + dy * dy
                if d2 <= far2 and other != node and remaining[other] > 0:
                    if d2 <= near2:
                        near.append(other)
                        out.append(other)
                    else:
                        ring.append(other)
                        if d2 <= rng2:
                            out.append(other)
            hold = self._ring_hold
            if hold > 0.0:
                self._splits[node] = (deaths, t - hold, t + hold, near, ring)
        self._rows[node] = (deaths, out)
        return out

    def reaches(self, sender: int, recv: int, t: float) -> bool:
        """Whether `recv` is among neighbors(sender, t).

        An in-range answer holds the pair for |t - t0| <= (range - d0 -
        eps) / (2v) (see the class notes), for the whole run when v = 0;
        outside a hold it is worked out from two positions: the snapshot's if
        t lies in its span, else the mobility model's. The addressee's
        battery is read on every call.
        """
        if recv == sender or self.energy.remaining_pj[recv] <= 0:
            return False
        links = self._links[sender]
        held = links.get(recv)
        if held is not None and held[0] <= t <= held[1]:
            return True
        if self._pos_from <= t <= self._pos_until:
            pos = self._pos_cache
            sx, sy = pos[sender]
            ox, oy = pos[recv]
        else:
            position = self.mobility.position
            sx, sy = position(sender, t)
            ox, oy = position(recv, t)
        dx, dy = ox - sx, oy - sy
        d2 = dx * dx + dy * dy
        if d2 > self._range2:
            return False
        hold = (self.params.range - math.sqrt(d2) - self._eps) * self._per_metre
        if hold > 0.0:
            links[recv] = (t - hold, t + hold)
        return True

    def send(self, sender: int, packet, size_bytes: int, addressee: int | None = None) -> int:
        """Transmit a frame; returns the number of deliveries scheduled."""
        now = self.engine.now
        kind = type(packet)
        is_data = kind is Data
        duration, tx, tx_pj, rx, rx_pj = (
            self._prices[is_data].get(size_bytes) or self._price(is_data, size_bytes)
        )
        # the sender's charge, booked by the rule of the reception paths: in
        # place while it leaves the sender alive, else by debit
        energy = self.energy
        remaining = energy.remaining_pj
        left = remaining[sender] - tx_pj
        if left > 0:
            remaining[sender] = left
            energy.consumed_by[sender][tx] += tx_pj
        else:
            # A dead node transmits nothing, and a battery drained
            # mid-transmission never completes the frame; data is lost.
            energy.debit(sender, tx, tx_pj)
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
            self.trace.emit(now, sender, TX_EVENT[kind], pid, f"to={tgt}")

        loss_p = self.params.per_frame_loss_prob
        delay_per_m = self.params.propagation_delay
        if addressee is not None:
            # a unicast needs only two positions and one loss draw, and none
            # while the sender holds its link to a live addressee
            held = self._links[sender].get(addressee)
            reached = (
                held is not None and held[0] <= now <= held[1] and remaining[addressee] > 0
            ) or self.reaches(sender, addressee, now)
            if not reached or (loss_p > 0.0 and self.loss_rng.random() < loss_p):
                if is_data:
                    # Unicast into the void: the frame reaches nobody.
                    self.metrics.on_dropped(packet, "link_break", now, sender)
                return 0
            if delay_per_m > 0.0:
                position = self.mobility.position
                sx, sy = position(sender, now)
                ox, oy = position(addressee, now)
                dx, dy = ox - sx, oy - sy
                duration += delay_per_m * math.sqrt(dx * dx + dy * dy)
            router = self.routers[addressee]
            try:
                handler = router._frame_handlers[kind]
            except KeyError:
                raise SimulationError(f"unknown packet type {packet!r}") from None

            # the one reception, booked by the rule of the delivery batch
            # below and handed straight to the addressee's handler
            def deliver(
                energy=energy, recv=addressee, handler=handler, router=router,
                packet=packet, sender=sender, rx=rx, amount_pj=rx_pj,
            ) -> None:
                remaining = energy.remaining_pj
                left = remaining[recv] - amount_pj
                if left > 0:
                    remaining[recv] = left
                    energy.consumed_by[recv][rx] += amount_pj
                    handler(router, packet, sender)
                else:
                    energy.debit(recv, rx, amount_pj)

            self.engine.schedule(now + duration, EventKind.FRAME_DELIVERY, deliver)
            return 1

        receivers = self.neighbors(sender, now)
        if receivers and loss_p > 0.0:
            # one draw per in-range receiver, in ascending id order
            receivers = [r for r in receivers if not self.loss_rng.random() < loss_p]
        if not receivers:
            return 0
        if delay_per_m == 0.0:
            # one shared delivery instant; batching keeps ordering identical.
            # The batch holds the list uncopied: a neighbor row is never
            # changed once built (see neighbors).
            self.engine.schedule(
                now + duration,
                EventKind.FRAME_DELIVERY,
                lambda rs=receivers, p=packet, s=sender: self._deliver_batch(
                    rs, p, s, rx, rx_pj
                ),
            )
        else:
            position = self.mobility.position
            sx, sy = position(sender, now)
            for recv in receivers:
                ox, oy = position(recv, now)
                dx, dy = ox - sx, oy - sy
                delay = duration + delay_per_m * math.sqrt(dx * dx + dy * dy)
                self.engine.schedule(
                    now + delay,
                    EventKind.FRAME_DELIVERY,
                    lambda rs=(recv,), p=packet, s=sender: self._deliver_batch(
                        rs, p, s, rx, rx_pj
                    ),
                )
        return len(receivers)

    def _deliver_batch(
        self, receivers: list[int] | tuple[int], packet, sender: int, rx: int, amount_pj: int
    ) -> None:
        """A broadcast's receptions, one loop per frame kind.

        Each loop books a charge that leaves the receiver alive in place and
        hands any other to debit, receiver by receiver in the order given:
        the forwards of the receivers before it read its aliveness, so it
        must not be charged any earlier.
        """
        energy = self.energy
        remaining, consumed_by = energy.remaining_pj, energy.consumed_by
        routers = self.routers
        kind = type(packet)
        if kind is Hello:
            # A hello's whole reception is one liveness write: the sender is
            # heard until `expiry` by every receiver the charge leaves alive.
            expiry = self.engine.now + routers[sender].hello_allowance
            for recv in receivers:
                left = remaining[recv] - amount_pj
                if left > 0:
                    remaining[recv] = left
                    consumed_by[recv][rx] += amount_pj
                    routers[recv].hello_deadline[sender] = expiry
                else:
                    energy.debit(recv, rx, amount_pj)
        elif kind is Rreq:
            # A request copy is booked, then turned away unread by a receiver
            # on its route record or one its flood's table holds past now
            # (the rules are the protocols', see RouterBase). A handler writes
            # only its own node's entry, so each receiver's is read in turn.
            now = self.engine.now
            record, flood = packet.route_record, packet.flood
            for recv in receivers:
                left = remaining[recv] - amount_pj
                if left > 0:
                    remaining[recv] = left
                    consumed_by[recv][rx] += amount_pj
                    if recv not in record and flood.get(recv, -1.0) <= now:
                        routers[recv].on_frame(packet, sender)
                else:
                    energy.debit(recv, rx, amount_pj)
        else:
            for recv in receivers:
                left = remaining[recv] - amount_pj
                if left > 0:
                    remaining[recv] = left
                    consumed_by[recv][rx] += amount_pj
                    routers[recv].on_frame(packet, sender)
                else:
                    energy.debit(recv, rx, amount_pj)

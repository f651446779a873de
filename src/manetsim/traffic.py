"""Constant-bit-rate datagram sources over an unreliable, unordered service."""

import math
from dataclasses import dataclass
from itertools import count

from .engine import EventKind, RngStream
from .proto_common import Data


@dataclass(slots=True)
class FlowSpec:
    src: int
    dest: int
    payload: int
    interval: float
    start: float
    stop: float
    flow_id: int = -1

    def validate(self, node_count: int) -> None:
        if not (0 <= self.src < node_count) or not (0 <= self.dest < node_count):
            raise ValueError(f"flow endpoints out of range: {self.src}->{self.dest}")
        if self.src == self.dest:
            raise ValueError("flow src and dest must differ")
        if not all(map(math.isfinite, (self.interval, self.start, self.stop))):
            raise ValueError("flow interval, start and stop must be finite")
        if self.start < 0:
            raise ValueError("flow start must be >= 0")
        if self.start >= self.stop:
            raise ValueError("flow start must be < stop")
        if self.interval <= 0:
            raise ValueError("flow interval must be > 0")
        if self.payload <= 0:
            raise ValueError("flow payload must be > 0")


def send_count(flow: FlowSpec) -> int:
    """Number of CBR sends: start, start+interval, ... through stop inclusive."""
    return math.floor((flow.stop - flow.start) / flow.interval + 1e-9) + 1


def generate_flows(
    node_count: int,
    flow_count: int,
    payload: int,
    interval: float,
    start: float,
    stop: float,
    rng: RngStream,
) -> list[FlowSpec]:
    """Draw flow endpoints uniformly, without repeating an ordered pair."""
    picks = rng.sample(range(node_count * (node_count - 1)), flow_count)
    flows = []
    for i, code in enumerate(picks):
        src, offset = divmod(code, node_count - 1)
        dest = offset if offset < src else offset + 1
        flows.append(FlowSpec(src, dest, payload, interval, start, stop, flow_id=i))
    return flows


class TrafficSource:
    """Open-loop CBR sources: the timing never depends on routing outcomes.

    Flow i of F ticks under the rank i - F, below every number the engine
    hands out, so at any instant its sends run ahead of every other event,
    flows in declaration order.
    """

    def __init__(self, flows: list[FlowSpec], net):
        self.flows = flows
        self.net = net

    def start(self) -> None:
        net, pkt_ids = self.net, count()  # one pkt_id numbering across flows, in send order
        for rank, flow in enumerate(self.flows, -len(self.flows)):
            net.trace.emit(
                0.0, flow.src, "flow", "-",
                f"id={flow.flow_id} dest={flow.dest} payload={flow.payload} "
                f"interval={flow.interval} start={flow.start} stop={flow.stop}",
            )
            clock = FlowClock(flow, net, pkt_ids, rank)
            net.engine.schedule_ranked(flow.start, rank, EventKind.TRAFFIC_TICK, clock.tick)


class FlowClock:
    """One flow's sends. Every send runs under the flow's rank and first
    re-arms the bound `tick` for the next one; only the engine holds it."""

    __slots__ = ("flow", "engine", "ledger", "energy", "router", "pkt_ids", "sends", "rank", "seq")

    def __init__(self, flow: FlowSpec, net, pkt_ids: count, rank: int):
        self.flow, self.pkt_ids, self.seq, self.rank = flow, pkt_ids, 0, rank  # seq: the next send
        self.engine, self.ledger, self.energy = net.engine, net.metrics, net.energy
        self.router, self.sends = net.routers[flow.src], send_count(flow)

    def tick(self) -> None:
        flow, seq, engine = self.flow, self.seq, self.engine
        if seq + 1 < self.sends:
            self.seq = following = seq + 1
            engine.schedule_ranked(
                flow.start + following * flow.interval, self.rank,
                EventKind.TRAFFIC_TICK, self.tick,
            )
        now = engine.now
        # positional, in Data's field order: origin, dest, payload_size,
        # data_seq, sent_at, flow_id, pkt_id, source_route, traversed
        pkt = Data(
            flow.src, flow.dest, flow.payload, seq, now, flow.flow_id,
            next(self.pkt_ids), (), [flow.src],
        )
        self.ledger.on_sent(pkt)
        if not self.energy.alive(flow.src):
            self.ledger.on_dropped(pkt, "dead_node", now, flow.src)
            return
        self.router.send_data(pkt)

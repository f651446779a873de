"""Constant-bit-rate datagram sources over an unreliable, unordered service."""

import math
from dataclasses import dataclass

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

    Each flow keeps one pending tick. start() reserves an insertion number
    for every send of the flow and schedules the first; each tick arms the
    next before it emits, so ties break exactly as if every send had been
    scheduled at start.
    """

    def __init__(self, flows: list[FlowSpec], net):
        self.flows = flows
        self.net = net
        self._next_pkt_id = 0

    def start(self) -> None:
        for flow in self.flows:
            self.net.trace.emit(
                0.0, flow.src, "flow", "-",
                f"id={flow.flow_id} dest={flow.dest} payload={flow.payload} "
                f"interval={flow.interval} start={flow.start} stop={flow.stop}",
            )
            count = send_count(flow)
            self._arm(flow, self.net.engine.reserve(count), count, 0)

    def _arm(self, flow: FlowSpec, base: int, count: int, seq: int) -> None:
        self.net.engine.schedule_reserved(
            flow.start + seq * flow.interval,
            base + seq,
            EventKind.TRAFFIC_TICK,
            lambda: self._emit(flow, base, count, seq),
        )

    def _emit(self, flow: FlowSpec, base: int, count: int, seq: int) -> None:
        if seq + 1 < count:
            self._arm(flow, base, count, seq + 1)
        now = self.net.engine.now
        pkt = Data(
            origin=flow.src,
            dest=flow.dest,
            payload_size=flow.payload,
            data_seq=seq,
            sent_at=now,
            flow_id=flow.flow_id,
            pkt_id=self._next_pkt_id,
            traversed=[flow.src],
        )
        self._next_pkt_id += 1
        self.net.metrics.on_sent(pkt)
        if not self.net.energy.alive(flow.src):
            self.net.metrics.on_dropped(pkt, "dead_node", now, flow.src)
            return
        self.net.routers[flow.src].send_data(pkt)

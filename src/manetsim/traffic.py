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


def emission_times(flow: FlowSpec) -> list[float]:
    """CBR send instants: start, start+interval, ... through stop inclusive."""
    if flow.stop <= flow.start:
        return []
    count = math.floor((flow.stop - flow.start) / flow.interval + 1e-9) + 1
    return [flow.start + k * flow.interval for k in range(count)]


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
    total_pairs = node_count * (node_count - 1)
    if flow_count > total_pairs:
        raise ValueError(f"flow_count {flow_count} exceeds distinct pairs {total_pairs}")
    picks = rng.sample(range(total_pairs), flow_count)
    flows = []
    for i, code in enumerate(picks):
        src, offset = divmod(code, node_count - 1)
        dest = offset if offset < src else offset + 1
        flows.append(FlowSpec(src, dest, payload, interval, start, stop, flow_id=i))
    return flows


class TrafficSource:
    """Schedules every flow's sends up front; emission is open-loop, so the
    timing never depends on routing outcomes."""

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
            for seq, t in enumerate(emission_times(flow)):
                self.net.engine.schedule(
                    t,
                    EventKind.TRAFFIC_TICK,
                    lambda f=flow, s=seq: self._emit(f, s),
                )

    def _emit(self, flow: FlowSpec, seq: int) -> None:
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

"""Per-run packet ledger, derivation of the report measurements, and the
table of the report's columns."""

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .engine import SimulationError
from .proto_common import Data
from .trace import Trace


@dataclass(slots=True)
class PacketRecord:
    pkt_id: int
    flow_id: int
    data_seq: int
    size: int
    sent_at: float
    delivered_at: float | None = None
    drop_cause: str | None = None
    hops: int = 0
    traversed: tuple[int, ...] = ()
    source_route: tuple[int, ...] = ()

    @property
    def terminal(self) -> bool:
        return self.delivered_at is not None or self.drop_cause is not None


@dataclass(slots=True)
class MetricsReport:
    sent: int
    delivered: int
    in_flight: int
    drop_breakdown: dict[str, int]
    throughput_kbps: float
    avg_e2e_delay: float  # nan when nothing was delivered
    pdr: float
    loss_ratio: float
    nrl: float  # nan when nothing was delivered
    control_transmissions: int
    data_transmissions: int
    network_energy_j: float
    routing_energy_j: float
    energy_series: list[tuple[float, float, float]]
    protocol_events: dict[str, int]
    records: list[PacketRecord]

    @property
    def dropped(self) -> int:
        return sum(self.drop_breakdown.values())


class Metric(NamedTuple):
    """One report column: its CSV name, whether `manetsim report` averages it,
    and the `MetricsReport` attribute it reads where that is not its name."""

    column: str
    averaged: bool = False
    attribute: str = ""

    @property
    def source(self) -> str:
        return self.attribute or self.column


# The report's columns in CSV order: the metrics, then one `drop_<cause>` per
# drop cause (`finalize` refuses any other cause), then one `ev_<name>` per
# protocol event. `manetsim run` prints the metrics in the same order.
REPORT_METRICS = (
    Metric("sent"),
    Metric("delivered"),
    Metric("in_flight"),
    Metric("dropped_total", attribute="dropped"),
    Metric("throughput_kbps", averaged=True),
    Metric("avg_e2e_delay_s", averaged=True, attribute="avg_e2e_delay"),
    Metric("pdr", averaged=True),
    Metric("loss_ratio", averaged=True),
    Metric("nrl", averaged=True),
    Metric("control_transmissions"),
    Metric("data_transmissions"),
    Metric("network_energy_j", averaged=True),
    Metric("routing_energy_j", averaged=True),
)
DROP_CAUSES = ("dead_node", "no_route", "queue_overflow", "link_break", "loop", "loop_avoided")
REPORT_EVENTS = (
    "discovery_start", "discovery_retry", "discovery_fail",
    "repair_start", "repair_ok", "repair_fail",
    "failover", "replenish_start", "death",
)


class PacketLedger:
    """Records every data packet's lifecycle exactly once per stage.

    It is also the run's one event sink: each record below writes its own
    trace line, so a fact and its line cannot drift apart.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.records: dict[int, PacketRecord] = {}
        self.control_transmissions = 0
        self.data_transmissions = 0
        self.energy_series: list[tuple[float, float, float]] = []
        self.events: Counter = Counter()  # protocol lifecycle counters

    # -- lifecycle ----------------------------------------------------------

    def on_sent(self, pkt: Data) -> None:
        if pkt.pkt_id in self.records:
            raise SimulationError(f"packet {pkt.pkt_id} sent twice")
        self.records[pkt.pkt_id] = PacketRecord(
            pkt.pkt_id, pkt.flow_id, pkt.data_seq, pkt.payload_size, pkt.sent_at
        )
        if self.trace.enabled:
            self.trace.emit(
                pkt.sent_at, pkt.origin, "cbr_send", pkt.pkt_id,
                f"flow={pkt.flow_id} seq={pkt.data_seq}",
            )

    def on_delivered(self, pkt: Data, t: float) -> None:
        """pkt reached its destination at t."""
        rec = self.records[pkt.pkt_id]
        if rec.terminal:
            raise SimulationError(
                f"duplicate terminal state for packet {pkt.pkt_id} "
                f"(routing loop or duplication bug)"
            )
        rec.delivered_at = t
        rec.hops = max(len(pkt.traversed) - 1, 0)
        rec.traversed = tuple(pkt.traversed)
        rec.source_route = tuple(pkt.source_route)
        if self.trace.enabled:
            self.trace.emit(t, pkt.dest, "deliver", pkt.pkt_id, f"hops={len(pkt.traversed) - 1}")

    def on_dropped(self, pkt: Data, cause: str, t: float, node: int) -> None:
        rec = self.records[pkt.pkt_id]
        if rec.terminal:
            raise SimulationError(f"duplicate terminal state for packet {pkt.pkt_id}")
        rec.drop_cause = cause
        rec.traversed = tuple(pkt.traversed)
        self.trace.emit(t, node, "drop", pkt.pkt_id, cause)

    def on_control_tx(self) -> None:
        self.control_transmissions += 1

    def on_data_tx(self) -> None:
        self.data_transmissions += 1

    def on_event(self, name: str, t: float, node: int, detail: str = "") -> None:
        self.events[name] += 1
        self.trace.emit(t, node, name, "-", detail)

    def sample_energy(self, t: float, network_j: float, routing_j: float) -> None:
        self.energy_series.append((t, network_j, routing_j))

    # -- derivation ---------------------------------------------------------

    def finalize(self, duration: float, energy_ledger) -> MetricsReport:
        recs = list(self.records.values())
        sent = len(recs)
        delivered = [r for r in recs if r.delivered_at is not None]
        drops = Counter(r.drop_cause for r in recs if r.drop_cause is not None)
        unknown = drops.keys() - DROP_CAUSES
        if unknown:
            raise SimulationError(f"drop causes with no report column: {sorted(unknown)}")
        in_flight = sent - len(delivered) - sum(drops.values())

        delivered_bytes = sum(r.size for r in delivered)
        throughput = delivered_bytes * 8 / duration / 1000 if duration > 0 else 0.0
        if delivered:
            delay = sum(r.delivered_at - r.sent_at for r in delivered) / len(delivered)
            nrl = self.control_transmissions / len(delivered)
        else:
            delay = math.nan
            nrl = math.nan
        pdr = len(delivered) / sent if sent else 0.0
        loss = (sent - len(delivered) - in_flight) / sent if sent else 0.0

        network_j = energy_ledger.network_consumed()
        routing_j = energy_ledger.routing_consumed()
        if self.energy_series:
            last_t, last_net, last_routing = self.energy_series[-1]
            if last_t == duration and (last_net != network_j or last_routing != routing_j):
                raise SimulationError("energy series diverged from ledger totals")

        return MetricsReport(
            sent=sent,
            delivered=len(delivered),
            in_flight=in_flight,
            drop_breakdown=dict(sorted(drops.items())),
            throughput_kbps=throughput,
            avg_e2e_delay=delay,
            pdr=pdr,
            loss_ratio=loss,
            nrl=nrl,
            control_transmissions=self.control_transmissions,
            data_transmissions=self.data_transmissions,
            network_energy_j=network_j,
            routing_energy_j=routing_j,
            energy_series=list(self.energy_series),
            protocol_events=dict(sorted(self.events.items())),
            records=recs,
        )

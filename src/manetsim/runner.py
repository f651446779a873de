"""Builds and executes one deterministic run, producing report and trace."""

import math
from dataclasses import dataclass, replace

from .aodv import AodvRouter
from .energy import EnergyLedger
from .engine import Engine, EventKind, RngStream
from .maodv import MaodvRouter
from .metrics import MetricsReport, PacketLedger
from .mobility import MobilityModel
from .proto_common import RouterBase
from .radio import Radio
from .scenario import Scenario
from .trace import Trace
from .traffic import FlowSpec, TrafficSource, generate_flows


@dataclass
class Network:
    """Everything one run is built from; routers and traffic hold it."""

    scenario: Scenario
    engine: Engine
    routers: list[RouterBase]
    radio: Radio
    energy: EnergyLedger
    metrics: PacketLedger
    trace: Trace
    rrep_wait: float  # destination collection window, s
    discovery_timeout: float  # wait for a reply before a retry, s


@dataclass
class RunResult:
    scenario: Scenario
    report: MetricsReport
    trace: Trace
    flows: list[FlowSpec]
    energy_closed: bool = True

    def trace_digest(self) -> str:
        return self.trace.digest()


def build_network(
    sc: Scenario,
    with_trace: bool = False,
    mobility: MobilityModel | None = None,
) -> Network:
    """Wire every subsystem for one run without starting traffic or timers.

    A prebuilt MobilityModel pins scripted waypoint schedules; by default
    schedules derive from the master seed.
    """
    engine = Engine()
    if mobility is None:
        mobility = MobilityModel.generate(
            sc.node_count, sc.mobility, sc.duration,
            lambda label: RngStream(sc.master_seed, label),
        )
    trace = Trace(with_trace)
    metrics = PacketLedger(trace)

    def on_death(node: int) -> None:
        metrics.on_event("death", engine.now, node)

    energy = EnergyLedger(sc.node_count, sc.energy, on_death)
    routers: list[RouterBase] = []
    radio = Radio(
        sc.radio, engine, mobility, energy, metrics, trace, routers,
        loss_rng=RngStream(sc.master_seed, "radio/loss"),
    )

    # a key left at 0 is derived from the area's diameter in hops
    p = sc.proto
    w, h = sc.mobility.area
    diameter_hops = math.ceil(math.hypot(w, h) / sc.radio.range) + 1
    per_hop = radio.tx_duration(p.control_bytes)
    rrep_wait = p.rrep_wait if p.rrep_wait > 0 else 2 * diameter_hops * per_hop
    discovery_timeout = p.discovery_timeout
    if discovery_timeout <= 0:
        # per_hop first, so no int product outgrows the float mpath_slack fits
        round_trip = 4 * per_hop * (diameter_hops + p.mpath_slack)
        discovery_timeout = round_trip + rrep_wait + 0.005

    net = Network(
        sc, engine, routers, radio, energy, metrics, trace, rrep_wait, discovery_timeout
    )
    router_cls = AodvRouter if sc.protocol == "aodv" else MaodvRouter
    routers.extend(router_cls(node, net) for node in range(sc.node_count))

    if trace.enabled:
        for node in range(sc.node_count):
            x, y = mobility.position(node, 0.0)
            trace.emit(0.0, node, "place", "-", f"x={x:.3f} y={y:.3f}")
        for node, legs in enumerate(mobility.schedules):
            for leg in legs:
                trace.emit(
                    0.0, node, "leg", "-",
                    f"t={leg.depart_time:.3f} to={leg.end_pos[0]:.3f},{leg.end_pos[1]:.3f} "
                    f"v={leg.speed:.3f} pause={leg.pause_after:.3f}",
                )

    return net


def resolve_flows(sc: Scenario) -> list[FlowSpec]:
    if sc.flows:
        return [replace(f, flow_id=i) for i, f in enumerate(sc.flows)]
    return generate_flows(
        sc.node_count,
        sc.flow_count,
        sc.payload,
        sc.interval,
        sc.traffic_start,
        sc.duration,
        RngStream(sc.master_seed, "traffic"),
    )


def run_scenario(
    sc: Scenario,
    with_trace: bool = False,
    mobility: MobilityModel | None = None,
) -> RunResult:
    """Execute one scenario end to end."""
    sc.validate()
    net = build_network(sc, with_trace=with_trace, mobility=mobility)
    engine, metrics, energy = net.engine, net.metrics, net.energy

    flows = resolve_flows(sc)
    traffic = TrafficSource(flows, net)
    traffic.start()
    for router in net.routers:
        router.start_maintenance()

    def sample_energy() -> None:
        metrics.sample_energy(
            engine.now, energy.network_consumed(), energy.routing_consumed()
        )
        if engine.now < sc.duration:
            engine.schedule(min(engine.now + 1.0, sc.duration), EventKind.TIMER, sample_energy)

    engine.schedule(0.0, EventKind.TIMER, sample_energy)
    engine.run_until(sc.duration)

    report = metrics.finalize(sc.duration, energy)
    result = RunResult(
        scenario=sc,
        report=report,
        trace=net.trace,
        flows=flows,
        energy_closed=energy.closed(),
    )
    # The run is over. Pending timers, each router's `ctx` and the sampler,
    # which closes over itself, hold the network in reference cycles; with
    # them dropped the run (its trace above all) is freed as soon as the
    # caller lets go of it, not at whichever full collection comes next.
    engine.clear()
    for router in net.routers:
        router.ctx = None
    del sample_energy
    return result

"""Shared fixtures: scripted topologies and independent oracles."""

import copy
import heapq
import json
import math
from functools import partial
from itertools import count
from pathlib import Path

import pytest
from hypothesis import strategies as st

from manetsim import Scenario
from manetsim.energy import RX_CONTROL, RX_DATA, TX_CONTROL, TX_DATA
from manetsim.engine import TIME_EPSILON, EventKind, SimulationError
from manetsim.mobility import MobilityModel, WaypointLeg
from manetsim.proto_common import Data, Hello, Rrep, Rreq
from manetsim.runner import build_network, run_scenario
from manetsim.sweep import report_row
from manetsim.traffic import FlowSpec, TrafficSource

BASELINE = Path(__file__).resolve().parent.parent / "scenarios" / "baseline.scn"

# Nine-node benchmark topology (S=0, N1..N7=1..7, D=8). The coordinates
# realize exactly the intended adjacency as a unit-disk graph at 250 m,
# with >= 15 m slack on every edge/non-edge decision.
BENCH_POSITIONS = {
    0: (354.8, 544.3),  # S
    1: (180.6, 394.4),  # N1
    2: (438.6, 455.2),  # N2
    3: (10.0, 364.3),  # N3
    4: (273.0, 289.0),  # N4
    5: (454.6, 248.3),  # N5
    6: (86.3, 146.5),  # N6
    7: (343.1, 80.8),  # N7
    8: (182.1, 10.0),  # D
}

BENCH_EDGES = {
    (0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6),
    (4, 5), (4, 6), (4, 7), (5, 7), (6, 8), (7, 8),
}

# The eight source-to-destination routes the benchmark topology is built
# around (S=0 ... D=8).
BENCH_LISTED_PATHS = [
    (0, 1, 3, 6, 8),
    (0, 1, 4, 6, 8),
    (0, 1, 4, 5, 7, 8),
    (0, 1, 4, 7, 8),
    (0, 2, 5, 7, 8),
    (0, 2, 4, 6, 8),
    (0, 2, 5, 4, 6, 8),
    (0, 2, 5, 4, 7, 8),
]


def static_model(positions) -> MobilityModel:
    """Mobility model where every node sits still forever."""
    if isinstance(positions, dict):
        positions = [positions[i] for i in sorted(positions)]
    legs = [[WaypointLeg(tuple(p), tuple(p), 0.0, 0.0, 1e12)] for p in positions]
    return MobilityModel(legs)


def departing_model(positions, movers: dict) -> MobilityModel:
    """Static layout where chosen nodes move away: movers[node] = (t, target, speed)."""
    if isinstance(positions, dict):
        positions = [positions[i] for i in sorted(positions)]
    schedules = []
    for node, p in enumerate(positions):
        p = tuple(p)
        if node in movers:
            depart, target, speed = movers[node]
            schedules.append(
                [
                    WaypointLeg(p, p, 0.0, 0.0, depart),
                    WaypointLeg(p, tuple(target), depart, speed, 1e12),
                ]
            )
        else:
            schedules.append([WaypointLeg(p, p, 0.0, 0.0, 1e12)])
    return MobilityModel(schedules)


def run_outcome(sc):
    """One traced run of `sc`: its trace digest and its report row as sorted JSON."""
    result = run_scenario(sc, with_trace=True)
    row = json.dumps(report_row(sc, result.report), sort_keys=True, default=repr)
    return result.trace.digest(), row


def run_static(positions, flows, duration=30.0, protocol="aodv", mobility=None, **proto_kw):
    """Run `flows` traced over nodes standing at `positions` (or moving by
    `mobility`), with protocol keys set from `proto_kw`."""
    sc = Scenario(node_count=len(positions), duration=duration, protocol=protocol, flows=flows)
    for key, value in proto_kw.items():
        setattr(sc.proto, key, value)
    return run_scenario(sc, with_trace=True, mobility=mobility or static_model(positions))


@st.composite
def small_scenarios(draw):
    """Short runs of a few nodes over the inputs that steer the protocols into
    their rare paths: lost frames, in-flight delays, batteries that die."""
    n = draw(st.integers(min_value=2, max_value=12))
    duration = draw(st.floats(min_value=5.0, max_value=20.0))
    return Scenario().variant(
        protocol=draw(st.sampled_from(["aodv", "maodv"])),
        master_seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        node_count=n,
        duration=duration,
        area=(
            draw(st.floats(min_value=50.0, max_value=800.0)),
            draw(st.floats(min_value=50.0, max_value=800.0)),
        ),
        pause_time=draw(st.floats(min_value=0.0, max_value=30.0)),
        loss_prob=draw(st.floats(min_value=0.0, max_value=0.3)),
        propagation_delay=draw(st.sampled_from([0.0, 3.3e-9, 1e-6, 1e-4])),
        initial_energy=draw(st.floats(min_value=0.05, max_value=10.0)),
        flow_count=draw(st.integers(min_value=1, max_value=min(4, n * (n - 1)))),
        traffic_start=draw(st.floats(min_value=0.0, max_value=duration, exclude_max=True)),
    )


class HeapEngine:
    """The reference order for Engine: one heap of [time, number, push, fn]
    entries, so ties break by (time, number, push order). schedule() numbers
    from 0 up, schedule_ranked() takes the caller's rank as the number."""

    def __init__(self):
        self.now, self.heap, self.processed = 0.0, [], 0
        self.numbers, self.pushes = count(), count()

    def schedule(self, time, kind, fn):
        return self.schedule_ranked(time, next(self.numbers), kind, fn)

    def schedule_ranked(self, time, rank, kind, fn):
        if not time >= self.now:
            if not self.now - time <= TIME_EPSILON:  # far behind, or NaN
                raise SimulationError("past")
            time = self.now
        entry = [time, rank, next(self.pushes), fn]
        heapq.heappush(self.heap, entry)
        return entry

    def cancel(self, handle):
        handle[3] = None

    def clear(self):
        self.heap.clear()

    def run_until(self, t_end):
        if not t_end >= self.now:
            raise SimulationError("behind")
        processed = 0
        while self.heap and self.heap[0][0] <= t_end:
            time, _, _, fn = heapq.heappop(self.heap)
            if fn is not None:
                self.now = time
                fn()
                processed += 1
        self.now, self.processed = t_end, self.processed + processed
        return processed


class ReferenceRadio:
    """The reference for Radio, written from the README's model notes: the
    exact range test on the mobility model's positions at every query, every
    charge booked by EnergyLedger.debit, and one delivery event per receiver,
    in ascending id order. It keeps no view, snapshot, hold or price table.
    Its loss draws, trace lines and airtimes are those of Radio.send."""

    def __init__(self, params, engine, mobility, energy, metrics, trace, routers, loss_rng):
        self.params, self.engine, self.mobility = params, engine, mobility
        self.energy, self.metrics, self.trace = energy, metrics, trace
        self.routers, self.loss_rng = routers, loss_rng

    def tx_duration(self, size_bytes):
        return size_bytes * 8 / self.params.bandwidth

    def offset(self, sender, recv):
        """(dx, dy) from sender to recv at the engine's clock."""
        now = self.engine.now
        sx, sy = self.mobility.position(sender, now)
        ox, oy = self.mobility.position(recv, now)
        return ox - sx, oy - sy

    def in_range(self, sender, recv):
        """Whether recv, another node and alive, lies within range of sender."""
        if recv == sender or not self.energy.alive(recv):
            return False
        dx, dy = self.offset(sender, recv)
        return dx * dx + dy * dy <= self.params.range * self.params.range

    def send(self, sender, packet, size_bytes, addressee=None):
        now, energy, metrics = self.engine.now, self.energy, self.metrics
        is_data = type(packet) is Data
        tx, rx = (TX_DATA, RX_DATA) if is_data else (TX_CONTROL, RX_CONTROL)
        duration = self.tx_duration(size_bytes)
        # a dead node transmits nothing, and a battery drained mid-transmission
        # never completes the frame; data is lost
        if not energy.debit(sender, tx, energy.cost_pj(tx, duration)):
            if is_data:
                metrics.on_dropped(packet, "dead_node", now, sender)
            return 0
        if is_data:
            metrics.on_data_tx()
        else:
            metrics.on_control_tx()
        if self.trace.enabled:
            event = f"tx_{type(packet).__name__.lower()}"
            pid = packet.pkt_id if is_data else "-"
            tgt = "*" if addressee is None else addressee
            self.trace.emit(now, sender, event, pid, f"to={tgt}")
        candidates = range(self.mobility.node_count) if addressee is None else [addressee]
        receivers = [recv for recv in candidates if self.in_range(sender, recv)]
        loss_p = self.params.per_frame_loss_prob
        if loss_p > 0.0:  # one draw per receiver in range, in ascending id order
            receivers = [recv for recv in receivers if not self.loss_rng.random() < loss_p]
        if addressee is not None and not receivers and is_data:
            metrics.on_dropped(packet, "link_break", now, sender)
        rx_pj = energy.cost_pj(rx, duration)
        for recv in receivers:
            dx, dy = self.offset(sender, recv)
            delay = duration + self.params.propagation_delay * math.sqrt(dx * dx + dy * dy)
            self.engine.schedule(
                now + delay,
                EventKind.FRAME_DELIVERY,
                partial(self.receive, recv, packet, sender, rx, rx_pj),
            )
        return len(receivers)

    def receive(self, recv, packet, sender, rx, rx_pj):
        """One reception, handled only by a receiver its charge leaves alive:
        a hello is the write of its sender's deadline, a request copy goes no
        further at a receiver on its route record or one its flood's table
        holds past now, and every other frame reaches on_frame."""
        if not self.energy.debit(recv, rx, rx_pj):
            return
        now, router = self.engine.now, self.routers[recv]
        if type(packet) is Hello:
            router.hello_deadline[sender] = now + self.routers[sender].hello_allowance
        elif type(packet) is not Rreq or (
            recv not in packet.route_record and packet.flood.get(recv, -1.0) <= now
        ):
            router.on_frame(packet, sender)


def all_simple_paths(adjacency: dict, src, dst, max_hops: int) -> list[tuple]:
    """Depth-first enumeration of simple src->dst paths up to max_hops."""
    out = []

    def dfs(node, path):
        if len(path) - 1 > max_hops:
            return
        if node == dst:
            out.append(tuple(path))
            return
        for nxt in sorted(adjacency.get(node, ())):
            if nxt not in path:
                path.append(nxt)
                dfs(nxt, path)
                path.pop()

    dfs(src, [src])
    return out


def adjacency_from_edges(edges) -> dict:
    adj: dict = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def adjacency_from_positions(positions, radio_range: float) -> dict:
    if isinstance(positions, dict):
        positions = [positions[i] for i in sorted(positions)]
    adj: dict = {i: set() for i in range(len(positions))}
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            if math.dist(positions[i], positions[j]) <= radio_range:
                adj[i].add(j)
                adj[j].add(i)
    return adj


def bfs_hops(adjacency: dict, src, dst) -> int | None:
    """Shortest hop count oracle."""
    frontier = [src]
    seen = {src}
    hops = 0
    while frontier:
        nxt = []
        for node in frontier:
            if node == dst:
                return hops
            for peer in adjacency.get(node, ()):
                if peer not in seen:
                    seen.add(peer)
                    nxt.append(peer)
        frontier = nxt
        hops += 1
    return None


def pending_events(engine):
    """The engine's pending entries [time, seq, fn], in the order they run."""
    return [entry for time in sorted(engine._pending) for entry in engine._pending[time]]


def router_state(router):
    """A copy of what a frame handler could change: the router's own fields
    (its run context and engine aside) and the engine's pending events."""
    fields = {k: v for k, v in vars(router).items() if k not in ("ctx", "engine")}
    engine = router.engine
    return copy.deepcopy(fields), [entry[:] for entry in pending_events(engine)], engine._counter


def receive(net, recv, packet, sender):
    """Hand `packet` from `sender` to node `recv` the way the radio delivers
    a broadcast, charged one picojoule: a request copy its receiver's route
    record or flood table turns away never reaches the handler."""
    net.radio._deliver_batch((recv,), packet, sender, RX_CONTROL, 1)


def sent_frames(net) -> list:
    """Record every (sender, packet) the radio is asked to send from now
    on, in order; the frames are still sent."""
    sent = []
    send = net.radio.send

    def spy(sender, packet, *rest):
        sent.append((sender, packet))
        return send(sender, packet, *rest)

    net.radio.send = spy
    return sent


def bench_discovery_frames(max_copies=0, max_paths=0, slack=2) -> list:
    """One multipath discovery from 0 to 8 on the nine-node benchmark
    topology, started by a flow; returns every (sender, packet) sent."""
    flow = FlowSpec(0, 8, 512, 1.0, 1.0, 5.0)
    sc = Scenario(node_count=9, duration=6.0, protocol="maodv", flows=[flow])
    sc.proto.mpath_max_copies = max_copies
    sc.proto.mpath_max_paths = max_paths
    sc.proto.mpath_slack = slack
    net = build_network(sc, mobility=static_model(BENCH_POSITIONS))
    sent = sent_frames(net)
    TrafficSource([FlowSpec(0, 8, 512, 1.0, 1.0, 5.0, flow_id=0)], net).start()
    for r in net.routers:
        r.start_maintenance()
    net.engine.run_until(6.0)
    return sent


def run_bench_discovery(max_copies=0, max_paths=0, slack=2) -> list[tuple]:
    """The route records the destination of bench_discovery_frames collected,
    read from the path set of its one reply (it closes its flood when it
    replies, so the set holds every record it admitted)."""
    sent = bench_discovery_frames(max_copies, max_paths, slack)
    replies = [packet for sender, packet in sent if sender == 8 and type(packet) is Rrep]
    assert len(replies) == 1
    return list(replies[0].path_set)


@pytest.fixture
def bench_model():
    return static_model(BENCH_POSITIONS)

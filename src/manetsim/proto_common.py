"""Shared protocol substrate: packet types, freshness, routing table, liveness."""

import math
from dataclasses import dataclass, field

from .engine import Engine, EventKind, SimulationError

# Sequence counters occupy the non-negative signed-32-bit range and wrap at
# 2^31; comparison is by circular signed difference within that space.
SEQ_SPACE = 1 << 31


def fresher(a: int, b: int) -> bool:
    """True iff sequence number a is strictly newer than b (circular)."""
    d = (a - b) % SEQ_SPACE
    return 0 < d < SEQ_SPACE // 2


@dataclass(slots=True)
class Rreq:
    origin: int
    dest: int
    rreq_id: int  # (origin, rreq_id) identifies one flood
    origin_seq: int
    dest_seq_known: int
    hop_count: int
    route_record: tuple[int, ...]
    repair: bool = False


@dataclass(slots=True)
class Rrep:
    origin: int  # discovery originator the reply travels back to
    dest: int  # destination that produced the reply
    dest_seq: int
    hop_count: int
    path_set: tuple[tuple[int, ...], ...]  # multipath reply; empty for hop-by-hop
    lifetime: float
    rreq_id: int = -1


@dataclass(slots=True)
class Rerr:
    broken_link: tuple[int, int]
    unreachable_dests: tuple[int, ...]
    route_record_to_source: tuple[int, ...] = ()  # reverse prefix, source-routed mode
    reporter: int = -1


@dataclass(slots=True)
class Hello:
    sender: int
    sender_seq: int


@dataclass(slots=True)
class Data:
    origin: int
    dest: int
    payload_size: int
    data_seq: int
    sent_at: float
    flow_id: int
    pkt_id: int
    source_route: tuple[int, ...] = ()
    traversed: list[int] = field(default_factory=list)


Packet = Rreq | Rrep | Rerr | Hello | Data


@dataclass(slots=True)
class RoutingTableEntry:
    dest: int
    next_hop: int
    hop_count: int
    dest_seq: int
    active_neighbors: set[int] = field(default_factory=set)
    expires_at: float = 0.0
    last_used: float = -math.inf

    def valid(self, now: float) -> bool:
        return now < self.expires_at


@dataclass(slots=True)
class ProtocolParams:
    rreq_retries: int = 2
    hello_interval: float = 1.0
    allowed_hello_loss: int = 2
    route_lifetime: float = 10.0
    rreq_id_cache_ttl: float = 6.0
    queue_capacity: int = 50
    control_bytes: int = 64
    discovery_timeout: float = 0.0  # 0 -> derived from network size
    # multipath variant knobs
    n0: int = 3
    s0: int = 1
    mpath_slack: int = 2
    mpath_max_copies: int = 2  # per-node duplicate-forward bound; 0 = unbounded
    mpath_max_paths: int = 8  # destination collection cap; 0 = unbounded
    rrep_wait: float = 0.0  # destination collection window; 0 -> derived
    degree_tiebreak: bool = True

    def validate(self) -> None:
        for name in (
            "rreq_retries",
            "hello_interval",
            "allowed_hello_loss",
            "route_lifetime",
            "rreq_id_cache_ttl",
            "queue_capacity",
            "control_bytes",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"protocol.{name} must be > 0")
        if not (0 < self.s0 < self.n0):
            raise ValueError("protocol must satisfy 0 < s0 < n0")
        if self.mpath_slack < 0:
            raise ValueError("protocol.mpath_slack must be >= 0")

    @property
    def hello_allowance(self) -> float:
        return self.allowed_hello_loss * self.hello_interval

    def control_tx_duration(self, bandwidth: float) -> float:
        return self.control_bytes * 8 / bandwidth

    def effective_discovery_timeout(self, diameter_hops: int, bandwidth: float) -> float:
        if self.discovery_timeout > 0:
            return self.discovery_timeout
        per_hop = self.control_tx_duration(bandwidth)
        round_trip = 4 * (diameter_hops + self.mpath_slack) * per_hop
        return round_trip + self.effective_rrep_wait(diameter_hops, bandwidth) + 0.005

    def effective_rrep_wait(self, diameter_hops: int, bandwidth: float) -> float:
        if self.rrep_wait > 0:
            return self.rrep_wait
        return 2 * diameter_hops * self.control_tx_duration(bandwidth)


class RouterBase:
    """Per-node machinery shared by both protocols: sequence number, hello
    emission scoped to active routes, and hello-based neighbor liveness."""

    def __init__(self, node: int, ctx: "RunContext"):
        self.node = node
        self.ctx = ctx
        self.params = ctx.params
        self.seq = 0
        self.rreq_counter = 0
        # neighbor -> time after which it is presumed gone
        self.hello_deadline: dict[int, float] = {}
        self._watch_armed: set[int] = set()
        # dest -> (earliest next attempt, failure streak); repeated failed
        # discoveries toward the same destination back off exponentially
        self.discovery_backoff: dict[int, tuple[float, int]] = {}

    # -- basic state ------------------------------------------------------

    @property
    def now(self) -> float:
        return self.ctx.engine.now

    @property
    def alive(self) -> bool:
        return self.ctx.energy.alive(self.node)

    # -- frame dispatch ----------------------------------------------------

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # packet type -> handler, resolved once per protocol class
        cls._frame_handlers = {
            Hello: cls._on_hello,
            Data: cls._handle_data,
            Rreq: cls._handle_rreq,
            Rrep: cls._handle_rrep,
            Rerr: cls._handle_rerr,
        }

    def on_frame(self, packet, sender: int) -> None:
        try:
            handler = self._frame_handlers[type(packet)]
        except KeyError:
            raise SimulationError(f"unknown packet type {packet!r}") from None
        handler(self, packet, sender)

    # -- hello & liveness ---------------------------------------------------

    def start_maintenance(self) -> None:
        self.ctx.engine.schedule(
            self.now + self.params.hello_interval, EventKind.TIMER, self._hello_tick
        )

    def _hello_tick(self) -> None:
        if self.alive and self.hello_active():
            self.ctx.radio.send(self.node, Hello(self.node, self.seq), self.params.control_bytes)
        if self.alive:
            self.ctx.engine.schedule(
                self.now + self.params.hello_interval, EventKind.TIMER, self._hello_tick
            )

    def _on_hello(self, hello: Hello, sender: int) -> None:
        self.hello_deadline[hello.sender] = self.now + self.params.hello_allowance

    def watch(self, neighbor: int) -> None:
        """Start liveness tracking for a next-hop neighbor.

        A stale deadline (no hello heard for ages because both ends sat on
        no active route) says nothing about liveness, so tracking restarts
        with a fresh allowance instead of declaring an instant break.
        """
        deadline = self.hello_deadline.get(neighbor)
        if deadline is None or deadline <= self.now:
            self.hello_deadline[neighbor] = self.now + self.params.hello_allowance
        if neighbor not in self._watch_armed:
            self._watch_armed.add(neighbor)
            self.ctx.engine.schedule(
                self.hello_deadline[neighbor],
                EventKind.TIMER,
                lambda n=neighbor: self._watch_fired(n),
            )

    def may_discover(self, dest: int) -> bool:
        entry = self.discovery_backoff.get(dest)
        return entry is None or self.now >= entry[0]

    def note_discovery_failure(self, dest: int) -> None:
        streak = self.discovery_backoff.get(dest, (0.0, 0))[1] + 1
        delay = min(self.ctx.discovery_timeout * (2**streak), 10.0)
        self.discovery_backoff[dest] = (self.now + delay, streak)

    def _watch_fired(self, neighbor: int) -> None:
        if not self.alive:
            self._watch_armed.discard(neighbor)
            return
        deadline = self.hello_deadline.get(neighbor)
        if deadline is None:
            self._watch_armed.discard(neighbor)
            return
        if deadline > self.now:
            self.ctx.engine.schedule(
                deadline, EventKind.TIMER, lambda n=neighbor: self._watch_fired(n)
            )
            return
        self._watch_armed.discard(neighbor)
        del self.hello_deadline[neighbor]
        if self.watch_relevant(neighbor):
            self.on_neighbor_lost(neighbor)

    # -- protocol hooks ------------------------------------------------------

    def hello_active(self) -> bool:
        raise NotImplementedError

    def watch_relevant(self, neighbor: int) -> bool:
        raise NotImplementedError

    def on_neighbor_lost(self, neighbor: int) -> None:
        raise NotImplementedError

    def send_data(self, pkt: Data) -> None:
        raise NotImplementedError

    def _handle_data(self, pkt: Data, sender: int) -> None:
        raise NotImplementedError

    def _handle_rreq(self, rreq: Rreq, sender: int) -> None:
        raise NotImplementedError

    def _handle_rrep(self, rrep: Rrep, sender: int) -> None:
        raise NotImplementedError

    def _handle_rerr(self, rerr: Rerr, sender: int) -> None:
        raise NotImplementedError


class RunContext:
    """Wiring shared by every module within one run."""

    def __init__(self, engine: Engine, params: ProtocolParams):
        self.engine = engine
        self.params = params
        self.radio = None
        self.energy = None
        self.metrics = None
        self.trace = None
        self.routers: list[RouterBase] = []
        self.node_count = 0
        self.bandwidth = 0.0
        self.diameter_hops = 5  # geometric bound, set per scenario

    @property
    def discovery_timeout(self) -> float:
        return self.params.effective_discovery_timeout(self.diameter_hops, self.bandwidth)

    @property
    def rrep_wait(self) -> float:
        return self.params.effective_rrep_wait(self.diameter_hops, self.bandwidth)

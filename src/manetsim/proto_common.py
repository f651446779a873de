"""Shared protocol substrate: packet types, freshness, liveness, and the
source-side route discovery both protocols run."""

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .engine import EventKind, SimulationError

if TYPE_CHECKING:
    from .runner import Network

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


@dataclass(slots=True)
class Discovery:
    """A route discovery this node runs as a source. Data toward dest waits
    in `buffered` until a reply arrives or the last retry times out."""

    dest: int
    attempts_left: int
    requested_seq: int
    buffered: list = field(default_factory=list)
    timer: object = None


class RouterBase:
    """Per-node machinery shared by both protocols: sequence number, hello
    emission scoped to active routes, hello-based neighbor liveness, and
    source-side discovery with retry, back-off and buffering."""

    def __init__(self, node: int, ctx: "Network"):
        self.node = node
        self.ctx = ctx
        self.engine = ctx.engine  # handlers read the clock as self.engine.now
        self.params = ctx.scenario.proto
        self.seq = 0
        self.rreq_counter = 0
        self.sourced: set[int] = set()  # destinations this node has sent data to
        self.discoveries: dict[int, Discovery] = {}
        self.hello_allowance = self.params.allowed_hello_loss * self.params.hello_interval
        # neighbor -> time after which it is presumed gone
        self.hello_deadline: dict[int, float] = {}
        self._watch_armed: set[int] = set()
        # dest -> (earliest next attempt, failure streak); repeated failed
        # discoveries toward the same destination back off exponentially
        self.discovery_backoff: dict[int, tuple[float, int]] = {}

    # -- basic state ------------------------------------------------------

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
        self.engine.schedule(
            self.engine.now + self.params.hello_interval, EventKind.TIMER, self._hello_tick
        )

    def _hello_tick(self) -> None:
        if self.alive and self.hello_active():
            self.ctx.radio.send(self.node, Hello(self.node, self.seq), self.params.control_bytes)
        if self.alive:
            self.engine.schedule(
                self.engine.now + self.params.hello_interval, EventKind.TIMER, self._hello_tick
            )

    def _on_hello(self, hello: Hello, sender: int) -> None:
        self.hello_deadline[hello.sender] = self.engine.now + self.hello_allowance

    def watch(self, neighbor: int) -> None:
        """Start liveness tracking for a next-hop neighbor.

        A stale deadline (no hello heard for ages because both ends sat on
        no active route) says nothing about liveness, so tracking restarts
        with a fresh allowance instead of declaring an instant break.
        """
        now = self.engine.now
        deadline = self.hello_deadline.get(neighbor)
        if deadline is None or deadline <= now:
            self.hello_deadline[neighbor] = now + self.hello_allowance
        if neighbor not in self._watch_armed:
            self._watch_armed.add(neighbor)
            self.engine.schedule(
                self.hello_deadline[neighbor],
                EventKind.TIMER,
                lambda n=neighbor: self._watch_fired(n),
            )

    def may_discover(self, dest: int) -> bool:
        """True when no discovery toward dest runs and none is backing off."""
        if dest in self.discoveries:
            return False
        entry = self.discovery_backoff.get(dest)
        return entry is None or self.engine.now >= entry[0]

    def note_discovery_failure(self, dest: int) -> None:
        streak = self.discovery_backoff.get(dest, (0.0, 0))[1] + 1
        delay = min(self.ctx.discovery_timeout * (2**streak), 10.0)
        self.discovery_backoff[dest] = (self.engine.now + delay, streak)

    def _watch_fired(self, neighbor: int) -> None:
        if not self.alive:
            self._watch_armed.discard(neighbor)
            return
        deadline = self.hello_deadline.get(neighbor)
        if deadline is None:
            self._watch_armed.discard(neighbor)
            return
        if deadline > self.engine.now:
            self.engine.schedule(
                deadline, EventKind.TIMER, lambda n=neighbor: self._watch_fired(n)
            )
            return
        self._watch_armed.discard(neighbor)
        del self.hello_deadline[neighbor]
        if self.watch_relevant(neighbor):
            self.on_neighbor_lost(neighbor)

    # -- route discovery (source side) ---------------------------------------

    def _buffer_for_discovery(self, pkt: Data) -> None:
        """Queue a packet that has no route behind dest's discovery, starting
        one if none runs. The packet is dropped while discovery toward dest
        backs off, or when the queue is full."""
        discovery = self.discoveries.get(pkt.dest)
        if discovery is None:
            if not self.may_discover(pkt.dest):
                self.ctx.metrics.on_dropped(pkt, "no_route", self.engine.now, self.node)
                return
            discovery = self.start_discovery(pkt.dest, self._requested_seq(pkt.dest))
        if len(discovery.buffered) >= self.params.queue_capacity:
            self.ctx.metrics.on_dropped(pkt, "queue_overflow", self.engine.now, self.node)
            return
        discovery.buffered.append(pkt)

    def start_discovery(
        self, dest: int, requested_seq: int = 0, event: str = "discovery_start"
    ) -> Discovery:
        discovery = Discovery(dest, self.params.rreq_retries, requested_seq)
        self.discoveries[dest] = discovery
        self.ctx.metrics.on_event(event, self.engine.now, self.node, f"dest={dest}")
        discovery.timer = self._flood_rreq(
            dest, requested_seq, self.ctx.discovery_timeout, self._discovery_timeout
        )
        return discovery

    def _flood_rreq(self, dest: int, requested_seq: int, wait: float, on_timeout):
        """Broadcast a fresh request for dest; returns the timer that calls
        on_timeout(dest) after `wait` unless it is cancelled first."""
        self.seq += 1
        self.rreq_counter += 1
        rreq = Rreq(
            origin=self.node,
            dest=dest,
            rreq_id=self.rreq_counter,
            origin_seq=self.seq,
            dest_seq_known=requested_seq,
            hop_count=0,
            route_record=(self.node,),
        )
        self.ctx.radio.send(self.node, rreq, self.params.control_bytes)
        return self.engine.schedule(
            self.engine.now + wait, EventKind.TIMER, lambda: on_timeout(dest)
        )

    def _discovery_timeout(self, dest: int) -> None:
        if not self.alive:
            return
        discovery = self.discoveries.get(dest)
        if discovery is None:
            return
        now = self.engine.now
        if discovery.attempts_left > 0:
            discovery.attempts_left -= 1
            self.ctx.metrics.on_event("discovery_retry", now, self.node, f"dest={dest}")
            discovery.timer = self._flood_rreq(
                dest, discovery.requested_seq, self.ctx.discovery_timeout, self._discovery_timeout
            )
            return
        del self.discoveries[dest]
        self.note_discovery_failure(dest)
        self.ctx.metrics.on_event("discovery_fail", now, self.node, f"dest={dest}")
        for pkt in discovery.buffered:
            self.ctx.metrics.on_dropped(pkt, "no_route", now, self.node)

    def _end_discovery(self, dest: int) -> Discovery | None:
        """Stop dest's running discovery, if any, and return it so the
        caller can release its buffered packets."""
        discovery = self.discoveries.pop(dest, None)
        if discovery is not None:
            self.engine.cancel(discovery.timer)
        return discovery

    # -- data plane ------------------------------------------------------------

    def _deliver_local(self, pkt: Data) -> bool:
        """Deliver on the spot a packet its source addressed to itself."""
        if pkt.dest != self.node:
            return False
        self.ctx.metrics.on_delivered(pkt, self.engine.now, local=True)
        return True

    def _admit_data(self, pkt: Data) -> bool:
        """Loop check for a received data packet: one that already crossed
        this node is dropped, any other records this hop and may proceed."""
        if self.node in pkt.traversed:
            self.ctx.metrics.on_dropped(pkt, "loop", self.engine.now, self.node)
            return False
        pkt.traversed.append(self.node)
        return True

    # -- protocol hooks ------------------------------------------------------

    def _requested_seq(self, dest: int) -> int:
        """Destination sequence number a new discovery toward dest asks for."""
        return 0

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

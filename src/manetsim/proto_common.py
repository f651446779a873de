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
    hop_count: int
    route_record: tuple[int, ...]
    seqs: tuple[int, int] | None = None  # AODV's (origin_seq, dest_seq_known)
    # node -> time until which it turns away every copy of this flood; one
    # table shared by all of the flood's copies, written by the handlers and
    # read by the radio, and freed with the flood's last copy
    flood: dict[int, float] = field(default_factory=dict)
    records: dict = field(default_factory=dict)  # node -> its RreqFlood, shared like flood


@dataclass(slots=True)
class Rrep:
    origin: int  # discovery originator the reply travels back to
    dest: int  # destination that produced the reply
    dest_seq: int = 0  # hop-by-hop reply fields
    hop_count: int = 0
    lifetime: float = 0.0
    path_set: tuple[tuple[int, ...], ...] = ()  # multipath reply fields
    handled: set[int] | None = None  # nodes that have handled this reply wave


@dataclass(slots=True)
class Rerr:
    unreachable_dests: tuple[int, ...]
    # source-routed mode: the broken link and the reverse prefix to the source
    broken_link: tuple[int, int] | None = None
    route_record_to_source: tuple[int, ...] = ()


@dataclass(slots=True)
class Hello:
    """Carries nothing: the radio hands every receiver the sender."""


HELLO = Hello()


@dataclass(slots=True)
class Data:
    """A CBR packet; once sent, it is also its own ledger record (PacketLedger)."""

    origin: int
    dest: int
    payload_size: int
    data_seq: int
    sent_at: float
    flow_id: int
    pkt_id: int
    source_route: tuple[int, ...] = ()
    traversed: list[int] | tuple[int, ...] = field(default_factory=list)
    # delivery time or drop cause: one slot, as an eleventh moves Data up a size class
    end: float | str | None = None

    @property
    def terminal(self) -> bool:
        return self.end is not None

    @property
    def delivered_at(self) -> float | None:
        return None if isinstance(self.end, str) else self.end

    @property
    def drop_cause(self) -> str | None:
        return self.end if isinstance(self.end, str) else None


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


@dataclass(slots=True)
class Discovery:
    """A route discovery this node runs toward dest. Data toward dest waits
    in `buffered` until a reply arrives or the last attempt times out. A
    local repair is a one-attempt discovery with `repair` set."""

    dest: int
    attempts_left: int
    requested_seq: int
    buffered: list = field(default_factory=list)
    timer: object = None
    repair: bool = False


class RouterBase:
    """Per-node machinery shared by both protocols: hello emission scoped to
    active routes, hello-based neighbor liveness, and route discovery with
    retry, back-off and buffering.

    A protocol supplies `hello_active()`, `on_neighbor_lost(neighbor)`,
    `send_data(pkt)` and the four frame handlers `_handle_data`,
    `_handle_rreq`, `_handle_rrep` and `_handle_rerr` (packet, sender), and
    may override `_requested_seq` and `_flood_seqs`. `on_neighbor_lost` is
    the one break hook: it decides for itself whether the neighbor matters
    and does nothing when no route it keeps runs through that neighbor.
    `_handle_rreq` sees only the copies the radio admits: a node on the
    copy's route record, or one its flood's `flood` table holds past now,
    never gets one, so a handler that writes its node's entry turns away
    the flood's later copies.

    A protocol reaches the run only through the helpers below, which stamp
    this node and the clock: `_control` and `_forward_data` transmit,
    `_deliver`, `_drop` and `_note` record, `_at` sets a timer."""

    def __init__(self, node: int, ctx: "Network"):
        self.node = node
        self.ctx = ctx
        self.engine = ctx.engine  # handlers read the clock as self.engine.now
        self.params = ctx.scenario.proto
        self.sourced: set[int] = set()  # destinations this node has sent data to
        self.discoveries: dict[int, Discovery] = {}
        self.hello_allowance = self.params.allowed_hello_loss * self.params.hello_interval
        # neighbor -> time after which it is presumed gone; a hello heard at t
        # sets t + hello_allowance, written by the radio's delivery batch
        self.hello_deadline: dict[int, float] = {}
        self._watch_armed: set[int] = set()
        # dest -> (earliest next attempt, failure streak); repeated failed
        # discoveries toward the same destination back off exponentially
        self.discovery_backoff: dict[int, tuple[float, int]] = {}

    # -- basic state ------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.ctx.energy.remaining_pj[self.node] > 0

    # -- the run: transmissions, records, timers ---------------------------

    def _control(self, packet, addressee: int | None = None) -> None:
        self.ctx.radio.send(self.node, packet, self.params.control_bytes, addressee)

    def _forward_data(self, pkt: Data, next_hop: int) -> None:
        """Unicast data to next_hop, then watch that hop.

        An armed watch always has a deadline, and while that deadline lies
        after now, watch(next_hop) would change nothing, so it is called
        only otherwise."""
        self.ctx.radio.send(self.node, pkt, pkt.payload_size, next_hop)
        if next_hop not in self._watch_armed or self.hello_deadline[next_hop] <= self.engine.now:
            self.watch(next_hop)

    def _deliver(self, pkt: Data) -> None:
        self.ctx.metrics.on_delivered(pkt, self.engine.now)

    def _drop(self, pkt: Data, cause: str) -> None:
        self.ctx.metrics.on_dropped(pkt, cause, self.engine.now, self.node)

    def _note(self, event: str, detail: str = "") -> None:
        self.ctx.metrics.on_event(event, self.engine.now, self.node, detail)

    def _at(self, time: float, fn):
        """Run fn at the absolute time given; returns the timer's handle."""
        return self.engine.schedule(time, EventKind.TIMER, fn)

    # -- frame dispatch ----------------------------------------------------

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # packet type -> handler, resolved once per protocol class and read
        # only by on_frame, where every frame but a hello arrives; the radio
        # writes a hello's reception into hello_deadline
        cls._frame_handlers = {
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
        self._at(self.engine.now + self.params.hello_interval, self._hello_tick)

    def _hello_tick(self) -> None:
        remaining, node = self.ctx.energy.remaining_pj, self.node
        if remaining[node] > 0 and self.hello_active():
            self._control(HELLO)
        if remaining[node] > 0:
            engine = self.engine
            engine.schedule(
                engine.now + self.params.hello_interval, EventKind.TIMER, self._hello_tick
            )

    def watch(self, neighbor: int) -> None:
        """Start liveness tracking for a next-hop neighbor.

        A stale deadline (no hello heard for ages because both ends sat on
        no active route, or the neighbor was already declared lost) says
        nothing about liveness, so tracking restarts with a fresh allowance
        instead of declaring an instant break.
        """
        now = self.engine.now
        deadline = self.hello_deadline.get(neighbor)
        if deadline is None or deadline <= now:
            self.hello_deadline[neighbor] = now + self.hello_allowance
        if neighbor not in self._watch_armed:
            self._watch_armed.add(neighbor)
            self._at(self.hello_deadline[neighbor], lambda n=neighbor: self._watch_fired(n))

    def may_discover(self, dest: int) -> bool:
        """True when no discovery toward dest runs and none is backing off."""
        if dest in self.discoveries:
            return False
        entry = self.discovery_backoff.get(dest)
        return entry is None or self.engine.now >= entry[0]

    def _watch_fired(self, neighbor: int) -> None:
        if not self.alive:
            self._watch_armed.discard(neighbor)
            return
        # an armed watch always has a deadline: watch() wrote it, and a
        # hello only ever moves it
        deadline = self.hello_deadline[neighbor]
        if deadline > self.engine.now:
            self._at(deadline, lambda n=neighbor: self._watch_fired(n))
            return
        self._watch_armed.discard(neighbor)
        self.on_neighbor_lost(neighbor)

    # -- route discovery ------------------------------------------------------

    def _buffer_for_discovery(self, pkt: Data) -> None:
        """Queue a packet that has no route behind dest's discovery, starting
        one if none runs. The packet is dropped while discovery toward dest
        backs off."""
        discovery = self.discoveries.get(pkt.dest)
        if discovery is None:
            if not self.may_discover(pkt.dest):
                self._drop(pkt, "no_route")
                return
            discovery = self.start_discovery(pkt.dest, self._requested_seq(pkt.dest))
        self._enqueue(discovery, pkt)

    def _enqueue(self, discovery: Discovery, pkt: Data) -> None:
        """Hold a packet until the discovery ends, or drop it when the queue is full."""
        if len(discovery.buffered) >= self.params.queue_capacity:
            self._drop(pkt, "queue_overflow")
        else:
            discovery.buffered.append(pkt)

    def rediscover(self, dest: int) -> None:
        """After a break, rediscover a destination this node sends to, unless
        a discovery toward it runs or backs off."""
        if dest in self.sourced and self.may_discover(dest):
            self.start_discovery(dest, self._requested_seq(dest, bump=True))

    def start_discovery(
        self, dest: int, requested_seq: int = 0, event: str = "discovery_start"
    ) -> Discovery:
        discovery = Discovery(dest, self.params.rreq_retries, requested_seq)
        return self._open(discovery, event, self.ctx.discovery_timeout)

    def _open(self, discovery: Discovery, event: str, wait: float) -> Discovery:
        """Register a discovery and flood its first request."""
        dest = discovery.dest
        self.discoveries[dest] = discovery
        self._note(event, f"dest={dest}")
        discovery.timer = self._flood_rreq(dest, discovery.requested_seq, wait)
        return discovery

    def _flood_rreq(self, dest: int, requested_seq: int, wait: float):
        """Broadcast a fresh request for dest; returns the timer that runs
        dest's discovery timeout after `wait` unless it is cancelled first."""
        seqs = self._flood_seqs(requested_seq)
        self._control(Rreq(self.node, dest, 0, (self.node,), seqs))
        return self._at(self.engine.now + wait, lambda: self._discovery_timeout(dest))

    def _relay_rreq(self, rreq: Rreq, hops: int, record: tuple[int, ...]) -> None:
        """Rebroadcast a request one hop on: `hops` is its hop count here and
        `record` the route record it carries on. MAODV appends this node;
        AODV passes the request's on unchanged, so it holds just the origin.
        The copy shares the flood's tables."""
        self._control(Rreq(
            rreq.origin, rreq.dest, hops, record, rreq.seqs, rreq.flood, rreq.records
        ))

    def _discovery_timeout(self, dest: int) -> None:
        if not self.alive:
            return
        # a discovery is removed only by _end_discovery, which cancels this
        # timer, or below, where no timer is armed again
        discovery = self.discoveries[dest]
        if discovery.attempts_left > 0:
            discovery.attempts_left -= 1
            self._note("discovery_retry", f"dest={dest}")
            discovery.timer = self._flood_rreq(
                dest, discovery.requested_seq, self.ctx.discovery_timeout
            )
            return
        del self.discoveries[dest]
        self._give_up(discovery)

    def _give_up(self, discovery: Discovery) -> None:
        """The last attempt timed out: back off, then drop what waited."""
        streak = self.discovery_backoff.get(discovery.dest, (0.0, 0))[1] + 1
        delay = min(self.ctx.discovery_timeout * (2**streak), 10.0)
        self.discovery_backoff[discovery.dest] = (self.engine.now + delay, streak)
        self._drop_buffered(discovery, "discovery_fail")

    def _drop_buffered(self, discovery: Discovery, event: str) -> None:
        self._note(event, f"dest={discovery.dest}")
        for pkt in discovery.buffered:
            self._drop(pkt, "no_route")

    def _end_discovery(self, dest: int) -> Discovery | None:
        """Stop dest's running discovery, if any, and return it so the
        caller can release its buffered packets."""
        discovery = self.discoveries.pop(dest, None)
        if discovery is not None:
            self.engine.cancel(discovery.timer)
        return discovery

    # -- data plane ------------------------------------------------------------

    def _admit_data(self, pkt: Data) -> bool:
        """Loop check for a received data packet: one that already crossed
        this node is dropped, any other records this hop and may proceed."""
        if self.node in pkt.traversed:
            self._drop(pkt, "loop")
            return False
        pkt.traversed.append(self.node)
        return True

    # -- protocol hooks ------------------------------------------------------

    def _requested_seq(self, dest: int, bump: bool = False) -> int:
        """Destination sequence number a new discovery toward dest asks for;
        `bump` asks for a route fresher than one that just broke."""
        return 0

    def _flood_seqs(self, requested_seq: int) -> tuple[int, int] | None:
        """The `seqs` a fresh request carries: AODV's own and asked-for numbers."""
        return None

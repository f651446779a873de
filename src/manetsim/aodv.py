"""On-demand distance-vector routing: flooded requests, unicast replies,
hop-by-hop table forwarding, local repair, and error propagation."""

import math
from dataclasses import dataclass, field

from .proto_common import Data, Rerr, Rrep, Rreq, RouterBase, fresher


@dataclass(slots=True)
class RoutingTableEntry:
    dest: int
    next_hop: int
    hop_count: int
    dest_seq: int
    expires_at: float = 0.0
    last_used: float = -math.inf

    def valid(self, now: float) -> bool:
        return now < self.expires_at


@dataclass(slots=True)
class RepairState:
    dest: int
    broken_hop: int
    buffered: list = field(default_factory=list)
    timer: object = None


class AodvRouter(RouterBase):
    def __init__(self, node, ctx):
        super().__init__(node, ctx)
        self.table: dict[int, RoutingTableEntry] = {}
        self.repairs: dict[int, RepairState] = {}
        self.rreq_seen: dict[tuple[int, int], float] = {}
        self.last_dest_seq: dict[int, int] = {}

    # -- helpers -------------------------------------------------------------

    def _valid_entry(self, dest: int) -> RoutingTableEntry | None:
        e = self.table.get(dest)
        if e is not None and e.valid(self.engine.now):
            return e
        return None

    def _update_route(
        self, dest: int, next_hop: int, hops: int, seq: int, lifetime: float = 0.0
    ) -> RoutingTableEntry:
        now = self.engine.now
        life = lifetime if lifetime > 0 else self.params.route_lifetime
        e = self.table.get(dest)
        if e is None:
            e = RoutingTableEntry(dest, next_hop, hops, seq, now + life)
            self.table[dest] = e
            return e
        if (
            not e.valid(now)
            or fresher(seq, e.dest_seq)
            or (seq == e.dest_seq and hops < e.hop_count)
        ):
            e.next_hop = next_hop
            e.hop_count = hops
            e.dest_seq = seq
            e.expires_at = now + life
        elif seq == e.dest_seq and next_hop == e.next_hop:
            e.expires_at = max(e.expires_at, now + life)
        return e

    def _requested_seq(self, dest: int, bump: bool = False) -> int:
        # after a break, ask for a route fresher than the one that failed
        known = self.last_dest_seq.get(dest, 0)
        return known + 1 if bump and known else known

    def _note_dest_seq(self, dest: int, seq: int) -> None:
        known = self.last_dest_seq.get(dest)
        if known is None or fresher(seq, known):
            self.last_dest_seq[dest] = seq

    def _transmit(self, pkt: Data, e: RoutingTableEntry) -> None:
        now = self.engine.now
        if e.next_hop in pkt.traversed:
            # A mid-flight route change (typically a repair splice) can point
            # back through a node this packet already crossed. The tables are
            # consistent for future traffic; this one packet is sacrificed
            # rather than allowed to revisit a node.
            self.ctx.metrics.on_dropped(pkt, "loop_avoided", now, self.node)
            return
        e.last_used = now
        e.expires_at = now + self.params.route_lifetime
        self.ctx.radio.send(self.node, pkt, pkt.payload_size, addressee=e.next_hop)
        self.watch(e.next_hop)

    # -- hello scoping and liveness -------------------------------------------

    def hello_active(self) -> bool:
        now = self.engine.now
        life = self.params.route_lifetime
        for e in self.table.values():
            if e.valid(now) and e.last_used + life > now:
                return True
        return False

    def watch_relevant(self, neighbor: int) -> bool:
        now = self.engine.now
        life = self.params.route_lifetime
        for e in self.table.values():
            if e.next_hop == neighbor and e.valid(now) and e.last_used + life > now:
                return True
        return False

    def on_neighbor_lost(self, neighbor: int) -> None:
        now = self.engine.now
        life = self.params.route_lifetime
        affected = [
            e
            for e in self.table.values()
            if e.next_hop == neighbor and e.valid(now) and e.last_used + life > now
        ]
        if not affected:
            return
        self.ctx.metrics.on_event("link_break", now, self.node, f"neighbor={neighbor}")
        for e in affected:
            e.expires_at = now
            dest = e.dest
            if dest == neighbor or dest in self.sourced:
                # At the source the break point is the source itself, so
                # repair degenerates to a fresh discovery.
                if dest in self.sourced and self.may_discover(dest):
                    self.start_discovery(dest, self._requested_seq(dest, bump=True))
            elif dest not in self.repairs:
                self._begin_repair(dest, neighbor)

    # -- traffic entry ---------------------------------------------------------

    def send_data(self, pkt: Data) -> None:
        if self._deliver_local(pkt):
            return
        self.sourced.add(pkt.dest)
        e = self._valid_entry(pkt.dest)
        if e is not None:
            self._transmit(pkt, e)
        else:
            self._buffer_for_discovery(pkt)

    # -- local repair ---------------------------------------------------------

    def _begin_repair(self, dest: int, broken_hop: int) -> None:
        repair = RepairState(dest, broken_hop)
        self.repairs[dest] = repair
        self.ctx.metrics.on_event("repair_start", self.engine.now, self.node, f"dest={dest}")
        repair.timer = self._flood_rreq(
            dest,
            self._requested_seq(dest, bump=True),
            2 * self.params.hello_interval,
            self._repair_timeout,
        )

    def _repair_timeout(self, dest: int) -> None:
        if not self.alive:
            return
        repair = self.repairs.pop(dest, None)
        if repair is None:
            return
        now = self.engine.now
        self.ctx.metrics.on_event("repair_fail", now, self.node, f"dest={dest}")
        for pkt in repair.buffered:
            self.ctx.metrics.on_dropped(pkt, "no_route", now, self.node)
        self._emit_rerr((self.node, repair.broken_hop), (dest,))

    # -- control handlers --------------------------------------------------------

    def _handle_rreq(self, rreq: Rreq, sender: int) -> None:
        if rreq.origin == self.node:
            return
        now = self.engine.now
        key = (rreq.origin, rreq.rreq_id)
        seen_until = self.rreq_seen.get(key)
        if seen_until is not None and seen_until > now:
            return
        self.rreq_seen[key] = now + self.params.rreq_id_cache_ttl
        hops = rreq.hop_count + 1
        self._update_route(rreq.origin, sender, hops, rreq.origin_seq)
        if self.node == rreq.dest:
            self.seq = max(self.seq + 1, rreq.dest_seq_known)
            rrep = Rrep(
                origin=rreq.origin,
                dest=self.node,
                dest_seq=self.seq,
                hop_count=0,
                path_set=(),
                lifetime=self.params.route_lifetime,
            )
            self._forward_rrep(rrep)
            return
        e = self._valid_entry(rreq.dest)
        if (
            e is not None
            and (e.dest_seq == rreq.dest_seq_known or fresher(e.dest_seq, rreq.dest_seq_known))
            # split horizon: never advertise a route that runs back through
            # the requesting side, which would weld a forwarding loop
            and e.next_hop != sender
            and e.next_hop != rreq.origin
        ):
            rrep = Rrep(
                origin=rreq.origin,
                dest=rreq.dest,
                dest_seq=e.dest_seq,
                hop_count=e.hop_count,
                path_set=(),
                lifetime=max(e.expires_at - now, self.params.hello_interval),
            )
            self._forward_rrep(rrep)
            return
        fwd = Rreq(
            origin=rreq.origin,
            dest=rreq.dest,
            rreq_id=rreq.rreq_id,
            origin_seq=rreq.origin_seq,
            dest_seq_known=rreq.dest_seq_known,
            hop_count=hops,
            route_record=rreq.route_record + (self.node,),
        )
        self.ctx.radio.send(self.node, fwd, self.params.control_bytes)

    def _forward_rrep(self, rrep: Rrep) -> None:
        now = self.engine.now
        e = self._valid_entry(rrep.origin)
        if e is None:
            self.ctx.metrics.on_event("rrep_lost", now, self.node, "no_reverse_route")
            return
        # The reverse route carries the reply and will carry errors back;
        # treat that as use so its nodes keep announcing themselves.
        e.last_used = now
        e.expires_at = now + self.params.route_lifetime
        self.ctx.radio.send(
            self.node, rrep, self.params.control_bytes, addressee=e.next_hop
        )

    def _handle_rrep(self, rrep: Rrep, sender: int) -> None:
        hops = rrep.hop_count + 1
        self._update_route(rrep.dest, sender, hops, rrep.dest_seq, lifetime=rrep.lifetime)
        self._note_dest_seq(rrep.dest, rrep.dest_seq)
        if rrep.origin == self.node:
            self._reply_reached_origin(rrep.dest)
            return
        fwd = Rrep(
            origin=rrep.origin,
            dest=rrep.dest,
            dest_seq=rrep.dest_seq,
            hop_count=hops,
            path_set=(),
            lifetime=rrep.lifetime,
        )
        self._forward_rrep(fwd)

    def _reply_reached_origin(self, dest: int) -> None:
        now = self.engine.now
        repair = self.repairs.pop(dest, None)
        if repair is not None:
            self.engine.cancel(repair.timer)
            self.ctx.metrics.on_event("repair_ok", now, self.node, f"dest={dest}")
            for pkt in repair.buffered:
                self._forward_transit(pkt)
        discovery = self._end_discovery(dest)
        if discovery is not None:
            self.discovery_backoff.pop(dest, None)
            self.ctx.metrics.on_event("discovery_ok", now, self.node, f"dest={dest}")
            for pkt in discovery.buffered:
                self.send_data(pkt)

    def _handle_rerr(self, rerr: Rerr, sender: int) -> None:
        now = self.engine.now
        affected = []
        for dest in rerr.unreachable_dests:
            e = self.table.get(dest)
            if e is not None and e.valid(now) and e.next_hop == sender:
                e.expires_at = now
                affected.append(dest)
        if not affected:
            return
        self.ctx.metrics.on_event("route_invalid", now, self.node, f"dests={affected}")
        for dest in affected:
            if dest in self.sourced and self.may_discover(dest):
                self.start_discovery(dest, self._requested_seq(dest, bump=True))
        self._emit_rerr(rerr.broken_link, tuple(affected))

    def _emit_rerr(self, broken_link: tuple[int, int], dests: tuple[int, ...]) -> None:
        rerr = Rerr(broken_link=broken_link, unreachable_dests=dests)
        self.ctx.radio.send(self.node, rerr, self.params.control_bytes)

    # -- data plane -----------------------------------------------------------

    def _handle_data(self, pkt: Data, sender: int) -> None:
        if not self._admit_data(pkt):
            return
        if pkt.dest == self.node:
            self._touch_reverse(pkt, sender, install=True)
            self.ctx.metrics.on_delivered(pkt, self.engine.now)
            return
        self._touch_reverse(pkt, sender, install=False)
        if pkt.dest in self.repairs:
            repair = self.repairs[pkt.dest]
            if len(repair.buffered) >= self.params.queue_capacity:
                self.ctx.metrics.on_dropped(pkt, "queue_overflow", self.engine.now, self.node)
            else:
                repair.buffered.append(pkt)
            return
        e = self._valid_entry(pkt.dest)
        if e is None:
            self.ctx.metrics.on_dropped(pkt, "no_route", self.engine.now, self.node)
            self._emit_rerr((self.node, self.node), (pkt.dest,))
            return
        self._transmit(pkt, e)

    def _forward_transit(self, pkt: Data) -> None:
        e = self._valid_entry(pkt.dest)
        if e is None:
            self.ctx.metrics.on_dropped(pkt, "no_route", self.engine.now, self.node)
            return
        self._transmit(pkt, e)

    def _touch_reverse(self, pkt: Data, sender: int, install: bool) -> None:
        """Keep the path back toward the origin warm.

        Valid entries are refreshed in place; next hops are never rewritten
        from data (that is discovery's job). Only the destination installs a
        missing entry, so it keeps announcing itself to its last hop.
        """
        now = self.engine.now
        origin = pkt.origin
        e = self.table.get(origin)
        if e is not None and e.valid(now):
            e.expires_at = max(e.expires_at, now + self.params.route_lifetime)
            e.last_used = now
        elif install:
            hops_back = len(pkt.traversed) - 1
            e = RoutingTableEntry(origin, sender, hops_back, 0, now + self.params.route_lifetime)
            e.last_used = now
            self.table[origin] = e

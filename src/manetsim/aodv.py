"""On-demand distance-vector routing: flooded requests, unicast replies,
hop-by-hop table forwarding, local repair, and error propagation."""

import math
from dataclasses import dataclass

from .proto_common import Data, Discovery, Rerr, Rrep, Rreq, RouterBase, fresher


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


class AodvRouter(RouterBase):
    def __init__(self, node, ctx):
        super().__init__(node, ctx)
        self.table: dict[int, RoutingTableEntry] = {}
        self.last_dest_seq: dict[int, int] = {}
        self.seq = 0  # this node's own sequence number

    # -- helpers -------------------------------------------------------------

    def _valid_entry(self, dest: int) -> RoutingTableEntry | None:
        e = self.table.get(dest)
        if e is not None and e.valid(self.engine.now):
            return e
        return None

    def _update_route(
        self, dest: int, next_hop: int, hops: int, seq: int, life: float
    ) -> RoutingTableEntry:
        now = self.engine.now
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

    def _flood_seqs(self, requested_seq: int) -> tuple[int, int]:
        self.seq += 1
        return (self.seq, requested_seq)

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
            self._drop(pkt, "loop_avoided")
            return
        e.last_used = now
        e.expires_at = now + self.params.route_lifetime
        self._forward_data(pkt, e.next_hop)

    # -- hello scoping and liveness -------------------------------------------

    def hello_active(self) -> bool:
        now = self.engine.now
        life = self.params.route_lifetime
        for e in self.table.values():
            if e.valid(now) and e.last_used + life > now:
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
        self._note("link_break", f"neighbor={neighbor}")
        for e in affected:
            e.expires_at = now
            dest = e.dest
            if dest == neighbor or dest in self.sourced:
                # At the source the break point is the source itself, so
                # repair degenerates to a fresh discovery.
                self.rediscover(dest)
            elif dest not in self.discoveries:
                self._begin_repair(dest)

    # -- traffic entry ---------------------------------------------------------

    def send_data(self, pkt: Data) -> None:
        self.sourced.add(pkt.dest)
        e = self._valid_entry(pkt.dest)
        if e is not None:
            self._transmit(pkt, e)
        else:
            self._buffer_for_discovery(pkt)

    # -- local repair ---------------------------------------------------------

    def _begin_repair(self, dest: int) -> None:
        """RFC 3561 6.12: a relay that loses its next hop rediscovers dest
        itself, once, holding transit data meanwhile."""
        repair = Discovery(dest, 0, self._requested_seq(dest, bump=True), repair=True)
        self._open(repair, "repair_start", 2 * self.params.hello_interval)

    def _give_up(self, discovery: Discovery) -> None:
        if not discovery.repair:
            super()._give_up(discovery)
            return
        # a failed repair notes no back-off; the error sends the sources
        # back to discovery
        self._drop_buffered(discovery, "repair_fail")
        self._emit_rerr((discovery.dest,))

    # -- control handlers --------------------------------------------------------

    def _handle_rreq(self, rreq: Rreq, sender: int) -> None:
        # RFC 3561 6.5: a node drops its own request (the route record holds
        # just the origin) and every copy of a flood it has seen within the
        # cache lifetime, by the entry written here; the radio reads both
        now = self.engine.now
        rreq.flood[self.node] = now + self.params.rreq_id_cache_ttl
        hops = rreq.hop_count + 1
        origin_seq, dest_seq_known = rreq.seqs
        self._update_route(rreq.origin, sender, hops, origin_seq, self.params.route_lifetime)
        if self.node == rreq.dest:
            self.seq = max(self.seq + 1, dest_seq_known)
            self._send_rrep(rreq.origin, self.node, self.seq, 0, self.params.route_lifetime)
            return
        e = self._valid_entry(rreq.dest)
        if (
            e is not None
            and (e.dest_seq == dest_seq_known or fresher(e.dest_seq, dest_seq_known))
            # split horizon: never advertise a route that runs back through
            # the requesting side, which would weld a forwarding loop
            and e.next_hop != sender
            and e.next_hop != rreq.origin
        ):
            lifetime = max(e.expires_at - now, self.params.hello_interval)
            self._send_rrep(rreq.origin, rreq.dest, e.dest_seq, e.hop_count, lifetime)
            return
        self._relay_rreq(rreq, hops, rreq.route_record)

    def _send_rrep(self, origin: int, dest: int, seq: int, hops: int, lifetime: float) -> None:
        """Unicast a reply for dest, `hops` away from here, one hop back
        along the reverse route toward origin."""
        now = self.engine.now
        e = self._valid_entry(origin)
        if e is None:
            self._note("rrep_lost", "no_reverse_route")
            return
        # The reverse route carries the reply and will carry errors back;
        # treat that as use so its nodes keep announcing themselves.
        e.last_used = now
        e.expires_at = now + self.params.route_lifetime
        self._control(Rrep(origin, dest, seq, hops, lifetime), e.next_hop)

    def _handle_rrep(self, rrep: Rrep, sender: int) -> None:
        hops = rrep.hop_count + 1
        self._update_route(rrep.dest, sender, hops, rrep.dest_seq, rrep.lifetime)
        self._note_dest_seq(rrep.dest, rrep.dest_seq)
        if rrep.origin == self.node:
            self._reply_reached_origin(rrep.dest)
            return
        self._send_rrep(rrep.origin, rrep.dest, rrep.dest_seq, hops, rrep.lifetime)

    def _reply_reached_origin(self, dest: int) -> None:
        discovery = self._end_discovery(dest)
        if discovery is None:
            return
        self.discovery_backoff.pop(dest, None)
        self._note("repair_ok" if discovery.repair else "discovery_ok", f"dest={dest}")
        # the reply has just refreshed dest's entry, which a positive
        # lifetime always leaves valid
        e = self.table[dest]
        for pkt in discovery.buffered:
            self._transmit(pkt, e)

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
        self._note("route_invalid", f"dests={affected}")
        for dest in affected:
            self.rediscover(dest)
        self._emit_rerr(tuple(affected))

    def _emit_rerr(self, dests: tuple[int, ...]) -> None:
        self._control(Rerr(dests))

    # -- data plane -----------------------------------------------------------

    def _handle_data(self, pkt: Data, sender: int) -> None:
        if not self._admit_data(pkt):
            return
        if pkt.dest == self.node:
            self._touch_reverse(pkt, sender, install=True)
            self._deliver(pkt)
            return
        self._touch_reverse(pkt, sender, install=False)
        discovery = self.discoveries.get(pkt.dest)
        if discovery is not None and discovery.repair:
            self._enqueue(discovery, pkt)
            return
        e = self._valid_entry(pkt.dest)
        if e is None:
            self._drop(pkt, "no_route")
            self._emit_rerr((pkt.dest,))
            return
        self._transmit(pkt, e)

    def _touch_reverse(self, pkt: Data, sender: int, install: bool) -> None:
        """Keep the path back toward the origin warm.

        Valid entries are refreshed in place; next hops are never rewritten
        from data (that is discovery's job). Only the destination installs a
        missing or expired entry, so it keeps announcing itself to its last hop.
        """
        now = self.engine.now
        life = self.params.route_lifetime
        e = self.table.get(pkt.origin)
        if e is not None and e.valid(now):
            e.expires_at = max(e.expires_at, now + life)
        elif install:
            e = self._update_route(pkt.origin, sender, len(pkt.traversed) - 1, 0, life)
        else:
            return
        e.last_used = now

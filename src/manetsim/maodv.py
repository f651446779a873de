"""Source-managed multipath routing: exhaustive broadcast discovery, disjoint
route caches with spare-route failover and threshold replenishment, no local
repair."""

from dataclasses import dataclass, field

from .engine import EventKind, SimulationError
from .proto_common import Data, Rerr, Rrep, Rreq, RouterBase


def route_rank(paths, degree_tiebreak: bool = True):
    """Ranking key over candidate routes: fewest hops first, then the route
    through the lowest-degree intermediates, then lexicographic order.
    Degrees come from the graph induced by the union of the given paths."""
    adjacency: dict[int, set[int]] = {}
    for path in paths:
        for a, b in zip(path, path[1:]):
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
    degree = {node: len(peers) for node, peers in adjacency.items()}

    def rank(path):
        if degree_tiebreak:
            weight = sum(degree.get(node, 0) for node in path[1:-1])
        else:
            weight = 0
        return (len(path) - 1, weight, path)

    return rank


def select_disjoint(
    paths,
    n0: int,
    *,
    preselected: tuple = (),
    degree_tiebreak: bool = True,
) -> list[tuple[int, ...]]:
    """Greedy node-disjoint route selection.

    Candidates are ranked by route_rank over the union of all candidate
    (and preselected) paths, so routes through low-degree nodes win ties.
    Routes already in `preselected` count toward n0 and reserve their
    intermediate nodes. Output order is independent of input order.
    """
    candidates = sorted(set(tuple(p) for p in paths))
    if not candidates:
        return []
    rank = route_rank(list(preselected) + candidates, degree_tiebreak)

    taken: set[int] = set()
    for path in preselected:
        taken.update(path[1:-1])
    chosen: list[tuple[int, ...]] = []
    existing = set(tuple(p) for p in preselected)
    for path in sorted(candidates, key=rank):
        if len(chosen) + len(preselected) >= n0:
            break
        if path in existing:
            continue
        intermediates = set(path[1:-1])
        if intermediates & taken:
            continue
        chosen.append(path)
        taken.update(intermediates)
    return chosen


class PathCache:
    """Source-held ordered list of live node-disjoint routes, in selection
    order; the primary route is the first of them."""

    def __init__(self, dest: int, routes):
        self.dest = dest
        self.routes = [tuple(r) for r in routes]
        self.check_disjoint()

    def primary_route(self) -> tuple[int, ...] | None:
        return self.routes[0] if self.routes else None

    def invalidate_link(self, link: tuple[int, int]) -> bool:
        """Drop every route that crosses the directed link; True if any did."""
        live = [r for r in self.routes if link not in zip(r, r[1:])]
        changed = len(live) < len(self.routes)
        self.routes = live
        return changed

    def add_routes(self, new_routes) -> None:
        """Merge replenished routes behind the surviving ones: the route in
        use keeps its place and carries the flow until it breaks."""
        self.routes += (tuple(nodes) for nodes in new_routes)
        self.check_disjoint()

    def check_disjoint(self) -> None:
        seen: set[int] = set()
        for r in self.routes:
            intermediates = set(r[1:-1])
            if intermediates & seen:
                raise SimulationError(
                    f"path cache for dest {self.dest} lost disjointness: {self.routes}"
                )
            seen |= intermediates


@dataclass(slots=True)
class RreqFlood:
    """What a node remembers of one request flood (origin, rreq_id): the
    fewest hops any copy arrived with and the route records it admitted, one
    per copy in arrival order. A relay forwards each admitted copy; the
    destination collects them until it replies. The record is `closed` once
    it can admit nothing more: when the admitted records reach the cap
    (`mpath_max_copies` at a relay, `mpath_max_paths` at the destination; 0
    never closes) or the destination replies. `paths` never shrinks and the
    cap is fixed, so a closed record rejects every later copy unread."""

    best_hops: int
    paths: dict = field(default_factory=dict)
    closed: bool = False


class MaodvRouter(RouterBase):
    def __init__(self, node, ctx):
        super().__init__(node, ctx)
        self.caches: dict[int, PathCache] = {}
        self.floods: dict[tuple[int, int], RreqFlood] = {}
        self.rrep_seen: set[tuple[int, int]] = set()
        # (source, dest) -> {path through this node: still valid}. Every
        # carried path is maintained with hellos for the flow's lifetime,
        # spares included, so a break anywhere is reported to the source
        # before the route is needed. A path goes quiet only once marked
        # broken here.
        self.carried: dict[tuple[int, int], dict[tuple[int, ...], bool]] = {}

    # -- hello scoping and liveness -------------------------------------------

    def hello_active(self) -> bool:
        # Stay discoverable for as long as any flow ever routed through
        # here: a node that went quiet the moment its own path view broke
        # would trip its predecessors' liveness watches and cascade false
        # break reports through perfectly healthy links.
        return bool(self.carried) or bool(self.caches)

    def _paths_via(self, neighbor: int):
        """Walk, in carried order, the valid paths whose next hop from here
        is `neighbor`; yields (flow, path), path None for a flow sourced here,
        whose valid routes live in its cache."""
        for flow, paths in self.carried.items():
            origin, dest = flow
            if origin == self.node:
                cache = self.caches.get(dest)
                if cache is not None and any(r[1:2] == (neighbor,) for r in cache.routes):
                    yield flow, None
                continue
            for path, ok in paths.items():
                if ok:
                    idx = path.index(self.node)
                    if path[idx + 1 : idx + 2] == (neighbor,):
                        yield flow, path

    def watch_relevant(self, neighbor: int) -> bool:
        return next(self._paths_via(neighbor), None) is not None

    def on_neighbor_lost(self, neighbor: int) -> None:
        self.ctx.metrics.on_event("link_break", self.engine.now, self.node, f"neighbor={neighbor}")
        reported = set()
        for flow, path in list(self._paths_via(neighbor)):
            if path is None:
                self._route_break(flow[1], (self.node, neighbor))
                continue
            self.carried[flow][path] = False
            if flow not in reported:
                reported.add(flow)
                self._send_upstream(Rerr(
                    broken_link=(self.node, neighbor),
                    unreachable_dests=(flow[1],),
                    route_record_to_source=path[: path.index(self.node) + 1],
                ))

    def _send_upstream(self, rerr: Rerr) -> None:
        """Pass a route error one hop back along its record toward the source."""
        prefix = rerr.route_record_to_source
        self.ctx.radio.send(
            self.node, rerr, self.params.control_bytes,
            addressee=prefix[prefix.index(self.node) - 1],
        )

    # -- traffic entry ----------------------------------------------------------

    def send_data(self, pkt: Data) -> None:
        if self._deliver_local(pkt):
            return
        self.sourced.add(pkt.dest)
        cache = self.caches.get(pkt.dest)
        route = cache.primary_route() if cache is not None else None
        if route is None:
            self._buffer_for_discovery(pkt)
            return
        pkt.source_route = route
        self.ctx.radio.send(self.node, pkt, pkt.payload_size, addressee=route[1])
        self.watch(route[1])

    # -- request flood (everyone else) ---------------------------------------------

    def _handle_rreq(self, rreq: Rreq, sender: int) -> None:
        # most copies reach a closed record, so that is checked first
        key = (rreq.origin, rreq.rreq_id)
        flood = self.floods.get(key)
        if flood is not None and flood.closed:
            return
        if rreq.origin == self.node or self.node in rreq.route_record:
            return
        hops = rreq.hop_count + 1
        params = self.params
        at_dest = self.node == rreq.dest
        # one admission rule for relay and destination: best hops so far,
        # slack, one copy per route record, closing at the copy or path cap
        if flood is None:
            flood = self.floods[key] = RreqFlood(hops)
            if at_dest:
                self.engine.schedule(
                    self.engine.now + self.ctx.rrep_wait,
                    EventKind.TIMER,
                    lambda: self._emit_multipath_rrep(key),
                )
        elif hops < flood.best_hops:
            flood.best_hops = hops
        if hops > flood.best_hops + params.mpath_slack:
            return
        record = rreq.route_record + (self.node,)
        if record in flood.paths:
            return
        flood.paths[record] = None
        cap = params.mpath_max_paths if at_dest else params.mpath_max_copies
        if len(flood.paths) == cap:
            flood.closed = True
        if at_dest:
            return
        fwd = Rreq(
            origin=rreq.origin,
            dest=rreq.dest,
            rreq_id=rreq.rreq_id,
            origin_seq=rreq.origin_seq,
            dest_seq_known=rreq.dest_seq_known,
            hop_count=hops,
            route_record=record,
        )
        self.ctx.radio.send(self.node, fwd, params.control_bytes)

    # -- reply flood -----------------------------------------------------------------

    def _emit_multipath_rrep(self, key: tuple[int, int]) -> None:
        if not self.alive:
            return
        # the copy that opened the flood was admitted, so paths is not empty
        flood = self.floods[key]
        flood.closed = True
        origin, rreq_id = key
        self.seq += 1
        rrep = Rrep(
            origin=origin,
            dest=self.node,
            dest_seq=self.seq,
            hop_count=0,
            path_set=tuple(flood.paths),
            lifetime=self.params.route_lifetime,
            rreq_id=rreq_id,
        )
        self.ctx.metrics.on_event(
            "paths_collected", self.engine.now, self.node, f"origin={origin} n={len(flood.paths)}"
        )
        self.rrep_seen.add(key)
        self._install_carried(rrep)
        self.ctx.radio.send(self.node, rrep, self.params.control_bytes)

    def _handle_rrep(self, rrep: Rrep, sender: int) -> None:
        key = (rrep.origin, rrep.rreq_id)
        if key in self.rrep_seen:
            return
        self.rrep_seen.add(key)
        mine = self.node == rrep.origin or any(self.node in p for p in rrep.path_set)
        if not mine:
            return
        self._install_carried(rrep)
        if self.node == rrep.origin:
            self._discovery_complete(rrep)
            return
        self.ctx.radio.send(self.node, rrep, self.params.control_bytes)

    def _install_carried(self, rrep: Rrep) -> None:
        my_paths = [p for p in rrep.path_set if self.node in p]
        if not my_paths:
            return
        carried = self.carried.setdefault((rrep.origin, rrep.dest), {})
        for path in my_paths:
            carried.setdefault(path, True)
        # maintain every carried path from the start: watch each successor
        if self.node != rrep.dest:
            for path in my_paths:
                self.watch(path[path.index(self.node) + 1])

    def _discovery_complete(self, rrep: Rrep) -> None:
        dest = rrep.dest
        discovery = self._end_discovery(dest)
        cache = self.caches.setdefault(dest, PathCache(dest, ()))
        cache.add_routes(select_disjoint(
            rrep.path_set,
            self.params.n0,
            preselected=tuple(cache.routes),
            degree_tiebreak=self.params.degree_tiebreak,
        ))
        routes_text = ";".join("-".join(map(str, r)) for r in cache.routes)
        self.ctx.metrics.on_event(
            "routes_selected", self.engine.now, self.node, f"dest={dest} routes={routes_text}"
        )
        # cleared even when the reply outlived its discovery
        self.discovery_backoff.pop(dest, None)
        for route in cache.routes:
            if len(route) > 1:
                self.watch(route[1])
        if discovery is not None:
            for pkt in discovery.buffered:
                self.send_data(pkt)

    # -- failure handling ----------------------------------------------------------

    def _handle_rerr(self, rerr: Rerr, sender: int) -> None:
        prefix = rerr.route_record_to_source
        if self.node not in prefix:
            return
        if self.node == prefix[0]:
            self._route_break(rerr.unreachable_dests[0], rerr.broken_link)
        else:
            self._send_upstream(rerr)

    def _route_break(self, dest: int, link: tuple[int, int]) -> None:
        cache = self.caches.get(dest)
        if cache is None:
            return
        primary = cache.primary_route()
        if not cache.invalidate_link(link):
            return
        now = self.engine.now
        self.ctx.metrics.on_event("route_invalid", now, self.node, f"dest={dest} link={link}")
        if not cache.routes:
            if dest in self.sourced and self.may_discover(dest):
                self.start_discovery(dest)
            return
        if cache.primary_route() != primary:
            route_text = "-".join(map(str, cache.primary_route()))
            self.ctx.metrics.on_event("failover", now, self.node, f"dest={dest} route={route_text}")
        if len(cache.routes) <= self.params.s0 and self.may_discover(dest):
            # replenish in parallel with data still flowing on the spares
            self.start_discovery(dest, event="replenish_start")

    # -- data plane -------------------------------------------------------------------

    def _handle_data(self, pkt: Data, sender: int) -> None:
        if not self._admit_data(pkt):
            return
        if pkt.dest == self.node:
            self.ctx.metrics.on_delivered(pkt, self.engine.now)
            return
        route = pkt.source_route
        if self.node not in route:
            raise SimulationError(
                f"node {self.node} forwarding packet {pkt.pkt_id} absent from its "
                f"source route {route}"
            )
        idx = route.index(self.node)
        successor = route[idx + 1]
        self.ctx.radio.send(self.node, pkt, pkt.payload_size, addressee=successor)
        self.watch(successor)

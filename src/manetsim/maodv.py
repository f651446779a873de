"""Source-managed multipath routing: exhaustive broadcast discovery, disjoint
route caches with spare-route failover and threshold replenishment, no local
repair."""

import math
from dataclasses import dataclass, field

from .engine import SimulationError
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
    candidates = set(map(tuple, paths)) - set(preselected)
    # the rank ends with the path itself, so it orders the set totally
    rank = route_rank([*preselected, *candidates], degree_tiebreak)

    taken: set[int] = set()
    for path in preselected:
        taken.update(path[1:-1])
    chosen: list[tuple[int, ...]] = []
    for path in sorted(candidates, key=rank):
        if len(chosen) + len(preselected) >= n0:
            break
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
    """What a node remembers of one request flood, as its entry in the copies'
    shared `Rreq.records` table: the fewest hops any copy arrived with and the
    route records it admitted, in arrival order. No record arrives twice: a
    node relays each record it admits once, with itself appended, and a
    broadcast reaches each receiver once. A relay forwards each admitted copy;
    the destination collects them until it replies. Once the node can admit
    nothing more, when the admitted records reach the cap
    (`mpath_max_copies` at a relay, `mpath_max_paths` at the destination; 0
    never fills) or the destination replies, it closes the flood for itself:
    its entry in the copies' `Rreq.flood` table becomes math.inf, so the radio
    turns every later copy away unread."""

    best_hops: int
    paths: list = field(default_factory=list)


class MaodvRouter(RouterBase):
    def __init__(self, node, ctx):
        super().__init__(node, ctx)
        self.caches: dict[int, PathCache] = {}
        # (source, dest) -> {path through this node: still valid}. Every
        # carried path is maintained with hellos for the flow's lifetime,
        # spares included, so a break anywhere is reported to the source
        # before the route is needed. A path goes quiet only once marked
        # broken here. A flow's source and destination store no paths: the
        # source's routes live in its cache.
        self.carried: dict[tuple[int, int], dict[tuple[int, ...], bool]] = {}

    # -- hello scoping and liveness -------------------------------------------

    def hello_active(self) -> bool:
        # Stay discoverable for as long as any flow ever routed through
        # here: a node that went quiet the moment its own path view broke
        # would trip its predecessors' liveness watches and cascade false
        # break reports through perfectly healthy links. A source writes its
        # flow's entry just before its cache, and no entry is ever deleted.
        return bool(self.carried)

    def _paths_via(self, neighbor: int):
        """Walk, in carried order, the valid paths whose next hop from here
        is `neighbor`; yields (flow, path), path None for a flow sourced here,
        whose valid routes live in its cache."""
        for flow, paths in self.carried.items():
            origin, dest = flow
            if origin == self.node:
                if any(r[1:2] == (neighbor,) for r in self.caches[dest].routes):
                    yield flow, None
                continue
            for path, ok in paths.items():
                if ok:
                    idx = path.index(self.node)
                    if path[idx + 1 : idx + 2] == (neighbor,):
                        yield flow, path

    def on_neighbor_lost(self, neighbor: int) -> None:
        hits = list(self._paths_via(neighbor))
        if not hits:
            return
        self._note("link_break", f"neighbor={neighbor}")
        reported = set()
        for flow, path in hits:
            if path is None:
                self._route_break(flow[1], (self.node, neighbor))
                continue
            self.carried[flow][path] = False
            if flow not in reported:
                reported.add(flow)
                prefix = path[: path.index(self.node) + 1]
                self._send_upstream(Rerr((flow[1],), (self.node, neighbor), prefix))

    def _send_upstream(self, rerr: Rerr) -> None:
        """Pass a route error one hop back along its record toward the source."""
        prefix = rerr.route_record_to_source
        self._control(rerr, prefix[prefix.index(self.node) - 1])

    # -- traffic entry ----------------------------------------------------------

    def send_data(self, pkt: Data) -> None:
        self.sourced.add(pkt.dest)
        cache = self.caches.get(pkt.dest)
        route = cache.primary_route() if cache is not None else None
        if route is None:
            self._buffer_for_discovery(pkt)
            return
        pkt.source_route = route
        self._forward_data(pkt, route[1])

    # -- request flood (everyone else) ---------------------------------------------

    def _handle_rreq(self, rreq: Rreq, sender: int) -> None:
        # the radio turns away a copy whose route record holds this node (the
        # origin included) or whose flood this node has closed
        records = rreq.records
        flood = records.get(self.node)
        hops = rreq.hop_count + 1
        params = self.params
        at_dest = self.node == rreq.dest
        # one admission rule for relay and destination: best hops so far and
        # slack, closing at the copy or path cap; each copy's record is new
        if flood is None:
            flood = records[self.node] = RreqFlood(hops)
            if at_dest:
                reply_at = self.engine.now + self.ctx.rrep_wait
                origin, table = rreq.origin, rreq.flood
                self._at(reply_at, lambda: self._emit_multipath_rrep(origin, flood, table))
        elif hops < flood.best_hops:
            flood.best_hops = hops
        if hops > flood.best_hops + params.mpath_slack:
            return
        record = rreq.route_record + (self.node,)
        flood.paths.append(record)
        cap = params.mpath_max_paths if at_dest else params.mpath_max_copies
        if len(flood.paths) == cap:
            rreq.flood[self.node] = math.inf
        if at_dest:
            return
        self._relay_rreq(rreq, hops, record)

    # -- reply flood -----------------------------------------------------------------

    def _emit_multipath_rrep(self, origin: int, flood: RreqFlood, table: dict) -> None:
        """Reply to origin's flood with the route records this node's `flood`
        collected, and close the flood here through the copies' `table`; the
        one reply every node rebroadcasts carries who handled it, here first."""
        if not self.alive:
            return
        # the copy that opened the flood was admitted, so paths is not empty
        table[self.node] = math.inf
        rrep = Rrep(origin, self.node, path_set=tuple(flood.paths), handled={self.node})
        self._note("paths_collected", f"origin={origin} n={len(flood.paths)}")
        # an endpoint keeps the flow, not its paths, and so sends hellos
        self.carried[origin, self.node] = {}
        self._control(rrep)

    def _handle_rrep(self, rrep: Rrep, sender: int) -> None:
        handled = rrep.handled
        if self.node in handled:
            return
        handled.add(self.node)
        flow = rrep.origin, rrep.dest
        # maintain every path from the start: watch each successor here
        if self.node == rrep.origin:
            self.carried[flow] = {}
            for path in rrep.path_set:
                self.watch(path[1])
            self._discovery_complete(rrep)
            return
        my_paths = [p for p in rrep.path_set if self.node in p]
        if not my_paths:
            return
        carried = self.carried.setdefault(flow, {})
        for path in my_paths:
            carried.setdefault(path, True)
            self.watch(path[path.index(self.node) + 1])
        self._control(rrep)

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
        self._note("routes_selected", f"dest={dest} routes={routes_text}")
        # cleared even when the reply outlived its discovery
        self.discovery_backoff.pop(dest, None)
        if discovery is not None:
            for pkt in discovery.buffered:
                self.send_data(pkt)

    # -- failure handling ----------------------------------------------------------

    def _handle_rerr(self, rerr: Rerr, sender: int) -> None:
        # a route error is unicast to a member of its prefix
        prefix = rerr.route_record_to_source
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
        self._note("route_invalid", f"dest={dest} link={link}")
        if not cache.routes:
            self.rediscover(dest)
            return
        if cache.primary_route() != primary:
            route_text = "-".join(map(str, cache.primary_route()))
            self._note("failover", f"dest={dest} route={route_text}")
        if len(cache.routes) <= self.params.s0 and self.may_discover(dest):
            # replenish in parallel with data still flowing on the spares
            self.start_discovery(dest, event="replenish_start")

    # -- data plane -------------------------------------------------------------------

    def _handle_data(self, pkt: Data, sender: int) -> None:
        if not self._admit_data(pkt):
            return
        if pkt.dest == self.node:
            self._deliver(pkt)
            return
        route = pkt.source_route
        try:
            here = route.index(self.node)
        except ValueError:
            raise SimulationError(
                f"node {self.node} forwarding packet {pkt.pkt_id} absent from its "
                f"source route {route}"
            ) from None
        self._forward_data(pkt, route[here + 1])

"""Source-managed multipath routing: exhaustive broadcast discovery, disjoint
route caches with spare-route failover and threshold replenishment, no local
repair."""

from dataclasses import dataclass, field

from .engine import EventKind, SimulationError
from .proto_common import (
    Data,
    Rerr,
    Rrep,
    Rreq,
    RouterBase,
    RoutingTableEntry,
)


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


@dataclass(slots=True)
class CachedRoute:
    nodes: tuple[int, ...]
    valid: bool = True


class PathCache:
    """Source-held ordered set of node-disjoint routes with validity flags."""

    def __init__(self, dest: int, routes, s0: int):
        self.dest = dest
        self.routes = [CachedRoute(tuple(r)) for r in routes]
        self.primary_index = 0
        self.s0 = s0
        self.check_disjoint()

    def valid_routes(self) -> list[CachedRoute]:
        return [r for r in self.routes if r.valid]

    def valid_count(self) -> int:
        return sum(1 for r in self.routes if r.valid)

    def primary_route(self) -> tuple[int, ...] | None:
        if 0 <= self.primary_index < len(self.routes):
            r = self.routes[self.primary_index]
            if r.valid:
                return r.nodes
        return None

    def promote(self) -> tuple[int, ...] | None:
        """Point primary at the first valid route, in selection order."""
        for i, r in enumerate(self.routes):
            if r.valid:
                self.primary_index = i
                return r.nodes
        return None

    def invalidate_link(self, link: tuple[int, int]) -> bool:
        a, b = link
        changed = False
        for r in self.routes:
            if not r.valid:
                continue
            for u, v in zip(r.nodes, r.nodes[1:]):
                if u == a and v == b:
                    r.valid = False
                    changed = True
                    break
        return changed

    def add_routes(self, new_routes) -> None:
        """Merge replenished routes behind the surviving ones: the route in
        use keeps its place and carries the flow until it breaks."""
        for nodes in new_routes:
            self.routes.append(CachedRoute(tuple(nodes)))
        self.check_disjoint()
        self.promote()

    def check_disjoint(self) -> None:
        seen: set[int] = set()
        for r in self.routes:
            if not r.valid:
                continue
            intermediates = set(r.nodes[1:-1])
            if intermediates & seen:
                raise SimulationError(
                    f"path cache for dest {self.dest} lost disjointness: {self.routes}"
                )
            seen |= intermediates


@dataclass(slots=True)
class RreqFlood:
    """What a forwarding node remembers of one request flood (origin,
    rreq_id): the fewest hops any copy arrived with, and the route records
    it has forwarded, one per copy."""

    best_hops: int
    forwarded: set = field(default_factory=set)


@dataclass(slots=True)
class CollectSession:
    origin: int
    rreq_id: int
    best_hops: int
    paths: list = field(default_factory=list)
    seen: set = field(default_factory=set)
    emitted: bool = False


@dataclass(slots=True)
class CarriedFlow:
    """Paths through this node for one (source, dest) flow.

    Every carried path is maintained with hellos for the flow's lifetime,
    spares included, so a break anywhere is reported to the source before
    the route is needed. A path goes quiet only once marked broken here.
    """

    paths: list
    valid: list
    last_used: float


class MaodvRouter(RouterBase):
    def __init__(self, node, ctx):
        super().__init__(node, ctx)
        self.caches: dict[int, PathCache] = {}
        self.collect: dict[tuple[int, int], CollectSession] = {}
        self.floods: dict[tuple[int, int], RreqFlood] = {}
        self.rrep_seen: set[tuple[int, int]] = set()
        self.carried: dict[tuple[int, int], CarriedFlow] = {}

    # -- hello scoping and liveness -------------------------------------------

    def hello_active(self) -> bool:
        # Stay discoverable for as long as any flow ever routed through
        # here: a node that went quiet the moment its own path view broke
        # would trip its predecessors' liveness watches and cascade false
        # break reports through perfectly healthy links.
        return bool(self.carried) or bool(self.caches)

    def watch_relevant(self, neighbor: int) -> bool:
        for (origin, dest), car in self.carried.items():
            if origin == self.node:
                cache = self.caches.get(dest)
                if cache is None:
                    continue
                for route in cache.valid_routes():
                    if len(route.nodes) > 1 and route.nodes[1] == neighbor:
                        return True
                continue
            for path, ok in zip(car.paths, car.valid):
                if not ok:
                    continue
                idx = path.index(self.node)
                if idx + 1 < len(path) and path[idx + 1] == neighbor:
                    return True
        return False

    def on_neighbor_lost(self, neighbor: int) -> None:
        self.ctx.metrics.on_event("link_break", self.now, self.node, f"neighbor={neighbor}")
        for (origin, dest), car in list(self.carried.items()):
            if origin == self.node:
                cache = self.caches.get(dest)
                if cache is None:
                    continue
                hit = any(
                    len(r.nodes) > 1 and r.nodes[1] == neighbor
                    for r in cache.valid_routes()
                )
                if hit:
                    self._route_break(dest, (self.node, neighbor))
                continue
            reported = False
            for i, (path, ok) in enumerate(zip(car.paths, car.valid)):
                if not ok:
                    continue
                idx = path.index(self.node)
                if idx + 1 < len(path) and path[idx + 1] == neighbor:
                    car.valid[i] = False
                    if not reported:
                        self._report_break(origin, dest, path[: idx + 1], neighbor)
                        reported = True

    def _report_break(
        self, origin: int, dest: int, prefix: tuple[int, ...], lost: int
    ) -> None:
        rerr = Rerr(
            broken_link=(self.node, lost),
            unreachable_dests=(dest,),
            route_record_to_source=prefix,
        )
        if self.node == origin:
            self._route_break(dest, rerr.broken_link)
            return
        idx = prefix.index(self.node)
        self.ctx.radio.send(
            self.node, rerr, self.params.control_bytes, addressee=prefix[idx - 1]
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
        car = self.carried.get((self.node, pkt.dest))
        if car is not None:
            car.last_used = self.now
        self.ctx.radio.send(self.node, pkt, pkt.payload_size, addressee=route[1])
        self.watch(route[1])

    # -- request flood (everyone else) ---------------------------------------------

    def _handle_rreq(self, rreq: Rreq, sender: int) -> None:
        if rreq.origin == self.node or self.node in rreq.route_record:
            return
        key = (rreq.origin, rreq.rreq_id)
        record = rreq.route_record + (self.node,)
        hops = rreq.hop_count + 1
        params = self.params
        if self.node == rreq.dest:
            sess = self.collect.get(key)
            if sess is None:
                sess = CollectSession(rreq.origin, rreq.rreq_id, best_hops=hops)
                self.collect[key] = sess
                self.ctx.engine.schedule(
                    self.now + self.ctx.rrep_wait,
                    EventKind.TIMER,
                    lambda k=key: self._emit_multipath_rrep(k),
                )
            if sess.emitted:
                return
            if hops < sess.best_hops:
                sess.best_hops = hops
            if hops > sess.best_hops + params.mpath_slack:
                return
            if record in sess.seen:
                return
            if params.mpath_max_paths and len(sess.paths) >= params.mpath_max_paths:
                return
            sess.seen.add(record)
            sess.paths.append(record)
            return
        flood = self.floods.get(key)
        if flood is None:
            flood = self.floods[key] = RreqFlood(hops)
        elif hops > flood.best_hops + params.mpath_slack:
            return
        elif hops < flood.best_hops:
            flood.best_hops = hops
        if record in flood.forwarded:
            return
        if params.mpath_max_copies and len(flood.forwarded) >= params.mpath_max_copies:
            return
        flood.forwarded.add(record)
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
        sess = self.collect.get(key)
        if sess is None or sess.emitted:
            return
        sess.emitted = True
        if not sess.paths:
            return
        self.seq += 1
        rrep = Rrep(
            origin=sess.origin,
            dest=self.node,
            dest_seq=self.seq,
            hop_count=0,
            path_set=tuple(sess.paths),
            lifetime=self.params.route_lifetime,
            rreq_id=sess.rreq_id,
        )
        self.ctx.metrics.on_event(
            "paths_collected", self.now, self.node, f"origin={sess.origin} n={len(sess.paths)}"
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
        flow = (rrep.origin, rrep.dest)
        car = self.carried.get(flow)
        if car is None:
            car = CarriedFlow(list(my_paths), [True] * len(my_paths), self.now)
            self.carried[flow] = car
        else:
            known = set(car.paths)
            for p in my_paths:
                if p not in known:
                    car.paths.append(p)
                    car.valid.append(True)
            car.last_used = self.now
        # maintain every carried path from the start: watch each successor
        if self.node != rrep.dest:
            for path in my_paths:
                idx = path.index(self.node)
                if idx + 1 < len(path):
                    self.watch(path[idx + 1])
        # Routing-table entries mirror the carried paths; data itself is
        # source-routed, these only scope hellos and keep table semantics.
        path = my_paths[0]
        idx = path.index(self.node)
        if idx + 1 < len(path):
            self._set_entry(rrep.dest, path[idx + 1], len(path) - 1 - idx, rrep.dest_seq)
        if idx > 0:
            self._set_entry(rrep.origin, path[idx - 1], idx, 0)

    def _set_entry(self, dest: int, next_hop: int, hops: int, seq: int) -> None:
        e = self.table.get(dest)
        if e is None:
            e = RoutingTableEntry(dest, next_hop, hops, seq, 0.0)
            self.table[dest] = e
        e.next_hop = next_hop
        e.hop_count = hops
        e.dest_seq = seq
        e.expires_at = self.now + self.params.route_lifetime
        e.last_used = self.now

    def _discovery_complete(self, rrep: Rrep) -> None:
        dest = rrep.dest
        discovery = self._end_discovery(dest)
        paths = [tuple(p) for p in rrep.path_set]
        cache = self.caches.get(dest)
        if cache is None or cache.valid_count() == 0:
            routes = select_disjoint(
                paths, self.params.n0, degree_tiebreak=self.params.degree_tiebreak
            )
            cache = PathCache(dest, routes, self.params.s0)
            self.caches[dest] = cache
        else:
            existing = tuple(r.nodes for r in cache.valid_routes())
            new_routes = select_disjoint(
                paths,
                self.params.n0,
                preselected=existing,
                degree_tiebreak=self.params.degree_tiebreak,
            )
            # replenished routes join behind the surviving ones: the route
            # in use keeps carrying the flow until it actually breaks
            cache.add_routes(new_routes)
        routes_text = ";".join("-".join(str(n) for n in r.nodes) for r in cache.valid_routes())
        self.ctx.metrics.on_event(
            "routes_selected", self.now, self.node, f"dest={dest} routes={routes_text}"
        )
        # cleared even when the reply outlived its discovery
        self.discovery_backoff.pop(dest, None)
        for route in cache.valid_routes():
            if len(route.nodes) > 1:
                self.watch(route.nodes[1])
        if discovery is not None:
            for pkt in discovery.buffered:
                self.send_data(pkt)

    # -- failure handling ----------------------------------------------------------

    def _handle_rerr(self, rerr: Rerr, sender: int) -> None:
        prefix = rerr.route_record_to_source
        if not prefix or self.node not in prefix:
            return
        if self.node == prefix[0]:
            self._route_break(rerr.unreachable_dests[0], rerr.broken_link)
            return
        idx = prefix.index(self.node)
        if idx == 0:
            return
        self.ctx.radio.send(
            self.node, rerr, self.params.control_bytes, addressee=prefix[idx - 1]
        )

    def _route_break(self, dest: int, link: tuple[int, int]) -> None:
        cache = self.caches.get(dest)
        if cache is None:
            return
        if not cache.invalidate_link(link):
            return
        now = self.now
        self.ctx.trace.emit(now, self.node, "route_invalid", "-", f"dest={dest} link={link}")
        if cache.valid_count() == 0:
            if dest in self.sourced and self.may_discover(dest):
                self.start_discovery(dest)
            return
        if cache.primary_route() is None:
            route_text = "-".join(str(n) for n in cache.promote())
            self.ctx.metrics.on_event("failover", now, self.node, f"dest={dest} route={route_text}")
        if cache.valid_count() <= cache.s0 and self.may_discover(dest):
            # replenish in parallel with data still flowing on the spares
            self.start_discovery(dest, event="replenish_start")

    # -- data plane -------------------------------------------------------------------

    def _handle_data(self, pkt: Data, sender: int) -> None:
        if not self._admit_data(pkt):
            return
        car = self.carried.get((pkt.origin, pkt.dest))
        if car is not None:
            car.last_used = self.now
        if pkt.dest == self.node:
            self.ctx.metrics.on_delivered(pkt, self.now)
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

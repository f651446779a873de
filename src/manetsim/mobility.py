"""Random-waypoint mobility with exact analytic position queries."""

import math
from bisect import bisect_right
from dataclasses import dataclass

from .engine import RngStream


@dataclass(slots=True)
class MobilityParams:
    area: tuple[float, float] = (800.0, 600.0)
    v_max: float = 5.0
    v_min: float = 0.5
    pause_time: float = 0.0


@dataclass(slots=True)
class WaypointLeg:
    """One move-then-pause segment: travel start->end, then dwell."""

    start_pos: tuple[float, float]
    end_pos: tuple[float, float]
    depart_time: float
    speed: float
    pause_after: float

    @property
    def travel_time(self) -> float:
        if self.speed <= 0.0:
            return 0.0
        return math.dist(self.start_pos, self.end_pos) / self.speed

    @property
    def arrival_time(self) -> float:
        return self.depart_time + self.travel_time


def generate_schedule(
    params: MobilityParams, horizon: float, rng: RngStream
) -> list[WaypointLeg]:
    """Waypoint legs covering [0, horizon].

    The node pauses at its initial placement for pause_time before the
    first move, so pause_time >= horizon degenerates to a static node.
    """
    w, h = params.area
    pos = (rng.uniform(0.0, w), rng.uniform(0.0, h))
    legs = [WaypointLeg(pos, pos, 0.0, 0.0, params.pause_time)]
    t = params.pause_time
    while t < horizon:
        target = (rng.uniform(0.0, w), rng.uniform(0.0, h))
        speed = rng.uniform(params.v_min, params.v_max)
        leg = WaypointLeg(pos, target, t, speed, params.pause_time)
        legs.append(leg)
        t = leg.arrival_time + params.pause_time
        pos = target
    return legs


class MobilityModel:
    """Per-node waypoint schedules generated once, queried analytically."""

    def __init__(self, schedules: list[list[WaypointLeg]]):
        self.schedules = schedules
        self._departs = [[leg.depart_time for leg in legs] for legs in schedules]
        # per leg: (depart, travel, x0, y0, x1 - x0, y1 - y0, end_pos)
        self._legs = []
        # Largest leg speed, so no node covers more than speed_bound * |dt|
        # metres in dt and no two nodes' distance changes by more than twice
        # that. A schedule that jumps makes it math.inf: a leg with distinct
        # endpoints but no travel time, a leg that starts away from where the
        # previous one ended, or one that departs before the previous arrives.
        self.speed_bound = 0.0
        for legs in schedules:
            rows = []
            end, arrival = legs[0].start_pos, -math.inf
            for leg in legs:
                travel = leg.travel_time
                if leg.start_pos != end or leg.depart_time < arrival:
                    self.speed_bound = math.inf
                elif leg.start_pos != leg.end_pos:
                    self.speed_bound = max(
                        self.speed_bound, leg.speed if travel > 0.0 else math.inf
                    )
                end, arrival = leg.end_pos, leg.depart_time + travel
                x0, y0 = leg.start_pos
                rows.append((
                    leg.depart_time, travel, x0, y0, end[0] - x0, end[1] - y0, end
                ))
            self._legs.append(rows)

    @classmethod
    def generate(
        cls,
        node_count: int,
        params: MobilityParams,
        horizon: float,
        stream_for: "callable",
    ) -> "MobilityModel":
        schedules = [
            generate_schedule(params, horizon, stream_for(f"mobility/{node}"))
            for node in range(node_count)
        ]
        return cls(schedules)

    @property
    def node_count(self) -> int:
        return len(self.schedules)

    def position(self, node: int, t: float) -> tuple[float, float]:
        """Exact position at time t: linear along the current leg, fixed in pauses."""
        i = bisect_right(self._departs[node], t) - 1
        depart, travel, x0, y0, dx, dy, end_pos = self._legs[node][i if i > 0 else 0]
        dt = t - depart
        if dt >= travel:
            return end_pos
        if dt < 0:
            # before the first leg departs the node waits at its start
            return (x0, y0)
        frac = dt / travel
        return (x0 + dx * frac, y0 + dy * frac)


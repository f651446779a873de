import math
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from manetsim.engine import RngStream
from manetsim.mobility import (
    MobilityModel,
    MobilityParams,
    WaypointLeg,
    generate_schedule,
)


def bisect_position(legs, t):
    """Reference query: bisect for the leg, then interpolate along it."""
    idx = max(bisect_right([leg.depart_time for leg in legs], t) - 1, 0)
    leg = legs[idx]
    dt = t - leg.depart_time
    travel = leg.travel_time
    if dt >= travel:
        return leg.end_pos
    frac = dt / travel
    x0, y0 = leg.start_pos
    x1, y1 = leg.end_pos
    return (x0 + (x1 - x0) * frac, y0 + (y1 - y0) * frac)


def velocity_at(legs, t):
    for leg in legs:
        if leg.depart_time <= t < leg.arrival_time:
            dx = leg.end_pos[0] - leg.start_pos[0]
            dy = leg.end_pos[1] - leg.start_pos[1]
            dist = math.hypot(dx, dy)
            if dist == 0:
                return (0.0, 0.0)
            return (leg.speed * dx / dist, leg.speed * dy / dist)
    return (0.0, 0.0)


def integrate_position(legs, t_query, dt=1e-3):
    """Step-wise numeric integration of the leg velocity profile."""
    boundaries = sorted({b for leg in legs for b in (leg.depart_time, leg.arrival_time)})
    x, y = legs[0].start_pos
    t = 0.0
    while t < t_query - 1e-12:
        step_end = min(t + dt, t_query)
        for b in boundaries:
            if t < b < step_end:
                step_end = b
                break
        vx, vy = velocity_at(legs, t)
        x += vx * (step_end - t)
        y += vy * (step_end - t)
        t = step_end
    return (x, y)


def test_position_at_zero_is_initial_placement():
    rng = RngStream(1, "mobility/0")
    legs = generate_schedule(MobilityParams(), horizon=100.0, rng=rng)
    assert MobilityModel([legs]).position(0, 0.0) == legs[0].start_pos


def test_before_first_departure_is_start_position():
    # a pause leg has zero travel time: no division by it
    pause = MobilityModel([[WaypointLeg((1.0, 2.0), (1.0, 2.0), 0.0, 0.0, 5.0)]])
    assert pause.position(0, -0.5) == (1.0, 2.0)
    # a move not yet begun must not extrapolate backward out of the area
    late = MobilityModel([[WaypointLeg((0.0, 0.0), (10.0, 0.0), 5.0, 1.0, 0.0)]])
    assert late.position(0, 2.0) == (0.0, 0.0)
    assert late.position(0, 5.0) == (0.0, 0.0)
    assert late.position(0, 10.0) == (5.0, 0.0)


def test_straight_line_kinematics():
    leg = WaypointLeg((0.0, 0.0), (100.0, 0.0), 0.0, 5.0, 0.0)
    tail = WaypointLeg((100.0, 0.0), (100.0, 0.0), 20.0, 0.0, 1e9)
    model = MobilityModel([[leg, tail]])
    assert model.position(0, 10.0) == (50.0, 0.0)
    assert model.position(0, 20.0) == (100.0, 0.0)
    assert model.position(0, 25.0) == (100.0, 0.0)


def test_matches_numeric_integration_oracle():
    rng = RngStream(9, "mobility/2")
    params = MobilityParams(pause_time=3.0)
    legs = generate_schedule(params, horizon=900.0, rng=rng)
    assert len(legs) >= 3
    model = MobilityModel([legs])
    for t in (0.0, 1.7, 12.34, 55.5, 120.0, 433.0, 890.0):
        expected = integrate_position(legs, t)
        actual = model.position(0, t)
        assert math.dist(expected, actual) <= 1e-6


def test_waypoints_stay_in_area():
    params = MobilityParams(area=(800.0, 600.0))
    rng = RngStream(3, "mobility/bounds")
    count = 0
    node = 0
    while count < 10_000:
        legs = generate_schedule(params, horizon=10_000.0, rng=rng)
        for leg in legs:
            for x, y in (leg.start_pos, leg.end_pos):
                assert 0.0 <= x <= 800.0
                assert 0.0 <= y <= 600.0
            count += 1
        node += 1


def test_degenerate_speed_interval():
    params = MobilityParams(v_min=5.0, v_max=5.0)
    legs = generate_schedule(params, horizon=500.0, rng=RngStream(5, "m"))
    moving = [leg for leg in legs if leg.start_pos != leg.end_pos]
    assert moving
    assert all(leg.speed == 5.0 for leg in moving)


def test_pause_beyond_horizon_means_static():
    params = MobilityParams(pause_time=200.0)
    legs = generate_schedule(params, horizon=120.0, rng=RngStream(8, "m"))
    assert len(legs) == 1
    start = legs[0].start_pos
    model = MobilityModel([legs])
    for t in (0.0, 50.0, 119.9):
        assert model.position(0, t) == start


def test_pause_zero_gives_perpetual_motion():
    params = MobilityParams(pause_time=0.0)
    legs = generate_schedule(params, horizon=1000.0, rng=RngStream(11, "m"))
    # every leg is a real move and coverage is continuous
    assert all(leg.start_pos != leg.end_pos for leg in legs[1:])
    assert legs[-1].arrival_time + legs[-1].pause_after >= 1000.0


@settings(max_examples=60)
@given(
    t=st.floats(min_value=0.0, max_value=199.0, allow_nan=False),
    eps=st.floats(min_value=1e-6, max_value=0.5),
)
def test_position_is_continuous(t, eps):
    params = MobilityParams(pause_time=1.0)
    legs = generate_schedule(params, horizon=200.0, rng=RngStream(21, "m"))
    model = MobilityModel([legs])
    a = model.position(0, t)
    b = model.position(0, t + eps)
    assert math.dist(a, b) <= params.v_max * eps + 1e-9


# (dx, dy, speed, pause) per move; zero moves with zero pause give legs
# that share a depart time
_moves = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 3.5, -120.25, 400.0]),
        st.sampled_from([0.0, 7.75, -60.0]),
        st.floats(min_value=0.5, max_value=5.0),
        st.sampled_from([0.0, 0.0, 2.5]),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150)
@given(moves=_moves, queries=st.lists(st.floats(min_value=0.0, max_value=600.0), max_size=30))
def test_any_query_order_gives_the_bisected_position(moves, queries):
    pos, t = (100.0, 200.0), 1.0
    legs = [WaypointLeg(pos, pos, 0.0, 0.0, t)]
    for dx, dy, speed, pause in moves:
        target = (pos[0] + dx, pos[1] + dy)
        leg = WaypointLeg(pos, target, t, speed, pause)
        legs.append(leg)
        t = leg.arrival_time + pause
        pos = target
    model = MobilityModel([legs])
    # the query times as given (any order, repeats included), the leg
    # boundaries backwards, then everything rising
    times = queries + [leg.depart_time for leg in reversed(legs)]
    for t in times + sorted(times):
        assert model.position(0, t) == bisect_position(legs, t)


def test_position_query_is_pure():
    model = MobilityModel.generate(
        4, MobilityParams(), 100.0, lambda label: RngStream(2, label)
    )
    for node in range(4):
        assert model.position(node, 33.3) == model.position(node, 33.3)



def test_speed_bound_is_the_fastest_leg_of_a_continuous_schedule():
    model = MobilityModel.generate(
        6, MobilityParams(v_max=7.0, pause_time=3.0), 300.0, lambda label: RngStream(4, label)
    )
    moving = [leg.speed for legs in model.schedules for leg in legs if leg.travel_time > 0]
    assert len(moving) > 6
    assert model.speed_bound == max(moving)
    # a network that never moves has nothing to bound
    still = [[WaypointLeg((1.0, 2.0), (1.0, 2.0), 0.0, 0.0, 1e9)]]
    assert MobilityModel(still).speed_bound == 0.0


JUMPS = {
    # a leg with distinct endpoints but speed 0 has no travel time: the node
    # jumps to its end at departure
    "zero_speed": [
        WaypointLeg((50.0, 0.0), (60.0, 0.0), 2.0, 1.0, 8.0),
        WaypointLeg((60.0, 0.0), (70.0, 0.0), 20.0, 0.0, 1e9),
    ],
    # the next leg starts 5 m away from where the previous one ended
    "starts_away": [
        WaypointLeg((0.0, 0.0), (10.0, 0.0), 0.0, 1.0, 0.0),
        WaypointLeg((15.0, 0.0), (20.0, 0.0), 10.0, 1.0, 1e9),
    ],
    # the next leg departs at 9 s while the previous one arrives at 10 s,
    # so the node leaps from (9, 0) back to (10, 0)
    "departs_early": [
        WaypointLeg((0.0, 0.0), (10.0, 0.0), 0.0, 1.0, 0.0),
        WaypointLeg((10.0, 0.0), (20.0, 0.0), 9.0, 1.0, 1e9),
    ],
}


@pytest.mark.parametrize("case", sorted(JUMPS))
def test_a_schedule_that_jumps_has_no_speed_bound(case):
    slow = [
        WaypointLeg((0.0, 0.0), (0.0, 0.0), 0.0, 0.0, 1.0),
        WaypointLeg((0.0, 0.0), (3.0, 4.0), 1.0, 0.5, 1e9),
    ]
    assert MobilityModel([slow]).speed_bound == 0.5
    assert MobilityModel([slow, JUMPS[case]]).speed_bound == math.inf
    # the same legs made continuous are bounded by their fastest speed
    legs = JUMPS[case]
    first = legs[0]
    fixed = WaypointLeg(first.end_pos, legs[1].end_pos, first.arrival_time, 2.0, 1e9)
    assert MobilityModel([slow, [first, fixed]]).speed_bound == 2.0

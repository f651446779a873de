import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manetsim import Scenario, parse_scenario, run_scenario, scenario_text
from manetsim.radio import RadioParams
from manetsim.scenario import FIELD_BY_KEY, ScenarioError
from manetsim.traffic import FlowSpec

from conftest import small_scenarios, static_model


def test_parse_round_trip():
    sc = Scenario(node_count=12, master_seed=9)
    sc.mobility.pause_time = 40.0
    sc.proto.n0 = 4
    sc.proto.s0 = 2
    text = scenario_text(sc)
    back = parse_scenario(text)
    assert back.node_count == 12
    assert back.master_seed == 9
    assert back.mobility.pause_time == 40.0
    assert back.proto.n0 == 4
    assert scenario_text(back) == text


def test_parse_flow_lines():
    text = "node_count = 4\nflow = 0 3 512 0.25 1 60\nflow = 1 2 256 0.5 2 50\n"
    sc = parse_scenario(text)
    assert sc.flows == [
        FlowSpec(0, 3, 512, 0.25, 1.0, 60.0, flow_id=0),
        FlowSpec(1, 2, 256, 0.5, 2.0, 50.0, flow_id=1),
    ]


def test_parse_errors_name_the_field():
    with pytest.raises(ScenarioError, match="unknown scenario field: bogus"):
        parse_scenario("bogus = 3\n")
    with pytest.raises(ScenarioError, match="protocol"):
        parse_scenario("protocol = ospf\n")
    with pytest.raises(ScenarioError, match="node_count"):
        parse_scenario("node_count = twenty\n")
    with pytest.raises(ScenarioError, match="area"):
        parse_scenario("area = 800\n")
    with pytest.raises(ScenarioError, match="flow"):
        parse_scenario("flow = 1 2 512\n")


# every float-valued scenario key -> (part of Scenario, attribute) holding it
FLOAT_FIELDS = {
    "range": ("radio", "range"),
    "bandwidth": ("radio", "bandwidth"),
    "propagation_delay": ("radio", "propagation_delay"),
    "loss_prob": ("radio", "per_frame_loss_prob"),
    "v_max": ("mobility", "v_max"),
    "v_min": ("mobility", "v_min"),
    "pause_time": ("mobility", "pause_time"),
    "p_tx": ("energy", "p_tx"),
    "p_rx": ("energy", "p_rx"),
    "initial_energy": ("energy", "initial"),
    "hello_interval": ("proto", "hello_interval"),
    "route_lifetime": ("proto", "route_lifetime"),
    "rreq_id_cache_ttl": ("proto", "rreq_id_cache_ttl"),
    "discovery_timeout": ("proto", "discovery_timeout"),
    "rrep_wait": ("proto", "rrep_wait"),
    "interval": ("", "interval"),
    "traffic_start": ("", "traffic_start"),
    "duration": ("", "duration"),
}
INT_KEYS = (
    "node_count", "master_seed", "rreq_retries", "allowed_hello_loss", "queue_capacity",
    "control_bytes", "n0", "s0", "mpath_slack", "mpath_max_copies", "mpath_max_paths",
    "flow_count", "payload",
)
# protocol knobs where 0 means "unbounded" or "derived from the network"
ZERO_MEANS_DERIVED = ("mpath_max_copies", "mpath_max_paths", "rrep_wait", "discovery_timeout")


@pytest.mark.parametrize("bad", [math.nan, math.inf, 10**400], ids=["nan", "inf", "huge_int"])
@pytest.mark.parametrize("key", sorted(FLOAT_FIELDS))
def test_non_finite_numbers_rejected_naming_the_field(key, bad):
    with pytest.raises(ScenarioError, match=rf"\b{key}\b"):
        parse_scenario(f"{key} = {bad}\n")
    sc = Scenario()
    part, attr = FLOAT_FIELDS[key]
    setattr(getattr(sc, part) if part else sc, attr, bad)
    with pytest.raises(ScenarioError, match=rf"\b{key}\b"):
        sc.validate()


# out-of-range values for every float key and the area; each has a range rule
OUT_OF_RANGE = {
    "area": ((0.0, 600.0), (800.0, -1.0)),
    "range": (0.0,),
    "bandwidth": (-1.0, 0.0),
    "propagation_delay": (-1e-9,),
    "loss_prob": (1.5,),
    "v_max": (0.1,),  # below the default v_min
    "v_min": (0.0, 6.0),  # 6 is above the default v_max
    "pause_time": (-1.0,),
    "p_tx": (0.1,),  # below the default p_rx
    "p_rx": (0.0,),
    "initial_energy": (0.0, 1e-13, 0.4e-12, 0.5e-12),  # each rounds to 0 pJ
    "hello_interval": (0.0,),
    "route_lifetime": (-1.0,),
    "rreq_id_cache_ttl": (0.0,),
    "discovery_timeout": (-1.0,),
    "rrep_wait": (-1.0,),
    "interval": (0.0,),
    "traffic_start": (120.0,),  # not before the default duration
    "duration": (0.0,),
}
# out-of-range values for the integer keys that have a range rule
INT_OUT_OF_RANGE = {
    "node_count": (1,),
    "rreq_retries": (0,),
    "allowed_hello_loss": (0,),
    "queue_capacity": (0,),
    "control_bytes": (0,),
    "n0": (0, 1),  # 1 is not above the default s0
    "s0": (0, 3),  # 3 is not below the default n0
    "mpath_slack": (-1,),
    "flow_count": (0,),
    "payload": (0,),
}


@pytest.mark.parametrize("key", sorted(OUT_OF_RANGE | INT_OUT_OF_RANGE))
def test_out_of_range_numbers_rejected_naming_the_field(key):
    f = FIELD_BY_KEY[key]
    for value in (OUT_OF_RANGE | INT_OUT_OF_RANGE)[key]:
        text = " ".join(map(repr, value)) if key == "area" else repr(value)
        with pytest.raises(ScenarioError, match=rf"\b{key}\b"):
            parse_scenario(f"{key} = {text}\n").validate()
        sc = Scenario()
        setattr(getattr(sc, f.part) if f.part else sc, f.attr, value)
        with pytest.raises(ScenarioError, match=rf"\b{key}\b"):
            sc.validate()


@pytest.mark.parametrize("key", ZERO_MEANS_DERIVED)
def test_negative_derived_knobs_rejected_naming_the_field(key):
    with pytest.raises(ScenarioError, match=rf"\b{key}\b"):
        parse_scenario(f"{key} = -1\n")
    sc = Scenario()
    setattr(sc.proto, key, -1)
    with pytest.raises(ScenarioError, match=rf"\b{key}\b"):
        sc.validate()
    parse_scenario(f"{key} = 0\n").validate()


@pytest.mark.parametrize("key", INT_KEYS)
def test_int_fields_take_whole_numbers_only(key):
    value = FIELD_BY_KEY[key].get(Scenario().variant(**{key: 3.0}))
    assert value == 3 and type(value) is int
    with pytest.raises(ScenarioError, match=rf"\b{key}\b"):
        Scenario().variant(**{key: 2.5})


@pytest.mark.parametrize("key", INT_KEYS)
def test_int_fields_take_only_what_a_float_holds(key):
    with pytest.raises(ScenarioError, match=rf"\b{key}\b"):
        parse_scenario(f"{key} = {10**400}\n")
    sc = Scenario()
    f = FIELD_BY_KEY[key]
    setattr(getattr(sc, f.part) if f.part else sc, f.attr, 10**400)
    with pytest.raises(ScenarioError, match=rf"\b{key}\b"):
        sc.validate()


@pytest.mark.parametrize("key", ["hello_interval", "discovery_timeout", "rrep_wait", "interval"])
def test_periods_must_advance_the_clock_at_duration(key):
    with pytest.raises(ScenarioError, match=rf"\b{key}\b"):
        Scenario().variant(**{key: 1e-300}).validate()
    # the smallest step that still moves a clock at the default 120 s passes
    # the clock check; as a hello or CBR period it then costs ~1e16 ticks or
    # sends, over the work budget
    short = Scenario().variant(**{key: math.ulp(120.0)})
    if key in ("hello_interval", "interval"):
        with pytest.raises(ScenarioError, match=rf"^{key} gives about .* at most 1e\+08"):
            short.validate()
    else:
        short.validate()


def test_flow_interval_must_advance_the_clock_at_duration():
    flow = FlowSpec(0, 1, 512, 1e-300, 1.0, 2.0)
    with pytest.raises(ScenarioError, match=r"\bflow\b"):
        Scenario(node_count=4, flows=[flow]).validate()


def test_waypoint_legs_over_the_work_budget_are_refused():
    # ~1e-9 s legs: billions per node, which would take the schedule
    # generator hours, so only validate() is called here
    sc = Scenario(node_count=4, duration=3.0).variant(v_max=1e12)
    with pytest.raises(ScenarioError, match=r"^v_max gives about 3\.6e\+10 waypoint legs"):
        sc.validate()
    # the work budget counts legs, CBR sends and hello ticks together
    sc = Scenario(node_count=4, duration=3.0, flow_count=1).variant(interval=3e-8)
    sc.validate()
    with pytest.raises(ScenarioError, match=r"^interval gives"):
        sc.variant(hello_interval=3e-7).validate()


def test_waypoint_legs_must_advance_the_clock_at_duration():
    # at pause 0 such a leg would leave the schedule generator on one instant
    # forever, so only validate() is called here
    with pytest.raises(ScenarioError, match=r"\bv_max\b"):
        Scenario(node_count=4, duration=3.0).variant(v_max=1e300).validate()
    # a pause moves the clock even when the leg does not
    Scenario(duration=3.0).variant(v_max=1e300, pause_time=1.0).validate()


@pytest.mark.parametrize(
    "name,value",
    [("flows", [FlowSpec(0, 1, 512, 0.25, 1.0, 2.0)]), ("radio", RadioParams())],
)
def test_variant_takes_only_file_keys(name, value):
    with pytest.raises(ScenarioError, match=f"unknown scenario field: {name}"):
        Scenario().variant(**{name: value})


@pytest.mark.parametrize("bad", ["7", "-1", "2"])
def test_flag_takes_only_0_or_1(bad):
    with pytest.raises(ScenarioError, match=r"\bdegree_tiebreak\b"):
        parse_scenario(f"degree_tiebreak = {bad}\n")
    with pytest.raises(ScenarioError, match=r"\bdegree_tiebreak\b"):
        Scenario().variant(degree_tiebreak=float(bad))
    sc = Scenario()
    sc.proto.degree_tiebreak = float(bad)
    with pytest.raises(ScenarioError, match=r"\bdegree_tiebreak\b"):
        sc.validate()
    for ok in (0, 1):
        assert parse_scenario(f"degree_tiebreak = {ok}\n").proto.degree_tiebreak is bool(ok)
        assert Scenario().variant(degree_tiebreak=ok).proto.degree_tiebreak is bool(ok)


@pytest.mark.parametrize(
    "interval,start,stop",
    [(math.nan, 1.0, 10.0), (0.5, math.nan, 10.0), (0.5, 1.0, math.inf), (0.5, -1.0, 10.0)],
)
def test_flow_numbers_must_be_finite_and_start_at_zero_or_later(interval, start, stop):
    flow = FlowSpec(0, 1, 512, interval, start, stop)
    with pytest.raises(ValueError, match="flow"):
        flow.validate(4)
    with pytest.raises(ScenarioError, match="flow"):
        Scenario(node_count=4, flows=[flow]).validate()


def test_negative_propagation_delay_rejected():
    with pytest.raises(ScenarioError, match="propagation_delay"):
        Scenario(radio=RadioParams(propagation_delay=-1.0)).validate()


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
flow_line = st.tuples(st.integers(), st.integers(), st.integers(), finite, finite, finite)
# every numeric key -> the values its own range admits
IN_RANGE = {
    **dict.fromkeys(("master_seed", "flow_count", "payload"), st.integers()),
    "node_count": st.integers(min_value=2),
    **dict.fromkeys(
        ("rreq_retries", "allowed_hello_loss", "queue_capacity", "control_bytes", "n0", "s0"),
        st.integers(min_value=1),
    ),
    **dict.fromkeys(
        ("mpath_slack", "mpath_max_copies", "mpath_max_paths"), st.integers(min_value=0)
    ),
    **dict.fromkeys(
        ("range", "bandwidth", "v_max", "v_min", "p_tx", "p_rx", "hello_interval",
         "route_lifetime", "rreq_id_cache_ttl", "duration"),
        positive,
    ),
    **dict.fromkeys(
        ("propagation_delay", "pause_time", "discovery_timeout", "rrep_wait"), non_negative
    ),
    "loss_prob": st.floats(0.0, 1.0),
    "initial_energy": st.floats(1e-12, 1e290),
    **dict.fromkeys(("interval", "traffic_start"), finite),
}


@st.composite
def scenario_texts(draw) -> str:
    """A scenario file setting every key to an arbitrary value in its range."""
    lines = [
        "name = " + draw(st.from_regex(r"[A-Za-z0-9_.-]{1,12}", fullmatch=True)),
        "protocol = " + draw(st.sampled_from(["aodv", "maodv"])),
        "degree_tiebreak = " + draw(st.sampled_from(["0", "1"])),
        "area = {!r} {!r}".format(draw(positive), draw(positive)),
    ]
    for key in (*INT_KEYS, *FLOAT_FIELDS):
        lines.append(f"{key} = {draw(IN_RANGE[key])!r}")
    for flow in draw(st.lists(flow_line, max_size=3)):
        lines.append("flow = " + " ".join(repr(v) for v in flow))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=200, deadline=None)
@given(scenario_texts())
def test_scenario_text_round_trips_exactly(text):
    sc = parse_scenario(text)
    back = parse_scenario(scenario_text(sc))
    assert back == sc
    assert scenario_text(back) == scenario_text(sc)


def test_validate_rejects_bad_configs():
    with pytest.raises(ScenarioError, match="node_count"):
        Scenario(node_count=1).validate()
    with pytest.raises(ScenarioError, match="duration"):
        Scenario(duration=0).validate()
    sc = Scenario()
    sc.proto.s0 = 5
    with pytest.raises(ScenarioError, match="s0"):
        sc.validate()
    sc2 = Scenario(flows=[FlowSpec(0, 0, 512, 0.25, 0.0, 10.0)])
    with pytest.raises(ScenarioError):
        sc2.validate()


def test_same_seed_identical_trace_digest():
    sc = Scenario(node_count=10, duration=15.0, master_seed=5)
    a = run_scenario(sc, with_trace=True)
    b = run_scenario(sc.variant(), with_trace=True)
    assert a.trace.digest() == b.trace.digest()


@settings(max_examples=40, deadline=None)
@given(small_scenarios())
def test_random_scenarios_keep_the_invariants(sc):
    result = run_scenario(sc, with_trace=True)
    report = result.report
    assert report.sent == report.delivered + report.dropped + report.in_flight
    assert result.energy_closed
    for rec in report.records:
        assert len(set(rec.traversed)) == len(rec.traversed), rec
    again = run_scenario(sc.variant(), with_trace=True)
    assert again.trace.digest() == result.trace.digest()


def test_different_seed_differs():
    sc = Scenario(node_count=10, duration=15.0, master_seed=5)
    a = run_scenario(sc, with_trace=True)
    c = run_scenario(sc.variant(master_seed=6), with_trace=True)
    assert a.trace.digest() != c.trace.digest()


def test_paired_experiment_design():
    # both protocols see the same placements, schedules and traffic
    sc = Scenario(node_count=12, duration=15.0, master_seed=3)
    a = run_scenario(sc, with_trace=True)
    m = run_scenario(sc.variant(protocol="maodv"), with_trace=True)
    assert a.flows == m.flows

    def section(result, events):
        return [l for l in result.trace.lines if l.split()[2] in events]

    setup_events = {"place", "leg", "flow", "cbr_send"}
    assert section(a, setup_events) == section(m, setup_events)


def test_two_node_degenerate_network():
    sc = Scenario(
        node_count=2,
        duration=30.0,
        flows=[FlowSpec(0, 1, 512, 0.25, 1.0, 29.0)],
    )
    result = run_scenario(sc, with_trace=True, mobility=static_model([(0, 0), (100, 0)]))
    report = result.report
    assert report.pdr == 1.0
    assert report.in_flight == 0
    # a single discovery round suffices: no further request/reply/error traffic
    assert result.trace.count("tx_rreq") == 1
    assert result.trace.count("tx_rrep") == 1
    assert result.trace.count("tx_rerr") == 0


def test_energy_series_sampled_every_second():
    # a duration that is not a whole number of seconds ends on a last,
    # partial-second sample at the end of the run
    cases = ((10.0, [float(k) for k in range(11)]), (2.5, [0.0, 1.0, 2.0, 2.5]))
    for duration, expected in cases:
        result = run_scenario(Scenario(node_count=4, duration=duration))
        times = [t for t, _, _ in result.report.energy_series]
        assert times == expected
        net_vals = [n for _, n, _ in result.report.energy_series]
        assert net_vals == sorted(net_vals)


def test_params_dict_covers_assumptions():
    sc = Scenario()
    params = sc.params_dict()
    for key in (
        "p_tx_w", "p_rx_w", "bandwidth_bps", "control_bytes", "n0", "s0",
        "hello_interval", "v_min", "pause_time", "queue_capacity",
    ):
        assert key in params


def test_sweep_validates_grid_before_any_run():
    from manetsim.sweep import sweep

    base = Scenario(node_count=8, duration=5.0, flow_count=2)
    with pytest.raises(ScenarioError):
        sweep(base, "node_count", [8, 1], [1])  # 1 node is invalid
    with pytest.raises(ScenarioError):
        sweep(base, "hello_interval", [1], [1])  # unknown axis
    with pytest.raises(ScenarioError):
        sweep(base, "pause_time", [], [1])
    runs = []
    with pytest.raises(ScenarioError, match=r"\bnode_count\b"):
        sweep(base, "node_count", [8.7], [1], progress=lambda *run: runs.append(run))
    assert runs == []  # 8.7 nodes is not truncated to 8


def test_variant_does_not_mutate_base():
    base = Scenario()
    var = base.variant(protocol="maodv", pause_time=80.0, master_seed=17)
    assert base.protocol == "aodv"
    assert base.mobility.pause_time == 0.0
    assert var.mobility.pause_time == 80.0
    assert var.master_seed == 17

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manetsim import Scenario, parse_scenario, run_scenario, scenario_text
from manetsim.radio import RadioParams
from manetsim.scenario import FIELD_BY_KEY, ScenarioError
from manetsim.traffic import FlowSpec

from conftest import static_model


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("key", sorted(FLOAT_FIELDS))
def test_non_finite_numbers_rejected_naming_the_field(key, bad):
    with pytest.raises(ScenarioError, match=rf"\b{key}\b"):
        parse_scenario(f"{key} = {bad}\n")
    sc = Scenario()
    part, attr = FLOAT_FIELDS[key]
    setattr(getattr(sc, part) if part else sc, attr, bad)
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
flow_line = st.tuples(st.integers(), st.integers(), st.integers(), finite, finite, finite)


@st.composite
def scenario_texts(draw) -> str:
    """A scenario file setting every key to an arbitrary value of its type."""
    lines = [
        "name = " + draw(st.from_regex(r"[A-Za-z0-9_.-]{1,12}", fullmatch=True)),
        "protocol = " + draw(st.sampled_from(["aodv", "maodv"])),
        "degree_tiebreak = " + draw(st.sampled_from(["0", "1"])),
        "area = {!r} {!r}".format(draw(finite), draw(finite)),
    ]
    for key in (*INT_KEYS, *FLOAT_FIELDS):
        value = draw(st.integers() if key in INT_KEYS else finite)
        lines.append(f"{key} = {abs(value) if key in ZERO_MEANS_DERIVED else value!r}")
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
    assert a.mobility_text == m.mobility_text
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
    sc = Scenario(node_count=4, duration=10.0)
    result = run_scenario(sc)
    times = [t for t, _, _ in result.report.energy_series]
    assert times == [float(k) for k in range(11)]
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

"""Golden pins: the determinism contract for both protocols.

Every pinned value lives in golden.json, one entry per run. A key names the
run: its family, its protocol, then the family's parameters, for example
`baseline/aodv/20/1` (n = 20, seed 1) or `stress/maodv/loss_prob/2`. Each
run pins its trace and report-row sha256, its `Engine.processed` and its
drop breakdown; a few pin more. A change that claims to keep behaviour (a
refactor, a speedup) must leave every pin byte-identical, and each run's
trace must tell the same story as its report. A change that moves a pin on
purpose re-records the file by running this module as a script:

    PYTHONPATH=src python tests/test_golden.py

It re-runs every key of golden.json, prints each moved pin as `old -> new`
and rewrites the file; the change says why its pins moved.
"""

import functools
import hashlib
import json
import re
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from manetsim import Scenario, parse_scenario, run_scenario, runner, scenario_text
from manetsim.proto_common import RouterBase, Rreq
from manetsim.radio import Radio
from manetsim.sweep import report_row

from conftest import BASELINE

GOLDEN_JSON = Path(__file__).with_name("golden.json")

# The stress family's runs replace one of these keys each.
STRESS_OVERRIDE = {"propagation_delay": 2e-5, "loss_prob": 0.05, "initial_energy": 2}

MIXED_FLOWS = (
    "flow = 0 5 512 0.1 1 120\n"
    "flow = 3 9 512 0.25 1 120\n"
    "flow = 7 14 512 0.5 1 120\n"
)

# family -> the parameters its keys name after the protocol -> the baseline
# keys its run replaces
FAMILIES = {
    # The baseline as given, at n = 20 and 100: nodes move at every instant.
    "baseline": lambda node_count, seed: {"node_count": node_count, "master_seed": seed},
    # The baseline at n = 20 with nodes that stand still: pause 120 keeps the
    # network static for the whole 120 s run, pause 40 keeps it frozen for
    # the first 40 s and then sets it moving.
    "frozen": lambda pause_time, seed: {"pause_time": pause_time, "master_seed": seed},
    # The baseline at n = 20 for 60 s with one of a lossless channel, no
    # propagation delay and the 10 J battery changed, which sends the
    # protocols down paths the runs above take rarely or never: frames that
    # arrive a propagation delay late, frames lost at random, and a 2 J
    # battery that kills nodes mid-run, so discoveries retry and fail by the
    # dozen.
    "stress": lambda key, seed: {"duration": 60, key: STRESS_OVERRIDE[key], "master_seed": seed},
    # The runs above move nodes at the baseline's v_max = 5 m/s. These run at
    # n = 50, pause 0, for 60 s with v_max = 20 m/s, where the radio's
    # reachability holds (two nodes' distance changes by at most 2·v_max per
    # second) last a quarter as long and lapse far more often.
    "fast": lambda seed: {"node_count": 50, "v_max": 20, "duration": 60, "master_seed": seed},
    # The runs above deliver a flood's copies within a few milliseconds, well
    # inside AODV's 6 s request-id cache lifetime (RFC 3561 6.5). These run
    # at n = 20 for 8 s with a propagation delay of 4 ms per metre (up to a
    # second per hop) and a 0.5 s cache lifetime, so many copies reach a node
    # after it has forgotten their flood and are admitted again.
    "late": lambda seed: {
        "propagation_delay": 0.004, "rreq_id_cache_ttl": 0.5, "duration": 8, "master_seed": seed,
    },
    # The runs above have generated flows, which share one interval, so no
    # traffic tick is ever pushed ahead of another flow's tick already
    # pending at its instant. These run at n = 20 with MIXED_FLOWS: three
    # explicit flows at 0.1, 0.25 and 0.5 s, all starting at 1 s; the
    # shortest interval is declared first, so its ticks run under the lowest
    # rank (-3) and each one lands ahead of the slower flows' ticks pushed
    # earlier for the same instant.
    "mixed": lambda seed: {"master_seed": seed},
    # The 30 s baseline at n = 40, seed 1, under each pair of flood caps
    # (mpath_max_copies, mpath_max_paths): closing a full flood record early
    # must not move a single line, whichever cap fills first.
    "caps": lambda copies, paths: {
        "node_count": 40, "duration": 30, "mpath_max_copies": copies, "mpath_max_paths": paths,
    },
}
# the flow lines a family appends to the baseline's text
FLOW_LINES = {"mixed": MIXED_FLOWS}

# the fields every run pins, by the ending of their tests' names
FIELDS = {
    "trace": "trace_digest", "row": "report_row_digest", "events": "event_count",
    "drops": "drop_counts",
}


def scenario(key: str) -> Scenario:
    family, protocol, *params = key.split("/")
    text = BASELINE.read_text() + FLOW_LINES.get(family, "")
    return parse_scenario(text, "baseline").variant(protocol=protocol, **FAMILIES[family](*params))


@functools.cache
def pinned_run(key: str) -> dict:
    """The traced run of `key`, reduced to every value a pin can hold and to
    what the checks below compare its trace with.

    Besides the fields every run pins, `header` is report_row's columns in
    CSV order (the row digests sort their keys, so only it can see a
    reordered or renamed column), and `rreq_dispatch` counts the RREQ
    receptions and those that reach on_frame (see tests/test_proto_common.py).
    """
    networks = []
    dispatch = [0, 0]
    build, deliver_batch, on_frame = runner.build_network, Radio._deliver_batch, RouterBase.on_frame

    def keep_network(*args, **kwargs):
        networks.append(build(*args, **kwargs))
        return networks[-1]

    def counted_batch(radio, receivers, packet, *rest):
        if type(packet) is Rreq:
            dispatch[0] += len(receivers)
        deliver_batch(radio, receivers, packet, *rest)

    def counted_frame(router, packet, sender):
        if type(packet) is Rreq:
            dispatch[1] += 1
        on_frame(router, packet, sender)

    sc = scenario(key)
    with (
        mock.patch.object(runner, "build_network", keep_network),
        mock.patch.object(Radio, "_deliver_batch", counted_batch),
        mock.patch.object(RouterBase, "on_frame", counted_frame),
    ):
        result = run_scenario(sc, with_trace=True)
    report, trace = result.report, result.trace
    row = report_row(sc, report)
    # drop lines read `time node drop pkt cause`
    traced_drops = Counter(
        fields[4] for fields in (line.split(" ") for line in trace.lines) if fields[2] == "drop"
    )
    return {
        "trace": trace.digest(),
        "row": hashlib.sha256(json.dumps(row, sort_keys=True, default=repr).encode()).hexdigest(),
        "events": networks[0].engine.processed,
        "drops": report.drop_breakdown,
        "header": list(row),
        "rreq_dispatch": dispatch,
        "energy_closed": result.energy_closed,
        "traced_drops": dict(sorted(traced_drops.items())),
        "protocol_events": report.protocol_events,
        "traced_events": {name: trace.count(name) for name in report.protocol_events},
        "rreq_sent": trace.count("tx_rreq"),
    }


PINS = json.loads(GOLDEN_JSON.read_text())


def dump(pins: dict) -> str:
    """golden.json's one form, in which each moved pin is a one-key diff."""
    return json.dumps(pins, indent=1, sort_keys=True) + "\n"


def assert_pin(key: str, field: str) -> None:
    assert pinned_run(key)[field] == PINS[key][field], f"{key}: {field}"


def runs(family: str) -> list:
    """pytest parameters for the pinned runs of `family`, each named by its
    key's parts after the family."""
    return [
        pytest.param(key, id=key.split("/", 1)[1].replace("/", "-"))
        for key in sorted(PINS) if key.split("/")[0] == family
    ]


def pin_test(family: str, field: str):
    @pytest.mark.parametrize("key", runs(family))
    def test(key):
        assert_pin(key, field)
    return test


def agreement_test(family: str):
    @pytest.mark.parametrize("key", runs(family))
    def test(key):
        run = pinned_run(key)
        assert run["energy_closed"]
        assert run["traced_drops"] == run["drops"]
        assert run["traced_events"] == run["protocol_events"]
    return test


# One test per family and field, test_<family>_<the field's ending>, and one
# per family whose runs' traces must agree with their reports. The fast,
# late-copy and mixed-interval trace tests keep their established names, so a
# test id names the same pin from change to change; the caps' trace pins are
# checked in tests/test_maodv.py, beside the flood caps they pin.
NAMES = {
    ("fast", "trace"): "test_fast_mobility_digests",
    ("late", "trace"): "test_late_flood_copy_digests",
    ("mixed", "trace"): "test_mixed_interval_flow_digests",
    ("caps", "trace"): None,
}
for family in FAMILIES:
    for field, ending in FIELDS.items():
        name = NAMES.get((family, field), f"test_{family}_{ending}")
        if name:
            globals()[name] = pin_test(family, field)
    globals()[f"test_{family}_trace_agrees_with_report"] = agreement_test(family)


def test_report_header_is_pinned():
    assert_pin("baseline/aodv/20/1", "header")


def test_late_flood_copies_are_admitted_again_after_the_cache_lifetime():
    # An AODV node relays a flood at most once while it remembers the flood,
    # so more than n requests sent per flood means late copies were admitted
    # again (15,742 requests for 153 floods at n = 20; 2,285 with the
    # baseline's 6 s lifetime).
    run = pinned_run("late/aodv/1")
    events = run["protocol_events"]
    floods = sum(events.get(e, 0) for e in ("discovery_start", "discovery_retry", "repair_start"))
    assert floods > 0
    assert run["rreq_sent"] > 20 * floods


def test_golden_file_is_in_its_one_form():
    text = GOLDEN_JSON.read_text()
    assert text == dump(json.loads(text))


def test_every_key_names_a_run_of_a_family():
    for key, pins in PINS.items():
        family, protocol, *_ = key.split("/")
        assert family in FAMILIES and protocol in ("aodv", "maodv"), key
        scenario(key)  # the family's parameters parse, or this raises
        assert FIELDS.keys() <= pins.keys(), key


def test_no_test_module_holds_a_digest():
    for path in GOLDEN_JSON.parent.glob("*.py"):
        assert not re.search("[0-9a-f]{64}", path.read_text()), path.name


def test_baseline_survives_text_round_trip():
    base = parse_scenario(BASELINE.read_text(), "baseline")
    assert parse_scenario(scenario_text(base), "baseline") == base


def record() -> None:
    """Re-run every key of golden.json, print each moved pin as `old -> new`
    and rewrite the file; a run also gains any field every run pins."""
    moved = 0
    for key, pins in PINS.items():
        run = pinned_run(key)
        for field in sorted(FIELDS.keys() | pins.keys()):
            if pins.get(field) != run[field]:
                print(f"{key}: {field} {pins.get(field)} -> {run[field]}")
                pins[field] = run[field]
                moved += 1
    GOLDEN_JSON.write_text(dump(PINS))
    print(f"{moved} pins moved in {len(PINS)} runs")


if __name__ == "__main__":
    record()

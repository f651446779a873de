"""Golden digests: the determinism contract for both protocols.

A change that claims to keep behaviour (a refactor, a speedup) must leave
every trace digest and every report-row digest below byte-identical, and
the trace must tell the same story as the report. A change that moves a
digest on purpose re-records it here and says why.
"""

import functools
import hashlib
import json
from collections import Counter
from unittest import mock

import pytest

from manetsim import parse_scenario, run_scenario, runner, scenario_text
from manetsim.sweep import report_row

from conftest import BASELINE


# (protocol, node_count, seed) -> sha256 of the run's trace text
GOLDEN = {
    ("aodv", 20, 1): "153eeca5642facd65d0e2bb85fad5396620d293ed7d6d2011650ed07faa065e7",
    ("aodv", 20, 2): "f0b09322609a5fc3b38ef5bb8ad1f408d3d451582cfea17eb59f34103458b39a",
    ("aodv", 20, 3): "f77737cc61879cc973f781bb63b8f75db8c4c7f5512fc3006ff3945cf9ba421a",
    ("maodv", 20, 1): "9fb4f6e50e9d420609e338324575601cf68a4138f2928e3c6d1ac130f6179634",
    ("maodv", 20, 2): "75cdee965e7a77efd001a0b1f0bd196124f31e3711c771173f5c3ee361d9dae6",
    ("maodv", 20, 3): "bf2f9fd29872d9093d2e217c00e4fb6d9a26e892cb8a99aeae80fd6725416599",
    ("aodv", 100, 1): "18fc2cc18f960fd27b4368ca307bdc40f5314c578634931f17e04314888b0830",
    ("aodv", 100, 2): "c65453e514e1d08714a97cdbc986948394d0953dbb6b2f69909c1c0fdd3257ed",
    ("aodv", 100, 3): "515917023705ded4176a169d25fea81306da492e8d50e263f5b2f05789fbaf77",
    ("maodv", 100, 1): "c92acd168ddc149b4a64fa645ad396964a1a287a03e7318d3dad5aa758c4c4e8",
    ("maodv", 100, 2): "10fa4b55e6f0161e2875d90c3780d91faa213dd748de4107429cc2bad1c47420",
    ("maodv", 100, 3): "912fbb6f3a499d03359874400b7ed6c5705ef2a90c1b5a27c17f88cd2d82d54f",
}

# (protocol, node_count, seed) -> sha256 of the run's report_row as sorted JSON
GOLDEN_ROW = {
    ("aodv", 20, 1): "941c8fd06bb3193ce657817da7a8fb98897937dbb5b2f8377f50989a05b41afa",
    ("aodv", 20, 2): "b46e9cb1983ee5cf0dc7a1dbbaec64a86a3df280140f1de59284b50cd8bd7410",
    ("aodv", 20, 3): "28f9c2157461013e10eefcce268edc317ecba9aa9cc4c55f6753823bded9a630",
    ("maodv", 20, 1): "721dc7f400a33fcfd746d7b3ab2d00e22d7233fd855b8612fe170c2113b0d470",
    ("maodv", 20, 2): "75f42ecce9b0ce5a00008299b6067aa374e4d03a7b9ed9b29aad368eb0ee5668",
    ("maodv", 20, 3): "19eb454b8a4a0399e00275bdf77a00b0dde8633020d33fad2d2618bbce14116f",
    ("aodv", 100, 1): "f01c7a7f9d387e59cca4d3a715f186fd4d36f9bea3b2ecfa400299bea2c4c651",
    ("aodv", 100, 2): "210ef6b984288d1f0d5b70093e6822bd56f58f3986040df93e6a0aba50ae8614",
    ("aodv", 100, 3): "0274b92a409300e1b7bea3693756241d0d56cf10a1a528afeabbfb9b1efe7f6d",
    ("maodv", 100, 1): "2ef1e3b9591ddbcfd57bc42ebf6d18123eaf39e79000ea751d50752566a7ce16",
    ("maodv", 100, 2): "747c682e08281f24681ab056091ff826798084135dfbc34c9ba0a64cd749b717",
    ("maodv", 100, 3): "eb21dfc708478f5b95471b65691b24ed8434dc37e1c11a29629be7c4e98d7170",
}

# The pins above all run at pause 0, where nodes move at every instant. These
# run the baseline at n = 20 with nodes that stand still: pause 120 keeps the
# network static for the whole 120 s run, pause 40 keeps it frozen for the
# first 40 s and then sets it moving.
# (protocol, pause_time, seed) -> sha256 of the run's trace text
FROZEN = {
    ("aodv", 40, 1): "10e7749ed22e30ac46ccee4ddc4b44f110bc19af6930eb5404a0ab74df4c06cd",
    ("aodv", 40, 2): "4e87ddffdfa4e739801db3a7261f54bb6b1209854d9ea240bc06fce6fd450d88",
    ("aodv", 40, 3): "8b78fc346f2c2907e5865f2cd1433af62ef6b9741d9b0dd5883ae0a05bf3619c",
    ("maodv", 40, 1): "3b913a0775b1803438de3eb05c2e942593fadf16fd89401b825ec1dd275bb18b",
    ("maodv", 40, 2): "721d01789dce012258656275d509b4e8e3ca52f580defa305e6b70dbf15894e9",
    ("maodv", 40, 3): "7ba7269db06f1264c62baa4fb5f34ec8735a9ced0cce2ef08a0c53c3d86e430d",
    ("aodv", 120, 1): "b7300cbf630a70fc9fb7035a413a6f89dae05db914185f12cba8ee069f7ee3fa",
    ("aodv", 120, 2): "68bfc6743a5db6360135ef3cf9119875dcd769aee9f0658f419c4f82a0b2eb3c",
    ("aodv", 120, 3): "fbdef7c72c1ab4472235666fba9bb2b7b10f0f7bbc868e1d43ee939786c085c8",
    ("maodv", 120, 1): "874c24991408be6268feafa61bf8acbb1ab165618c91ca84952720f0547ece68",
    ("maodv", 120, 2): "e1303e369bf85012af31d06bfe38b95f86a850ff980a136a21932b7a2f34039a",
    ("maodv", 120, 3): "f1f4c5d045e22f713a4da5198f51580c40f9df04dad7d3bb0e8a5a6c27e42760",
}

# (protocol, pause_time, seed) -> sha256 of the run's report_row as sorted JSON
FROZEN_ROW = {
    ("aodv", 40, 1): "72c23afd3adbb6338d6361da794692a07a9b20b526e86d6946508dfaaa92e491",
    ("aodv", 40, 2): "806dd4ad3e0a49189e135579c2eb6e1c8fe1a5487daa9821ff0f69dbe5cc176c",
    ("aodv", 40, 3): "046cfa497818977ffef020ff48b1ba31828158caeb7f6accc54d189db0a6ed91",
    ("maodv", 40, 1): "e041fa930bafdce034c3aec87d61d73e5056b388f72f6a2ea1963e1f5ebcb5aa",
    ("maodv", 40, 2): "20d88b9d18976ab25aeb1de8053d4ba27953459dedf79d1e0f6bbbd6af278254",
    ("maodv", 40, 3): "04423a92ff480f66dfc4e8a65b573fdd2ebe3df0ad14ca99f2bbf7cfed0343aa",
    ("aodv", 120, 1): "6065d64f4bbd36117d53090fe369f926307962d7479db774a062130142add363",
    ("aodv", 120, 2): "be182bf6901b23f0fae31ead5e42100e03a9091236cdb2d8fa57831a3c5f880e",
    ("aodv", 120, 3): "2a8def99a7fbf41ac1a6f3fc3e4c2a5f24cbca2bdb070c62cf4b4769cacff110",
    ("maodv", 120, 1): "e8c0d16c61bd6758039f970e3e2753c8a268f501f2ac960d021fc7ace8ceb4b0",
    ("maodv", 120, 2): "3c33b31c2095e7d9d1092f54f27d0896c20cfafd1e1dc08edb808e5c88b28a05",
    ("maodv", 120, 3): "4ac2de1b2a2d5d3c2ec00979503268acf0e23bd1a88fca700b4be9b21c96e2bd",
}

# Every pin above runs with a lossless channel, no propagation delay and the
# baseline's 10 J battery. These run the baseline at n = 20 for 60 s with one
# of those changed, which sends the protocols down paths the runs above take
# rarely or never: frames that arrive a propagation delay late, frames lost
# at random, and a 2 J battery that kills nodes mid-run, so discoveries
# retry and fail by the dozen.
STRESS_OVERRIDE = {"propagation_delay": 2e-5, "loss_prob": 0.05, "initial_energy": 2}

# (protocol, overridden key, seed) -> sha256 of the run's trace text
STRESS = {
    ("aodv", "initial_energy", 1): "ab223417dfd6f46f48fafd9966d1729bb24797c04a59bb91191c1ebe3ef5c1b8",
    ("aodv", "initial_energy", 2): "88dc7705c83f0fdda559e735256ff024759eff20a1a4d018d1530fe834d10f25",
    ("aodv", "loss_prob", 1): "57b6f462d7df520e4293f689a5ec57a5e2c1ca28aff78e3a5e76120be7db1ace",
    ("aodv", "loss_prob", 2): "9ea33c2ceca88371a2283355e87ca72858160178d47d5ae543586a1a24b4ab19",
    ("aodv", "propagation_delay", 1): "b9003331f869a076bad37b66db818332e37f9deadade7b5a34e85158ab97ec0c",
    ("aodv", "propagation_delay", 2): "735497a3ab264418effebbb72fd4ea143fde6b90cc673c7edbb343ea81a0d60f",
    ("maodv", "initial_energy", 1): "688cf5a75f7e50330a4097e788d1dc4fde821573f05839b4eb97c6fd04b856f4",
    ("maodv", "initial_energy", 2): "7c28863fd2df48980eed9f082c2a08f3724013ba524f630af0cbbad46731fda1",
    ("maodv", "loss_prob", 1): "251f6dc2abff68266bc085de048fbc54c36144d8d8638997825318095ea6e029",
    ("maodv", "loss_prob", 2): "806074a6c459c69610caea14047f85de3daddc16c986f567582a2220ed484f3c",
    ("maodv", "propagation_delay", 1): "4d2ade67b0f18cbb418df2405459b45ad1cf7323d7c79bc713dbe44cf09e6244",
    ("maodv", "propagation_delay", 2): "71a6a037be58915b7ee0641ab1064017ddfb94ea6eb277f0e72f83eb9fa5964e",
}

# (protocol, overridden key, seed) -> sha256 of the run's report_row as sorted JSON
STRESS_ROW = {
    ("aodv", "initial_energy", 1): "a32c8885a73b60eef9f1ef5a55454dbd393ab81d7c5f2f68d339876f2ecf0c16",
    ("aodv", "initial_energy", 2): "58897cb9b8dbd1bd1577681fccec911fa848ad008f16d463578b00979b39171b",
    ("aodv", "loss_prob", 1): "7d7a0f7af5a291db10bf297cab77b2755fd75daf206542e4cf32bf199891a062",
    ("aodv", "loss_prob", 2): "7f0e260f1b9965ae02969af560e07843500c86cb177d3279825055d8f648da82",
    ("aodv", "propagation_delay", 1): "89e23cc453756b359522c5d32c2b893f1c2d54f33250ab204a2860a1b34218c0",
    ("aodv", "propagation_delay", 2): "eb9e23bd04a2264f3649a5049fa97e180faab3fe1d8fc5b3f8ea7a6cbe5b760f",
    ("maodv", "initial_energy", 1): "82ccc22d899187113c188c6db238170b09c2b61fe0c9412998d4ae5e6a8c3ff1",
    ("maodv", "initial_energy", 2): "2ad616adeacccf32c8f01f29bf2fc56a517324403608f7c41dbbed104ed1282d",
    ("maodv", "loss_prob", 1): "489f30237d56cfa475ac7b144f41ace1caa8eb8ec2a49c818181b5a2cad59847",
    ("maodv", "loss_prob", 2): "11cae646a8cd3814e41324811b969c634ff425d145e3687fe8dce2fe425aa424",
    ("maodv", "propagation_delay", 1): "a3ca89d579229017516c93dca701bdf256ba249226ee85a497434e3df2193c6d",
    ("maodv", "propagation_delay", 2): "22ed701980674066acf86fb4227a6bfb82bf912f0b1d01c97f018cee50d119b6",
}

# Every mobile pin above moves nodes at the baseline's v_max = 5 m/s. These
# run the baseline at n = 50, pause 0, for 60 s with v_max = 20 m/s, where
# the radio's reachability holds (two nodes' distance changes by at most
# 2·v_max per second) last a quarter as long and lapse far more often.
FAST_OVERRIDE = {"v_max": 20.0, "duration": 60.0}

# (protocol, seed) -> (sha256 of the trace text, sha256 of the report_row)
FAST = {
    ("aodv", 1): (
        "57f70fa67c0c9779c07b69dc0cbdaa2feeb6193bd9ea17828c01a57c75127347",
        "5ee2c8bd25c197d1e0eed983bd4deb6ec9be0f21c0bbc7c6d914a58582594359",
    ),
    ("maodv", 1): (
        "afdf092b8a445db688f612da511301f5922db4e3d34c8e13098a93c0d821ffc2",
        "432e3e04557bed4dcf54bb8ce16217e5ae563be9089c4f35b78ff05f0a1cf81d",
    ),
}

# Every pin above delivers a flood's copies within a few milliseconds, well
# inside AODV's 6 s request-id cache lifetime (RFC 3561 6.5). These run the
# baseline at n = 20 for 8 s with a propagation delay of 4 ms per metre (up to
# a second per hop) and a 0.5 s cache lifetime, so many copies reach a node
# after it has forgotten their flood and are admitted again.
LATE_OVERRIDE = {"propagation_delay": 0.004, "rreq_id_cache_ttl": 0.5, "duration": 8.0}

# (protocol, seed) -> (sha256 of the trace text, sha256 of the report_row)
LATE = {
    ("aodv", 1): (
        "041fdf413d55ec00c840eb2ed2bea9b99880f473b96f71322fe093dceb690577",
        "85de41f2b298aaba1ad750d84bc3c2e3687460aa6513ae92432936dff2b83245",
    ),
    ("maodv", 1): (
        "7c29d8e90c55b5e5de5617e98a77685c5d81ad1e8c5ec2cda28494e202b19f6d",
        "4a36a8ec1bf072b73128a5e2cd1c16ee9737c29cd319687e4f1f0bcce68d66a4",
    ),
}

# Every pin above runs generated flows, which share one interval, so no
# traffic tick is ever pushed ahead of another flow's tick already pending at
# its instant. These run the baseline at n = 20 with three explicit flows at
# 0.1, 0.25 and 0.5 s, all starting at 1 s; the shortest interval is declared
# first, so its ticks run under the lowest rank (-3) and each one lands ahead
# of the slower flows' ticks pushed earlier for the same instant.
MIXED_FLOWS = (
    "flow = 0 5 512 0.1 1 120\n"
    "flow = 3 9 512 0.25 1 120\n"
    "flow = 7 14 512 0.5 1 120\n"
)

# (protocol, seed) -> (sha256 of the trace text, sha256 of the report_row)
MIXED = {
    ("aodv", 1): (
        "3c6faaf32cf44afe4a21f8bff5ac5ec559af9922d98953bd108e82ce0f967f4d",
        "f5a7c215d731718ae79babf29f124eac08cf4f6d8188d6bca7a13eafc2dba275",
    ),
    ("maodv", 1): (
        "7605f47122c9a899ef3df71e93895053af476282396a49fe84027052adbec522",
        "27216f32be23e9f8b318ae6ae07173f68ebb26a18f8f236e810cb68b8ad23faa",
    ),
}

# (protocol, node_count, seed) -> Engine.processed over the baseline run: the
# events a run executes, which perfbench's events_per_s divides by
EVENTS = {
    ("aodv", 20, 1): 40_262,
    ("maodv", 20, 1): 48_457,
    ("aodv", 100, 1): 47_863,
    ("maodv", 100, 1): 70_419,
}

# report_row's columns in CSV order; the row digests above sort their keys,
# so only this list can see a reordered or renamed column
REPORT_HEADER = [
    "axis", "axis_value", "name", "protocol", "seed", "node_count", "area_w", "area_h",
    "range_m", "bandwidth_bps", "propagation_delay", "loss_prob", "v_max", "v_min",
    "pause_time", "p_tx_w", "p_rx_w", "initial_energy_j", "rreq_retries", "hello_interval",
    "allowed_hello_loss", "route_lifetime", "rreq_id_cache_ttl", "queue_capacity",
    "control_bytes", "discovery_timeout", "n0", "s0", "mpath_slack", "mpath_max_copies",
    "mpath_max_paths", "rrep_wait", "degree_tiebreak", "flow_count", "explicit_flows",
    "payload", "interval", "traffic_start", "duration", "sent", "delivered", "in_flight",
    "dropped_total", "throughput_kbps", "avg_e2e_delay_s", "pdr", "loss_ratio", "nrl",
    "control_transmissions", "data_transmissions", "network_energy_j", "routing_energy_j",
    "drop_dead_node", "drop_no_route", "drop_queue_overflow", "drop_link_break",
    "drop_loop", "drop_loop_avoided", "ev_discovery_start", "ev_discovery_retry",
    "ev_discovery_fail", "ev_repair_start", "ev_repair_ok", "ev_repair_fail",
    "ev_failover", "ev_replenish_start", "ev_death",
]


@functools.cache
def baseline_run(
    protocol: str, node_count: int, seed: int, pause_time: float = 0.0,
    flow_lines: str = "", **overrides
) -> dict:
    """One traced baseline run, reduced to what the checks below compare;
    `flow_lines` is appended to the scenario text and `overrides` replaces
    further scenario keys."""
    base = parse_scenario(BASELINE.read_text() + flow_lines, "baseline")
    sc = base.variant(
        protocol=protocol, node_count=node_count, master_seed=seed, pause_time=pause_time,
        **overrides,
    )
    networks = []
    build = runner.build_network

    def keep_network(*args, **kwargs):
        networks.append(build(*args, **kwargs))
        return networks[-1]

    with mock.patch.object(runner, "build_network", keep_network):
        result = run_scenario(sc, with_trace=True)
    report, trace = result.report, result.trace
    row = report_row(sc, report)
    # drop lines read `time node drop pkt cause`
    traced_drops = Counter(
        fields[4] for fields in (line.split(" ") for line in trace.lines) if fields[2] == "drop"
    )
    return {
        "energy_closed": result.energy_closed,
        "trace_sha256": trace.digest(),
        "header": list(row),
        "row_sha256": hashlib.sha256(
            json.dumps(row, sort_keys=True, default=repr).encode()
        ).hexdigest(),
        "drop_breakdown": report.drop_breakdown,
        "traced_drops": dict(sorted(traced_drops.items())),
        "protocol_events": report.protocol_events,
        "traced_events": {name: trace.count(name) for name in report.protocol_events},
        "rreq_sent": trace.count("tx_rreq"),
        "events": networks[0].engine.processed,
    }


@pytest.mark.parametrize("protocol,node_count,seed", sorted(GOLDEN))
def test_baseline_trace_digest(protocol, node_count, seed):
    run = baseline_run(protocol, node_count, seed)
    assert run["energy_closed"]
    assert run["trace_sha256"] == GOLDEN[protocol, node_count, seed]


@pytest.mark.parametrize("protocol,node_count,seed", sorted(GOLDEN_ROW))
def test_baseline_report_row_digest(protocol, node_count, seed):
    run = baseline_run(protocol, node_count, seed)
    assert run["row_sha256"] == GOLDEN_ROW[protocol, node_count, seed]


@pytest.mark.parametrize("protocol,node_count,seed", sorted(GOLDEN))
def test_baseline_trace_agrees_with_report(protocol, node_count, seed):
    run = baseline_run(protocol, node_count, seed)
    assert run["traced_drops"] == run["drop_breakdown"]
    assert run["traced_events"] == run["protocol_events"]


@pytest.mark.parametrize("protocol,pause_time,seed", sorted(FROZEN))
def test_frozen_trace_digest(protocol, pause_time, seed):
    run = baseline_run(protocol, 20, seed, pause_time)
    assert run["energy_closed"]
    assert run["trace_sha256"] == FROZEN[protocol, pause_time, seed]
    assert run["traced_drops"] == run["drop_breakdown"]
    assert run["traced_events"] == run["protocol_events"]


@pytest.mark.parametrize("protocol,pause_time,seed", sorted(FROZEN_ROW))
def test_frozen_report_row_digest(protocol, pause_time, seed):
    run = baseline_run(protocol, 20, seed, pause_time)
    assert run["row_sha256"] == FROZEN_ROW[protocol, pause_time, seed]


def stress_run(protocol: str, key: str, seed: int) -> dict:
    return baseline_run(protocol, 20, seed, duration=60.0, **{key: STRESS_OVERRIDE[key]})


@pytest.mark.parametrize("protocol,key,seed", sorted(STRESS))
def test_stress_trace_digest(protocol, key, seed):
    run = stress_run(protocol, key, seed)
    assert run["energy_closed"]
    assert run["trace_sha256"] == STRESS[protocol, key, seed]
    assert run["traced_drops"] == run["drop_breakdown"]
    assert run["traced_events"] == run["protocol_events"]


@pytest.mark.parametrize("protocol,key,seed", sorted(STRESS_ROW))
def test_stress_report_row_digest(protocol, key, seed):
    assert stress_run(protocol, key, seed)["row_sha256"] == STRESS_ROW[protocol, key, seed]


@pytest.mark.parametrize("protocol,seed", sorted(FAST))
def test_fast_mobility_digests(protocol, seed):
    run = baseline_run(protocol, 50, seed, **FAST_OVERRIDE)
    assert run["energy_closed"]
    assert (run["trace_sha256"], run["row_sha256"]) == FAST[protocol, seed]
    assert run["traced_drops"] == run["drop_breakdown"]
    assert run["traced_events"] == run["protocol_events"]


@pytest.mark.parametrize("protocol,seed", sorted(LATE))
def test_late_flood_copy_digests(protocol, seed):
    run = baseline_run(protocol, 20, seed, **LATE_OVERRIDE)
    assert run["energy_closed"]
    assert (run["trace_sha256"], run["row_sha256"]) == LATE[protocol, seed]
    assert run["traced_drops"] == run["drop_breakdown"]
    assert run["traced_events"] == run["protocol_events"]


@pytest.mark.parametrize("protocol,seed", sorted(MIXED))
def test_mixed_interval_flow_digests(protocol, seed):
    run = baseline_run(protocol, 20, seed, flow_lines=MIXED_FLOWS)
    assert run["energy_closed"]
    assert (run["trace_sha256"], run["row_sha256"]) == MIXED[protocol, seed]
    assert run["traced_drops"] == run["drop_breakdown"]
    assert run["traced_events"] == run["protocol_events"]


@pytest.mark.parametrize("protocol,node_count,seed", sorted(EVENTS))
def test_baseline_event_count(protocol, node_count, seed):
    assert baseline_run(protocol, node_count, seed)["events"] == EVENTS[protocol, node_count, seed]


def test_late_flood_copies_are_admitted_again_after_the_cache_lifetime():
    # An AODV node relays a flood at most once while it remembers the flood,
    # so more than n requests sent per flood means late copies were admitted
    # again (15,742 requests for 153 floods at n = 20; 2,285 with the
    # baseline's 6 s lifetime).
    run = baseline_run("aodv", 20, 1, **LATE_OVERRIDE)
    events = run["protocol_events"]
    floods = sum(events.get(e, 0) for e in ("discovery_start", "discovery_retry", "repair_start"))
    assert floods > 0
    assert run["rreq_sent"] > 20 * floods


def test_report_header_is_pinned():
    assert baseline_run("aodv", 20, 1)["header"] == REPORT_HEADER


def test_baseline_survives_text_round_trip():
    base = parse_scenario(BASELINE.read_text(), "baseline")
    assert parse_scenario(scenario_text(base), "baseline") == base

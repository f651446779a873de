import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import manetsim
from manetsim.cli import main
from manetsim.metrics import REPORT_METRICS
from manetsim.scenario import Scenario, scenario_text


def write_scenario(tmp_path, **overrides):
    sc = Scenario(node_count=8, duration=10.0, flow_count=2)
    for key, value in overrides.items():
        setattr(sc, key, value)
    path = tmp_path / "case.scn"
    path.write_text(scenario_text(sc))
    return path


def read_csv(path):
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def test_validate_ok(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["validate", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_bad_field(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("node_count = 1\n")
    assert main(["validate", str(path)]) == 2
    assert "node_count" in capsys.readouterr().err


def test_non_finite_number_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path)
    path.write_text(path.read_text() + "range = nan\n")
    for verb in ("validate", "run"):
        assert main([verb, str(path)]) == 2
        assert "range" in capsys.readouterr().err


def test_flag_other_than_0_or_1_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path)
    text = path.read_text()
    for bad in ("7", "-1", "2"):
        path.write_text(text + f"degree_tiebreak = {bad}\n")
        assert main(["validate", str(path)]) == 2
        assert "degree_tiebreak" in capsys.readouterr().err


def test_initial_energy_below_half_a_picojoule_exits_2(tmp_path, capsys):
    path = write_scenario(tmp_path)
    path.write_text(path.read_text() + "initial_energy = 1e-13\n")
    for verb in ("validate", "run"):
        assert main([verb, str(path)]) == 2
        assert "initial_energy" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("range", "1e-320"),  # the area's diameter in hops overflows
        ("bandwidth", "1e-300"),  # one frame's energy overflows
        ("p_tx", "1e300"),
        ("control_bytes", str(10**303)),
        ("payload", str(10**400)),  # too large for a float at all
        ("initial_energy", "1e300"),  # the battery overflows in picojoules
        ("loss_prob", "1.5"),
    ],
)
def test_overflowing_or_out_of_range_input_exits_2(tmp_path, capsys, key, value):
    path = write_scenario(tmp_path)
    path.write_text(path.read_text() + f"{key} = {value}\n")
    for verb in ("validate", "run"):
        assert main([verb, str(path)]) == 2
        assert re.search(rf"\b{key}\b", capsys.readouterr().err)


@pytest.mark.parametrize(
    "key,value",
    [
        # periods that leave the clock where it is at the run's duration
        ("discovery_timeout", "1e-300"),
        ("rrep_wait", "1e-300"),
        ("hello_interval", "1e-300"),
        ("interval", "1e-300"),
        ("interval", "1e-320"),
        ("flow", "0 1 512 1e-300 1.0 9.0"),
        # a waypoint leg that crosses the area in no time, at pause 0
        ("v_max", "1e300"),
        # legs ~1e-9 s long: billions per node, over the work budget
        ("v_max", "1e12"),
        # whole numbers too large for a float
        ("allowed_hello_loss", str(10**400)),
        ("mpath_slack", str(10**400)),
    ],
)
def test_period_or_count_a_run_cannot_use_exits_2(tmp_path, capsys, key, value):
    path = write_scenario(tmp_path)
    path.write_text(path.read_text() + f"{key} = {value}\n")
    for verb in ("validate", "run"):
        assert main([verb, str(path)]) == 2
        assert re.search(rf"\b{key}\b", capsys.readouterr().err)


def test_largest_slack_a_float_holds_runs(tmp_path):
    path = write_scenario(tmp_path)
    path.write_text(path.read_text() + f"mpath_slack = {10**308}\n")
    assert main(["run", str(path)]) == 0


def test_missing_file_is_error(capsys):
    assert main(["validate", "/does/not/exist.scn"]) == 2


def test_validate_a_directory_exits_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_scenario_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.scn"
    path.write_bytes("# caf\u00e9\nnode_count = 8\n".encode("latin-1"))
    for verb in ("validate", "run"):
        assert main([verb, str(path)]) == 2
        err = capsys.readouterr().err
        assert "utf-8" in err and str(path) in err


def test_report_csv_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("axis,axis_value,protocol,pdr\ncaf\u00e9,0,aodv,0.9\n".encode("latin-1"))
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert "utf-8" in err and str(path) in err


@pytest.mark.parametrize("text", ["", "axis,axis_value,protocol,pdr\n"], ids=["empty", "header_only"])
def test_report_with_no_data_rows_exits_2(tmp_path, capsys, text):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        path.write_text(text, encoding="utf-8")
    out = tmp_path / "summary.csv"
    for extra in ([], ["--out", str(out)]):
        assert main(["report", *map(str, paths), *extra]) == 2
        err = capsys.readouterr().err
        assert "no data rows" in err and all(str(path) in err for path in paths)
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        "axis,axis_value,pdr\npause_time,0,0.9\n",
        # the second row ends before its protocol cell
        "axis,axis_value,protocol,pdr\npause_time,0,aodv,0.9\npause_time,0\n",
    ],
    ids=["no_column", "truncated_row"],
)
def test_report_without_protocol_column_exits_2(tmp_path, capsys, text):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    assert main(["report", str(path)]) == 2
    assert "'protocol' column" in capsys.readouterr().err


def test_report_with_a_non_numeric_metric_exits_2(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    path.write_text("axis,axis_value,protocol,pdr\npause_time,0,aodv,0.9\npause_time,0,aodv,abc\n")
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert "row 2" in err and "'pdr'" in err and "'abc'" in err


def test_run_writes_outputs(tmp_path, capsys):
    path = write_scenario(tmp_path)
    trace = tmp_path / "run.trace"
    csv_path = tmp_path / "run.csv"
    energy = tmp_path / "energy.csv"
    code = main([
        "run", str(path),
        "--trace", str(trace),
        "--csv", str(csv_path),
        "--energy-csv", str(energy),
    ])
    assert code == 0
    assert trace.exists() and trace.read_text().splitlines()
    rows = read_csv(csv_path)
    assert len(rows) == 1
    assert rows[0]["protocol"] == "aodv"
    assert "pdr" in rows[0]
    assert energy.read_bytes().startswith(b"time_s,network_j,routing_j\r\n")
    energy_rows = read_csv(energy)
    assert len(energy_rows) == 11  # 0..10 inclusive


def test_run_prints_one_line_per_report_metric_in_table_order(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["run", str(path)]) == 0
    printed = re.findall(r"^  (\w+) = ", capsys.readouterr().out, flags=re.MULTILINE)
    assert printed == [m.source for m in REPORT_METRICS]
    assert printed == [
        "sent", "delivered", "in_flight", "dropped", "throughput_kbps", "avg_e2e_delay",
        "pdr", "loss_ratio", "nrl", "control_transmissions", "data_transmissions",
        "network_energy_j", "routing_energy_j",
    ]


def test_report_averages_exactly_the_averaged_columns(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out = tmp_path / "sweep.csv"
    summary = tmp_path / "summary.csv"
    main([
        "sweep", str(path), "--axis", "pause_time", "--values", "0",
        "--seeds", "1", "--out", str(out), "--quiet",
    ])
    assert main(["report", str(out), "--out", str(summary)]) == 0
    averaged = [m.column for m in REPORT_METRICS if m.averaged]
    assert averaged == [
        "throughput_kbps", "avg_e2e_delay_s", "pdr", "loss_ratio", "nrl",
        "network_energy_j", "routing_energy_j",
    ]
    for protocol in ("aodv", "maodv"):
        rows = [r for r in read_csv(summary) if r["protocol"] == protocol]
        assert [r["metric"] for r in rows] == averaged
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    printed = re.findall(r" (\w+): ", capsys.readouterr().out)
    assert printed == averaged * 2


def test_run_is_reproducible(tmp_path):
    path = write_scenario(tmp_path)
    t1 = tmp_path / "a.trace"
    t2 = tmp_path / "b.trace"
    main(["run", str(path), "--trace", str(t1)])
    main(["run", str(path), "--trace", str(t2)])
    assert t1.read_text() == t2.read_text()


def test_sweep_and_report(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out = tmp_path / "sweep.csv"
    summary = tmp_path / "summary.csv"
    code = main([
        "sweep", str(path),
        "--axis", "pause_time",
        "--values", "0,40",
        "--seeds", "1,2",
        "--out", str(out),
        "--summary", str(summary),
        "--quiet",
    ])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 2 * 2 * 2  # values x seeds x protocols
    protos = {r["protocol"] for r in rows}
    assert protos == {"aodv", "maodv"}
    summary_rows = read_csv(summary)
    assert any(r["metric"] == "pdr" for r in summary_rows)

    code = main(["report", str(out)])
    assert code == 0
    assert "pdr" in capsys.readouterr().out


def test_single_seed_stddev_zero(tmp_path):
    path = write_scenario(tmp_path)
    out = tmp_path / "sweep1.csv"
    summary = tmp_path / "summary1.csv"
    main([
        "sweep", str(path), "--axis", "pause_time", "--values", "0",
        "--seeds", "1", "--out", str(out), "--summary", str(summary), "--quiet",
    ])
    rows = read_csv(summary)
    pdr_rows = [r for r in rows if r["metric"] == "pdr"]
    assert pdr_rows
    assert all(float(r["stddev"]) == 0.0 for r in pdr_rows)


def test_sweep_rejects_bad_axis(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out = tmp_path / "x.csv"
    code = main([
        "sweep", str(path), "--axis", "pause_time", "--values", "",
        "--seeds", "1", "--out", str(out),
    ])
    assert code == 2


def test_sweep_rejects_non_whole_node_count(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out = tmp_path / "x.csv"
    code = main([
        "sweep", str(path), "--axis", "node_count", "--values", "8.7",
        "--seeds", "1", "--out", str(out), "--quiet",
    ])
    assert code == 2
    assert "node_count" in capsys.readouterr().err
    assert not out.exists()


def test_module_entry_point(tmp_path):
    """`python -m manetsim` runs the CLI and passes its exit code through."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(Path(manetsim.__file__).parent.parent))
    bad = tmp_path / "bad.scn"
    bad.write_text("node_count = 1\n")

    def run(scenario):
        cmd = [sys.executable, "-m", "manetsim", "validate", str(scenario)]
        return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)

    ok = run(root / "scenarios" / "baseline.scn")
    assert ok.returncode == 0, ok.stderr
    assert "ok" in ok.stdout
    failed = run(bad)
    assert failed.returncode == 2
    assert "node_count" in failed.stderr

import csv
import os
import subprocess
import sys
from pathlib import Path

import manetsim
from manetsim.cli import main
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


def test_missing_file_is_error(capsys):
    assert main(["validate", "/does/not/exist.scn"]) == 2


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
    energy_rows = read_csv(energy)
    assert len(energy_rows) == 11  # 0..10 inclusive


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

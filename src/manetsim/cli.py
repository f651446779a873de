"""Command-line entry: run, sweep, validate, and report verbs."""

import argparse
import math
import sys
from pathlib import Path

from .engine import SimulationError
from .metrics import REPORT_METRICS
from .runner import run_scenario
from .scenario import ScenarioError, parse_scenario
from .sweep import SWEEP_AXES, read_rows, report_row, summarize, sweep, write_rows


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return parse_scenario(text, name=Path(path).stem)


def _fmt(value) -> str:
    if isinstance(value, float):
        return "nan" if math.isnan(value) else f"{value:.6g}"
    return str(value)


def cmd_run(args) -> int:
    sc = _load(args.scenario)
    result = run_scenario(sc, with_trace=args.trace is not None)
    report = result.report
    print(f"run {sc.name} protocol={sc.protocol} seed={sc.master_seed}")
    for metric in REPORT_METRICS:
        print(f"  {metric.source} = {_fmt(getattr(report, metric.source))}")
    if report.drop_breakdown:
        drops = " ".join(f"{k}={v}" for k, v in report.drop_breakdown.items())
        print(f"  drops: {drops}")
    if args.trace:
        result.trace.write(args.trace)
        print(f"  trace -> {args.trace} (sha256 {result.trace.digest()[:16]})")
    if args.csv:
        row = report_row(sc, report)
        write_rows(args.csv, [row])
        print(f"  csv -> {args.csv}")
    if args.energy_csv:
        columns = ("time_s", "network_j", "routing_j")
        write_rows(args.energy_csv, [dict(zip(columns, row)) for row in report.energy_series])
        print(f"  energy csv -> {args.energy_csv}")
    return 0


def cmd_sweep(args) -> int:
    sc = _load(args.scenario)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise ScenarioError(f"bad sweep grid: {exc}") from exc

    def progress(value, seed, protocol, report):
        if args.quiet:
            return
        print(
            f"  {args.axis}={value:g} seed={seed} {protocol}: "
            f"pdr={report.pdr:.3f} delay={_fmt(report.avg_e2e_delay)} "
            f"nrl={_fmt(report.nrl)}"
        )

    rows = sweep(sc, args.axis, values, seeds, progress=progress)
    write_rows(args.out, rows)
    print(f"sweep csv -> {args.out} ({len(rows)} rows)")
    if args.summary:
        write_rows(args.summary, summarize(rows))
        print(f"summary csv -> {args.summary}")
    return 0


def cmd_validate(args) -> int:
    sc = _load(args.scenario)
    sc.validate()
    print(f"{args.scenario}: ok")
    return 0


def cmd_report(args) -> int:
    rows = read_rows(args.csv)
    summary = summarize(rows)
    if args.out:
        write_rows(args.out, summary)
        print(f"summary csv -> {args.out}")
    else:
        for row in summary:
            print(
                f"{row['axis']}={row['axis_value']} {row['protocol']} "
                f"{row['metric']}: {_fmt(row['mean'])} +- {_fmt(row['stddev'])} (n={row['n']})"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manetsim",
        description="Deterministic MANET routing simulator (single-path vs multipath).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--trace", help="write the event trace to this file")
    p_run.add_argument("--csv", help="write the one-row report CSV to this file")
    p_run.add_argument("--energy-csv", help="write the energy time series CSV")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="paired protocol sweep along one axis")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--seeds", required=True, help="comma-separated seeds")
    p_sweep.add_argument("--out", required=True, help="long-format CSV path")
    p_sweep.add_argument("--summary", help="per-metric summary CSV path")
    p_sweep.add_argument("--quiet", action="store_true")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario")
    p_val.set_defaults(fn=cmd_validate)

    p_rep = sub.add_parser("report", help="merge sweep CSVs into summary tables")
    p_rep.add_argument("csv", nargs="+")
    p_rep.add_argument("--out", help="summary CSV path (default: print)")
    p_rep.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, OSError) as exc:
        # bad input: a file that is missing, unreadable, not UTF-8 or malformed
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"simulation fault: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

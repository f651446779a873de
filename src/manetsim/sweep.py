"""Paired sweeps over mobility or density, long-format CSV, summary tables."""

import csv
import math
import statistics
from typing import Iterable

from .metrics import DROP_CAUSES, REPORT_EVENTS, REPORT_METRICS, MetricsReport
from .runner import run_scenario
from .scenario import Scenario, ScenarioError

SWEEP_AXES = ("pause_time", "node_count")

METRIC_FIELDS = tuple(m.column for m in REPORT_METRICS if m.averaged)


def report_row(sc: Scenario, report: MetricsReport, axis: str = "", axis_value="") -> dict:
    """One CSV row: every parameter (defaults included) plus every metric."""
    row = {"axis": axis, "axis_value": axis_value, **sc.params_dict()}
    row.update((m.column, getattr(report, m.source)) for m in REPORT_METRICS)
    row.update((f"drop_{cause}", report.drop_breakdown.get(cause, 0)) for cause in DROP_CAUSES)
    row.update((f"ev_{name}", report.protocol_events.get(name, 0)) for name in REPORT_EVENTS)
    return row


def sweep(
    base: Scenario,
    axis: str,
    values: Iterable,
    seeds: Iterable[int],
    progress=None,
) -> list[dict]:
    """Run both protocols at every (value, seed) with paired seeds.

    All scenario variants are validated before any run starts, so a bad
    grid point aborts the sweep without partial output.
    """
    if axis not in SWEEP_AXES:
        raise ScenarioError(f"sweep axis must be one of {SWEEP_AXES}")
    values = list(values)
    seeds = list(seeds)
    if not values:
        raise ScenarioError("sweep values must be non-empty")
    if not seeds:
        raise ScenarioError("sweep seeds must be non-empty")

    grid = []
    for value in values:
        for seed in seeds:
            for protocol in ("aodv", "maodv"):
                sc = base.variant(master_seed=seed, protocol=protocol, **{axis: value})
                sc.validate()
                grid.append((value, seed, protocol, sc))

    rows = []
    for value, seed, protocol, sc in grid:
        result = run_scenario(sc)
        rows.append(report_row(sc, result.report, axis=axis, axis_value=value))
        if progress is not None:
            progress(value, seed, protocol, result.report)
    return rows


def write_rows(path: str, rows: list[dict]) -> None:
    if not rows:
        raise ScenarioError("no rows to write")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def read_rows(paths: list[str]) -> list[dict]:
    """Every data row of the UTF-8 CSV files, in order; none is an error."""
    rows = []
    for path in paths:
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                rows.extend(csv.DictReader(fh))
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
    if not rows:
        raise ScenarioError(f"no data rows in {', '.join(paths)}")
    return rows


def summarize(rows: list[dict]) -> list[dict]:
    """Per-metric mean and stddev grouped by (axis value, protocol)."""
    groups: dict[tuple, list[tuple[int, dict]]] = {}
    for number, row in enumerate(rows, start=1):
        if row.get("protocol") is None:  # no such column, or a row cut short before it
            raise ScenarioError(f"report row {number} has no 'protocol' column")
        key = (row.get("axis", ""), row.get("axis_value", ""), row["protocol"])
        groups.setdefault(key, []).append((number, row))

    out = []
    for (axis, value, protocol), members in sorted(
        groups.items(), key=lambda kv: (kv[0][0], _numeric(kv[0][1]), kv[0][2])
    ):
        for metric in METRIC_FIELDS:
            samples = [_sample(number, row, metric) for number, row in members]
            samples = [s for s in samples if not math.isnan(s)]
            if samples:
                mean = statistics.fmean(samples)
                std = statistics.stdev(samples) if len(samples) > 1 else 0.0
            else:
                mean = math.nan
                std = math.nan
            out.append(
                {
                    "axis": axis,
                    "axis_value": value,
                    "protocol": protocol,
                    "metric": metric,
                    "mean": mean,
                    "stddev": std,
                    "n": len(samples),
                }
            )
    return out


def _sample(number: int, row: dict, metric: str) -> float:
    """The metric's value in a report row; nan where the cell is absent or empty."""
    cell = row.get(metric)
    if cell is None or cell == "":
        return math.nan
    try:
        return float(cell)
    except ValueError:
        raise ScenarioError(
            f"report row {number}: metric '{metric}' is not a number: {cell!r}"
        ) from None


def _numeric(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.inf


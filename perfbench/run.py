"""Host-time benchmark for manetsim.

Usage, from the repository root:

    python3 perfbench/run.py --workload mobile-dense --seed 1 --seconds 20 --trace 0

--trace 0 times untraced passes of the workload and prints the end-to-end
metrics; --trace 1 alternates untraced and span-traced passes and prints
the per-layer metrics. Every simulation run is checked (conservation, pJ
energy closure, and the fingerprint recorded in fingerprints.json where one
exists); the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import time
import traceback

from harness import HELD_OUT_BASE, REF_KERNEL_S, WARMUP_DURATION, WORKLOADS, Bench, CheckoutError, SpeedProbe, import_manetsim
from spans import OUTSIDE, SpanProfiler

LAYERS = ("engine", "mobility", "radio", "energy", "protocol", "traffic", "metrics", "trace", "runner")
PACKET_TYPES = ("hello", "data", "rreq", "rrep", "rerr")
MIN_PASSES = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=1,
        help=f"benchmark seed n: a held-out run checks simulation seed {HELD_OUT_BASE} + n",
    )
    parser.add_argument(
        "--sim-seeds", type=lambda text: [int(s) for s in text.split(",")],
        help="comma-separated simulation seeds for the timed passes "
        "(default: the workload's recorded seeds)",
    )
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def best_runs(passes) -> list:
    """Each run's fastest repeat over the passes, as (spec, wall_s, setup_s,
    events). Scaling to reference speed removes most of a shared host's
    drift, but not all of it in its slowest phases, and those only ever
    slow a deterministic run down."""
    return [
        (same[0].spec, min(r.wall_s for r in same), min(r.setup_s for r in same), same[0].events)
        for same in zip(*(p.runs for p in passes), strict=True)
    ]


def end_to_end(bench: Bench, import_s: float, passes) -> dict:
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    best = best_runs(passes)
    wall_s = sum(w for _, w, _, _ in best)
    return {
        "wall_s": metric(wall_s, "s"),
        "run_s_p50": metric(statistics.median(w for _, w, _, _ in best), "s"),
        "events_per_s": metric(sum(e for _, _, _, e in best) / wall_s, "1/s"),
        "setup_s": metric(import_s + bench.parse_s + sum(s for _, _, s, _ in best), "s"),
        "peak_rss_mb": metric((usage_self + usage_children) / 1024, "MB"),
    }


def per_layer(plain, traced, profs) -> dict:
    median = statistics.median
    last, prof = traced[-1], profs[-1]
    out = {}
    selfs = [pr.self_s for pr in profs]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = metric(median(s[layer] for s in selfs), "s")
    frames = prof.calls["Radio.send"]
    scheduled = prof.calls["Engine.schedule"]
    positions = prof.calls["MobilityModel.position"]
    out.update(
        {
            "engine.events": metric(last.events, "count"),
            "engine.scheduled": metric(scheduled, "count"),
            "engine.cancelled_ratio": metric(prof.calls["Engine.cancel"] / max(scheduled, 1), "ratio"),
            "mobility.position_calls": metric(positions, "count"),
            "mobility.calls_per_frame": metric(positions / max(frames, 1), "ratio"),
            "radio.frames": metric(frames, "count"),
            "radio.receptions": metric(prof.receptions, "count"),
            "radio.receivers_per_frame": metric(prof.receptions / max(frames, 1), "ratio"),
            "energy.debit_calls": metric(prof.calls["EnergyLedger.debit"], "count"),
            "energy.alive_calls": metric(prof.calls["EnergyLedger.alive"], "count"),
        }
    )
    for kind in PACKET_TYPES:
        out[f"protocol.frames_in.{kind}"] = metric(prof.frames_in[kind], "count")
    for protocol in ("aodv", "maodv"):
        entries = [r.state_entries for r in last.runs if r.spec.protocol == protocol]
        out[f"{protocol}.state_entries"] = metric(statistics.fmean(entries) if entries else 0.0, "count")
    hot = ("radio", "energy", "mobility")
    traced_wall = [p.wall_s for p in traced]
    out.update(
        {
            "trace.lines": metric(sum(r.trace_lines for r in last.runs), "count"),
            "runner.setup_s": metric(median(p.setup_s for p in traced), "s"),
            "trace_overhead_ratio": metric(
                median(traced_wall) / median(p.wall_s for p in plain) - 1, "ratio"
            ),
            "radio_energy_mobility.share": metric(
                median(sum(s[x] for x in hot) / w for s, w in zip(selfs, traced_wall)), "ratio"
            ),
            "spans.coverage": metric(
                median(layer_sum(s) / w for s, w in zip(selfs, traced_wall)), "ratio"
            ),
        }
    )
    return out


def layer_sum(self_s: dict) -> float:
    """Self time of every layer, the benchmark's own time excluded."""
    return sum(t for layer, t in self_s.items() if layer != OUTSIDE)


def traced_mismatches(plain, traced) -> int:
    """Runs whose traced fingerprint differs from the untraced one."""
    bad = 0
    for p, t in zip(plain, traced):
        for a, b in zip(p.runs, t.runs, strict=True):
            if a.fingerprint != b.fingerprint:
                print(f"# traced run {b.spec} changed its fingerprint", flush=True)
                bad += 1
    return bad


def main(argv=None) -> int:
    args = parse_args(argv)
    probe = SpeedProbe()
    try:
        ms, import_s = import_manetsim(probe)
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    bench = Bench(ms)
    workload = WORKLOADS[args.workload]
    seeds = args.sim_seeds or list(workload.default_seeds)
    first = workload.specs(seeds)[0]
    warm_up = dataclasses.replace(first, duration=WARMUP_DURATION)
    held_out = dataclasses.replace(first, seed=HELD_OUT_BASE + args.seed)
    print(f"# {workload.name}: seeds {seeds}, held-out {held_out}; {workload.why}", flush=True)

    records, plain, traced, profs = [], [], [], []
    aborted = False
    try:
        records.append(bench.check_run(workload, warm_up))
        t_start = time.perf_counter()
        # At least MIN_PASSES untraced passes; then stop once another pass
        # would likely end more than half a pass past --seconds.
        step = 0.0
        while (
            len(plain) < (1 if args.trace else MIN_PASSES)
            or time.perf_counter() - t_start + step / 2 < args.seconds
        ):
            t_step = time.perf_counter()
            plain.append(bench.run_pass(workload, seeds, probe=None if args.trace else probe))
            if args.trace:
                profs.append(SpanProfiler())
                traced.append(bench.run_pass(workload, seeds, profs[-1]))
            step = time.perf_counter() - t_step
    except Exception:
        traceback.print_exc()
        aborted = True

    # Metrics first, so the held-out run's memory stays out of peak_rss_mb.
    if args.trace and traced:
        metrics = per_layer(plain, traced, profs)
    elif plain and not args.trace:
        metrics = end_to_end(bench, import_s, plain)
    else:
        metrics = {}
    if not aborted:
        try:
            records.append(bench.check_run(workload, held_out))
        except Exception:
            traceback.print_exc()
            aborted = True

    for p in plain + traced:
        records.extend(p.runs)
    failed = sum(1 for r in records if r.failures)
    for r in records:
        for failure in r.failures:
            print(f"# FAIL {r.spec}: {failure}", flush=True)
    failed += traced_mismatches(plain, traced) + aborted
    attempted = len(records) + aborted

    host_s = [sum(r.host_s for r in p.runs) for p in plain] or [0.0]
    print(
        f"# passes={len(plain)} traced_passes={len(traced)} runs={len(records)} "
        f"run_s_p50 samples={len(plain[0].runs) if plain else 0} "
        f"unscaled_wall_s={statistics.median(host_s):.3f} "
        f"kernel_ms={1000 * statistics.median(probe.samples):.3f} (reference {1000 * REF_KERNEL_S:g})",
        flush=True,
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workloads, per-run correctness checks and timed passes for the manetsim
host-time benchmark.

Everything here drives the simulator through its public API; nothing under
src/ is changed. A pass is one execution of a workload's simulation runs.
"""

import functools
import gc
import hashlib
import heapq
import importlib
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import OUTSIDE, SpanProfiler

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FINGERPRINTS = BENCH_DIR / "fingerprints.json"

# After the timed passes, benchmark seed n runs the workload's first
# scenario once more on simulation seed HELD_OUT_BASE + n, far from every
# recorded default: a held-out input no change was tuned on, gated by the
# invariants. The timed passes run the recorded default seeds, so the timed
# work is the same for every benchmark seed.
HELD_OUT_BASE = 1000

# Warm-up is one short run of the workload's first scenario.
WARMUP_DURATION = 10.0

# A shared host's speed can drift by up to 2x for seconds to minutes, which no
# number of repeats averages out. End-to-end times are therefore converted
# to seconds at reference speed: each run's host seconds are multiplied by
# REF_KERNEL_S times the mean of 1 / (the time reference_kernel() took)
# over samples just before, just after and every SAMPLE_EVERY_S during the
# run. REF_KERNEL_S is the kernel's time on a quiet 2-core host with
# Python 3.11.
REF_KERNEL_S = 0.002
SAMPLE_EVERY_S = 0.1


def reference_kernel(rounds: int = 600) -> int:
    """Fixed interpreter work shaped like the simulator's inner loops:
    slotted-object method calls, float distance tests, a heap, a dict.
    It never touches manetsim, so a program change cannot move it."""
    points = [_Point(i * 0.37 % 100, i * 0.91 % 100) for i in range(64)]
    heap: list = []
    seen = {}
    for i in range(rounds):
        p = points[i % 64]
        near = 0
        for q in points[:16]:
            if p.d2(q) < 900.0:
                near += 1
        heapq.heappush(heap, (i * 7 % 101, i, near))
        if len(heap) > 32:
            heapq.heappop(heap)
        seen[i % 97] = near
    return len(seen)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y

    def d2(self, other: "_Point") -> float:
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy


class SpeedProbe:
    """Times reference_kernel() to convert host seconds into seconds at
    reference speed (see REF_KERNEL_S)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0  # host seconds spent in the kernel
        self._last = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)
        self.spent_s += self._last - t0

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, first: int) -> float:
        """Scale for the interval whose samples start at index `first`.

        Samples are spread evenly in host time, so the interval's mean
        speed is the mean of 1 / kernel time over them.
        """
        return REF_KERNEL_S * statistics.fmean(1 / k for k in self.samples[first:])


class CheckoutError(Exception):
    """The directory the benchmark runs in holds no manetsim sources."""


def import_manetsim(probe: SpeedProbe, repeats: int = 5):
    """Import manetsim from this checkout's src/ `repeats` times, each into
    a fresh module table; returns (the last import, median seconds at
    reference speed per import)."""
    src = ROOT / "src"
    if not (src / "manetsim" / "__init__.py").is_file():
        raise CheckoutError(f"no manetsim sources under {src}")
    if not (ROOT / "scenarios" / "baseline.scn").is_file():
        raise CheckoutError(f"no scenarios/baseline.scn under {ROOT}")
    sys.path.insert(0, str(src))
    times = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m == "manetsim" or m.startswith("manetsim.")]:
            del sys.modules[name]
        probe.sample()
        first = len(probe.samples) - 1
        t0 = time.perf_counter()
        manetsim = importlib.import_module("manetsim")
        elapsed = time.perf_counter() - t0
        probe.sample()
        times.append(elapsed * probe.factor(first))
    if Path(manetsim.__file__).resolve().parent != (src / "manetsim").resolve():
        raise CheckoutError(f"imported manetsim from {manetsim.__file__}, not {src}")
    return manetsim, statistics.median(times)


@dataclass(frozen=True)
class RunSpec:
    """One simulation run of a workload."""

    protocol: str
    seed: int
    node_count: int
    duration: float = 120.0
    pause_time: float = 0.0
    with_trace: bool = False

    @property
    def key(self) -> str:
        return f"{self.protocol}/p{self.pause_time:g}/d{self.duration:g}/s{self.seed}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seeds: tuple[int, ...]
    node_count: int
    protocols: tuple[str, ...] = ("aodv", "maodv")
    duration: float = 120.0
    with_trace: bool = False
    sweep_pauses: tuple[float, ...] = ()  # non-empty: the pass is one sweep()

    def specs(self, seeds: list[int]) -> list[RunSpec]:
        """Runs in execution order (sweep grid order for a sweep)."""
        pauses = self.sweep_pauses or (0.0,)
        return [
            RunSpec(proto, seed, self.node_count, self.duration, pause, self.with_trace)
            for pause in pauses
            for seed in seeds
            for proto in self.protocols
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mobile-dense",
            "n=100, pause 0: every frame scans 100 nodes and rebuilds 100 positions, "
            "so radio, energy and mobility dominate",
            default_seeds=(1, 2),
            node_count=100,
        ),
        Workload(
            "baseline-traced",
            "frozen n=20 baseline with trace on and sha256 taken: the determinism "
            "contract, where trace, metrics and dispatch take a larger share",
            default_seeds=(1, 2, 3, 4, 5),
            node_count=20,
            with_trace=True,
        ),
        Workload(
            "paired-sweep",
            "sweep() at n=50 over pause 0 and 120: the acceptance-sweep shape, "
            "pays setup at every grid point, mixes mobile and static networks",
            default_seeds=(1, 2, 3),
            node_count=50,
            sweep_pauses=(0.0, 120.0),
        ),
        Workload(
            "long-horizon",
            "maodv n=50 for 480 s: the only workload where per-node flood state "
            "grows enough to show",
            default_seeds=(1,),
            node_count=50,
            protocols=("maodv",),
            duration=480.0,
        ),
    )
}


# -- correctness --------------------------------------------------------------


def fingerprint(report, net, trace_sha: str | None = None, row_sha: str | None = None) -> dict:
    """Simulated outcome of one run; any change in it fails the run."""
    fp = {
        "sent": report.sent,
        "delivered": report.delivered,
        "in_flight": report.in_flight,
        "drops": dict(report.drop_breakdown),
        "control_transmissions": report.control_transmissions,
        "data_transmissions": report.data_transmissions,
        "network_consumed_pj": net.energy.network_consumed_pj(),
        "routing_consumed_pj": net.energy.routing_consumed_pj(),
        "energy_closed": net.energy.closed(),
    }
    if trace_sha is not None:
        fp["trace_sha256"] = trace_sha
    if row_sha is not None:
        fp["row_sha256"] = row_sha
    return fp


def invariant_failures(report, net) -> list[str]:
    """Conservation and energy closure, checked on every run."""
    failures = []
    open_records = sum(1 for r in report.records if not r.terminal)
    if report.in_flight != open_records or report.in_flight < 0:
        failures.append(f"in_flight {report.in_flight} != open records {open_records}")
    if report.sent != report.delivered + report.dropped + report.in_flight:
        failures.append("conservation: sent != delivered + dropped + in_flight")
    if not net.energy.closed():
        failures.append("energy ledger does not close")
    if net.energy.routing_consumed_pj() > net.energy.network_consumed_pj():
        failures.append("routing energy exceeds network energy")
    return failures


def row_digest(row: dict) -> str:
    return hashlib.sha256(json.dumps(row, sort_keys=True, default=repr).encode()).hexdigest()


def load_fingerprints() -> dict:
    return json.loads(FINGERPRINTS.read_text())


def state_entries(router) -> int:
    """Entries in every dict and set a router holds."""
    return sum(len(v) for v in vars(router).values() if isinstance(v, (dict, set)))


# -- timed passes ---------------------------------------------------------------


@dataclass
class RunRecord:
    spec: RunSpec
    wall_s: float  # at reference speed in a probed pass, else host seconds
    setup_s: float
    host_s: float  # unscaled host seconds
    events: int
    fingerprint: dict
    failures: list[str]
    state_entries: int = 0
    trace_lines: int = 0


@dataclass
class PassResult:
    runs: list[RunRecord] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.runs)

    @property
    def events(self) -> int:
        return sum(r.events for r in self.runs)

    @property
    def setup_s(self) -> float:
        return sum(r.setup_s for r in self.runs)


class RunTimer:
    """Times one run at a time. With a probe, the reference kernel runs
    before and after each run and, through the once-per-simulated-second
    energy sample, during it; its own time is taken off the run's."""

    def __init__(self, probe: SpeedProbe | None):
        self.probe = probe
        self._first = 0
        self._spent = 0.0
        self._t0 = 0.0

    def start(self) -> None:
        if self.probe is not None:
            self.probe.sample()
            self._first = len(self.probe.samples) - 1
            self._spent = self.probe.spent_s
        self._t0 = time.perf_counter()

    def stop(self, loop_start: float) -> tuple[float, float, float]:
        """(wall, set-up, host wall) of the run that just ended; wall and
        set-up are in seconds at reference speed when probed."""
        wall = time.perf_counter() - self._t0
        setup = loop_start - self._t0
        if self.probe is None:
            return wall, setup, wall
        wall -= self.probe.spent_s - self._spent
        self.probe.sample()
        factor = self.probe.factor(self._first)
        return wall * factor, setup * factor, wall


class Bench:
    """Runs workload passes and checks every run against its fingerprint.

    Two O(1)-per-run hooks stay installed for the process lifetime: one
    keeps each run's Network (for pJ energy, event counts and router state)
    and one stamps the first Engine.run_until, which ends a run's set-up.
    """

    def __init__(self, ms, recorded: dict | None = None):
        self.ms = ms
        text = (ROOT / "scenarios" / "baseline.scn").read_text()
        t0 = time.perf_counter()
        self.base = ms.parse_scenario(text, "baseline")
        self.parse_s = time.perf_counter() - t0
        self.recorded = load_fingerprints() if recorded is None else recorded
        self._nets: list = []
        self._loop_starts: list[float] = []

        runner, engine_cls = ms.runner, ms.Engine
        build = runner.build_network
        run_until = engine_cls.run_until

        def keep_network(*args, **kwargs):
            net = build(*args, **kwargs)
            self._nets.append(net)
            return net

        def stamp_run_until(engine, t_end):
            self._loop_starts.append(time.perf_counter())
            return run_until(engine, t_end)

        runner.build_network = keep_network
        engine_cls.run_until = stamp_run_until

    def scenario(self, spec: RunSpec):
        return self.base.variant(
            node_count=spec.node_count,
            duration=spec.duration,
            master_seed=spec.seed,
            protocol=spec.protocol,
            pause_time=spec.pause_time,
        )

    def _record(self, spec, timer: RunTimer, report, trace_sha=None) -> RunRecord:
        wall_s, setup_s, host_s = timer.stop(self._loop_starts.pop())
        net = self._nets.pop()
        return RunRecord(
            spec=spec,
            wall_s=wall_s,
            setup_s=setup_s,
            host_s=host_s,
            events=net.engine.processed,
            fingerprint=fingerprint(report, net, trace_sha),
            failures=invariant_failures(report, net),
            state_entries=sum(state_entries(r) for r in net.routers),
            trace_lines=len(net.trace.lines),
        )

    def _check(self, workload: str, rec: RunRecord) -> RunRecord:
        """Fail the run if its fingerprint differs from the recorded one."""
        expected = self.recorded.get(workload, {}).get(rec.spec.key)
        fp = rec.fingerprint
        if expected is not None and expected != fp:
            diff = sorted(k for k in set(expected) | set(fp) if expected.get(k) != fp.get(k))
            rec.failures.append(f"fingerprint mismatch in {diff}")
        return rec

    def run_pass(self, workload: Workload, seeds: list[int], prof: SpanProfiler | None = None,
                 probe: SpeedProbe | None = None) -> PassResult:
        """One pass: under layer spans with `prof`, at reference speed with
        `probe`."""
        specs = workload.specs(seeds)
        timer = RunTimer(probe)
        gc.collect()
        ledger = self.ms.metrics.PacketLedger
        sample_energy = ledger.sample_energy
        if probe is not None:
            def probed_sample_energy(*args):
                probe.maybe_sample()
                return sample_energy(*args)

            ledger.sample_energy = probed_sample_energy
        if prof is not None:
            prof.install()
        try:
            if workload.sweep_pauses:
                return self._sweep_pass(workload, specs, seeds, prof, timer)
            return self._runs_pass(workload, specs, prof, timer)
        finally:
            if prof is not None:
                prof.uninstall()
            ledger.sample_energy = sample_energy

    def _run(self, spec: RunSpec, prof):
        sc = self.scenario(spec)
        if prof is None:
            return self.ms.run_scenario(sc, with_trace=spec.with_trace)
        return prof.call("runner", self.ms.run_scenario, sc, with_trace=spec.with_trace)

    def _runs_pass(self, workload: Workload, specs: list[RunSpec], prof, timer) -> PassResult:
        out = PassResult()
        for spec in specs:
            timer.start()
            result = self._run(spec, prof)
            trace_sha = result.trace_digest() if spec.with_trace else None
            rec = self._record(spec, timer, result.report, trace_sha)
            out.runs.append(self._check(workload.name, rec))
        return out

    def _sweep_pass(self, workload: Workload, specs: list[RunSpec], seeds, prof, timer) -> PassResult:
        records = []
        record = self._record if prof is None else functools.partial(prof.call, OUTSIDE, self._record)

        def progress(value, seed, protocol, report):
            # A run ends here and the next one starts when this returns.
            spec = specs[len(records)]
            if (value, seed, protocol) != (spec.pause_time, spec.seed, spec.protocol):
                raise RuntimeError(f"sweep ran {(value, seed, protocol)}, expected {spec}")
            records.append(record(spec, timer, report))
            timer.start()

        base = self.base.variant(node_count=workload.node_count, duration=workload.duration)
        args = (base, "pause_time", workload.sweep_pauses, seeds, progress)
        timer.start()
        rows = self.ms.sweep(*args) if prof is None else prof.call("runner", self.ms.sweep, *args)
        out = PassResult()
        for rec, row in zip(records, rows, strict=True):
            rec.fingerprint["row_sha256"] = row_digest(row)
            out.runs.append(self._check(workload.name, rec))
        return out

    def check_run(self, workload: Workload, spec: RunSpec) -> RunRecord:
        """One untimed run of `spec`, checked like a timed one."""
        timer = RunTimer(None)
        timer.start()
        return self._check(workload.name, self._record(spec, timer, self._run(spec, None).report))

"""Layer spans for the traced benchmark run.

The spans are opened from the benchmark's own files: every entry point of a
layer is wrapped at class (or module) level while a traced pass runs and
restored afterwards, so untraced passes execute the program untouched.

Self time is kept as a partition of the clock: at every span boundary the
time since the previous boundary is charged to the layer that was running,
so the layers' self times sum to the time spent in spans. They include the
wrappers' own cost, which falls on the layers with the most calls into or
out of them; trace_overhead_ratio reports its total.
"""

import importlib
import time
from collections import Counter, defaultdict

# Module of a scheduled callback -> layer that owns the work it does.
MODULE_LAYER = {
    "manetsim.engine": "engine",
    "manetsim.mobility": "mobility",
    "manetsim.radio": "radio",
    "manetsim.energy": "energy",
    "manetsim.proto_common": "protocol",
    "manetsim.aodv": "protocol",
    "manetsim.maodv": "protocol",
    "manetsim.traffic": "traffic",
    "manetsim.metrics": "metrics",
    "manetsim.trace": "trace",
    "manetsim.runner": "runner",
    "manetsim.sweep": "runner",
}

# Time outside every span: the benchmark's own bookkeeping.
OUTSIDE = "bench"

# Name under which executed scheduled callbacks are counted.
EVENT = "event"


class SpanProfiler:
    """Span stack with per-layer self time and per-entry-point call counts."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()  # entry point -> calls
        self.receptions = 0
        self.frames_in: Counter = Counter()
        self._stack: list[str] = [OUTSIDE]  # top: the layer running now
        self._last = time.perf_counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def span(self, layer: str, fn, name: str | None = None, observe=None):
        """fn wrapped so each call runs in a span of `layer`, counted under
        `name` when one is given. observe(result, args) sees every call's
        result, for counts the call count alone does not give."""
        clock, self_s, stack, calls = time.perf_counter, self.self_s, self._stack, self.calls

        def spanned(*args, **kwargs):
            now = clock()
            self_s[stack[-1]] += now - self._last
            stack.append(layer)
            self._last = now
            try:
                result = fn(*args, **kwargs)
            finally:
                now = clock()
                self_s[stack.pop()] += now - self._last
                self._last = now
            if name is not None:
                calls[name] += 1
            if observe is not None:
                observe(result, args)
            return result

        return spanned

    def probe(self, fn, name: str):
        """fn wrapped to count its calls without a span, for entry points
        whose body is cheaper than a span; its time falls to the caller."""
        calls = self.calls

        def probed(*args):
            calls[name] += 1
            return fn(*args)

        return probed

    def call(self, layer: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of `layer`."""
        return self.span(layer, fn)(*args, **kwargs)

    # -- installation -------------------------------------------------------------

    def patch(self, owner, attr: str, layer: str | None, observe=None) -> None:
        """Replace owner.attr (a method, classmethod or module function) by
        a span of `layer`, or by a probe when `layer` is None."""
        raw = owner.__dict__[attr]
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        new = self.probe(fn, name) if layer is None else self.span(layer, fn, name, observe)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, classmethod(new) if isinstance(raw, classmethod) else new)

    def install(self) -> None:
        """Wrap every layer entry point of the imported manetsim package."""
        from manetsim import aodv, energy, engine, maodv, metrics, mobility
        from manetsim import proto_common, radio, runner, trace, traffic

        # the package attribute manetsim.sweep is the function, not the module
        sweep = importlib.import_module("manetsim.sweep")

        self.patch(engine.Engine, "schedule", "engine")
        self.patch(engine.Engine, "cancel", "engine")
        self.patch(engine.Engine, "run_until", "engine")
        # A scheduled callback runs in the layer whose module defined it, so
        # the event loop's self time is only the loop itself.
        spanned_schedule = engine.Engine.schedule

        def schedule(eng, when, kind, fn):
            layer = MODULE_LAYER.get(getattr(fn, "__module__", ""), "engine")
            return spanned_schedule(eng, when, kind, self.span(layer, fn, EVENT))

        engine.Engine.schedule = schedule
        self._restore.append((engine.Engine, "schedule", spanned_schedule))

        self.patch(mobility.MobilityModel, "position", "mobility")
        self.patch(mobility.MobilityModel, "generate", "mobility")

        def count_receptions(result, _args):
            self.receptions += result

        self.patch(radio.Radio, "send", "radio", count_receptions)

        self.patch(energy.EnergyLedger, "alive", None)
        for attr in ("debit", "network_consumed", "routing_consumed"):
            self.patch(energy.EnergyLedger, attr, "energy")

        def count_frame(_result, args):
            self.frames_in[type(args[1]).__name__.lower()] += 1

        self.patch(proto_common.RouterBase, "on_frame", "protocol", count_frame)
        self.patch(proto_common.RouterBase, "start_maintenance", "protocol")
        self.patch(aodv.AodvRouter, "send_data", "protocol")
        self.patch(maodv.MaodvRouter, "send_data", "protocol")
        self.patch(traffic.TrafficSource, "start", "traffic")
        for attr in (
            "on_sent", "on_delivered", "on_dropped", "on_control_tx",
            "on_data_tx", "on_event", "sample_energy", "finalize",
        ):
            self.patch(metrics.PacketLedger, attr, "metrics")
        for attr in ("__init__", "emit", "text", "digest", "count"):
            self.patch(trace.Trace, attr, "trace")
        self.patch(runner, "build_network", "runner")
        self.patch(sweep, "report_row", "runner")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

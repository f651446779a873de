"""Scenario configuration: flat key=value text files, validation, defaults.

Every key is declared once, in FIELDS, next to its report CSV column, the
part of the Scenario that holds it and the converter that gives its type and
range. Parsing, `scenario_text`,
`Scenario.params_dict`, `Scenario.variant` and the per-field input checks all
read that table.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable

from .energy import PJ, EnergyParams
from .mobility import MobilityParams
from .proto_common import ProtocolParams
from .radio import RadioParams
from .traffic import FlowSpec

PROTOCOLS = ("aodv", "maodv")

# A run may build at most about this many waypoint legs, CBR sends and hello
# ticks together; one that needs more would spend hours generating them.
WORK_BUDGET = 10**8


class ScenarioError(ValueError):
    """Configuration rejected; the message names the offending field."""


@dataclass
class Scenario:
    name: str = "scenario"
    node_count: int = 20
    radio: RadioParams = field(default_factory=RadioParams)
    mobility: MobilityParams = field(default_factory=MobilityParams)
    energy: EnergyParams = field(default_factory=EnergyParams)
    protocol: str = "aodv"
    proto: ProtocolParams = field(default_factory=ProtocolParams)
    flows: list[FlowSpec] = field(default_factory=list)  # explicit; else generated
    flow_count: int = 5
    payload: int = 512
    interval: float = 0.25
    traffic_start: float = 1.0
    duration: float = 120.0
    master_seed: int = 1

    def validate(self) -> None:
        """Each key's own range is its FIELDS converter, run here for values
        set through the API; the rules below tie keys together."""
        for f in FIELDS:
            f.convert(f.get(self))
        if self.mobility.v_min > self.mobility.v_max:
            raise ScenarioError("v_min must be <= v_max")
        if self.energy.p_tx <= self.energy.p_rx:
            raise ScenarioError("p_tx must be > p_rx")
        if self.proto.s0 >= self.proto.n0:
            raise ScenarioError("s0 must be < n0")
        # a run converts these derived figures to integers, so they must be finite
        if not math.isfinite(math.hypot(*self.mobility.area) / self.radio.range):
            raise ScenarioError("range is too short for the area: its diagonal spans too many hops")
        sizes = [("control_bytes", self.proto.control_bytes)]
        sizes += [("flow", f.payload) for f in self.flows] or [("payload", self.payload)]
        for key, size in sizes:
            try:
                frame_pj = self.energy.p_tx * (size * 8 / self.radio.bandwidth) * PJ
            except OverflowError:  # size is an int too large for a float
                frame_pj = math.inf
            if not math.isfinite(frame_pj):
                raise ScenarioError(
                    f"{key} at this bandwidth and p_tx costs more energy per frame "
                    f"than a float holds"
                )
        if self.flows:
            for flow in self.flows:
                try:
                    flow.validate(self.node_count)
                except ValueError as exc:
                    raise ScenarioError(str(exc)) from exc
        else:
            if self.flow_count < 1:
                raise ScenarioError("flow_count must be >= 1")
            if self.flow_count > self.node_count * (self.node_count - 1):
                raise ScenarioError("flow_count exceeds available node pairs")
            if self.payload <= 0:
                raise ScenarioError("payload must be > 0")
            if self.interval <= 0:
                raise ScenarioError("interval must be > 0")
            if not (0 <= self.traffic_start < self.duration):
                raise ScenarioError("traffic_start must lie within [0, duration)")
        # a retry timer re-armed at now + period must still move the clock
        for key in ("discovery_timeout", "rrep_wait"):
            period = getattr(self.proto, key)
            if period > 0 and self.duration + period == self.duration:
                raise ScenarioError(
                    f"{key} = {period!r} s is too short to advance the clock "
                    f"at duration = {self.duration!r}"
                )
        # Estimated work, with the key that sets it. A uniform waypoint leg
        # averages about a third of the area's diagonal; at top speed, with
        # its pause, that is the shortest a typical leg lasts.
        mob = self.mobility
        leg_s = math.hypot(*mob.area) / 3 / mob.v_max + mob.pause_time
        hello_s = self.proto.hello_interval
        work = [
            (self.node_count * _count(self.duration, leg_s), "v_max", "waypoint legs"),
            (self.node_count * _count(self.duration, hello_s), "hello_interval", "hello ticks"),
        ]
        if self.flows:
            windows = [(min(f.stop, self.duration) - f.start, f.interval) for f in self.flows]
            sends = sum(_count(*window) for window in windows)
            work.append((sends, "flow interval", "CBR sends"))
        else:
            sends = _count(self.duration - self.traffic_start, self.interval)
            work.append((self.flow_count * sends, "interval", "CBR sends"))
        if sum(count for count, _, _ in work) > WORK_BUDGET:
            count, key, what = max(work)
            raise ScenarioError(
                f"{key} gives about {count:.2g} {what} in {self.duration!r} s; a run may "
                f"build at most {WORK_BUDGET:.0e} legs, sends and hello ticks in all"
            )

    def variant(self, **overrides) -> "Scenario":
        """Copy with some scenario file keys replaced; nested params are copied.

        Each key is set through FIELDS, converted to its type and checked
        against its range; a name that is not a file key is refused.
        """
        sc = replace(
            self,
            radio=replace(self.radio),
            mobility=replace(self.mobility),
            energy=replace(self.energy),
            proto=replace(self.proto),
            flows=list(self.flows),
        )
        for key, value in overrides.items():
            if key not in FIELD_BY_KEY:
                raise ScenarioError(f"unknown scenario field: {key}")
            FIELD_BY_KEY[key].set(sc, value)
        return sc

    def params_dict(self) -> dict:
        """Every parameter, defaults included, for report headers."""
        row = {}
        for f in FIELDS:
            value = f.get(self)
            if f.key == "area":
                cells = value
            elif f.key == "flow_count":
                cells = (len(self.flows) if self.flows else value, int(bool(self.flows)))
            else:
                cells = (int(value) if f.type is _flag else value,)
            row.update(zip(f.column.split(), cells))
        return row


def _count(span: float, period: float) -> float:
    """About how many periods fit in span seconds; inf for a period of 0."""
    return max(span, 0.0) / period if period > 0 else math.inf


def _real(value) -> float:
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"must be a finite number, got {value!r}")
    return number


def _int(value) -> int:
    """A whole number a float can hold; a float is taken only when integral,
    never truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"must be a whole number, got {value!r}")
    number = int(value)
    try:
        float(number)
    except OverflowError:
        raise ValueError("must be a whole number a float can hold") from None
    return number


def _ranged(convert: Callable, low, inclusive: bool, note: str = "") -> Callable:
    """`convert`, then refuse a value below `low`, or at it unless `inclusive`."""
    bound = f"must be {'>=' if inclusive else '>'} {low}{note}"

    def check(value):
        number = convert(value)
        if number < low or (number == low and not inclusive):
            raise ValueError(f"{bound}, got {value!r}")
        return number

    return check


_positive = _ranged(_real, 0, inclusive=False)
_non_negative = _ranged(_real, 0, inclusive=True)
_wait = _ranged(_real, 0, True, " (0 = derived from the network)")
_positive_int = _ranged(_int, 0, inclusive=False)
_non_negative_int = _ranged(_int, 0, inclusive=True)
_cap = _ranged(_int, 0, True, " (0 = unbounded)")
_nodes = _ranged(_int, 2, inclusive=True)


def _probability(value) -> float:
    number = _real(value)
    if not 0.0 <= number <= 1.0:
        raise ValueError(f"must be in [0, 1], got {value!r}")
    return number


def _charge(value) -> float:
    """A battery in joules. A node is alive while it holds charge, so it must
    start with at least 1 pJ once rounded to the ledger's whole picojoules."""
    joules = _real(value)
    if not math.isfinite(joules * PJ):
        raise ValueError(f"{joules!r} J overflows in picojoules")
    if round(joules * PJ) < 1:
        raise ValueError(f"must be at least 1 pJ once rounded, got {joules!r} J")
    return joules


def _protocol(value) -> str:
    if value not in PROTOCOLS:
        raise ValueError(f"must be one of {PROTOCOLS}")
    return value


def _flag(value) -> bool:
    """Written 0/1 in files and report rows; any other number is refused."""
    number = _int(value)
    if number not in (0, 1):
        raise ValueError(f"must be 0 or 1, got {value!r}")
    return bool(number)


def _area(value) -> tuple[float, float]:
    parts = value.split() if isinstance(value, str) else value
    if len(parts) != 2:
        raise ValueError("expected 'width height'")
    return (_positive(parts[0]), _positive(parts[1]))


@dataclass(frozen=True)
class Field:
    key: str  # scenario file key, also a `Scenario.variant` name
    column: str  # report CSV column; space-separated where the key fills several
    part: str  # "" for the Scenario itself, else the attribute of its params object
    attr: str
    type: Callable  # file text or Python value -> stored value; ValueError if out of range

    def get(self, sc: Scenario):
        return getattr(getattr(sc, self.part) if self.part else sc, self.attr)

    def convert(self, value):
        try:
            return self.type(value)
        except ValueError as exc:
            raise ScenarioError(f"field {self.key!r}: {exc}") from exc

    def set(self, sc: Scenario, value) -> None:
        setattr(getattr(sc, self.part) if self.part else sc, self.attr, self.convert(value))


# In report CSV column order; `scenario_text` writes the keys in this order too.
FIELDS = tuple(Field(*entry) for entry in (
    # file key              CSV column            part        attribute              type
    ("name",               "name",               "",         "name",                str),
    ("protocol",           "protocol",           "",         "protocol",            _protocol),
    ("master_seed",        "seed",               "",         "master_seed",         _int),
    ("node_count",         "node_count",         "",         "node_count",          _nodes),
    ("area",               "area_w area_h",      "mobility", "area",                _area),
    ("range",              "range_m",            "radio",    "range",               _positive),
    ("bandwidth",          "bandwidth_bps",      "radio",    "bandwidth",           _positive),
    ("propagation_delay",  "propagation_delay",  "radio",    "propagation_delay",   _non_negative),
    ("loss_prob",          "loss_prob",          "radio",    "per_frame_loss_prob", _probability),
    ("v_max",              "v_max",              "mobility", "v_max",               _positive),
    ("v_min",              "v_min",              "mobility", "v_min",               _positive),
    ("pause_time",         "pause_time",         "mobility", "pause_time",          _non_negative),
    ("p_tx",               "p_tx_w",             "energy",   "p_tx",                _positive),
    ("p_rx",               "p_rx_w",             "energy",   "p_rx",                _positive),
    ("initial_energy",     "initial_energy_j",   "energy",   "initial",             _charge),
    ("rreq_retries",       "rreq_retries",       "proto",    "rreq_retries",        _positive_int),
    ("hello_interval",     "hello_interval",     "proto",    "hello_interval",      _positive),
    ("allowed_hello_loss", "allowed_hello_loss", "proto",    "allowed_hello_loss",  _positive_int),
    ("route_lifetime",     "route_lifetime",     "proto",    "route_lifetime",      _positive),
    ("rreq_id_cache_ttl",  "rreq_id_cache_ttl",  "proto",    "rreq_id_cache_ttl",   _positive),
    ("queue_capacity",     "queue_capacity",     "proto",    "queue_capacity",      _positive_int),
    ("control_bytes",      "control_bytes",      "proto",    "control_bytes",       _positive_int),
    ("discovery_timeout",  "discovery_timeout",  "proto",    "discovery_timeout",   _wait),
    ("n0",                 "n0",                 "proto",    "n0",                  _positive_int),
    ("s0",                 "s0",                 "proto",    "s0",                  _positive_int),
    ("mpath_slack",        "mpath_slack",        "proto",    "mpath_slack",         _non_negative_int),
    ("mpath_max_copies",   "mpath_max_copies",   "proto",    "mpath_max_copies",    _cap),
    ("mpath_max_paths",    "mpath_max_paths",    "proto",    "mpath_max_paths",     _cap),
    ("rrep_wait",          "rrep_wait",          "proto",    "rrep_wait",           _wait),
    ("degree_tiebreak",    "degree_tiebreak",    "proto",    "degree_tiebreak",     _flag),
    # ranged in Scenario.validate, since their rules bind only generated traffic;
    # flow_count is ignored, and reported as the number of `flow` lines, when
    # flows are explicit
    ("flow_count",         "flow_count explicit_flows", "", "flow_count", _int),
    ("payload",            "payload",            "",         "payload",             _int),
    ("interval",           "interval",           "",         "interval",            _real),
    ("traffic_start",      "traffic_start",      "",         "traffic_start",       _real),
    ("duration",           "duration",           "",         "duration",            _positive),
))
FIELD_BY_KEY = {f.key: f for f in FIELDS}


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse the flat `key = value` format; diagnostics name the field."""
    sc = Scenario(name=name)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "flow":
                sc.flows.append(_parse_flow(value, len(sc.flows)))
            elif key in FIELD_BY_KEY:
                FIELD_BY_KEY[key].set(sc, value)
            else:
                raise ScenarioError(f"unknown scenario field: {key}")
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from exc
    return sc


def _parse_flow(value: str, flow_id: int) -> FlowSpec:
    parts = value.split()
    try:
        if len(parts) != 6:
            raise ValueError("expected 'src dest payload interval start stop'")
        src, dest, payload = map(int, parts[:3])
        interval, start, stop = map(float, parts[3:])
    except ValueError as exc:
        raise ScenarioError(f"field 'flow': {exc}") from exc
    return FlowSpec(src, dest, payload, interval, start, stop, flow_id=flow_id)


def _text(value) -> str:
    """`:g` where it reads back to the same float, else the exact repr."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        short = f"{value:g}"
        return short if float(short) == value else repr(value)
    if isinstance(value, tuple):
        return " ".join(map(_text, value))
    return str(value)


def scenario_text(sc: Scenario) -> str:
    """Serialize back to the flat file format (defaults written explicitly)."""
    lines = [f"{f.key} = {_text(f.get(sc))}" for f in FIELDS]
    lines += [
        "flow = " + _text((fl.src, fl.dest, fl.payload, fl.interval, fl.start, fl.stop))
        for fl in sc.flows
    ]
    return "\n".join(lines) + "\n"

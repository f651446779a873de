"""Scenario configuration: flat key=value text files, validation, defaults.

Every key is declared once, in FIELDS, next to its report CSV column, the
part of the Scenario that holds it and its type. Parsing, `scenario_text`,
`Scenario.params_dict`, `Scenario.variant` and the per-field input checks all
read that table.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable

from .energy import EnergyParams
from .mobility import MobilityParams
from .proto_common import ProtocolParams
from .radio import RadioParams
from .traffic import FlowSpec

PROTOCOLS = ("aodv", "maodv")


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
        # the per-field checks a file line gets, for values set through the API
        for f in FIELDS:
            f.convert(f.get(self))
        if self.node_count < 2:
            raise ScenarioError("node_count must be >= 2")
        if self.duration <= 0:
            raise ScenarioError("duration must be > 0")
        try:
            self.radio.validate()
            self.mobility.validate()
            self.energy.validate()
            self.proto.validate()
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
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

    def variant(self, **overrides) -> "Scenario":
        """Copy with some fields replaced; nested params are copied.

        A scenario file key is set through FIELDS, converted to its type.
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
            if key in FIELD_BY_KEY:
                FIELD_BY_KEY[key].set(sc, value)
            elif hasattr(sc, key):
                setattr(sc, key, value)
            else:
                raise ScenarioError(f"unknown scenario field: {key}")
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


def _real(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"must be a finite number, got {value!r}")
    return number


def _int(value) -> int:
    """A whole number; a float is taken only when integral, never truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"must be a whole number, got {value!r}")
    return int(value)


def _cap(value) -> int:
    """A count limit where 0 means unbounded."""
    number = _int(value)
    if number < 0:
        raise ValueError("must be >= 0 (0 = unbounded)")
    return number


def _wait(value) -> float:
    """A time where 0 means derived from the network."""
    number = _real(value)
    if number < 0:
        raise ValueError("must be >= 0 (0 = derived from the network)")
    return number


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
    return (_real(parts[0]), _real(parts[1]))


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
    ("node_count",         "node_count",         "",         "node_count",          _int),
    ("area",               "area_w area_h",      "mobility", "area",                _area),
    ("range",              "range_m",            "radio",    "range",               _real),
    ("bandwidth",          "bandwidth_bps",      "radio",    "bandwidth",           _real),
    ("propagation_delay",  "propagation_delay",  "radio",    "propagation_delay",   _real),
    ("loss_prob",          "loss_prob",          "radio",    "per_frame_loss_prob", _real),
    ("v_max",              "v_max",              "mobility", "v_max",               _real),
    ("v_min",              "v_min",              "mobility", "v_min",               _real),
    ("pause_time",         "pause_time",         "mobility", "pause_time",          _real),
    ("p_tx",               "p_tx_w",             "energy",   "p_tx",                _real),
    ("p_rx",               "p_rx_w",             "energy",   "p_rx",                _real),
    ("initial_energy",     "initial_energy_j",   "energy",   "initial",             _real),
    ("rreq_retries",       "rreq_retries",       "proto",    "rreq_retries",        _int),
    ("hello_interval",     "hello_interval",     "proto",    "hello_interval",      _real),
    ("allowed_hello_loss", "allowed_hello_loss", "proto",    "allowed_hello_loss",  _int),
    ("route_lifetime",     "route_lifetime",     "proto",    "route_lifetime",      _real),
    ("rreq_id_cache_ttl",  "rreq_id_cache_ttl",  "proto",    "rreq_id_cache_ttl",   _real),
    ("queue_capacity",     "queue_capacity",     "proto",    "queue_capacity",      _int),
    ("control_bytes",      "control_bytes",      "proto",    "control_bytes",       _int),
    ("discovery_timeout",  "discovery_timeout",  "proto",    "discovery_timeout",   _wait),
    ("n0",                 "n0",                 "proto",    "n0",                  _int),
    ("s0",                 "s0",                 "proto",    "s0",                  _int),
    ("mpath_slack",        "mpath_slack",        "proto",    "mpath_slack",         _int),
    ("mpath_max_copies",   "mpath_max_copies",   "proto",    "mpath_max_copies",    _cap),
    ("mpath_max_paths",    "mpath_max_paths",    "proto",    "mpath_max_paths",     _cap),
    ("rrep_wait",          "rrep_wait",          "proto",    "rrep_wait",           _wait),
    ("degree_tiebreak",    "degree_tiebreak",    "proto",    "degree_tiebreak",     _flag),
    # ignored, and reported as the number of `flow` lines, when flows are explicit
    ("flow_count",         "flow_count explicit_flows", "", "flow_count", _int),
    ("payload",            "payload",            "",         "payload",             _int),
    ("interval",           "interval",           "",         "interval",            _real),
    ("traffic_start",      "traffic_start",      "",         "traffic_start",       _real),
    ("duration",           "duration",           "",         "duration",            _real),
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

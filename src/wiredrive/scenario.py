"""Scenario files: schema, unit checking, validation, resolved dumps.

A scenario is one YAML document describing the body, the wire routing,
controller settings and the experiment timeline.  Every dimensional
quantity is written as a ``{value, unit}`` pair and the loader refuses a
file whose units do not match the schema, or that holds a key the schema
does not name, naming the offending field.  Loading fills in every
default, and anchors each wire a flying-anchor task claims at the pillar
its wrap goes round (`anchors.wrap_anchor`).  The dump is read back from
the `Scenario` object alone, which holds only what a file can state, so
it describes the scenario that runs, even one changed after loading, and
a run can be reproduced from its dump.

`SCHEMA` is the one description of the document: every key with its
kind, unit, shape and default.  One reader walks it to parse a file and
one writer walks it to dump a scenario; records named by the keys of a
section or row are built by keyword and dumped by `_attrs`.  The loader
then fills in the defaults derived from other fields and anchors the
claimed wires; every other rule is `Scenario`'s, stated once for a file
and for `dataclasses.replace` alike.
"""

from __future__ import annotations

import dataclasses
import importlib.resources
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .allocation import (
    DEFAULT_MAX_TENSION,
    DEFAULT_PRETENSION,
    DEFAULT_WEIGHT_SCALE,
    AllocationWeights,
    TensionBounds,
    WinchParams,
)
from .anchors import (
    DEFAULT_CAPTURE_RADIUS,
    DEFAULT_DRONE_DT,
    DEFAULT_WAYPOINT_SPACING,
    Pillar,
    RelativePoseSensor,
    TrackerGains,
    wrap_anchor,
)
from .simulator import DEFAULT_SPEED_LIMIT, MAX_DT, STANDARD_GRAVITY, BodyModel, SensorModel
from .spatial import PidGains, Pose, _checked, _set_field
from .wires import WireAttachment

FORMAT_VERSION = 1

# libyaml's C classes where PyYAML was built with it; they read and write
# the same documents as the pure-Python ones, several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

POSE_CONTROL = "pose_control"
TENSION_SCHEDULE = "tension_schedule"


class ParseError(Exception):
    """The scenario file is not well-formed YAML / not a mapping."""


class ValidationError(ValueError):
    """The scenario violates the schema; `field` names the culprit by its document path."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


# other accepted spellings of the units the schema names
_UNIT_ALIASES = {
    "m/s2": "m/s^2",
    "kg*m^2": "kg m^2",
    "kg m2": "kg m^2",
    "Nm": "N m",
    "N*m": "N m",
    "Nm/A": "N m/A",
    "Nm s/rad": "N m s/rad",
}

QUANTITY = "quantity"  # a {value, unit} pair
NUMBER = "number"  # a bare float
INTEGER = "integer"
STRING = "string"

REQUIRED = object()

@dataclass(frozen=True)
class Field:
    """One leaf of the scenario document.

    `default` is REQUIRED, the value used when the key is absent, or None
    when the table has none: the field is then optional, or derived from
    other fields after the table pass.  A quantity or a number must be
    finite, so a file cannot ask for no limit.  `shape` is None for a
    scalar; a None entry in it accepts any length.
    """

    kind: str
    default: Any = REQUIRED
    unit: str | None = None
    shape: tuple | None = None


@dataclass(frozen=True)
class Rows:
    """A list of records, each laid out by the section `fields`.

    `default` is REQUIRED (the list must be given), the empty tuple (an
    optional list), or the one string that may stand in place of a list.
    Which lists must not be empty is `Scenario`'s rule.
    """

    fields: dict
    default: Any = REQUIRED


def _q(unit: str, default=REQUIRED, shape=None) -> Field:
    return Field(QUANTITY, default, unit, shape)


def _class_defaults(cls, section: dict) -> dict:
    """`section` with each REQUIRED field that `cls` gives a default taking it."""
    defaults = {
        f.name: f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING
    }
    return {
        key: dataclasses.replace(spec, default=defaults[key])
        if spec.default is REQUIRED and key in defaults else spec
        for key, spec in section.items()
    }


_ZEROS3 = (0.0,) * 3
_ZEROS6 = (0.0,) * 6

SCHEMA = {
    "format_version": Field(INTEGER, FORMAT_VERSION),
    "name": Field(STRING),
    "seed": Field(INTEGER, 0),
    "gravity": _q("m/s^2", STANDARD_GRAVITY),
    "body": _class_defaults(BodyModel, {
        "mass": _q("kg"),
        "radius": _q("m"),
        # exactly one of the two is needed; the dump keeps the diagonal
        "inertia_diagonal": _q("kg m^2", None, (3,)),
        "inertia_cube_side": _q("m", None),
    }),
    "wires": Rows({
        "exit_body": _q("m", shape=(3,)),
        # absent on wires a flying anchor claims: their wrap sets the anchor
        "anchor_world": _q("m", None, (3,)),
    }),
    "tension_bounds": {
        "lower": _q("N", DEFAULT_PRETENSION),
        "upper": _q("N", DEFAULT_MAX_TENSION),
    },
    "allocation_weights": {
        "scale": Field(NUMBER, DEFAULT_WEIGHT_SCALE),
        "torque_lever": _q("m", None),  # defaults to the body radius
    },
    "winch": _class_defaults(WinchParams, {
        "pulley_radius": _q("m"),
        "gear_ratio": Field(NUMBER),
        "torque_constant": _q("N m/A"),
        "eff_pulley": Field(NUMBER),
        "eff_gear": Field(NUMBER),
        "rotor_inertia": _q("kg m^2"),
        "coulomb_friction": _q("N m"),
        "viscous_friction": _q("N m s/rad"),
        "max_tension": _q("N", None),  # defaults to the upper tension bound
        "max_line_speed": _q("m/s"),
        "winding_capacity": _q("m"),
    }),
    "control": {
        "mode": Field(STRING, POSE_CONTROL),
        "rate": _q("Hz", 200.0),
        "pid": {
            "kp": _q("N/m, N m/rad", _ZEROS6, (6,)),
            "ki": _q("N/(m s), N m/(rad s)", _ZEROS6, (6,)),
            "kd": _q("N s/m, N m s/rad", _ZEROS6, (6,)),
            "integral_limit": _q("m s, rad s", _ZEROS6, (6,)),
        },
        # read in tension_schedule mode only; one tension per wire
        "schedule": Rows({"t": _q("s"), "tensions": _q("N", shape=(None,))}, "quasistatic"),
    },
    "trajectory": {
        "start": {
            "position": _q("m", shape=(3,)),
            "orientation_rotvec": _q("rad", _ZEROS3, (3,)),
        },
        "segments": Rows({
            "goal_position": _q("m", shape=(3,)),
            "goal_orientation_rotvec": _q("rad", _ZEROS3, (3,)),
            "goal_velocity": _q("m/s, rad/s", _ZEROS6, (6,)),
            "duration": _q("s"),
        }),
    },
    "sim": {
        "dt": _q("s", 1e-3),
        "duration": _q("s", None),  # defaults to the segment time plus 2 s
        "speed_limit": Field(NUMBER, DEFAULT_SPEED_LIMIT),
        # latency counts control ticks
        "sensor": _class_defaults(SensorModel, {
            "position_noise": _q("m"),
            "rotation_noise": _q("rad"),
            "velocity_noise": _q("m/s"),
            "angular_velocity_noise": _q("rad/s"),
            "latency": Field(INTEGER),
        }),
    },
    "pillars": Rows(_class_defaults(Pillar, {
        "center": _q("m", shape=(2,)),
        "half_extents": _q("m", shape=(2,)),
        "z_range": _q("m", shape=(2,)),
    }), ()),
    "anchors": Rows({
        "wire_id": Field(INTEGER),
        "pillar": Field(INTEGER),
        "approach": _q("m", shape=(3,)),
        "clearance": _q("m", 0.3),
        "wrap_altitude": _q("m", None),  # defaults to the middle of the pillar's z range
    }, ()),
    # read only when there are anchor tasks
    "deployment": {
        "tracker": _class_defaults(TrackerGains, {
            "kp": _q("1/s"),
            "speed_cap": _q("m/s"),
        }),
        "sensor": _class_defaults(RelativePoseSensor, {
            "noise_std": _q("m"),
        }),
        "capture_radius": _q("m", DEFAULT_CAPTURE_RADIUS),
        "waypoint_spacing": _q("m", DEFAULT_WAYPOINT_SPACING),
        "drone_dt": _q("s", DEFAULT_DRONE_DT),
    },
}


def _convert(spec: Field, value, path: str):
    if spec.kind == STRING:
        if not isinstance(value, str):
            raise ValidationError(path, f"expected text, got {value!r}")
        return value
    if spec.kind == INTEGER:
        # not isinstance: YAML's true and false load as bools, which are ints
        if type(value) is int or (isinstance(value, float) and value.is_integer()):
            return int(value)
        raise ValidationError(path, f"expected an integer, got {value!r}")
    # float() also takes strings: PyYAML reads exponent floats such as 1.0e8
    # as text; it takes YAML's true and false too, which are not numbers
    items = value if isinstance(value, (list, tuple)) else [value]
    if any(isinstance(v, bool) for v in items):
        raise ValidationError(path, f"expected a number, got {value!r}")
    try:
        out = float(value) if spec.shape is None else np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(path, f"expected a number, got {value!r}") from exc
    if spec.shape is not None and (
        out.ndim != len(spec.shape)
        or any(want not in (None, got) for want, got in zip(spec.shape, out.shape))
    ):
        raise ValidationError(path, f"expected shape {spec.shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValidationError(path, "value must be finite")
    return out


def _required(spec) -> bool:
    if isinstance(spec, dict):
        return any(_required(s) for s in spec.values())
    return spec.default is REQUIRED


def _read(section: dict, node, path: str) -> dict:
    """Parse one mapping of the document against a table section; a null
    value counts as absent, and a key the section does not name is refused."""
    if not isinstance(node, dict):
        raise ValidationError(path, f"expected a mapping, got {type(node).__name__}")
    for key in node:
        if key not in section:
            raise ValidationError(f"{path}.{key}" if path else str(key), "unknown field")
    values = {}
    for key, spec in section.items():
        full = f"{path}.{key}" if path else key
        raw = node.get(key)
        if raw is None and _required(spec):
            raise ValidationError(full, "required field is missing")
        if isinstance(spec, dict):
            values[key] = _read(spec, {} if raw is None else raw, full)
        elif isinstance(spec, Rows):
            values[key] = _read_rows(spec, spec.default if raw is None else raw, full)
        elif raw is not None:
            if spec.kind == QUANTITY:
                if not isinstance(raw, dict) or raw.keys() != {"value", "unit"}:
                    raise ValidationError(full, "physical quantities need a {value, unit} pair")
                if _UNIT_ALIASES.get(str(raw["unit"]), str(raw["unit"])) != spec.unit:
                    raise ValidationError(
                        full, f"unit {raw['unit']!r} does not match expected {spec.unit!r}"
                    )
                raw = raw["value"]
            values[key] = _convert(spec, raw, full)
        elif spec.default is not None:
            values[key] = _convert(spec, spec.default, full)
    return values


def _read_rows(spec: Rows, raw, path: str):
    if isinstance(spec.default, str) and raw == spec.default:
        return raw
    if not isinstance(raw, (list, tuple)):
        either = f"{spec.default!r} or " if isinstance(spec.default, str) else ""
        raise ValidationError(path, f"expected {either}a list")
    return [_read(spec.fields, row, f"{path}[{k}]") for k, row in enumerate(raw)]


def _write(section: dict, values: dict) -> dict:
    """The document form of parsed values: the inverse of `_read`."""
    doc: dict[str, Any] = {}
    for key, spec in section.items():
        if key not in values:
            continue
        value = values[key]
        if isinstance(spec, dict):
            doc[key] = _write(spec, value)
        elif isinstance(spec, Rows):
            if isinstance(value, str):
                doc[key] = value
            elif value:
                doc[key] = [_write(spec.fields, row) for row in value]
        elif spec.kind == QUANTITY:
            doc[key] = {"value": np.asarray(value, dtype=float).tolist(), "unit": spec.unit}
        else:
            doc[key] = value
    return doc


def _make(path: str, build, /, *args, **kwargs):
    """`build(*args, **kwargs)`, reporting its ValueError as a ValidationError at `path`."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValidationError(path, str(exc)) from exc


@dataclass(frozen=True, eq=False)
class SegmentSpec:
    """One `trajectory.segments` row, its fields named by the row's keys."""

    goal_position: np.ndarray  # (3,)
    # (3,) as written: a quaternion does not give it back bit for bit
    goal_orientation_rotvec: np.ndarray
    goal_velocity: np.ndarray  # (6,)
    duration: float  # Scenario states that it is positive

    def __post_init__(self):
        for name, shape in (("goal_position", 3), ("goal_orientation_rotvec", 3),
                            ("goal_velocity", 6), ("duration", ())):
            _set_field(self, name, shape)  # shape and finiteness; Scenario states the rest

    @property
    def goal_pose(self) -> Pose:
        return Pose.from_rotvec(self.goal_position, self.goal_orientation_rotvec)


@dataclass(frozen=True, eq=False)
class AnchorTask:
    """One `anchors` row, its fields named by the row's keys."""

    wire_id: int
    pillar: int  # index into Scenario.pillars
    approach: np.ndarray  # (3,)
    clearance: float  # Scenario states that it is positive
    wrap_altitude: float

    def __post_init__(self):
        for name, shape in (("approach", 3), ("clearance", ()), ("wrap_altitude", ())):
            _set_field(self, name, shape)  # shape and finiteness; Scenario states the rest


@dataclass(frozen=True, eq=False)
class DeploymentConfig:
    """The `deployment` section.  Its lengths and drone step must be
    positive: at a zero step the tracker's clock never reaches its timeout."""

    tracker: TrackerGains
    sensor: RelativePoseSensor
    capture_radius: float
    waypoint_spacing: float
    drone_dt: float

    def __post_init__(self):
        for name in ("capture_radius", "waypoint_spacing", "drone_dt"):
            _set_field(self, name, sign="positive")


def _claims(tasks, wire_count: int, pillar_count: int) -> None:
    """Refuse (wire_id, pillar) pairs naming a missing wire or pillar, or a wire twice."""
    claimed_by = {}  # wire id -> the index of the task claiming it
    for k, (wire_id, pillar) in enumerate(tasks):
        if not 0 <= wire_id < wire_count:
            raise ValidationError(f"anchors[{k}].wire_id", f"no wire with id {wire_id}")
        if wire_id in claimed_by:
            raise ValidationError(f"anchors[{k}].wire_id",
                                  f"anchors[{claimed_by[wire_id]}] already claims wire {wire_id}")
        if not 0 <= pillar < pillar_count:
            raise ValidationError(f"anchors[{k}].pillar", f"no pillar with index {pillar}")
        claimed_by[wire_id] = k


# Scenario's number fields: document path, and shape and sign for _set_field
_NUMBERS = {
    "gravity": ("gravity", (), None),
    "dt": ("sim.dt", (), None),  # its range is checked last
    "start_position": ("trajectory.start.position", 3, None),
    "start_rotvec": ("trajectory.start.orientation_rotvec", 3, None),
    "weight_scale": ("allocation_weights", (), "positive"),
    "torque_lever": ("allocation_weights", (), "positive"),
    "duration": ("sim.duration", (), "positive"),
    "control_rate": ("control.rate", (), "positive"),
    "speed_limit": ("sim.speed_limit", (), "positive"),
}


@dataclass(frozen=True, eq=False)
class Scenario:
    """A fully resolved experiment description; `scenario_document` reads it back.

    It holds only what a file can say, and `__post_init__` is the one
    statement of what that is: the loader builds a `Scenario` last, so a
    file and `dataclasses.replace` are refused alike, by a
    `ValidationError` naming the document path of the value (README,
    "Scenario files", lists the rules).  It is frozen, and its lists are
    tuples.  `weights` is built from `weight_scale` and `torque_lever` on
    each read."""

    name: str
    seed: int
    gravity: float
    body: BodyModel
    wires: tuple[WireAttachment, ...]
    bounds: TensionBounds
    weight_scale: float  # of the force rows; torque rows divide it by torque_lever^2
    torque_lever: float  # m; also scales torques in the feasibility analysis
    winch: WinchParams
    gains: PidGains
    mode: str
    schedule_table: tuple[tuple[float, np.ndarray], ...] | None
    start_position: np.ndarray  # (3,)
    start_rotvec: np.ndarray  # (3,) as written, like SegmentSpec.goal_orientation_rotvec
    segments: tuple[SegmentSpec, ...]
    dt: float
    duration: float
    control_rate: float
    speed_limit: float
    sensor: SensorModel
    pillars: tuple[Pillar, ...] = ()
    anchors: tuple[AnchorTask, ...] = ()
    deployment: DeploymentConfig | None = None

    def __post_init__(self):
        for name in ("wires", "segments", "pillars", "anchors", "schedule_table"):
            rows = getattr(self, name)
            object.__setattr__(self, name, rows if rows is None else tuple(rows))
        for path, rows in (("wires", self.wires), ("trajectory.segments", self.segments),
                           ("control.schedule", self.schedule_table)):
            if rows == ():
                raise ValidationError(path, "expected a non-empty list")
        for k, segment in enumerate(self.segments):
            if not segment.duration > 0:
                raise ValidationError(f"trajectory.segments[{k}].duration", "must be positive")
        _convert(SCHEMA["name"], self.name, "name")
        object.__setattr__(self, "seed", _convert(SCHEMA["seed"], self.seed, "seed"))
        if not self.seed >= 0:  # the random streams are seeded with offsets added to it
            raise ValidationError("seed", f"must be non-negative, got {self.seed}")
        for name, (path, shape, sign) in _NUMBERS.items():
            _make(path, _set_field, self, name, shape, sign)
        m, lower, upper = len(self.wires), self.bounds.lower, self.bounds.upper
        if lower.shape != (m,) or np.any(lower != lower[:1]) or np.any(upper != upper[:1]):
            raise ValidationError("tension_bounds",
                                  f"a scenario holds one uniform pair for its {m} wires")
        limits = {f"winch.{k}": v for k, v in _attrs(self.winch, SCHEMA["winch"]).items()}
        limits["tension_bounds.upper"] = upper[0]
        if self.deployment is not None:
            limits["deployment.tracker.speed_cap"] = self.deployment.tracker.speed_cap
        for path, limit in limits.items():
            if limit == np.inf:  # which a file cannot state
                raise ValidationError(path, "value must be finite")
        if np.any(self.body.inertia != np.diag(np.diag(self.body.inertia))):
            raise ValidationError("body", "a scenario holds a diagonal inertia")
        for i, wire in enumerate(self.wires):
            if (reach := np.linalg.norm(wire.exit_body)) > self.body.radius + 1e-9:
                raise ValidationError(f"wires[{i}].exit_body", f"exit point magnitude {reach:.3f} m"
                                      f" exceeds the body radius {self.body.radius:.3f} m")
        _claims([(task.wire_id, task.pillar) for task in self.anchors], m, len(self.pillars))
        for k, task in enumerate(self.anchors):
            if not task.clearance > 0.0:
                raise ValidationError(f"anchors[{k}].clearance", "must be positive")
            anchor = wrap_anchor(self.pillars[task.pillar], task.wrap_altitude)
            if not np.array_equal(self.wires[task.wire_id].anchor_world, anchor):
                raise ValidationError(f"wires[{task.wire_id}].anchor_world",
                                      f"wire {task.wire_id} is not anchored at its wrap {anchor}")
        if (self.deployment is None) == bool(self.anchors):
            raise ValidationError("deployment", "given exactly when there are anchor tasks")
        if self.mode not in (POSE_CONTROL, TENSION_SCHEDULE):
            raise ValidationError("control.mode", f"unknown mode {self.mode!r}")
        if self.schedule_table is not None and self.mode != TENSION_SCHEDULE:
            raise ValidationError("control.schedule", f"{self.mode} mode reads no table")
        table = []  # the rows, stored as `_checked` gives them
        for k, (t, tensions) in enumerate(self.schedule_table or ()):
            path = f"control.schedule[{k}]"
            if k and not t > table[-1][0]:
                raise ValidationError(f"{path}.t", "schedule times must increase")
            if np.shape(tensions) != (m,) or not np.all(np.asarray(tensions) >= 0):
                raise ValidationError(f"{path}.tensions",
                                      f"expected {m} non-negative tensions, got {tensions}")
            table.append((_make(f"{path}.t", _checked, "t", t),
                          _make(f"{path}.tensions", _checked, "tensions", tensions, m)))
        if table:
            object.__setattr__(self, "schedule_table", tuple(table))
        if not 0 < self.dt <= MAX_DT:
            raise ValidationError("sim.dt", f"dt must lie in (0, {MAX_DT}] seconds")
        substeps = 1.0 / (self.control_rate * self.dt)
        if abs(substeps - round(substeps)) > 1e-9 or round(substeps) < 1:
            raise ValidationError(
                "control.rate", f"control period must be a whole multiple of sim.dt (got {substeps})"
            )

    @property
    def weights(self) -> AllocationWeights:
        return AllocationWeights.diagonal(self.weight_scale, self.torque_lever)

    @property
    def start_pose(self) -> Pose:
        return Pose.from_rotvec(self.start_position, self.start_rotvec)

    @property
    def wire_count(self) -> int:
        return len(self.wires)

    @property
    def substeps(self) -> int:
        return int(round(1.0 / (self.control_rate * self.dt)))


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a scenario shipped with the package."""
    base = importlib.resources.files("wiredrive.scenarios")
    candidate = base / f"{name}.yaml"
    if not candidate.is_file():
        available = sorted(p.stem for p in Path(str(base)).glob("*.yaml"))
        raise FileNotFoundError(f"no bundled scenario {name!r}; available: {available}")
    return Path(str(candidate))


def load_scenario(path) -> Scenario:
    """Parse, validate and resolve a scenario file."""
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"scenario file not found: {path}")
    try:
        raw = yaml.load(path.read_text(), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed YAML in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"scenario root must be a mapping, got {type(raw).__name__}")
    return build_scenario(raw)


def build_scenario(document: dict) -> Scenario:
    """Read a scenario document (the parsed YAML mapping) into a `Scenario`."""
    doc = _read(SCHEMA, document, "")
    if doc["format_version"] != FORMAT_VERSION:
        raise ValidationError("format_version", f"unsupported version {doc['format_version']}")

    body_doc = doc["body"]
    side = body_doc.pop("inertia_cube_side", None)
    if "inertia_diagonal" not in body_doc:
        if side is None:
            raise ValidationError(
                "body.inertia_diagonal", "body needs inertia_diagonal or inertia_cube_side"
            )
        body_doc["inertia_diagonal"] = np.full(3, body_doc["mass"] * side**2 / 6.0)
    body = _make("body", BodyModel, body_doc["mass"], np.diag(body_doc["inertia_diagonal"]),
                 body_doc["radius"])

    m = len(doc["wires"])
    pillars = [_make(f"pillars[{k}]", Pillar, **p) for k, p in enumerate(doc["pillars"])]
    # resolving the claimed anchors needs the wires and pillars the tasks name
    _claims([(t["wire_id"], t["pillar"]) for t in doc["anchors"]], m, len(pillars))
    anchors, wrapped = [], {}  # wrapped: claimed wire id -> the anchor its wrap gives it
    for task in doc["anchors"]:
        pillar = pillars[task["pillar"]]
        task.setdefault("wrap_altitude", pillar.mid_height)
        anchors.append(AnchorTask(**task))
        wrapped[task["wire_id"]] = wrap_anchor(pillar, task["wrap_altitude"])

    wires = []
    for i, wire in enumerate(doc["wires"]):
        if ("anchor_world" in wire) == (i in wrapped):
            raise ValidationError(
                f"wires[{i}].anchor_world",
                "an anchor task claims this wire, so its anchor is the pillar it wraps"
                if i in wrapped else "wire needs an anchor_world or a deployment anchor task",
            )
        wires.append(WireAttachment(wire["exit_body"], wrapped.get(i, wire.get("anchor_world"))))

    tension = doc["tension_bounds"]
    bounds = _make("tension_bounds", TensionBounds.uniform, m, **tension)

    weights_doc = doc["allocation_weights"]
    weights_doc.setdefault("torque_lever", body.radius)

    doc["winch"].setdefault("max_tension", tension["upper"])
    winch = _make("winch", WinchParams, **doc["winch"])

    control = doc["control"]
    gains = _make("control.pid", PidGains, **control["pid"])
    schedule_table = None
    if control["mode"] == TENSION_SCHEDULE and control["schedule"] != "quasistatic":
        schedule_table = [(row["t"], row["tensions"]) for row in control["schedule"]]

    segments = [SegmentSpec(**seg) for seg in doc["trajectory"]["segments"]]
    sim = doc["sim"]
    sim.setdefault("duration", sum(s.duration for s in segments) + 2.0)
    sim["sensor"] = _make("sim.sensor", SensorModel, **sim["sensor"])

    deployment = None
    if anchors:
        dep = doc["deployment"]
        deployment = _make("deployment", DeploymentConfig, **{
            **dep,
            "tracker": _make("deployment.tracker", TrackerGains, **dep["tracker"]),
            "sensor": _make("deployment.sensor", RelativePoseSensor, **dep["sensor"]),
        })

    return Scenario(
        name=doc["name"],
        seed=doc["seed"],
        gravity=doc["gravity"],
        body=body,
        wires=wires,
        bounds=bounds,
        weight_scale=weights_doc["scale"],
        torque_lever=weights_doc["torque_lever"],
        winch=winch,
        gains=gains,
        mode=control["mode"],
        schedule_table=schedule_table,
        start_position=doc["trajectory"]["start"]["position"],
        start_rotvec=doc["trajectory"]["start"]["orientation_rotvec"],
        segments=segments,
        control_rate=control["rate"],
        **sim,  # dt, duration, speed_limit and sensor, by their names
        pillars=pillars,
        anchors=anchors,
        deployment=deployment,
    )


def _attrs(obj, section: dict) -> dict:
    """A table section's values, read from the attributes of the same names."""
    return {key: _attrs(getattr(obj, key), spec) if isinstance(spec, dict) else getattr(obj, key)
            for key, spec in section.items()}


def scenario_document(scenario: Scenario) -> dict:
    """`build_scenario`'s inverse: the document of `scenario` as it stands."""
    s = scenario
    claimed = {a.wire_id for a in s.anchors}  # the loader sets these wires' anchors
    values = {
        "format_version": FORMAT_VERSION, "name": s.name, "seed": s.seed, "gravity": s.gravity,
        "body": {"mass": s.body.mass, "radius": s.body.radius,
                 "inertia_diagonal": np.diag(s.body.inertia)},
        "wires": [{"exit_body": w.exit_body} if i in claimed else
                  {"exit_body": w.exit_body, "anchor_world": w.anchor_world}
                  for i, w in enumerate(s.wires)],
        "tension_bounds": {"lower": s.bounds.lower[0], "upper": s.bounds.upper[0]},
        "allocation_weights": {"scale": s.weight_scale, "torque_lever": s.torque_lever},
        "winch": _attrs(s.winch, SCHEMA["winch"]),
        "control": {"mode": s.mode, "rate": s.control_rate,
                    "pid": _attrs(s.gains, SCHEMA["control"]["pid"])},
        "trajectory": {
            "start": {"position": s.start_position, "orientation_rotvec": s.start_rotvec},
            "segments": [_attrs(g, SCHEMA["trajectory"]["segments"].fields)
                         for g in s.segments],
        },
        "sim": _attrs(s, SCHEMA["sim"]),
        "pillars": [_attrs(p, SCHEMA["pillars"].fields) for p in s.pillars],
        "anchors": [_attrs(a, SCHEMA["anchors"].fields) for a in s.anchors],
    }
    if s.mode == TENSION_SCHEDULE:
        values["control"]["schedule"] = "quasistatic" if s.schedule_table is None else [
            {"t": t, "tensions": tensions} for t, tensions in s.schedule_table]
    if s.anchors:
        values["deployment"] = _attrs(s.deployment, SCHEMA["deployment"])
    return _write(SCHEMA, values)


def dump_scenario(scenario: Scenario) -> str:
    """Stable YAML text of `scenario_document(scenario)`."""
    return yaml.dump(
        scenario_document(scenario), Dumper=_YAML_DUMPER, sort_keys=True, default_flow_style=None
    )

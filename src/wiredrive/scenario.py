"""Scenario files: schema, unit checking, validation, resolved dumps.

A scenario is one YAML document describing the body, the wire routing,
controller settings and the experiment timeline.  Every dimensional
quantity is written as a ``{value, unit}`` pair and the loader refuses a
file whose units do not match the schema, or that holds a key the schema
does not name, naming the offending field.  Loading fills in every
default, and anchors each wire a flying-anchor task claims at the pillar
its wrap goes round.  The dump is read back from the
`Scenario` object alone, so it describes the scenario that runs, even
one changed after loading, and a run can be reproduced from its dump.

`SCHEMA` is the one description of the document: every key with its
kind, unit, shape and default.  One reader walks it to parse a file and
one writer walks it to dump a scenario; the checks that tie several
fields together, and the defaults derived from other fields, follow the
table pass as explicit code in `build_scenario`.
"""

from __future__ import annotations

import dataclasses
import importlib.resources
from dataclasses import dataclass, field
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
)
from .simulator import DEFAULT_SPEED_LIMIT, STANDARD_GRAVITY, BodyModel, SensorModel
from .spatial import PidGains, Pose
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


class ValidationError(Exception):
    """The scenario violates the schema; `field` names the culprit."""

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
    other fields after the table pass.  A quantity must be finite unless
    its default is infinite.  `shape` is None for a scalar; a None entry
    in it accepts any length.
    """

    kind: str
    default: Any = REQUIRED
    unit: str | None = None
    shape: tuple | None = None


@dataclass(frozen=True)
class Rows:
    """A list of records, each laid out by the section `fields`.

    `default` is REQUIRED (a non-empty list must be given), the empty
    tuple (an optional list that may be empty), or the one string that may
    stand in place of a non-empty list.
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
    unbounded = isinstance(spec.default, float) and spec.default == np.inf
    if spec.kind == QUANTITY and not np.all(np.isfinite(out) | (unbounded & (out == np.inf))):
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
    if not isinstance(raw, (list, tuple)) or (not raw and spec.default != ()):
        expected = "a list" if spec.default == () else "a non-empty list"
        if isinstance(spec.default, str):
            expected = f"{spec.default!r} or {expected}"
        raise ValidationError(path, f"expected {expected}")
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


def _make(path: str, cls, /, *args, **kwargs):
    """`cls(*args, **kwargs)`, reporting its ValueError as a ValidationError at `path`."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ValidationError(path, str(exc)) from exc


@dataclass(frozen=True, eq=False)
class SegmentSpec:
    goal_position: np.ndarray  # (3,)
    goal_rotvec: np.ndarray  # (3,) as written: a quaternion does not give it back bit for bit
    goal_velocity: np.ndarray  # (6,)
    duration: float

    @property
    def goal_pose(self) -> Pose:
        return Pose.from_rotvec(self.goal_position, self.goal_rotvec)


@dataclass(frozen=True, eq=False)
class AnchorTask:
    wire_id: int
    pillar_index: int
    approach: np.ndarray  # (3,)
    clearance: float
    wrap_altitude: float


@dataclass(frozen=True, eq=False)
class DeploymentConfig:
    tracker: TrackerGains
    sensor: RelativePoseSensor
    capture_radius: float
    waypoint_spacing: float
    drone_dt: float


@dataclass(eq=False)
class Scenario:
    """A fully resolved experiment description; `scenario_document` reads it back.

    A wire an anchor task claims holds the anchor its wrap gives it: the
    pillar's center at the task's wrap altitude."""

    name: str
    seed: int
    gravity: float
    body: BodyModel
    wires: list[WireAttachment]
    bounds: TensionBounds
    weights: AllocationWeights
    torque_lever: float  # m; also scales torques in the feasibility analysis
    winch: WinchParams
    gains: PidGains
    mode: str
    schedule_table: list[tuple[float, np.ndarray]] | None
    start_position: np.ndarray  # (3,)
    start_rotvec: np.ndarray  # (3,) as written, like SegmentSpec.goal_rotvec
    segments: list[SegmentSpec]
    dt: float
    duration: float
    control_rate: float
    speed_limit: float
    sensor: SensorModel
    pillars: list[Pillar] = field(default_factory=list)
    anchors: list[AnchorTask] = field(default_factory=list)
    deployment: DeploymentConfig | None = None

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
    """Validate and resolve a scenario document (the parsed YAML mapping)."""
    doc = _read(SCHEMA, document, "")
    if doc["format_version"] != FORMAT_VERSION:
        raise ValidationError("format_version", f"unsupported version {doc['format_version']}")
    if doc["seed"] < 0:
        # the random streams are seeded with offsets added to it
        raise ValidationError("seed", f"must be non-negative, got {doc['seed']}")

    body_doc = doc["body"]
    mass = body_doc["mass"]
    if mass <= 0:
        raise ValidationError("body.mass", "must be strictly positive")
    side = body_doc.pop("inertia_cube_side", None)
    if "inertia_diagonal" not in body_doc:
        if side is None:
            raise ValidationError(
                "body.inertia_diagonal", "body needs inertia_diagonal or inertia_cube_side"
            )
        body_doc["inertia_diagonal"] = np.full(3, mass * side**2 / 6.0)
    body = _make("body", BodyModel, mass, np.diag(body_doc["inertia_diagonal"]), body_doc["radius"])

    m = len(doc["wires"])
    pillars = [
        _make(f"pillars[{k}]", Pillar, p["center"], p["half_extents"], tuple(p["z_range"].tolist()))
        for k, p in enumerate(doc["pillars"])
    ]
    anchors = []
    claimed_by = {}  # wire id -> index of the anchor task that claims it
    for k, task in enumerate(doc["anchors"]):
        wire_id = task["wire_id"]
        if not 0 <= wire_id < m:
            raise ValidationError(f"anchors[{k}].wire_id", f"no wire with id {wire_id}")
        if wire_id in claimed_by:
            raise ValidationError(f"anchors[{k}].wire_id",
                                  f"anchors[{claimed_by[wire_id]}] already claims wire {wire_id}")
        claimed_by[wire_id] = k
        if not 0 <= task["pillar"] < len(pillars):
            raise ValidationError(f"anchors[{k}].pillar", f"no pillar with index {task['pillar']}")
        z_range = pillars[task["pillar"]].z_range
        task.setdefault("wrap_altitude", 0.5 * (z_range[0] + z_range[1]))
        anchors.append(AnchorTask(
            wire_id, task["pillar"], task["approach"], task["clearance"], task["wrap_altitude"],
        ))

    wires = []
    for i, wire in enumerate(doc["wires"]):
        exit_body = wire["exit_body"]
        if np.linalg.norm(exit_body) > body.radius + 1e-9:
            raise ValidationError(
                f"wires[{i}].exit_body",
                f"exit point magnitude {np.linalg.norm(exit_body):.3f} m "
                f"exceeds the body radius {body.radius:.3f} m",
            )
        claimed = i in claimed_by
        if ("anchor_world" in wire) == claimed:
            raise ValidationError(
                f"wires[{i}].anchor_world",
                "an anchor task claims this wire, so its anchor is the pillar it wraps"
                if claimed else "wire needs an anchor_world or a deployment anchor task",
            )
        anchor = wire.get("anchor_world")
        if claimed:
            # the wrap anchors the wire at the pillar's center, at the wrap altitude
            task = anchors[claimed_by[i]]
            center = pillars[task.pillar_index].center
            anchor = np.array([center[0], center[1], task.wrap_altitude])
        wires.append(WireAttachment(exit_body, anchor))

    tension = doc["tension_bounds"]
    bounds = _make(
        "tension_bounds", TensionBounds, np.full(m, tension["lower"]), np.full(m, tension["upper"])
    )

    weights_doc = doc["allocation_weights"]
    weights_doc.setdefault("torque_lever", body.radius)
    if weights_doc["scale"] <= 0 or weights_doc["torque_lever"] <= 0:
        raise ValidationError("allocation_weights", "scale and torque_lever must be positive")
    weights = AllocationWeights.diagonal(**weights_doc)

    doc["winch"].setdefault("max_tension", tension["upper"])
    winch = _make("winch", WinchParams, **doc["winch"])

    control = doc["control"]
    mode = control["mode"]
    if mode not in (POSE_CONTROL, TENSION_SCHEDULE):
        raise ValidationError("control.mode", f"unknown mode {mode!r}")
    if control["rate"] <= 0:
        raise ValidationError("control.rate", "must be positive")
    gains = _make("control.pid", PidGains, **control["pid"])
    schedule_table = None
    if mode == TENSION_SCHEDULE and control["schedule"] != "quasistatic":
        schedule_table = []
        for k, row in enumerate(control["schedule"]):
            rpath = f"control.schedule[{k}]"
            if row["tensions"].shape != (m,):
                raise ValidationError(
                    rpath + ".tensions", f"expected shape {(m,)}, got {row['tensions'].shape}"
                )
            if schedule_table and row["t"] <= schedule_table[-1][0]:
                raise ValidationError(rpath + ".t", "schedule times must increase")
            if np.any(row["tensions"] < 0):
                raise ValidationError(rpath + ".tensions", "tensions must be non-negative")
            schedule_table.append((row["t"], row["tensions"]))

    segments = []
    for k, seg in enumerate(doc["trajectory"]["segments"]):
        if seg["duration"] <= 0:
            raise ValidationError(f"trajectory.segments[{k}].duration", "must be positive")
        segments.append(SegmentSpec(seg["goal_position"], seg["goal_orientation_rotvec"],
                                    seg["goal_velocity"], seg["duration"]))

    sim = doc["sim"]
    dt = sim["dt"]
    if not 0 < dt <= 0.01:
        raise ValidationError("sim.dt", "dt must lie in (0, 0.01] seconds")
    sim.setdefault("duration", sum(s.duration for s in segments) + 2.0)
    if sim["duration"] <= 0:
        raise ValidationError("sim.duration", "must be positive")
    substeps = 1.0 / (control["rate"] * dt)
    if abs(substeps - round(substeps)) > 1e-9 or round(substeps) < 1:
        raise ValidationError(
            "control.rate", f"control period must be a whole multiple of sim.dt (got {substeps})"
        )
    sensor = _make("sim.sensor", SensorModel, **sim["sensor"])

    deployment = None
    if anchors:
        dep = doc["deployment"]
        deployment = DeploymentConfig(**{
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
        weights=weights,
        torque_lever=weights_doc["torque_lever"],
        winch=winch,
        gains=gains,
        mode=mode,
        schedule_table=schedule_table,
        start_position=doc["trajectory"]["start"]["position"],
        start_rotvec=doc["trajectory"]["start"]["orientation_rotvec"],
        segments=segments,
        dt=dt,
        duration=sim["duration"],
        control_rate=control["rate"],
        speed_limit=sim["speed_limit"],
        sensor=sensor,
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
        "allocation_weights": {"scale": float(s.weights.matrix[0, 0]),
                               "torque_lever": s.torque_lever},
        "winch": _attrs(s.winch, SCHEMA["winch"]),
        "control": {"mode": s.mode, "rate": s.control_rate,
                    "pid": _attrs(s.gains, SCHEMA["control"]["pid"])},
        "trajectory": {
            "start": {"position": s.start_position, "orientation_rotvec": s.start_rotvec},
            "segments": [{"goal_position": g.goal_position, "goal_velocity": g.goal_velocity,
                          "goal_orientation_rotvec": g.goal_rotvec, "duration": g.duration}
                         for g in s.segments],
        },
        "sim": {"dt": s.dt, "duration": s.duration, "speed_limit": s.speed_limit,
                "sensor": _attrs(s.sensor, SCHEMA["sim"]["sensor"])},
        "pillars": [_attrs(p, SCHEMA["pillars"].fields) for p in s.pillars],
        "anchors": [{"wire_id": a.wire_id, "pillar": a.pillar_index, "approach": a.approach,
                     "clearance": a.clearance, "wrap_altitude": a.wrap_altitude}
                    for a in s.anchors],
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

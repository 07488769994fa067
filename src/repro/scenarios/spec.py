"""The declarative scenario spec: dict/TOML in, simulation out.

A :class:`ScenarioSpec` is a plain-data description of one wind-tunnel
experiment -- geometry, freestream, grid, schedule, boundary set and
validation contract -- from which the CLI, examples, benchmarks and the
CI validation matrix all build their runs.  Specs round-trip losslessly
through :meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict`
(and TOML via :meth:`ScenarioSpec.from_toml`), so a committed config
file and a registered library entry can be diffed for equality by the
tests.

Sections (all dicts of plain scalars/lists):

``geometry``
    ``kind`` selects the body (``wedge``/``cylinder``/``step``/
    ``none``) plus that body's constructor parameters.  The wedge
    additionally accepts ``placement = "paper"``: the body is then
    *derived from the grid* exactly as the legacy CLI did
    (``x_leading = nx/4.9``, ``base = nx/3.92``), which is what keeps
    the ``wedge`` scenario bitwise identical to the pre-registry CLI at
    every ``--nx``.
``freestream``
    ``mach``, ``c_mp``, ``lambda_mfp``, ``density`` (and optional
    ``gamma``).
``grid``
    ``nx``, ``ny`` and, for the z-periodic slab, ``nz``.
``schedule``
    ``transient`` and ``average`` step counts of the default run.
``boundaries``
    Optional: ``plunger_trigger``, ``wall_model``, ``accommodation``.
``unsteady``
    Optional: ``windows`` x ``window_steps`` time-resolved sampling
    windows (each window gets a fresh accumulator; the golden harness
    validates the *evolution* across windows).
``validation``
    The scenario's acceptance contract -- see
    :mod:`repro.scenarios.golden`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pathlib
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.core.simulation import Simulation, SimulationConfig
from repro.errors import ConfigurationError, SchemaError
from repro.geometry.bodies import BODY_KINDS
from repro.geometry.domain import Domain
from repro.geometry.domain3d import Domain3D
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream

#: Keys accepted by :func:`build_config`-style overrides (CLI flags and
#: reduced-scale validation runs).  Anything else is a typo and raises.
OVERRIDE_KEYS = (
    "nx",
    "ny",
    "nz",
    "mach",
    "c_mp",
    "density",
    "lambda_mfp",
    "angle",
    "seed",
    "transient",
    "average",
)

_SECTIONS = {
    "name": True,
    "title": True,
    "description": True,
    "geometry": True,
    "freestream": True,
    "grid": True,
    "schedule": True,
    "seed": True,
    "boundaries": False,
    "unsteady": False,
    "validation": True,
    "tags": False,
}

_GEOMETRY_KINDS = tuple(BODY_KINDS) + ("none",)


def _require_mapping(value: Any, where: str) -> Dict[str, Any]:
    if not isinstance(value, Mapping):
        raise SchemaError(
            f"section {where!r} must be a table/dict, "
            f"got {type(value).__name__}"
        )
    return dict(value)


#: The plain tables of a spec: ``({required key: type}, {optional key:
#: type})``, a type being ``int``, ``float`` (any finite number) or ``str``.
_TABLES = {
    "grid": ({"nx": int, "ny": int}, {"nz": int}),
    "freestream": (
        dict.fromkeys(("mach", "c_mp", "lambda_mfp", "density"), float),
        {"gamma": float},
    ),
    "schedule": ({"transient": int, "average": int}, {}),
    "boundaries": (
        {},
        {"plunger_trigger": float, "wall_model": str, "accommodation": float},
    ),
    "unsteady": ({"windows": int, "window_steps": int}, {}),
}


def _require(value: Any, kind: type, where: str, finite: bool = True) -> Any:
    """``value`` if it is a ``kind`` (``float``: any finite number, or
    with ``finite=False`` any number but NaN)."""
    if kind is float:
        try:
            ok = not isinstance(value, bool) and (
                math.isfinite(value) or not (finite or math.isnan(value))
            )
        except (TypeError, OverflowError):
            ok = False
    else:
        ok = isinstance(value, kind) and not isinstance(value, bool)
    if not ok:
        raise SchemaError(
            f"field {where!r} must be "
            f"{'a finite number' if kind is float else f'a {kind.__name__}'}"
            f", got {value!r}"
        )
    return value


def _check_keys(table: Mapping, required, known, where: str) -> None:
    """``table`` holds every ``required`` key and none outside ``known``."""
    missing = sorted(set(required) - set(table))
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")
    extra = sorted(set(table) - set(known))
    if extra:
        raise SchemaError(f"{where}: unknown keys {extra}")


def _require_toml_value(value: Any, where: str) -> None:
    """A leaf TOML carries back unchanged: a string, an integer, a
    finite number, a boolean, or a list of them."""
    if isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _require_toml_value(v, f"{where}[{i}]")
    elif not isinstance(value, (str, bool, int)):
        _require(value, float, where)


#: A declared config type that stands for several classes, and the
#: ``kind`` a serialised value names its class by.
_KINDS = {Wedge: BODY_KINDS, Domain: {"plane": Domain, "slab": Domain3D}}


def config_to_dict(config: SimulationConfig) -> Dict[str, Any]:
    """``config`` as nested plain data, read off its dataclass fields and
    those of the domain, freestream, body and model, so a field added to
    any of them is carried as it stands.  The domain and the body also
    name their ``kind``.  ``seed`` is left out: it may be a live
    generator, and a snapshot keeps its own stream key."""

    def plain(value):
        if not dataclasses.is_dataclass(value):
            return value
        d = {
            f.name: plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name != "seed"
        }
        kind = getattr(value, "kind", None)
        return d if kind is None else {"kind": kind, **d}

    return plain(config)


def config_from_dict(data: Any) -> SimulationConfig:
    """The config :func:`config_to_dict` wrote (``seed`` left ``None``).

    Raises :class:`SchemaError` for a missing key, an unknown key or a
    value of the wrong type, and a type's own :class:`ConfigurationError`
    for a value it refuses.
    """
    return _from_plain(SimulationConfig, data, "config")


def _from_plain(tp: Any, value: Any, where: str) -> Any:
    if typing.get_origin(tp) is Union:  # Optional[X]: None or an X
        if value is None:
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    if not dataclasses.is_dataclass(tp):
        return tp(_require(value, tp, where, finite=False))
    d = _require_mapping(value, where)
    kinds = _KINDS.get(tp)
    if kinds is not None:
        kind = d.pop("kind", None)
        if not isinstance(kind, str) or kind not in kinds:
            raise SchemaError(
                f"field '{where}.kind' must be one of {sorted(kinds)}"
                f", got {kind!r}"
            )
        tp = kinds[kind]
    hints = typing.get_type_hints(tp)
    names = [f.name for f in dataclasses.fields(tp) if f.name != "seed"]
    _check_keys(d, names, names, where)
    return tp(**{k: _from_plain(hints[k], d[k], f"{where}.{k}") for k in names})


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario (see module docstring for the schema)."""

    name: str
    title: str
    description: str
    geometry: Dict[str, Any]
    freestream: Dict[str, Any]
    grid: Dict[str, Any]
    schedule: Dict[str, Any]
    seed: int
    validation: Dict[str, Any]
    boundaries: Dict[str, Any] = field(default_factory=dict)
    unsteady: Optional[Dict[str, Any]] = None
    tags: Tuple[str, ...] = ()

    # -- construction -----------------------------------------------------

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError("scenario name must be a non-empty string")
        for key in ("title", "description"):
            _require(getattr(self, key), str, key)
        for tag in self.tags:
            _require(tag, str, "tags[]")
        geom = _require_mapping(self.geometry, "geometry")
        kind = geom.get("kind")
        if kind not in _GEOMETRY_KINDS:
            raise ConfigurationError(
                f"scenario {self.name!r}: geometry.kind must be one of "
                f"{_GEOMETRY_KINDS}, got {kind!r}"
            )
        if geom.get("placement") is not None:
            if kind != "wedge" or geom["placement"] != "paper":
                raise ConfigurationError(
                    f"scenario {self.name!r}: geometry.placement is only "
                    "supported as 'paper' on kind 'wedge'"
                )
        for k, v in geom.items():
            if k not in ("kind", "placement"):
                _require(v, float, f"geometry.{k}")
        for section in _TABLES:
            if section != "unsteady" or self.unsteady is not None:
                self._check_table(section)
        if min(self.schedule.values()) < 0:
            raise ConfigurationError(
                f"scenario {self.name!r}: schedule steps must be >= 0"
            )
        if self.unsteady is not None and min(self.unsteady.values()) <= 0:
            raise ConfigurationError(
                f"scenario {self.name!r}: unsteady windows and "
                "window_steps must be positive"
            )
        if _require(self.seed, int, "seed") < 0:
            raise ConfigurationError(
                f"scenario {self.name!r}: seed must be >= 0"
            )
        val = _require_mapping(self.validation, "validation")
        extra = set(val) - {"checks", "golden", "overrides"}
        if extra:
            raise ConfigurationError(
                f"scenario {self.name!r}: unknown validation keys "
                f"{sorted(extra)}"
            )
        checks = val.get("checks")
        if not isinstance(checks, (list, tuple)) or not checks:
            raise ConfigurationError(
                f"scenario {self.name!r}: validation.checks must be a "
                "non-empty list (every scenario ships its acceptance "
                "contract)"
            )
        for check in checks:
            c = _require_mapping(check, "validation.checks[]")
            for k in ("name", "kind", "expect"):
                if not isinstance(c.get(k), str) or not c[k]:
                    raise ConfigurationError(
                        f"scenario {self.name!r}: every validation check "
                        f"needs a non-empty string {k!r}, got {c.get(k)!r}"
                    )
            for k, v in c.items():
                _require_toml_value(v, f"validation.checks[].{k}")
        if "golden" in val:
            _require(val["golden"], str, "validation.golden")
        if "overrides" in val:
            overrides = _require_mapping(
                val["overrides"], "validation.overrides"
            )
            _check_override_keys(overrides, self.name)
            for k, v in overrides.items():
                _require(v, float, f"validation.overrides.{k}")
        # Dry-construct the body so malformed geometry parameters fail
        # at spec definition, not first use.
        self.build_body()

    def _check_table(self, section: str) -> None:
        """``section`` holds its required keys, no unknown one, and a
        value of its key's type under each (:data:`_TABLES`)."""
        table = _require_mapping(getattr(self, section), section)
        required, optional = _TABLES[section]
        kinds = {**required, **optional}
        _check_keys(table, required, kinds, f"scenario {self.name!r} {section}")
        for k, v in table.items():
            _require(v, kinds[k], f"{section}.{k}")

    @property
    def is_3d(self) -> bool:
        """True when the grid carries a span (``nz``) dimension."""
        return "nz" in self.grid

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build and validate a spec from a plain nested dict.

        The loader contract: a dict either raises
        :class:`ConfigurationError` here or is a spec whose config
        builds and whose TOML reads back to the same :meth:`digest`.
        """
        d = _require_mapping(data, "<spec>")
        unknown = set(d) - set(_SECTIONS)
        if unknown:
            raise ConfigurationError(
                f"unknown scenario spec keys {sorted(unknown)}; expected "
                f"a subset of {sorted(_SECTIONS)}"
            )
        missing = [k for k, req in _SECTIONS.items() if req and k not in d]
        if missing:
            raise ConfigurationError(
                f"scenario spec is missing required keys {missing}"
            )
        tags = d.get("tags", ())
        if not isinstance(tags, (list, tuple)):
            raise ConfigurationError(
                f"scenario spec field 'tags' must be a list, got {tags!r}"
            )
        spec = cls(
            name=d["name"],
            title=d["title"],
            description=d["description"],
            geometry=dict(_require_mapping(d["geometry"], "geometry")),
            freestream=dict(_require_mapping(d["freestream"], "freestream")),
            grid=dict(_require_mapping(d["grid"], "grid")),
            schedule=dict(_require_mapping(d["schedule"], "schedule")),
            seed=d["seed"],
            validation=dict(_require_mapping(d["validation"], "validation")),
            boundaries=dict(
                _require_mapping(d.get("boundaries", {}), "boundaries")
            ),
            unsteady=(
                dict(_require_mapping(d["unsteady"], "unsteady"))
                if d.get("unsteady") is not None
                else None
            ),
            tags=tuple(tags),
        )
        spec.build_config()
        return spec

    @classmethod
    def from_toml(cls, path: Union[str, pathlib.Path]) -> "ScenarioSpec":
        """Parse a TOML scenario file (stdlib ``tomllib``, Python 3.11+).

        The repo supports 3.9+ without third-party TOML parsers, so on
        older interpreters this raises a clear :class:`ConfigurationError`
        instead of importing anything new; the dict path
        (:meth:`from_dict`) is always available.
        """
        try:
            import tomllib
        except ModuleNotFoundError:
            raise ConfigurationError(
                "TOML scenario files need Python 3.11+ (stdlib tomllib); "
                "use ScenarioSpec.from_dict on this interpreter"
            ) from None
        with open(path, "rb") as fh:
            return cls.from_dict(tomllib.load(fh))

    def to_dict(self) -> Dict[str, Any]:
        """Plain nested dict (JSON/TOML-serializable) round-tripping
        through :meth:`from_dict` to an equal spec."""
        out: Dict[str, Any] = {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "seed": self.seed,
            "geometry": dict(self.geometry),
            "freestream": dict(self.freestream),
            "grid": dict(self.grid),
            "schedule": dict(self.schedule),
            "validation": _deep_copy_jsonish(self.validation),
        }
        if self.boundaries:
            out["boundaries"] = dict(self.boundaries)
        if self.unsteady is not None:
            out["unsteady"] = dict(self.unsteady)
        if self.tags:
            out["tags"] = list(self.tags)
        return out

    def canonical_json(self) -> str:
        """Canonical serialization: :meth:`to_dict` as minified JSON
        with sorted keys, so two equal specs -- however their dicts
        were ordered -- serialize byte-identically."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """Stable content digest (sha256 hex of :meth:`canonical_json`).

        Equal specs (including :meth:`from_dict`/:meth:`to_dict`
        round-trips) share a digest; any semantic change -- a grid
        size, a freestream number, a validation check -- changes it.
        The service layer keys its result cache on it, and snapshots or
        telemetry can stamp runs with it.
        """
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def to_toml(self) -> str:
        """TOML text parsing back through :meth:`from_toml` to an
        equal spec (the committed ``examples/scenarios/*.toml`` files
        are generated from this, so spec and file never drift)."""
        d = self.to_dict()
        lines = []
        for key in ("name", "title", "description", "seed"):
            lines.append(f"{key} = {_toml_value(d[key])}")
        if "tags" in d:
            lines.append(f"tags = {_toml_value(d['tags'])}")
        for section in ("geometry", "freestream", "grid", "schedule",
                        "boundaries", "unsteady"):
            if section in d:
                lines += ["", f"[{section}]"]
                lines += [
                    f"{k} = {_toml_value(v)}" for k, v in d[section].items()
                ]
        val = d["validation"]
        lines += ["", "[validation]"]
        if "golden" in val:
            lines.append(f"golden = {_toml_value(val['golden'])}")
        if "overrides" in val:
            lines += ["", "[validation.overrides]"]
            lines += [
                f"{k} = {_toml_value(v)}"
                for k, v in val["overrides"].items()
            ]
        for check in val.get("checks", ()):
            lines += ["", "[[validation.checks]]"]
            lines += [f"{k} = {_toml_value(v)}" for k, v in check.items()]
        return "\n".join(lines) + "\n"

    # -- building ---------------------------------------------------------

    def build_body(self, nx: Optional[int] = None, angle=None):
        """Construct the body for a grid of ``nx`` columns (None = spec's)."""
        geom = dict(self.geometry)
        kind = geom.pop("kind")
        if kind == "none":
            return None
        nx = int(self.grid["nx"]) if nx is None else int(nx)
        placement = geom.pop("placement", None)
        if angle is not None:
            if kind != "wedge":
                raise ConfigurationError(
                    f"scenario {self.name!r}: the angle override only "
                    f"applies to wedge geometry, not {kind!r}"
                )
            geom["angle_deg"] = float(angle)
        if placement == "paper":
            # The legacy CLI's grid-derived placement, expression for
            # expression -- the bitwise-identity contract of the wedge
            # scenario.
            extra = set(geom) ^ {"angle_deg"}
            if extra:
                raise ConfigurationError(
                    f"scenario {self.name!r}: paper placement derives "
                    f"the wedge from the grid and its angle_deg; "
                    f"unexpected or missing keys {sorted(extra)}"
                )
            return Wedge(
                x_leading=nx / 4.9,
                base=nx / 3.92,
                angle_deg=float(geom["angle_deg"]),
            )
        where = f"scenario {self.name!r} geometry"
        return _from_plain(Wedge, {**geom, "kind": kind}, where)

    def build_config(self, **overrides) -> SimulationConfig:
        """A :class:`SimulationConfig` for this scenario.

        ``overrides`` accepts the :data:`OVERRIDE_KEYS` subset used by
        CLI flags and reduced-scale validation runs; unknown keys raise.
        A grid with ``nz`` builds the z-periodic slab
        (:class:`~repro.geometry.domain3d.Domain3D`).
        """
        _check_override_keys(overrides, self.name)
        ov = dict(overrides)
        ov.pop("transient", None)
        ov.pop("average", None)
        nx = int(ov.pop("nx", self.grid["nx"]))
        ny = int(ov.pop("ny", self.grid["ny"]))
        nz = ov.pop("nz", self.grid.get("nz"))
        fs = dict(self.freestream)
        for k in ("mach", "c_mp", "density", "lambda_mfp"):
            if k in ov:
                fs[k] = float(ov.pop(k))
        seed = ov.pop("seed", self.seed)
        body = self.build_body(nx=nx, angle=ov.pop("angle", None))
        bnd = dict(self.boundaries)
        kwargs: Dict[str, Any] = {}
        if "plunger_trigger" in bnd:
            kwargs["plunger_trigger"] = float(bnd["plunger_trigger"])
        if "wall_model" in bnd:
            kwargs["wall_model"] = bnd["wall_model"]
        if "accommodation" in bnd:
            kwargs["accommodation"] = float(bnd["accommodation"])
        return SimulationConfig(
            domain=(
                Domain3D(nx, ny, int(nz)) if self.is_3d else Domain(nx, ny)
            ),
            freestream=Freestream(**fs),
            wedge=body,
            seed=seed,
            scenario=self.name,
            **kwargs,
        )

    def build_simulation(
        self,
        overrides: Optional[Mapping] = None,
        replicas: Optional[int] = None,
        **kwargs,
    ):
        """Construct the ready-to-run run: the one place a spec becomes
        one.

        One block by default (:class:`~repro.core.simulation.Simulation`);
        ``replicas=R`` builds R replica blocks
        (:class:`~repro.ensemble.EnsembleEngine`, replica ids
        ``0..R-1``).  ``kwargs`` (``backend=``, ``telemetry=``) pass
        through to either.
        """
        config = self.build_config(**(overrides or {}))
        if replicas is None:
            return Simulation(config, **kwargs)
        from repro.ensemble.engine import EnsembleEngine

        return EnsembleEngine(config, n_replicas=replicas, **kwargs)

    def resolve_schedule(self, overrides: Optional[Mapping] = None):
        """``(transient, average)`` step counts after overrides."""
        overrides = overrides or {}
        transient = int(overrides.get("transient", self.schedule["transient"]))
        average = int(overrides.get("average", self.schedule["average"]))
        return transient, average


def _check_override_keys(overrides: Mapping, name: str) -> None:
    unknown = set(overrides) - set(OVERRIDE_KEYS)
    if unknown:
        raise ConfigurationError(
            f"scenario {name!r}: unknown override keys {sorted(unknown)}; "
            f"expected a subset of {OVERRIDE_KEYS}"
        )


def _toml_value(value) -> str:
    """Serialize one scalar/list as a TOML literal.

    JSON string quoting is a valid TOML basic string for the ASCII
    content specs carry; ints/floats round-trip through ``repr``.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__} to TOML")


def _deep_copy_jsonish(value):
    if isinstance(value, Mapping):
        return {k: _deep_copy_jsonish(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_deep_copy_jsonish(v) for v in value]
    return value

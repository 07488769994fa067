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

import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.core.simulation import Simulation, SimulationConfig
from repro.errors import ConfigurationError
from repro.geometry.bodies import BODY_KINDS, body_from_dict
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
        raise ConfigurationError(
            f"scenario spec section {where!r} must be a table/dict, "
            f"got {type(value).__name__}"
        )
    return dict(value)


def _require_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"scenario spec field {where!r} must be an integer, "
            f"got {value!r}"
        )
    return value


def _require_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"scenario spec field {where!r} must be a number, got {value!r}"
        )
    return float(value)


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
        grid = _require_mapping(self.grid, "grid")
        for k in ("nx", "ny"):
            if k not in grid:
                raise ConfigurationError(
                    f"scenario {self.name!r}: grid.{k} is required"
                )
            _require_int(grid[k], f"grid.{k}")
        extra = set(grid) - {"nx", "ny", "nz"}
        if extra:
            raise ConfigurationError(
                f"scenario {self.name!r}: unknown grid keys {sorted(extra)}"
            )
        fs = _require_mapping(self.freestream, "freestream")
        for k in ("mach", "c_mp", "lambda_mfp", "density"):
            if k not in fs:
                raise ConfigurationError(
                    f"scenario {self.name!r}: freestream.{k} is required"
                )
            _require_number(fs[k], f"freestream.{k}")
        extra = set(fs) - {"mach", "c_mp", "lambda_mfp", "density", "gamma"}
        if extra:
            raise ConfigurationError(
                f"scenario {self.name!r}: unknown freestream keys "
                f"{sorted(extra)}"
            )
        sched = _require_mapping(self.schedule, "schedule")
        for k in ("transient", "average"):
            if k not in sched:
                raise ConfigurationError(
                    f"scenario {self.name!r}: schedule.{k} is required"
                )
            _require_int(sched[k], f"schedule.{k}")
        bnd = _require_mapping(self.boundaries, "boundaries")
        extra = set(bnd) - {"plunger_trigger", "wall_model", "accommodation"}
        if extra:
            raise ConfigurationError(
                f"scenario {self.name!r}: unknown boundaries keys "
                f"{sorted(extra)}"
            )
        if self.unsteady is not None:
            uns = _require_mapping(self.unsteady, "unsteady")
            for k in ("windows", "window_steps"):
                if _require_int(uns.get(k, 0), f"unsteady.{k}") <= 0:
                    raise ConfigurationError(
                        f"scenario {self.name!r}: unsteady.{k} must be a "
                        "positive integer"
                    )
            extra = set(uns) - {"windows", "window_steps"}
            if extra:
                raise ConfigurationError(
                    f"scenario {self.name!r}: unknown unsteady keys "
                    f"{sorted(extra)}"
                )
        _require_int(self.seed, "seed")
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
        if "overrides" in val:
            _check_override_keys(val["overrides"], self.name)
        # Dry-construct the body so malformed geometry parameters fail
        # at spec definition, not first use.
        self.build_body()

    @property
    def is_3d(self) -> bool:
        """True when the grid carries a span (``nz``) dimension."""
        return "nz" in self.grid

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build and validate a spec from a plain nested dict."""
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
        return cls(
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
            tags=tuple(d.get("tags", ())),
        )

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
            extra = set(geom) - {"angle_deg"}
            if extra:
                raise ConfigurationError(
                    f"scenario {self.name!r}: paper placement derives "
                    f"the wedge from the grid; unexpected keys "
                    f"{sorted(extra)}"
                )
            return Wedge(
                x_leading=nx / 4.9,
                base=nx / 3.92,
                angle_deg=float(geom["angle_deg"]),
            )
        try:
            return body_from_dict({**geom, "kind": kind})
        except TypeError as exc:
            raise ConfigurationError(
                f"scenario {self.name!r}: bad geometry parameters for "
                f"kind {kind!r}: {exc}"
            ) from None

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

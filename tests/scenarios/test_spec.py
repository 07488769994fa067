"""Scenario spec: round-trip identity, TOML sync, malformed rejection."""

import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.domain3d import Domain3D
from repro.parallel.backend import ShardedBackend
from repro.scenarios import ScenarioSpec, all_specs, get
from repro.scenarios.spec import config_from_dict, config_to_dict

REPO = pathlib.Path(__file__).resolve().parents[2]
TOML_DIR = REPO / "examples" / "scenarios"


def minimal_dict():
    """A valid spec dict for perturbation tests."""
    return {
        "name": "t",
        "title": "a test scenario",
        "description": "perturbation fixture",
        "geometry": {
            "kind": "wedge",
            "x_leading": 10.0,
            "base": 12.5,
            "angle_deg": 30.0,
        },
        "freestream": {
            "mach": 4.0,
            "c_mp": 0.14,
            "lambda_mfp": 0.0,
            "density": 10.0,
        },
        "grid": {"nx": 49, "ny": 32},
        "schedule": {"transient": 10, "average": 10},
        "seed": 1,
        "validation": {
            "checks": [
                {
                    "name": "upstream",
                    "kind": "band_mean",
                    "x": [2, 8],
                    "y": [2, 28],
                    "expect": "const",
                    "value": 1.0,
                    "abs_tol": 0.1,
                }
            ]
        },
    }


class TestRoundTrip:
    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    def test_dict_round_trip_identity(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    def test_toml_round_trip_identity(self, spec, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / f"{spec.name}.toml"
        path.write_text(spec.to_toml())
        assert ScenarioSpec.from_toml(path) == spec

    def test_minimal_dict_is_valid(self):
        spec = ScenarioSpec.from_dict(minimal_dict())
        assert spec.name == "t"
        assert not spec.is_3d


class TestCommittedTomlSync:
    """examples/scenarios/*.toml must mirror the registry exactly."""

    def test_every_scenario_has_a_toml_file(self):
        missing = [
            s.name
            for s in all_specs()
            if not (TOML_DIR / f"{s.name}.toml").exists()
        ]
        assert not missing, (
            f"scenarios without examples/scenarios/<name>.toml: {missing}; "
            "regenerate with ScenarioSpec.to_toml()"
        )

    def test_no_orphan_toml_files(self):
        from repro.scenarios import names

        orphans = [
            p.name
            for p in TOML_DIR.glob("*.toml")
            if p.stem not in names()
        ]
        assert not orphans

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    def test_toml_file_equals_registered_spec(self, spec):
        pytest.importorskip("tomllib")
        path = TOML_DIR / f"{spec.name}.toml"
        assert ScenarioSpec.from_toml(path) == spec, (
            f"{path} drifted from the registered spec; regenerate it "
            "with spec.to_toml()"
        )


class TestMalformedSpecs:
    @pytest.mark.parametrize("key", [
        "name", "title", "geometry", "freestream", "grid", "schedule",
        "seed", "validation",
    ])
    def test_missing_required_key(self, key):
        d = minimal_dict()
        del d[key]
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(d)

    def test_unknown_top_level_key(self):
        d = minimal_dict()
        d["wedgle"] = {}
        with pytest.raises(ConfigurationError, match="wedgle"):
            ScenarioSpec.from_dict(d)

    def test_unknown_geometry_kind(self):
        d = minimal_dict()
        d["geometry"] = {"kind": "sphere", "radius": 3.0}
        with pytest.raises(ConfigurationError, match="sphere"):
            ScenarioSpec.from_dict(d)

    def test_bad_geometry_parameters(self):
        d = minimal_dict()
        d["geometry"] = {"kind": "cylinder", "cx": 20.0, "bogus": 1.0}
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(d)

    def test_non_mapping_section(self):
        d = minimal_dict()
        d["freestream"] = [4.0, 0.14]
        with pytest.raises(ConfigurationError, match="freestream"):
            ScenarioSpec.from_dict(d)

    def test_non_integer_grid(self):
        d = minimal_dict()
        d["grid"] = {"nx": "wide", "ny": 32}
        with pytest.raises(ConfigurationError, match="nx"):
            ScenarioSpec.from_dict(d)

    def test_missing_freestream_field(self):
        d = minimal_dict()
        del d["freestream"]["density"]
        with pytest.raises(ConfigurationError, match="density"):
            ScenarioSpec.from_dict(d)

    def test_empty_checks_rejected(self):
        d = minimal_dict()
        d["validation"] = {"checks": []}
        with pytest.raises(ConfigurationError, match="checks"):
            ScenarioSpec.from_dict(d)

    def test_check_without_expect(self):
        d = minimal_dict()
        del d["validation"]["checks"][0]["expect"]
        with pytest.raises(ConfigurationError, match="expect"):
            ScenarioSpec.from_dict(d)

    def test_unknown_validation_override_key(self):
        d = minimal_dict()
        d["validation"]["overrides"] = {"bogus": 3}
        with pytest.raises(ConfigurationError, match="bogus"):
            ScenarioSpec.from_dict(d)

    def test_placement_on_non_wedge(self):
        d = minimal_dict()
        d["geometry"] = {"kind": "cylinder", "placement": "paper"}
        with pytest.raises(ConfigurationError, match="placement"):
            ScenarioSpec.from_dict(d)

    def test_unsteady_requires_positive_windows(self):
        d = minimal_dict()
        d["unsteady"] = {"windows": 0, "window_steps": 45}
        with pytest.raises(ConfigurationError, match="windows"):
            ScenarioSpec.from_dict(d)


class TestBuilding:
    def test_paper_placement_matches_legacy_expressions(self):
        body = get("wedge").build_body(nx=98)
        assert body.x_leading == 98 / 4.9
        assert body.base == 98 / 3.92
        assert body.angle_deg == 30.0

    def test_angle_override_rejected_on_non_wedge(self):
        with pytest.raises(ConfigurationError, match="angle"):
            get("cylinder").build_config(angle=25.0)

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            get("wedge").build_config(bogus=1)

    def test_3d_spec_builds_slab_config(self):
        config = get("wedge3d").build_config(nz=3)
        assert config.domain == Domain3D(40, 26, 3)
        assert config.scenario == "wedge3d"
        # ``nz`` only means something to a grid that declares a span.
        assert get("wedge").build_config(nz=3).domain == Domain(98, 64)

    def test_3d_spec_passes_engine_kwargs(self):
        backend = ShardedBackend(2, processes=False)
        with get("wedge3d").build_simulation(backend=backend) as sim:
            assert sim.backend is backend
            assert sim.step().n_flow > 0

    def test_build_config_tags_scenario_name(self):
        config = get("cylinder").build_config()
        assert config.scenario == "cylinder"


class TestDigest:
    """ScenarioSpec.digest(): the service result-cache key material."""

    def test_digest_is_sha256_hex(self):
        digest = ScenarioSpec.from_dict(minimal_dict()).digest()
        assert len(digest) == 64
        int(digest, 16)  # hex or raise

    def test_digest_survives_dict_round_trip(self):
        spec = ScenarioSpec.from_dict(minimal_dict())
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again.digest() == spec.digest()

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    def test_registry_digests_survive_toml_round_trip(self, spec, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / f"{spec.name}.toml"
        path.write_text(spec.to_toml())
        assert ScenarioSpec.from_toml(path).digest() == spec.digest()

    def test_digest_insensitive_to_dict_ordering(self):
        d = minimal_dict()
        scrambled = dict(reversed(list(d.items())))
        assert (
            ScenarioSpec.from_dict(d).digest()
            == ScenarioSpec.from_dict(scrambled).digest()
        )

    def test_any_physics_change_moves_the_digest(self):
        base = ScenarioSpec.from_dict(minimal_dict()).digest()
        bumped = minimal_dict()
        bumped["freestream"]["mach"] = 4.5
        assert ScenarioSpec.from_dict(bumped).digest() != base

    def test_distinct_registry_scenarios_have_distinct_digests(self):
        digests = [s.digest() for s in all_specs()]
        assert len(set(digests)) == len(digests)


def _paths(value, path=()):
    """The path of every node below ``value`` (a nested dict/list)."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [
        p for k, v in items for p in [path + (k,), *_paths(v, path + (k,))]
    ]


#: What a hand-written file or a ``POST /jobs`` body can put in a node.
ODD_VALUES = [
    None, True, 0, -1, 3, 2**63, 0.0, -0.5, 1e308, float("inf"),
    float("-inf"), float("nan"), "", "x", [], [1.0], {}, {"a": 1},
]


class TestLoaderContract:
    """Any one node of a registered spec, replaced or dropped: the dict
    either raises ``ConfigurationError`` in ``from_dict`` or loads a
    spec that builds its config and round-trips through TOML to the
    same digest -- never an untyped error, at load or later.  The config
    it builds round-trips through the snapshot's JSON too."""

    @pytest.fixture(scope="class")
    def toml_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "spec.toml"

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_spec_raises_typed_or_round_trips(self, toml_path, data):
        pytest.importorskip("tomllib")
        d = data.draw(st.sampled_from(all_specs())).to_dict()
        *parent, leaf = data.draw(st.sampled_from(_paths(d)))
        node = d
        for key in parent:
            node = node[key]
        if isinstance(node, dict) and data.draw(st.booleans()):
            del node[leaf]
        else:
            node[leaf] = data.draw(st.sampled_from(ODD_VALUES))
        try:
            spec = ScenarioSpec.from_dict(d)
        except ConfigurationError:
            return
        config = spec.build_config()
        blob = json.dumps(config_to_dict(config))
        assert config_from_dict(json.loads(blob)) == dataclasses.replace(
            config, seed=None
        )
        toml_path.write_text(spec.to_toml())
        assert ScenarioSpec.from_toml(toml_path).digest() == spec.digest()

"""Registry: lookup errors, completeness contract, CI sync, wedge identity."""

import pathlib

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    all_specs,
    get,
    names,
    register,
    validate_contract,
)
from repro.verify import state_digest

REPO = pathlib.Path(__file__).resolve().parents[2]
EXPECTED = (
    "wedge", "flat_plate", "cylinder", "channel", "impulsive_start",
    "wedge3d",
)


class TestLookup:
    def test_builtin_library_registered(self):
        assert set(EXPECTED) <= set(names())

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigurationError) as exc:
            get("nope")
        msg = str(exc.value)
        for name in names():
            assert name in msg

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register(get("wedge"))


class TestCompleteness:
    """Every registered scenario carries a runnable acceptance contract:
    each check either compares against closed-form theory or has a
    committed golden entry (with tolerance) to compare against."""

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    def test_contract_is_complete(self, spec):
        validate_contract(spec)

    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.name)
    def test_theory_or_golden(self, spec):
        for check in spec.validation["checks"]:
            expect = check["expect"]
            assert (
                expect.startswith("theory:")
                or expect in ("golden", "const")
            ), f"{spec.name}/{check['name']}: unknown expect {expect!r}"


class TestCIMatrixSync:
    def test_every_scenario_in_ci_matrix(self):
        """A scenario registered without a CI matrix row never gets
        validated in CI -- fail loudly here instead."""
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        lines = {ln.strip() for ln in ci.splitlines()}
        missing = [n for n in names() if f"- {n}" not in lines]
        assert not missing, (
            f"scenarios absent from the ci.yml scenario matrix: {missing}"
        )


class TestWedgeIdentity:
    """The registry-built wedge is the legacy CLI construction, bit for
    bit: same config fields, same RNG stream, same particle state."""

    def _legacy_config(self, nx, ny, mach, angle, density, lam, seed):
        from repro.core.simulation import SimulationConfig
        from repro.geometry.domain import Domain
        from repro.geometry.wedge import Wedge
        from repro.physics.freestream import Freestream

        return SimulationConfig(
            domain=Domain(nx, ny),
            freestream=Freestream(
                mach=mach, c_mp=0.14, lambda_mfp=lam, density=density
            ),
            wedge=Wedge(
                x_leading=nx / 4.9, base=nx / 3.92, angle_deg=angle
            ),
            seed=seed,
        )

    @pytest.mark.parametrize("nx,ny,mach,angle,density,lam,seed", [
        (98, 64, 4.0, 30.0, 12.0, 0.0, 1989),
        (49, 32, 4.0, 30.0, 10.0, 0.0, 7),
        (49, 32, 3.5, 25.0, 10.0, 0.5, 123),
    ])
    def test_config_fields_identical(
        self, nx, ny, mach, angle, density, lam, seed
    ):
        legacy = self._legacy_config(nx, ny, mach, angle, density, lam, seed)
        built = get("wedge").build_config(
            nx=nx, ny=ny, mach=mach, angle=angle, density=density,
            lambda_mfp=lam, seed=seed,
        )
        assert built.domain == legacy.domain
        assert built.freestream == legacy.freestream
        assert built.wedge == legacy.wedge
        assert built.seed == legacy.seed
        assert built.plunger_trigger == legacy.plunger_trigger
        assert built.wall_model == legacy.wall_model
        assert built.accommodation == legacy.accommodation
        # The only permitted delta: the metadata tag.
        assert built.scenario == "wedge" and legacy.scenario is None

    @pytest.mark.slow
    def test_short_run_particle_state_identical(self):
        from repro.core.simulation import Simulation

        legacy = Simulation(
            self._legacy_config(49, 32, 4.0, 30.0, 8.0, 0.0, 42)
        )
        built = get("wedge").build_simulation(
            {"nx": 49, "ny": 32, "density": 8.0, "seed": 42}
        )
        legacy.run(40)
        built.run(40)
        assert state_digest(built) == state_digest(legacy)

"""Seed robustness: the physics must not depend on the random stream.

DSMC results are statistical; the validation numbers must agree across
independent random seeds within their statistical scatter, or the
"result" is an artifact of one lucky stream.
"""

import numpy as np
import pytest

import repro.core.sortstep as sortstep_mod
from repro.analysis.shock import fit_shock_angle, post_shock_plateau
from repro.core.simulation import Simulation, SimulationConfig
from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream

pytestmark = pytest.mark.slow

SEEDS = (101, 202, 303)


def _validation_run(seed):
    """200 + 200 steps of the near-continuum wedge; its observables."""
    cfg = SimulationConfig(
        domain=Domain(49, 32),
        freestream=Freestream(
            mach=4.0, c_mp=0.14, lambda_mfp=0.0, density=12.0
        ),
        wedge=Wedge(x_leading=10.0, base=12.5, angle_deg=30.0),
        seed=seed,
    )
    sim = Simulation(cfg)
    energy_start = sim.run(200).total_energy
    diags = [sim.step(sample=True) for _ in range(200)]
    rho = sim.density_ratio_field()
    fit = fit_shock_angle(rho, cfg.wedge)
    return {
        "angle": fit.angle_deg,
        "plateau": post_shock_plateau(rho, cfg.wedge, fit),
        "collisions": float(np.mean([d.n_collisions for d in diags])),
        "energy_drift": diags[-1].total_energy / energy_start - 1.0,
    }


@pytest.fixture(scope="module")
def three_runs():
    runs = [_validation_run(seed) for seed in SEEDS]
    return [(r["angle"], r["plateau"]) for r in runs]


class TestSeedIndependence:
    def test_shock_angles_agree(self, three_runs):
        angles = [r[0] for r in three_runs]
        assert max(angles) - min(angles) < 3.0
        assert np.mean(angles) == pytest.approx(45.0, abs=2.5)

    def test_plateaus_agree(self, three_runs):
        plateaus = [r[1] for r in three_runs]
        assert max(plateaus) - min(plateaus) < 0.3
        assert np.mean(plateaus) == pytest.approx(3.7, rel=0.08)


class TestStorageOrderIsNotPhysics:
    """The re-sort period decides where a particle lives, never whom
    it may meet: ``reflection_pairs`` gives every same-cell pair
    probability 1/m under any slot order, so a run that re-sorts its
    rows every ``RESORT_PERIOD`` steps and one that (after step 0, which
    merely relabels an exchangeable seeded population) never does are
    two samples of one distribution.  Six independent seeds a side; each
    observable's arm means must differ by less than three standard
    errors of the difference.  Measured, every 32 / never (z):
    collisions per step 10 103 / 10 115 (-1.5; the standard error is
    0.08 % of the mean), plateau 3.546 / 3.524 (+0.6), shock angle
    46.14 / 46.22 deg (-0.3), 200-step energy drift -1.29 % / -1.50 %
    (+0.7).
    """

    ARMS = {
        "every-32": (sortstep_mod.RESORT_PERIOD, (11, 12, 13, 14, 15, 16)),
        "never": (10**9, (21, 22, 23, 24, 25, 26)),
    }

    @pytest.fixture(scope="class")
    def arms(self):
        out = {}
        for name, (period, seeds) in self.ARMS.items():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sortstep_mod, "RESORT_PERIOD", period)
                out[name] = [_validation_run(seed) for seed in seeds]
        return out

    @pytest.mark.parametrize(
        "observable", ["collisions", "plateau", "angle", "energy_drift"]
    )
    def test_observable_agrees_within_its_confidence_interval(
        self, arms, observable
    ):
        a, b = (
            np.array([run[observable] for run in arms[name]])
            for name in ("every-32", "never")
        )
        stderr = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        z = (a.mean() - b.mean()) / stderr
        assert abs(z) < 3.0, (
            f"{observable}: {a.mean():.5g} re-sorting every 32 steps, "
            f"{b.mean():.5g} never ({z:+.1f} standard errors apart)"
        )

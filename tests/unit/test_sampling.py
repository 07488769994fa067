"""Unit tests for macroscopic sampling."""

import numpy as np
import pytest

from repro.core.cells import assign_cells
from repro.core.particles import ParticleArrays
from repro.core.sampling import SAMPLER_FIELDS, CellSampler
from repro.core.sortstep import blocked_cell_key
from repro.errors import ConfigurationError
from repro.geometry.domain import Domain
from repro.geometry.domain3d import Domain3D
from repro.geometry.wedge import Wedge
from repro.physics.freestream import Freestream


@pytest.fixture
def fs():
    return Freestream(mach=4.0, c_mp=0.2, lambda_mfp=0.5, density=20.0)


@pytest.fixture
def snapshot(rng, fs):
    d = Domain(10, 8)
    pop = ParticleArrays.from_freestream(rng, 20 * d.n_cells, fs, (0, 10), (0, 8))
    assign_cells(pop, d)
    return d, pop


class TestDensity:
    def test_uniform_density_recovered(self, snapshot):
        d, pop = snapshot
        s = CellSampler(d)
        s.accumulate(pop)
        dens = s.number_density()
        assert dens.shape == d.shape
        assert dens.mean() == pytest.approx(20.0, rel=0.01)

    def test_time_average_reduces_noise(self, rng, fs):
        d = Domain(10, 8)
        s1 = CellSampler(d)
        s50 = CellSampler(d)
        for i in range(50):
            pop = ParticleArrays.from_freestream(
                rng, 10 * d.n_cells, fs, (0, 10), (0, 8)
            )
            assign_cells(pop, d)
            if i == 0:
                s1.accumulate(pop)
            s50.accumulate(pop)
        assert s50.number_density().std() < s1.number_density().std()

    def test_density_ratio(self, snapshot, fs):
        d, pop = snapshot
        s = CellSampler(d)
        s.accumulate(pop)
        assert s.density_ratio(fs.density).mean() == pytest.approx(1.0, rel=0.01)

    def test_volume_correction(self, rng, fs):
        # Particles only in the open half of a half-blocked cell should
        # report the full local density after correction.
        d = Domain(4, 4)
        vf = np.ones(d.shape)
        vf[1, 1] = 0.5
        s = CellSampler(d, vf)
        pop = ParticleArrays.from_freestream(rng, 160, fs, (0, 4), (0, 4))
        assign_cells(pop, d)
        s.accumulate(pop)
        raw = s.number_density(correct_volumes=False)
        corrected = s.number_density(correct_volumes=True)
        assert corrected[1, 1] == pytest.approx(2.0 * raw[1, 1])
        assert corrected[0, 0] == raw[0, 0]

    def test_fully_blocked_cell_reports_zero(self, rng, fs):
        d = Domain(4, 4)
        vf = np.ones(d.shape)
        vf[2, 2] = 0.0
        s = CellSampler(d, vf)
        pop = ParticleArrays.from_freestream(rng, 50, fs, (0, 4), (0, 4))
        assign_cells(pop, d)
        s.accumulate(pop)
        assert s.number_density()[2, 2] == 0.0

    def test_requires_data(self, snapshot):
        d, _ = snapshot
        with pytest.raises(ConfigurationError):
            CellSampler(d).number_density()

    def test_reset(self, snapshot):
        d, pop = snapshot
        s = CellSampler(d)
        s.accumulate(pop)
        s.reset()
        assert s.steps == 0
        with pytest.raises(ConfigurationError):
            s.number_density()

    def test_vf_shape_checked(self):
        with pytest.raises(ConfigurationError):
            CellSampler(Domain(4, 4), np.ones((3, 3)))


class TestMoments:
    def test_mean_velocity_recovers_drift(self, snapshot, fs):
        d, pop = snapshot
        s = CellSampler(d)
        s.accumulate(pop)
        u, v, w = s.mean_velocity()
        assert u.mean() == pytest.approx(fs.speed, abs=0.01)
        assert abs(v.mean()) < 0.01

    def test_translational_temperature(self, snapshot, fs):
        d, pop = snapshot
        s = CellSampler(d)
        s.accumulate(pop)
        rt = s.translational_temperature()
        assert rt.mean() == pytest.approx(fs.rt, rel=0.05)

    def test_rotational_temperature(self, snapshot, fs):
        d, pop = snapshot
        s = CellSampler(d)
        s.accumulate(pop)
        rt = s.rotational_temperature(rotational_dof=2)
        assert rt.mean() == pytest.approx(fs.rt, rel=0.05)

    def test_empty_cells_report_zero_velocity(self, rng, fs):
        d = Domain(4, 4)
        pop = ParticleArrays.from_freestream(rng, 10, fs, (0, 1), (0, 1))
        assign_cells(pop, d)
        s = CellSampler(d)
        s.accumulate(pop)
        u, _, _ = s.mean_velocity()
        assert u[3, 3] == 0.0

    def test_mean_particles_per_cell(self, snapshot):
        d, pop = snapshot
        s = CellSampler(d)
        s.accumulate(pop)
        assert s.mean_particles_per_cell() == pytest.approx(20.0, rel=0.01)

    def test_wedge_volume_fractions_integration(self, rng, fs):
        d = Domain(30, 20)
        w = Wedge(x_leading=8, base=10, angle_deg=30)
        vf = w.open_volume_fractions(d)
        s = CellSampler(d, vf)
        pop = ParticleArrays.from_freestream(rng, 5000, fs, (0, 30), (0, 20))
        keep = ~w.inside(pop.x, pop.y)
        pop = pop.select(keep)
        assign_cells(pop, d)
        s.accumulate(pop)
        dens = s.number_density()
        assert np.isfinite(dens).all()


def _old_spelling(sums, particles, key, n_bins):
    """The accumulate body both samplers carried before the shared
    kernel: allocating squares, the short-axis ``sum(axis=1)``.  Kept
    as the in-test oracle the kernel must match bit for bit."""
    sums["_count"] += np.bincount(key, minlength=n_bins)
    sums["_mu"] += np.bincount(key, weights=particles.u, minlength=n_bins)
    sums["_mv"] += np.bincount(key, weights=particles.v, minlength=n_bins)
    sums["_mw"] += np.bincount(key, weights=particles.w, minlength=n_bins)
    csq = particles.u**2 + particles.v**2 + particles.w**2
    sums["_e_trans"] += np.bincount(key, weights=csq, minlength=n_bins)
    if particles.rot.size:
        rsq = (particles.rot**2).sum(axis=1)
        sums["_e_rot"] += np.bincount(key, weights=rsq, minlength=n_bins)


def _population(seed, n, fs, domain, rotational_dof, scratch):
    rng = np.random.default_rng(seed)
    pop = ParticleArrays.from_freestream(
        rng, n, fs, (0, domain.nx), (0, domain.ny),
        rotational_dof=rotational_dof,
    )
    if domain.has_span:
        pop.z = rng.uniform(0.0, domain.depth, size=n)
    if scratch:
        pop.enable_scratch()
    assign_cells(pop, domain)
    return pop


def _assert_fields_equal(sampler, sums):
    for name in SAMPLER_FIELDS:
        assert np.array_equal(getattr(sampler, name), sums[name]), name


class TestMomentKernelMatchesOldSpelling:
    @pytest.mark.parametrize("n", [0, 1500])
    @pytest.mark.parametrize("scratch", [False, True])
    @pytest.mark.parametrize(
        "domain", [Domain(10, 8), Domain3D(10, 8, 4)], ids=["2d", "span"]
    )
    @pytest.mark.parametrize("rotational_dof", [0, 2, 3])
    def test_cell_sampler_is_bitwise_the_old_spelling(
        self, fs, rotational_dof, domain, scratch, n
    ):
        footprint = domain.xy_domain()
        span = domain.n_cells // footprint.n_cells
        s = CellSampler(domain)
        sums = {f: np.zeros(footprint.n_cells) for f in SAMPLER_FIELDS}
        # Three snapshots of different sizes: the pooled buffers are
        # reused, regrown and re-sliced between them.
        for step, size in enumerate((n, n // 3, 2 * n)):
            pop = _population(step, size, fs, domain, rotational_dof, scratch)
            s.accumulate(pop)
            _old_spelling(sums, pop, pop.cell // span, footprint.n_cells)
        assert s.steps == 3
        _assert_fields_equal(s, sums)

    @pytest.mark.parametrize("rotational_dof", [0, 2, 3])
    def test_ensemble_replica_is_a_solo_sampler_on_its_block(
        self, fs, rotational_dof
    ):
        d = Domain(10, 8)
        sizes = (400, 0, 650)
        starts = np.concatenate(([0], np.cumsum(sizes)))
        ens = CellSampler(d, n_blocks=len(sizes))
        solos = [CellSampler(d) for _ in sizes]
        sums = {f: np.zeros(d.n_cells * len(sizes)) for f in SAMPLER_FIELDS}
        for step in range(2):
            pop = _population(
                step, int(starts[-1]), fs, d, rotational_dof, scratch=True
            )
            pop.starts = starts
            ens.accumulate(pop)
            key = blocked_cell_key(pop.cell, starts, d.n_cells)
            _old_spelling(sums, pop, key, d.n_cells * len(sizes))
            for r, solo in enumerate(solos):
                solo.accumulate(pop.select(slice(starts[r], starts[r + 1])))
        _assert_fields_equal(ens, sums)
        for r, solo in enumerate(solos):
            rep = ens.block(r)
            assert rep.steps == solo.steps == 2
            for name in SAMPLER_FIELDS:
                assert np.array_equal(getattr(rep, name), getattr(solo, name))

    @pytest.mark.parametrize("bad", [-1, 80, 10**6, 10**15])
    @pytest.mark.parametrize(
        "domain", [Domain(10, 8), Domain3D(10, 8, 4)], ids=["2d", "span"]
    )
    def test_out_of_range_key_accumulates_nothing(self, fs, domain, bad):
        # ``bad`` is a footprint bin: below the first, one past the
        # last (80 cells), far past it, and too far to even allocate.
        pop = _population(0, 200, fs, domain, 2, scratch=True)
        s = CellSampler(domain)
        s.accumulate(pop)
        before = {f: getattr(s, f).copy() for f in SAMPLER_FIELDS}
        pop.cell[7] = bad * (domain.n_cells // domain.xy_domain().n_cells)
        with pytest.raises(ConfigurationError, match="out of range"):
            s.accumulate(pop)
        assert s.steps == 1
        _assert_fields_equal(s, before)

    def test_ensemble_key_length_checked(self, fs):
        # Blocks that do not end at the population key no particle.
        d = Domain(10, 8)
        pop = _population(0, 50, fs, d, 2, scratch=False)
        pop.starts = np.array([0, 20, 49])
        with pytest.raises(ConfigurationError, match="must equal the population"):
            CellSampler(d, n_blocks=2).accumulate(pop)

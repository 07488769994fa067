"""Unit tests for the CM-2 machine model and VP geometry."""

import numpy as np
import pytest

from repro.cm.machine import CM2, VPGeometry
from repro.errors import ConfigurationError, MachineError


class TestCM2:
    def test_paper_configuration(self):
        m = CM2()
        assert m.n_processors == 32 * 1024
        assert m.hypercube_dimension == 15

    def test_power_of_two_required(self):
        with pytest.raises(ConfigurationError):
            CM2(n_processors=3000)

    def test_invalid_reservation(self):
        with pytest.raises(ConfigurationError):
            CM2(backcompat_reserved=1.0)


class TestVPGeometry:
    def test_vpr_rounds_up(self):
        m = CM2(n_processors=1024)
        assert m.geometry(1024).vpr == 1
        assert m.geometry(1025).vpr == 2
        assert m.geometry(16 * 1024).vpr == 16

    def test_block_mapping(self):
        g = CM2(n_processors=4).geometry(8)  # vpr = 2
        assert g.physical_processor(np.array([0, 1, 2, 3])).tolist() == [0, 0, 1, 1]

    def test_vp_out_of_range(self):
        g = CM2(n_processors=4).geometry(8)
        with pytest.raises(MachineError):
            g.physical_processor(np.array([8]))

    def test_offchip_fraction_identity_is_zero(self):
        g = CM2(n_processors=4).geometry(16)
        vp = np.arange(16)
        assert g.offchip_fraction(vp, vp) == 0.0

    def test_offchip_fraction_reversal(self):
        g = CM2(n_processors=4).geometry(8)
        src = np.arange(8)
        dst = src[::-1].copy()
        # Reversal moves everything except the middle-block self-maps.
        assert g.offchip_fraction(src, dst) == 1.0

    def test_pair_offchip_full_at_vpr1(self):
        # VPR 1: every even/odd pair straddles two processors -- the
        # Figure 7 mechanism.
        g = CM2(n_processors=64).geometry(64)
        assert g.pair_offchip_fraction() == 1.0

    def test_pair_offchip_zero_at_even_vpr(self):
        for vpr in (2, 4, 16):
            g = CM2(n_processors=64).geometry(64 * vpr)
            assert g.pair_offchip_fraction() == 0.0

    def test_shape_mismatch_raises(self):
        g = CM2(n_processors=4).geometry(8)
        with pytest.raises(MachineError):
            g.offchip_fraction(np.arange(4), np.arange(5))

    def test_empty_send_pattern(self):
        g = CM2(n_processors=4).geometry(8)
        assert g.offchip_fraction(np.empty(0, int), np.empty(0, int)) == 0.0

    def test_nonpositive_vp_count(self):
        with pytest.raises(ConfigurationError):
            CM2(n_processors=4).geometry(0)

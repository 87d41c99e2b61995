"""Vth/mobility root-finding: consistency and failure modes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.devices.mosfet import MosfetModel
from repro.devices.params import device_for_node
from repro.devices.solver import fit_mobility_for_vth, solve_vth_for_ion
from repro.errors import CalibrationError
from repro.itrs import ITRS_2000


class TestSolveVth:
    @pytest.mark.parametrize("node_nm", ITRS_2000.node_sizes)
    def test_solution_meets_target(self, node_nm):
        device = device_for_node(node_nm)
        target = ITRS_2000.node(node_nm).ion_target_ua_um
        vth = solve_vth_for_ion(device, target)
        assert MosfetModel(device).ion_ua_um(vth_v=vth) \
            == pytest.approx(target, rel=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(target=st.floats(min_value=300.0, max_value=900.0))
    def test_solved_vth_monotone_in_target(self, target):
        device = device_for_node(100)
        easy = solve_vth_for_ion(device, target)
        hard = solve_vth_for_ion(device, target + 50.0)
        assert hard < easy  # more current needs a lower threshold

    def test_higher_vdd_allows_higher_vth(self):
        device = device_for_node(70)
        low = solve_vth_for_ion(device, 750.0, vdd_v=0.9)
        high = solve_vth_for_ion(device, 750.0, vdd_v=1.0)
        assert high > low

    def test_unreachable_target_raises(self):
        device = device_for_node(35)
        with pytest.raises(CalibrationError):
            solve_vth_for_ion(device, 5000.0)

    def test_trivial_target_raises(self):
        device = device_for_node(100)
        with pytest.raises(CalibrationError):
            solve_vth_for_ion(device, 1e-9)

    def test_nonpositive_target_raises(self):
        with pytest.raises(CalibrationError):
            solve_vth_for_ion(device_for_node(100), 0.0)


class TestFitMobility:
    def test_fit_round_trips(self):
        device = device_for_node(70)
        mu = fit_mobility_for_vth(device, vth_target_v=0.14,
                                  ion_target_ua_um=750.0)
        refit = device.with_mobility(mu)
        assert solve_vth_for_ion(refit, 750.0) == pytest.approx(
            0.14, abs=1e-3)

    def test_harder_vth_needs_more_mobility(self):
        device = device_for_node(70)
        mu_low = fit_mobility_for_vth(device, 0.10, 750.0)
        mu_high = fit_mobility_for_vth(device, 0.20, 750.0)
        assert mu_high > mu_low  # less overdrive -> stronger channel

    def test_impossible_fit_raises(self):
        device = device_for_node(35)
        with pytest.raises(CalibrationError):
            fit_mobility_for_vth(device, 0.45, 750.0,
                                 mu_max_cm2=1500.0)


class TestGuardedFailureModes:
    def test_forced_nonconvergence_carries_diagnostics(self):
        # An iteration budget too small for the tolerance must raise a
        # structured CalibrationError, never return a half-solved Vth.
        device = device_for_node(100)
        target = ITRS_2000.node(100).ion_target_ua_um
        with pytest.raises(CalibrationError) as excinfo:
            solve_vth_for_ion(device, target, xtol=1e-14, max_iter=1)
        error = excinfo.value
        assert error.iterations is not None and error.iterations >= 1
        assert error.fallback == "bisect"
        assert "vth-for-ion@100nm" in str(error)

    def test_converged_solution_is_always_finite(self):
        import math
        for node_nm in ITRS_2000.node_sizes:
            device = device_for_node(node_nm)
            target = ITRS_2000.node(node_nm).ion_target_ua_um
            assert math.isfinite(solve_vth_for_ion(device, target))


class TestMetalGateAblation:
    """Table 2's metal-gate what-if: removing gate depletion buys a Vth
    increase and a large Ioff cut (paper: 55 mV / 78 % at 35 nm)."""

    @staticmethod
    def _poly_and_metal(node_nm):
        """(Vth, Ioff) at the ITRS Ion target, poly then metal gate."""
        device = device_for_node(node_nm)
        target = ITRS_2000.node(node_nm).ion_target_ua_um
        metal = device.with_gate_stack(device.gate_stack.with_metal_gate())
        points = []
        for variant in (device, metal):
            vth = solve_vth_for_ion(variant, target)
            points.append(
                (vth, MosfetModel(variant.with_vth(vth)).ioff_na_um()))
        return points

    @pytest.mark.parametrize("node_nm", ITRS_2000.node_sizes)
    def test_metal_gate_gains_at_every_node(self, node_nm):
        (vth_poly, ioff_poly), (vth_metal, ioff_metal) = \
            self._poly_and_metal(node_nm)
        assert vth_metal > vth_poly
        assert 0.0 < 1.0 - ioff_metal / ioff_poly < 1.0

    def test_metal_gate_at_35nm(self):
        (vth_poly, ioff_poly), (vth_metal, ioff_metal) = \
            self._poly_and_metal(35)
        # Paper: a 55 mV Vth increase and a 78 % Ioff reduction.
        assert 40.0 < (vth_metal - vth_poly) * 1e3 < 90.0
        assert 0.70 < 1.0 - ioff_metal / ioff_poly < 0.90

    def test_absolute_leakage_saving_grows_with_scaling(self):
        # The fractional Ioff cut is largest at the old nodes (weak Vth
        # sensitivity there demands a big Vth shift), but the
        # *absolute* current saved explodes toward the nanometer nodes,
        # where it matters.
        def saved_na(node_nm):
            (_, ioff_poly), (_, ioff_metal) = self._poly_and_metal(node_nm)
            return ioff_poly - ioff_metal

        assert saved_na(35) > 50 * saved_na(180)

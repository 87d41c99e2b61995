"""Tests for the RLC supply-loop transient simulator."""

import math

import numpy as np
import pytest

from repro.errors import ModelParameterError, ReproError
from repro.pdn.transients import supply_impedance_ohm, wakeup_transient
from repro.pdn.transim import (
    MAX_STEPS,
    POINTS_PER_PERIOD,
    CurrentStimulus,
    SupplyLoop,
    select_step,
    simulate,
    supply_loop_for_node,
)


def _loop(zeta=0.3, vdd=1.2, ind=1e-11, cap=1e-7, esr=0.0):
    z0 = math.sqrt(ind / cap)
    return SupplyLoop(vdd_v=vdd, inductance_h=ind,
                      resistance_ohm=2.0 * zeta * z0 - esr,
                      decap_f=cap, esr_ohm=esr)


def _trapezoid_v_die(loop, stimulus, time_s):
    """Crank-Nicolson reference oracle: die voltage on a uniform grid.

    A-stable and second order: one 2x2 solve folded into two constant
    matrices, then a sequential update per step, starting settled at
    the stimulus' first current like :func:`simulate`.
    """
    a, b = loop.state_matrices()
    dt = float(time_s[1] - time_s[0])
    eye = np.eye(2)
    backward = np.linalg.inv(eye - 0.5 * dt * a)
    m1 = backward @ (eye + 0.5 * dt * a)
    m2 = backward @ (0.5 * dt * b)
    i_load = stimulus.current_at(time_s)
    u = np.column_stack([np.full_like(time_s, loop.vdd_v), i_load])
    states = np.empty((len(time_s), 2))
    states[0] = loop.steady_state(float(stimulus.currents_a[0]))
    for k in range(len(time_s) - 1):
        states[k + 1] = m1 @ states[k] + m2 @ (u[k] + u[k + 1])
    return loop.die_voltage(states[:, 0], states[:, 1], i_load)


class TestSupplyLoop:
    def test_derived_quantities(self):
        loop = _loop(zeta=0.25, ind=4e-11, cap=1e-7)
        assert loop.z0_ohm == pytest.approx(math.sqrt(4e-11 / 1e-7))
        assert loop.omega0_rad_s == pytest.approx(
            1.0 / math.sqrt(4e-11 * 1e-7))
        assert loop.period_s == pytest.approx(
            2.0 * math.pi * math.sqrt(4e-11 * 1e-7))
        assert loop.damping_ratio == pytest.approx(0.25)

    def test_undamped_loop_never_settles(self):
        assert _loop(zeta=0.0).settle_s == math.inf

    def test_validation(self):
        with pytest.raises(ModelParameterError):
            SupplyLoop(vdd_v=0.0, inductance_h=1e-11,
                       resistance_ohm=0.0, decap_f=1e-7)
        with pytest.raises(ModelParameterError):
            SupplyLoop(vdd_v=1.0, inductance_h=-1e-11,
                       resistance_ohm=0.0, decap_f=1e-7)
        with pytest.raises(ModelParameterError):
            SupplyLoop(vdd_v=1.0, inductance_h=1e-11,
                       resistance_ohm=-0.1, decap_f=1e-7)

    def test_node_factory_matches_closed_forms(self):
        loop = supply_loop_for_node(100, False)
        # the loop's Z0 must equal the roadmap closed form used by
        # supply_impedance_ohm (same bumps, same decap density)
        sized = supply_loop_for_node(100, False, damping_ratio=0.5)
        assert sized.damping_ratio == pytest.approx(0.5)
        assert sized.z0_ohm == pytest.approx(loop.z0_ohm)
        minp = supply_loop_for_node(100, True)
        assert minp.inductance_h < loop.inductance_h

    def test_node_factory_validation(self):
        with pytest.raises(ModelParameterError):
            supply_loop_for_node(100, False, ir_fraction=1.5)
        with pytest.raises(ModelParameterError):
            supply_loop_for_node(100, False, damping_ratio=-0.1)
        with pytest.raises(ModelParameterError):
            supply_loop_for_node(100, False, decap_f=-1e-9)


class TestCurrentStimulus:
    def test_step_ramp_shapes(self):
        step = CurrentStimulus.step(1.0, 5.0, at_s=2e-9)
        assert step.current_at(1e-9) == pytest.approx(1.0)
        assert step.current_at(3e-9) == pytest.approx(5.0)
        ramp = CurrentStimulus.ramp(0.0, 10.0, 1e-9, 2e-9)
        assert ramp.current_at(2e-9) == pytest.approx(5.0)
        assert ramp.current_at(1e-8) == pytest.approx(10.0)

    def test_periodic_and_samples(self):
        burst = CurrentStimulus.periodic(1.0, 9.0, 1e-8, 3)
        assert burst.last_time_s == pytest.approx(3e-8)
        assert max(burst.currents_a) == 9.0
        sampled = CurrentStimulus.from_samples(1e-9, [2.0, 7.0, 3.0])
        assert sampled.current_at(0.5e-9) == pytest.approx(2.0)
        assert sampled.current_at(1.5e-9) == pytest.approx(7.0)

    def test_segments_cover_duration(self):
        ramp = CurrentStimulus.ramp(0.0, 10.0, 1e-9, 2e-9)
        segments = ramp.segments(1e-8)
        assert segments[0][0] == 0.0
        assert segments[-1][1] == pytest.approx(1e-8)
        for (_, end_a, _, _), (start_b, _, _, _) in zip(
                segments, segments[1:]):
            assert end_a == start_b
        # the middle segment carries the ramp slope
        slopes = [seg[3] for seg in segments]
        assert max(slopes) == pytest.approx(10.0 / 2e-9)

    def test_validation(self):
        with pytest.raises(ModelParameterError):
            CurrentStimulus((1e-9,), (1.0,))  # must start at 0
        with pytest.raises(ModelParameterError):
            CurrentStimulus((0.0, 2e-9, 1e-9), (1.0, 1.0, 1.0))
        with pytest.raises(ModelParameterError):
            CurrentStimulus((0.0,), (-1.0,))
        with pytest.raises(ModelParameterError):
            CurrentStimulus.ramp(0.0, 1.0, 0.0, 0.0)


class TestClosedFormAgreement:
    @pytest.mark.parametrize("node_nm", [100, 50])
    @pytest.mark.parametrize("use_min_pitch", [False, True])
    def test_wakeup_kick_within_5pct(self, node_nm, use_min_pitch):
        """Acceptance criterion: L di/dt agreement at fine steps."""
        analytic = wakeup_transient(node_nm, use_min_pitch)
        loop = supply_loop_for_node(node_nm, use_min_pitch,
                                    damping_ratio=0.8)
        active = analytic.current_step_a / 0.95
        stim = CurrentStimulus.ramp(0.05 * active, active,
                                    0.0, analytic.wake_time_s)
        result = simulate(loop, stim, 4.0 * analytic.wake_time_s,
                          dt_s=loop.period_s / 256.0)
        assert result.peak_inductor_kick_v == pytest.approx(
            analytic.droop_v, rel=0.05)

    def test_step_droop_matches_z0(self):
        loop = supply_loop_for_node(100, False, damping_ratio=0.01)
        di = 50.0
        stim = CurrentStimulus.step(10.0, 10.0 + di)
        result = simulate(loop, stim, 1.5 * loop.period_s,
                          dt_s=loop.period_s / 2048.0)
        assert result.max_droop_v == pytest.approx(di * loop.z0_ohm,
                                                   rel=0.02)

    def test_z0_factory_matches_transients_module(self):
        from repro.pdn.bumps import VDD_PAD_FRACTION
        from repro.itrs import ITRS_2000
        record = ITRS_2000.node(100)
        n_bumps = round(record.itrs_total_pads * VDD_PAD_FRACTION)
        loop = supply_loop_for_node(100, False)
        assert loop.z0_ohm == pytest.approx(
            supply_impedance_ohm(n_bumps, record.die_area_m2))


class TestIntegrators:
    def test_lossless_loop_conserves_energy(self):
        loop = SupplyLoop(vdd_v=1.0, inductance_h=1e-11,
                          resistance_ohm=0.0, decap_f=1e-7)
        stim = CurrentStimulus.ramp(5.0, 60.0, 0.0, 2e-9)
        result = simulate(loop, stim, 1e-8,
                          dt_s=loop.period_s / 512.0)
        balance = result.energy_balance()
        assert balance["dissipated_j"] == 0.0
        assert abs(balance["residual_j"]) \
            <= 1e-5 * abs(balance["source_j"])

    def test_trapezoid_converges_to_exact_quadratically(self):
        loop = supply_loop_for_node(100, False, damping_ratio=0.3)
        stim = CurrentStimulus.ramp(5.0, 55.0, 0.0,
                                    loop.period_s * 0.4)
        duration = loop.period_s * 3.0
        errors = []
        for points in (64, 256, 1024):
            dt = loop.period_s / points
            exact = simulate(loop, stim, duration, dt_s=dt)
            trap = _trapezoid_v_die(loop, stim, exact.time_s)
            errors.append(float(np.max(np.abs(trap - exact.v_die_v))))
        # second-order: each 4x refinement cuts the error ~16x
        assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.2)
        assert errors[1] / errors[2] == pytest.approx(16.0, rel=0.2)

    def test_exact_is_grid_independent(self):
        """The exact path samples the same trajectory at any dt."""
        loop = supply_loop_for_node(100, False, damping_ratio=0.2)
        stim = CurrentStimulus.ramp(5.0, 50.0, 0.0,
                                    loop.period_s * 0.5)
        duration = loop.period_s * 2.0
        coarse = simulate(loop, stim, duration,
                          dt_s=loop.period_s / 32.0)
        fine = simulate(loop, stim, duration,
                        dt_s=loop.period_s / 512.0)
        # coarse samples lie on the fine trajectory
        on_fine = np.interp(coarse.time_s, fine.time_s, fine.v_die_v)
        assert np.max(np.abs(on_fine - coarse.v_die_v)) \
            <= 1e-9 * loop.vdd_v + 1e-12

    def test_critically_damped_propagator(self):
        loop = _loop(zeta=1.0)
        stim = CurrentStimulus.step(0.0, 40.0, at_s=loop.period_s / 4)
        result = simulate(loop, stim, loop.period_s * 2.0)
        assert np.all(np.isfinite(result.v_die_v))
        # no ringing: voltage never overshoots the rail
        assert result.v_die_v.max() <= loop.vdd_v * (1.0 + 1e-9)

    def test_esr_paths_agree(self):
        loop = SupplyLoop(vdd_v=1.2, inductance_h=1e-12,
                          resistance_ohm=1e-4, decap_f=1e-6,
                          esr_ohm=5e-4)
        stim = CurrentStimulus.step(0.0, 80.0, at_s=1e-9)
        exact = simulate(loop, stim, 1e-8)
        trap = _trapezoid_v_die(loop, stim, exact.time_s)
        assert exact.max_droop_v == pytest.approx(
            float(np.max(loop.vdd_v - trap)), rel=0.01)


class TestStepSelectorAndMethods:
    def test_selector_resolves_resonance(self):
        loop = _loop()
        stim = CurrentStimulus.step(0.0, 10.0, at_s=1e-9)
        dt = select_step(loop, stim, loop.period_s * 4.0)
        assert dt <= loop.period_s / POINTS_PER_PERIOD

    def test_selector_honours_finer_request_only(self):
        loop = _loop()
        stim = CurrentStimulus.step(0.0, 10.0, at_s=1e-9)
        bound = loop.period_s / POINTS_PER_PERIOD
        assert select_step(loop, stim, loop.period_s, bound * 10) \
            == pytest.approx(bound)
        assert select_step(loop, stim, loop.period_s, bound / 10) \
            == pytest.approx(bound / 10)

    def test_selector_caps_step_count(self):
        loop = _loop()
        stim = CurrentStimulus.step(0.0, 10.0, at_s=1e-9)
        with pytest.raises(ReproError):
            select_step(loop, stim, loop.period_s * 4.0,
                        loop.period_s / (4.0 * MAX_STEPS))

    def test_result_metadata(self):
        loop = _loop()
        stim = CurrentStimulus.step(0.0, 10.0, at_s=1e-9)
        result = simulate(loop, stim, loop.period_s)
        assert result.n_steps == len(result.time_s) - 1
        assert result.dt_s == pytest.approx(
            result.time_s[1] - result.time_s[0])

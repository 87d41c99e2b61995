"""Lumped thermal RC network."""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.errors import ModelParameterError
from repro.thermal.rc_network import (
    ThermalNetwork,
    ThermalStage,
    default_thermal_network,
)


@pytest.fixture
def network():
    return default_thermal_network(0.5)


def test_theta_ja_is_sum_of_stages(network):
    assert network.theta_ja == pytest.approx(0.5)


def test_starts_at_ambient(network):
    assert network.junction_c == pytest.approx(45.0)


def test_steady_state_matches_eq1(network):
    temps = network.steady_state_c(80.0)
    assert temps[0] == pytest.approx(45.0 + 0.5 * 80.0)
    # Temperatures fall monotonically toward ambient.
    assert all(a > b for a, b in zip(temps, temps[1:]))


def test_settle(network):
    network.settle(60.0)
    assert network.junction_c == pytest.approx(45.0 + 30.0)


def test_step_converges_to_steady_state(network):
    network.settle(0.0)
    for _ in range(400):
        network.step(50.0, 1.0)
    assert network.junction_c == pytest.approx(
        network.steady_state_c(50.0)[0], abs=0.5)


def test_zero_power_cools_to_ambient(network):
    network.settle(80.0)
    for _ in range(600):
        network.step(0.0, 1.0)
    assert network.junction_c == pytest.approx(45.0, abs=0.5)


def test_die_responds_fast_sink_slow(network):
    network.settle(40.0)
    before = list(network.temperatures_c)
    network.step(120.0, 0.05)  # 50 ms
    after = network.temperatures_c
    die_rise = after[0] - before[0]
    sink_rise = after[-1] - before[-1]
    assert die_rise > 10.0 * max(sink_rise, 1e-9)


def test_monotone_heating(network):
    network.settle(20.0)
    temps = []
    for _ in range(50):
        temps.append(network.step(100.0, 0.2))
    assert all(a <= b + 1e-9 for a, b in zip(temps, temps[1:]))


def test_reset(network):
    network.settle(100.0)
    network.reset()
    assert network.temperatures_c == [45.0] * 3
    network.reset(60.0)
    assert network.temperatures_c == [60.0] * 3


def test_energy_balance_steady_state(network):
    # In steady state the flow through each stage equals the input power.
    power = 70.0
    temps = network.steady_state_c(power)
    for index, stage in enumerate(network.stages):
        downstream = (temps[index + 1] if index + 1 < len(temps)
                      else network.t_ambient_c)
        flow = (temps[index] - downstream) / stage.resistance_c_per_w
        assert flow == pytest.approx(power)


@pytest.mark.parametrize("call", [
    lambda n: n.step(-1.0, 0.1),
    lambda n: n.step(10.0, 0.0),
    lambda n: n.steady_state_c(-5.0),
])
def test_validation(network, call):
    with pytest.raises(ModelParameterError):
        call(network)


def test_stage_validation():
    with pytest.raises(ModelParameterError):
        ThermalStage("bad", capacity_j_per_k=0.0, resistance_c_per_w=0.1)
    with pytest.raises(ModelParameterError):
        ThermalNetwork([])
    with pytest.raises(ModelParameterError):
        default_thermal_network(0.0)


def _euler_junction(network, power_w, duration_s, n_steps):
    """Explicit-Euler reference oracle: junction temperature after
    ``n_steps`` equal steps from the network's current state."""
    stages = network.stages
    temps = list(network.temperatures_c)
    dt = duration_s / n_steps
    for _ in range(n_steps):
        downstream = temps[1:] + [network.t_ambient_c]
        flows_out = [(t - t_next) / stage.resistance_c_per_w
                     for t, t_next, stage in zip(temps, downstream, stages)]
        inflows = [power_w] + flows_out[:-1]
        temps = [t + (inflow - out) * dt / stage.capacity_j_per_k
                 for t, inflow, out, stage
                 in zip(temps, inflows, flows_out, stages)]
    return temps[0]


def test_euler_oracle_converges_at_first_order(network):
    network.settle(20.0)
    euler = [_euler_junction(network, 100.0, 0.1, n_steps)
             for n_steps in (64, 128, 256, 512)]
    exact = network.step(100.0, 0.1)
    errors = [abs(value - exact) for value in euler]
    # first order: each halving of the Euler step halves the error
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(2.0, rel=0.05)


def _stiff_stack():
    # A tiny upstream resistance into a small-capacity middle stage:
    # the mode time constants span seven decades (10 us to 200 s).
    return ThermalNetwork([
        ThermalStage("die", capacity_j_per_k=0.3,
                     resistance_c_per_w=0.001),
        ThermalStage("spreader", capacity_j_per_k=0.01,
                     resistance_c_per_w=10.0),
        ThermalStage("sink", capacity_j_per_k=400.0,
                     resistance_c_per_w=0.5),
    ])


@pytest.mark.parametrize("make", [lambda: default_thermal_network(0.5),
                                  _stiff_stack], ids=["default", "stiff"])
def test_two_steps_equal_one_double_step(make):
    for dt in np.logspace(-4, 2, 25):
        twice, once = make(), make()
        for net in (twice, once):
            net.settle(20.0)
            net.step(100.0, 0.3)  # leave steady state
        twice.step(100.0, dt)
        twice.step(100.0, dt)
        once.step(100.0, 2.0 * dt)
        for a, b in zip(twice.temperatures_c, once.temperatures_c):
            assert a == pytest.approx(b, abs=1e-9)


def _expm_step(network, power_w, dt):
    """Reference oracle: the top rows of scipy's expm of the augmented
    generator over [T, P, T_amb] applied to the network's state."""
    n = len(network.stages)
    generator = np.zeros((n + 2, n + 2))
    generator[0, n] = 1.0 / network.stages[0].capacity_j_per_k
    for index, stage in enumerate(network.stages):
        other = index + 1 if index + 1 < n else n + 1  # next or ambient
        for row, col in ((index, other), (other, index)):
            if row < n:
                rate = 1.0 / (stage.resistance_c_per_w
                              * network.stages[row].capacity_j_per_k)
                generator[row, row] -= rate
                generator[row, col] += rate
    state = [*network.temperatures_c, power_w, network.t_ambient_c]
    return expm(generator * dt)[:n] @ state


# Against a 40-digit reference both methods err by ~1e-13 C on the
# default stack and by ~1e-8 C on the stiff one (its mode time
# constants span seven decades), hence the per-stack tolerance.
@pytest.mark.parametrize("make,tol", [
    (lambda: default_thermal_network(0.5), 1e-11),
    (_stiff_stack, 1e-7),
], ids=["default", "stiff"])
def test_step_matches_expm_oracle(make, tol):
    for dt in np.logspace(-4, 2, 13):
        network = make()
        network.settle(20.0)
        network.t_ambient_c = 30.0  # ambient away from the settle point
        expected = _expm_step(network, 100.0, dt)
        network.step(100.0, dt)
        for got, want in zip(network.temperatures_c, expected):
            assert got == pytest.approx(want, abs=tol)


@pytest.mark.parametrize("dt", [1.0, 10.0, 100.0])
def test_long_steps_reach_steady_state(network, dt):
    for _ in range(int(5000.0 / dt)):
        network.step(80.0, dt)
    for reached, target in zip(network.temperatures_c,
                               network.steady_state_c(80.0)):
        assert reached == pytest.approx(target, abs=1e-9)


def test_stiff_stack_heats_monotonically():
    # Regression from the explicit-Euler era: a stack whose middle
    # stage has a tiny upstream resistance violated the Euler stability
    # bound and oscillated/diverged.  The exact step must approach
    # steady state monotonically.
    stiff = _stiff_stack()
    power = 50.0
    ceiling = max(stiff.steady_state_c(power)) + 1.0
    previous = stiff.junction_c
    for _ in range(200):
        current = stiff.step(power, 0.05)
        # monotone approach to steady state: no oscillation, no blow-up
        assert current >= previous - 1e-9
        assert current <= ceiling
        previous = current

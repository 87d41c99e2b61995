"""Gate-stack model: electrical vs physical oxide thickness."""

import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.devices.oxide import (
    GATE_DEPLETION_A,
    GateStack,
    GateType,
    INVERSION_LAYER_A,
)
from repro.errors import ModelParameterError


def test_poly_stack_adds_seven_angstrom():
    # Paper: "the oxide appears ~0.7 nm thicker than the physical layer".
    stack = GateStack(tox_physical_a=20.0)
    assert stack.tox_electrical_a == pytest.approx(
        20.0 + INVERSION_LAYER_A + GATE_DEPLETION_A)
    assert INVERSION_LAYER_A + GATE_DEPLETION_A == pytest.approx(7.0)


def test_metal_gate_removes_depletion_only():
    poly = GateStack(tox_physical_a=5.0)
    metal = poly.with_metal_gate()
    assert metal.tox_electrical_a == pytest.approx(
        poly.tox_electrical_a - GATE_DEPLETION_A)
    assert metal.gate_type is GateType.METAL


def test_with_poly_round_trip():
    stack = GateStack(tox_physical_a=10.0, gate_type=GateType.METAL)
    assert stack.with_poly_gate().gate_type is GateType.POLY


def test_coxe_matches_parallel_plate():
    stack = GateStack(tox_physical_a=22.0)
    expected = units.EPSILON_OX / units.angstrom(29.0)
    assert stack.coxe == pytest.approx(expected)


def test_cox_physical_exceeds_coxe():
    stack = GateStack(tox_physical_a=10.0)
    assert stack.cox_physical > stack.coxe


def test_metal_gate_raises_coxe():
    poly = GateStack(tox_physical_a=5.0)
    assert poly.with_metal_gate().coxe > poly.coxe


def test_relative_metal_benefit_grows_as_oxide_thins():
    thick = GateStack(tox_physical_a=22.0)
    thin = GateStack(tox_physical_a=5.0)
    gain_thick = thick.with_metal_gate().coxe / thick.coxe
    gain_thin = thin.with_metal_gate().coxe / thin.coxe
    assert gain_thin > gain_thick


def test_metal_benefit_grows_along_the_roadmap():
    # Removing the fixed 2.5 A of gate depletion boosts Coxe more as
    # the physical oxide thins node by node.
    from repro.devices.params import device_for_node
    from repro.itrs import ITRS_2000

    gains = []
    for node_nm in ITRS_2000.node_sizes:
        stack = device_for_node(node_nm).gate_stack
        gains.append(stack.with_metal_gate().coxe / stack.coxe)
    assert all(a <= b + 1e-12 for a, b in zip(gains, gains[1:]))
    assert gains[-1] > gains[0]


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_nonpositive_thickness_rejected(bad):
    with pytest.raises(ModelParameterError):
        GateStack(tox_physical_a=bad)


@given(st.floats(min_value=1.0, max_value=100.0))
def test_electrical_always_thicker_than_physical(tox):
    stack = GateStack(tox_physical_a=tox)
    assert stack.tox_electrical_a > tox
    assert stack.with_metal_gate().tox_electrical_a > tox


@given(st.floats(min_value=1.0, max_value=100.0))
def test_coxe_monotone_in_thickness(tox):
    thicker = GateStack(tox_physical_a=tox + 1.0)
    assert GateStack(tox_physical_a=tox).coxe > thicker.coxe

"""Logic simulation: functional correctness, toggles, glitches."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.gate import GateKind
from repro.circuits.library import build_library
from repro.circuits.mcml import CMOS_GLITCH_FACTOR
from repro.errors import NetlistError
from repro.netlist.graph import Netlist
from repro.netlist.logic import (
    evaluate_gate,
    measured_activity,
    random_vectors,
    simulate,
)
from repro.netlist.generate import random_netlist


@pytest.fixture(scope="module")
def library():
    return build_library(100)


class TestGateFunctions:
    def test_inverter(self):
        assert evaluate_gate(GateKind.INVERTER, (False,)) is True
        assert evaluate_gate(GateKind.INVERTER, (True,)) is False

    @pytest.mark.parametrize("a,b,expected", [
        (False, False, True), (False, True, True),
        (True, False, True), (True, True, False),
    ])
    def test_nand(self, a, b, expected):
        assert evaluate_gate(GateKind.NAND, (a, b)) is expected

    @pytest.mark.parametrize("a,b,expected", [
        (False, False, True), (False, True, False),
        (True, False, False), (True, True, False),
    ])
    def test_nor(self, a, b, expected):
        assert evaluate_gate(GateKind.NOR, (a, b)) is expected

    def test_bad_arity(self):
        with pytest.raises(NetlistError):
            evaluate_gate(GateKind.INVERTER, (True, False))


class TestVectors:
    def test_deterministic(self):
        netlist = random_netlist(100, n_gates=40, seed=0)
        a = random_vectors(netlist, 20, seed=3)
        b = random_vectors(netlist, 20, seed=3)
        assert a == b

    def test_flip_probability_controls_input_activity(self):
        netlist = random_netlist(100, n_gates=40, seed=0)
        busy = random_vectors(netlist, 400, seed=1,
                              flip_probability=0.9)
        quiet = random_vectors(netlist, 400, seed=1,
                               flip_probability=0.05)

        def toggles(vectors):
            total = 0
            for before, after in zip(vectors, vectors[1:]):
                total += sum(before[k] != after[k] for k in before)
            return total

        assert toggles(busy) > 5 * toggles(quiet)

    def test_validation(self):
        netlist = random_netlist(100, n_gates=40, seed=0)
        with pytest.raises(NetlistError):
            random_vectors(netlist, 0)
        with pytest.raises(NetlistError):
            random_vectors(netlist, 10, flip_probability=1.5)


class TestSimulation:
    def test_known_chain(self, library):
        # a -> inv -> inv: the second inverter tracks the input.
        netlist = Netlist(100, clock_period_s=1e-9)
        netlist.add_input("a")
        inv = library.cells_of_kind(GateKind.INVERTER)[4]
        netlist.add_instance("g0", inv, ("a",))
        netlist.add_instance("g1", inv, ("g0",))
        netlist.finalize()
        vectors = [{"a": False}, {"a": True}, {"a": True},
                   {"a": False}]
        result = simulate(netlist, vectors)
        assert result.functional_toggles["g0"] == 2
        assert result.functional_toggles["g1"] == 2
        assert result.activity("g0") == pytest.approx(2.0 / 3.0)

    def test_constant_inputs_no_toggles(self):
        netlist = random_netlist(100, n_gates=60, seed=5)
        vector = {name: True for name in netlist.primary_inputs}
        result = simulate(netlist, [dict(vector), dict(vector)])
        assert all(count == 0
                   for count in result.functional_toggles.values())
        assert result.mean_glitch_factor() == 1.0

    def test_glitches_at_least_functional(self):
        netlist = random_netlist(100, n_gates=150, seed=7)
        result = measured_activity(netlist, n_vectors=100, seed=2)
        for name in result.functional_toggles:
            assert result.total_transitions[name] \
                >= result.functional_toggles[name]
        assert result.mean_glitch_factor() >= 1.0

    def test_reconvergent_nand_glitches(self, library):
        # a NAND(a, inv(inv(a)))-style path difference creates a hazard
        # under unit delay: build x = NAND(a, b') where b' = inv(inv(b))
        # with a = b so the two pin paths have different depths.
        netlist = Netlist(100, clock_period_s=1e-9)
        netlist.add_input("a")
        inv = library.cells_of_kind(GateKind.INVERTER)[4]
        nand = library.cells_of_kind(GateKind.NAND)[4]
        netlist.add_instance("i0", inv, ("a",))
        netlist.add_instance("i1", inv, ("i0",))
        netlist.add_instance("x", nand, ("a", "i1"))
        netlist.finalize()
        # x = NAND(a, a) = inv(a) functionally; on a rising edge of a,
        # pin 1 rises immediately while pin 2 rises two units later,
        # so x can glitch low-high-low... depending on state ordering.
        vectors = [{"a": False}, {"a": True}, {"a": False},
                   {"a": True}, {"a": False}]
        result = simulate(netlist, vectors)
        assert result.total_transitions["x"] \
            >= result.functional_toggles["x"]

    def test_mean_activity_tracks_input_activity(self):
        netlist = random_netlist(100, n_gates=150, seed=9)
        busy = measured_activity(netlist, n_vectors=200, seed=3,
                                 flip_probability=0.5)
        quiet = measured_activity(netlist, n_vectors=200, seed=3,
                                  flip_probability=0.02)
        assert busy.mean_activity() > 4 * quiet.mean_activity()
        # Quiet inputs land in the paper's 0.01-0.1 "logic" band.
        assert 0.005 < quiet.mean_activity() < 0.12

    @pytest.mark.parametrize("flip,band", [(0.03, (0.005, 0.12)),
                                           (0.5, (0.1, 0.5))])
    def test_activity_bands(self, flip, band):
        netlist = random_netlist(100, n_gates=200, seed=23)
        result = measured_activity(netlist, n_vectors=300, seed=3,
                                   flip_probability=flip)
        low, high = band
        assert low < result.mean_activity() < high

    def test_busy_traffic_glitch_regime(self):
        # Busy traffic produces the high-activity regime; the glitch
        # factor exceeds one and sits below the conservative datapath
        # multiplier used by the MCML comparison (random logic glitches
        # less than arithmetic).
        netlist = random_netlist(100, n_gates=250, seed=21, max_depth=24)
        result = measured_activity(netlist, n_vectors=300, seed=1)
        assert 0.1 < result.mean_activity() < 0.5
        assert 1.0 <= result.mean_glitch_factor() <= CMOS_GLITCH_FACTOR

    def test_vector_validation(self):
        netlist = random_netlist(100, n_gates=40, seed=0)
        with pytest.raises(NetlistError):
            simulate(netlist, [{"pi0": True}])
        with pytest.raises(NetlistError):
            simulate(netlist, [{"pi0": True}, {"pi0": False}])

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_unit_delay_settles_to_functional(self, seed):
        # The simulate() function internally cross-checks that the
        # unit-delay waves settle to the zero-delay values; any
        # disagreement raises.  Property: it never raises.
        netlist = random_netlist(70, n_gates=80, seed=seed,
                                 max_depth=10)
        measured_activity(netlist, n_vectors=30, seed=seed)

"""Incremental timing engine: equivalence with full STA."""

import heapq
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import EXPERIMENTS
from repro.errors import NetlistError
from repro.netlist.generate import random_netlist
from repro.netlist.graph import lc_delay_factor
from repro.netlist.io import read_netlist
from repro.netlist.sta import TimingCore, compute_sta
from repro.optim.incremental import IncrementalTimer

DATA = Path(__file__).parent / "data"


@pytest.fixture
def netlist():
    return random_netlist(100, n_gates=150, seed=11, clock_margin=1.2)


def test_initial_state_matches_full_sta(netlist):
    timer = IncrementalTimer(netlist)
    report = compute_sta(netlist)
    assert timer.critical_delay_s == pytest.approx(
        report.critical_delay_s)
    for name in netlist.topo_order():
        assert timer.arrival_s[name] == pytest.approx(
            report.arrival_s[name])


def test_accepted_change_matches_full_sta(netlist):
    timer = IncrementalTimer(netlist)
    name = list(netlist.topo_order())[50]
    instance = netlist.instances[name]
    instance.vth_v = instance.cell.device.vth_v + 0.05
    assert timer.try_change([name])
    report = compute_sta(netlist)
    for other in netlist.topo_order():
        assert timer.arrival_s[other] == pytest.approx(
            report.arrival_s[other]), other


def test_rejected_change_preserves_state(netlist):
    timer = IncrementalTimer(netlist)
    before = dict(timer.arrival_s)
    # Make a gate catastrophically slow so endpoints miss timing.
    name = list(netlist.topo_order())[0]
    instance = netlist.instances[name]
    instance.size_factor = 0.01
    accepted = timer.try_change([name])
    if accepted:
        pytest.skip("gate was not on any near-critical path")
    instance.size_factor = 1.0  # caller must revert
    assert timer.arrival_s == before


def test_meets_timing_flag(netlist):
    timer = IncrementalTimer(netlist)
    assert timer.meets_timing()
    assert not timer.meets_timing(period_s=timer.critical_delay_s * 0.5)


def test_unknown_name_rejected(netlist):
    timer = IncrementalTimer(netlist)
    with pytest.raises(NetlistError):
        timer.try_change(["ghost"])


def test_resize_changes_fanin_delays_too(netlist):
    # Shrinking a gate unloads its fanins; passing the fanins in
    # `changed` must leave the timer equivalent to a full STA.
    timer = IncrementalTimer(netlist)
    name = list(netlist.topo_order())[80]
    instance = netlist.instances[name]
    instance.size_factor = 0.5
    changed = [name] + [f for f in instance.fanins
                        if f in netlist.instances]
    if timer.try_change(changed):
        report = compute_sta(netlist)
        for other in netlist.topo_order():
            assert timer.arrival_s[other] == pytest.approx(
                report.arrival_s[other])


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500),
       picks=st.lists(st.integers(min_value=0, max_value=119),
                      min_size=3, max_size=8))
def test_random_mutation_sequence_stays_consistent(seed, picks):
    netlist = random_netlist(100, n_gates=120, seed=seed,
                             clock_margin=1.15)
    timer = IncrementalTimer(netlist)
    names = list(netlist.topo_order())
    for pick in picks:
        name = names[pick]
        instance = netlist.instances[name]
        previous = instance.vth_v
        instance.vth_v = instance.cell.device.vth_v + 0.08
        if not timer.try_change([name]):
            instance.vth_v = previous
    report = compute_sta(netlist)
    assert timer.critical_delay_s == pytest.approx(
        report.critical_delay_s)
    assert report.meets_timing()


def test_undriven_fanin_raises_at_construction(netlist):
    # A fanin that is neither a primary input nor a timed instance
    # used to be silently treated as arriving at t = 0, optimistically
    # passing timing; the timer must refuse the netlist instead.
    name = netlist.topo_order()[-1]
    instance = netlist.instances[name]
    instance.fanins = (*instance.fanins, "ghost-net")
    with pytest.raises(NetlistError, match="ghost-net"):
        IncrementalTimer(netlist)


def test_misnamed_fanin_raises_during_try_change(netlist):
    timer = IncrementalTimer(netlist)
    name = netlist.topo_order()[-1]
    instance = netlist.instances[name]
    instance.fanins = (*instance.fanins, "ghost-net")
    with pytest.raises(NetlistError, match="ghost-net"):
        timer.try_change([name])


# --- exactness of the timing core ------------------------------------------

#: Arrival tolerance of the incremental probes [s].
_EPS_S = 1e-15


def _oracle_delay(netlist, name):
    """One gate's delay from a fresh per-gate GateModel evaluation."""
    instance = netlist.instances[name]
    vdd = instance.effective_vdd(netlist.nominal_vdd_v)
    delay = instance.model().delay_s(netlist.load_f(name), vdd_v=vdd)
    if instance.level_converter:
        delay *= lc_delay_factor(vdd / netlist.nominal_vdd_v)
    return delay


def _oracle_arrivals(netlist, delay):
    arrival = {}
    for name in netlist.topo_order():
        latest = max((arrival[fanin]
                      for fanin in netlist.instances[name].fanins
                      if fanin in arrival), default=0.0)
        arrival[name] = latest + delay[name]
    return arrival


class _OracleTimer:
    """Dict-per-gate incremental timer evaluating every delay afresh.

    Same accept/prune rule as the core -- a wave stops where an arrival
    moves by at most ``_EPS_S``, and a gate with a fresh delay records
    its arrival even then -- so committed arrivals must agree to the
    bit.  A gate whose input capacitance moved re-times its fanins.
    """

    def __init__(self, netlist):
        self.netlist = netlist
        self.index = {name: i for i, name in enumerate(netlist.topo_order())}
        self.delay = {name: _oracle_delay(netlist, name)
                      for name in netlist.topo_order()}
        self.arrival = _oracle_arrivals(netlist, self.delay)
        self.input_cap = {name: instance.model().input_cap_f
                          for name, instance in netlist.instances.items()}

    def try_change(self, name, period_s):
        netlist = self.netlist
        instance = netlist.instances[name]
        input_cap = instance.model().input_cap_f
        retimed = {name}
        if input_cap != self.input_cap[name]:
            retimed.update(fanin for fanin in instance.fanins
                           if fanin in netlist.instances)
        delay = {other: _oracle_delay(netlist, other) for other in retimed}
        arrival = {}
        heap = sorted(self.index[other] for other in retimed)
        order = netlist.topo_order()
        while heap:
            current = order[heapq.heappop(heap)]
            latest = max((arrival.get(fanin, self.arrival[fanin])
                          for fanin in netlist.instances[current].fanins
                          if fanin in self.arrival), default=0.0)
            new = latest + delay.get(current, self.delay[current])
            if current in netlist.primary_outputs \
                    and new > period_s + _EPS_S:
                return False
            if abs(new - self.arrival[current]) <= _EPS_S:
                if current in retimed:
                    arrival[current] = new
                continue
            arrival[current] = new
            for sink in netlist.fanouts(current):
                if self.index[sink] not in heap:
                    heapq.heappush(heap, self.index[sink])
        self.delay.update(delay)
        self.arrival.update(arrival)
        self.input_cap[name] = input_cap
        return True


def _mutate(netlist, instance, kind):
    """Apply one optimizer-style mutation; return its undo."""
    saved = (instance.vdd_v, instance.vth_v, instance.size_factor,
             instance.level_converter)
    if kind == "vth":
        instance.vth_v = instance.cell.device.vth_v + 0.1
    elif kind == "vdd":
        instance.vdd_v = 0.6 * netlist.nominal_vdd_v
    elif kind == "shrink":
        instance.size_factor *= 0.4
    elif kind == "grow":
        instance.size_factor *= 1.6
    elif kind == "nudge":
        # Moves the delay by far less than the probes' tolerance.
        instance.vth_v = (instance.vth_v or instance.cell.device.vth_v) \
            + 1e-9
    else:
        instance.level_converter = not instance.level_converter

    def undo():
        (instance.vdd_v, instance.vth_v, instance.size_factor,
         instance.level_converter) = saved
    return undo


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       steps=st.lists(st.tuples(
           st.integers(min_value=0, max_value=89),
           st.sampled_from(["vth", "vdd", "shrink", "grow", "nudge",
                            "lc"]),
           st.booleans()), min_size=4, max_size=25))
def test_core_is_bit_identical_to_per_gate_oracle(seed, steps):
    netlist = random_netlist(100, n_gates=90, seed=seed, clock_margin=1.03)
    timer = TimingCore(netlist)
    oracle = _OracleTimer(netlist)
    names = netlist.topo_order()
    assert timer.delay_s == oracle.delay
    assert timer.arrival_s == oracle.arrival
    for pick, kind, unbounded in steps:
        name = names[pick]
        undo = _mutate(netlist, netlist.instances[name], kind)
        period = float("inf") if unbounded else netlist.clock_period_s
        # A resize lists only the resized gate, never its fanins.
        accepted = timer.try_change([name], period_s=period)
        assert accepted == oracle.try_change(name, period)
        if not accepted:
            undo()
        assert timer.arrival_s == oracle.arrival
        assert timer.delay_s == {other: _oracle_delay(netlist, other)
                                 for other in names}
        assert all(timer.load_f(other) == netlist.load_f(other)
                   for other in names)
    report = compute_sta(netlist)
    fresh = {name: _oracle_delay(netlist, name) for name in names}
    assert report.arrival_s == _oracle_arrivals(netlist, fresh)


def test_compute_sta_matches_per_gate_oracle_on_golden_netlist():
    netlist = read_netlist(str(DATA / "golden_cvs_40.rnl"))
    report = compute_sta(netlist)
    delay = {name: _oracle_delay(netlist, name)
             for name in netlist.topo_order()}
    assert report.arrival_s == _oracle_arrivals(netlist, delay)


@pytest.mark.parametrize("experiment_id", ["E-C3", "E-C4", "E-C5", "E-C7"])
def test_optimizer_outcomes_are_bit_identical(experiment_id):
    # Recorded as repr() strings from the per-gate timers the core
    # replaced; every greedy decision and float must survive exactly.
    expected = json.loads((DATA / "optim_outcomes.json").read_text())
    result = EXPERIMENTS[experiment_id].runner()
    assert {key: repr(value) for key, value in result.items()} \
        == expected[experiment_id]

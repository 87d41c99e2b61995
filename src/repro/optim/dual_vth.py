"""Dual-Vth assignment (Section 3.2.2, refs [22, 39]).

Starting from an all-low-Vth implementation (fastest, leakiest), gates
with timing slack are moved to the high threshold.  Candidates are
ranked by leakage-saving per unit delay cost and validated incrementally
against the clock, mirroring the sensitivity-based algorithms the paper
cites.  "Typical results show leakage power reductions of 40-80 % with
minimal penalty in critical path delay compared to all low-Vth
implementations."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelParameterError
from repro.netlist.graph import Netlist
from repro.netlist.power import netlist_power
from repro.netlist.sta import TimingCore

#: Default high-to-low threshold offset [V] (the 100 mV of Fig. 2).
DEFAULT_VTH_OFFSET_V = 0.100


@dataclass(frozen=True)
class DualVthResult:
    """Outcome of a dual-Vth assignment pass."""

    vth_high_v: float
    vth_low_v: float
    n_gates: int
    n_high_vth: int
    leakage_before_w: float
    leakage_after_w: float
    critical_before_s: float
    critical_after_s: float

    @property
    def high_vth_fraction(self) -> float:
        """Fraction of gates moved to the high threshold."""
        return self.n_high_vth / self.n_gates

    @property
    def leakage_saving(self) -> float:
        """Fractional leakage reduction vs the all-low-Vth baseline."""
        if self.leakage_before_w == 0:
            return 0.0
        return 1.0 - self.leakage_after_w / self.leakage_before_w

    @property
    def delay_penalty(self) -> float:
        """Fractional critical-path slowdown vs the all-low-Vth baseline."""
        return self.critical_after_s / self.critical_before_s - 1.0


def assign_dual_vth(netlist: Netlist,
                    vth_offset_v: float = DEFAULT_VTH_OFFSET_V,
                    clock_margin: float = 1.02,
                    temperature_k: float = 300.0,
                    rebase_clock: bool = True) -> DualVthResult:
    """Run dual-Vth assignment on ``netlist`` in place.

    The netlist is first re-based to an all-low-Vth implementation.
    With ``rebase_clock`` (the default, matching the paper's scenario of
    an aggressively-timed all-LVT design), the clock is tightened to
    ``clock_margin`` times the all-LVT critical delay before high
    thresholds are assigned wherever that clock still holds; otherwise
    the netlist's existing clock period is used unchanged (as in the
    combined flow, where earlier stages already consumed the slack).
    """
    if vth_offset_v <= 0:
        raise ModelParameterError("Vth offset must be positive")
    if clock_margin < 1.0:
        raise ModelParameterError("clock margin cannot be below 1.0")

    devices = {instance.cell.device.vth_v
               for instance in netlist.instances.values()}
    vth_high = max(devices)
    vth_low = vth_high - vth_offset_v

    # All-low-Vth baseline.
    for instance in netlist.instances.values():
        instance.vth_v = vth_low
    timer = TimingCore(netlist)
    critical_before = timer.critical_delay_s
    if rebase_clock:
        netlist.clock_period_s = critical_before * clock_margin
        netlist.frequency_hz = 1.0 / netlist.clock_period_s
    leakage_before = netlist_power(
        netlist, temperature_k=temperature_k).static_w

    # Rank candidates by leakage saving per delay cost.
    def sensitivity(name: str) -> float:
        instance = netlist.instances[name]
        vdd = instance.effective_vdd(netlist.nominal_vdd_v)
        model = instance.model()
        leak_low = model.static_power_w(vdd_v=vdd,
                                        temperature_k=temperature_k)
        leak_high = model.static_power_w(vdd_v=vdd, vth_v=vth_high,
                                         temperature_k=temperature_k)
        load = timer.load_f(name)
        delay_low = model.delay_s(load, vdd_v=vdd)
        delay_high = model.delay_s(load, vdd_v=vdd, vth_v=vth_high)
        cost = max(delay_high - delay_low, 1e-18)
        return (leak_low - leak_high) / cost

    candidates = sorted(netlist.topo_order(), key=sensitivity, reverse=True)

    n_high = 0
    for name in candidates:
        instance = netlist.instances[name]
        instance.vth_v = vth_high
        if timer.try_change([name]):
            n_high += 1
        else:
            instance.vth_v = vth_low

    return DualVthResult(
        vth_high_v=vth_high,
        vth_low_v=vth_low,
        n_gates=len(netlist),
        n_high_vth=n_high,
        leakage_before_w=leakage_before,
        leakage_after_w=netlist_power(
            netlist, temperature_k=temperature_k).static_w,
        critical_before_s=critical_before,
        critical_after_s=timer.critical_delay_s,
    )

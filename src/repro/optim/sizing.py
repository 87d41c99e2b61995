"""Post-synthesis transistor re-sizing (Section 3.3, ref [21]).

Down-sizing gates that have slack saves power, but only *sublinearly* in
the size reduction: the interconnect capacitance on each net does not
shrink with the gate, so the switched capacitance has a wire floor.  The
paper contrasts this with lowering the supply of those gates instead,
which cuts power *quadratically* -- the motivation for preferring
multi-Vdd assignment before re-sizing in the combined flow.

``downsize_netlist`` implements the greedy slack-driven down-sizer;
``resizing_vs_vdd_comparison`` reproduces the sublinear-vs-quadratic
argument on identical netlists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ModelParameterError
from repro.netlist.graph import Netlist
from repro.netlist.power import NetlistPower, netlist_power, \
    total_gate_width_um
from repro.netlist.sta import TimingCore
from repro.optim.cvs import CvsResult, assign_cvs

#: Multiplicative shrink applied per accepted down-sizing step.
DEFAULT_STEP = 0.8

#: Smallest allowed re-sizing factor (library granularity floor).
DEFAULT_MIN_FACTOR = 0.35


@dataclass(frozen=True)
class SizingResult:
    """Outcome of a down-sizing pass."""

    n_gates: int
    n_resized: int
    power_before: NetlistPower
    power_after: NetlistPower
    width_before_um: float
    width_after_um: float

    @property
    def dynamic_saving(self) -> float:
        """Fractional dynamic-power reduction."""
        before = self.power_before.total_dynamic_w
        if before == 0:
            return 0.0
        return 1.0 - self.power_after.total_dynamic_w / before

    @property
    def static_saving(self) -> float:
        """Fractional leakage reduction (narrower devices leak less)."""
        before = self.power_before.static_w
        if before == 0:
            return 0.0
        return 1.0 - self.power_after.static_w / before

    @property
    def width_saving(self) -> float:
        """Fractional total-width (area) reduction."""
        if self.width_before_um == 0:
            return 0.0
        return 1.0 - self.width_after_um / self.width_before_um

    @property
    def sublinearity(self) -> float:
        """Dynamic-power saving per unit width saving (< 1 is sublinear).

        The wire-capacitance floor makes this ratio fall below one: a
        30 % width cut yields well under 30 % power.
        """
        if self.width_saving == 0:
            return 0.0
        return self.dynamic_saving / self.width_saving


def downsize_netlist(netlist: Netlist, step: float = DEFAULT_STEP,
                     min_factor: float = DEFAULT_MIN_FACTOR,
                     activity: float = 0.1,
                     temperature_k: float = 300.0) -> SizingResult:
    """Greedily shrink off-critical gates until no shrink fits timing.

    Gates are visited repeatedly; each visit multiplies ``size_factor``
    by ``step`` and keeps the shrink only if every endpoint still meets
    the clock.  A shrunk gate slows itself but unloads its fanins, so
    both are re-timed.
    """
    if not 0.0 < step < 1.0:
        raise ModelParameterError("step must lie in (0, 1)")
    if not 0.0 < min_factor < 1.0:
        raise ModelParameterError("min_factor must lie in (0, 1)")

    power_before = netlist_power(netlist, activity, temperature_k)
    width_before = total_gate_width_um(netlist)
    timer = TimingCore(netlist)
    if not timer.meets_timing():
        raise ModelParameterError("netlist misses timing before re-sizing")

    resized: set[str] = set()
    progress = True
    while progress:
        progress = False
        for name in netlist.topo_order():
            instance = netlist.instances[name]
            if instance.size_factor * step < min_factor:
                continue
            previous = instance.size_factor
            instance.size_factor = previous * step
            if timer.try_change([name]):
                resized.add(name)
                progress = True
            else:
                instance.size_factor = previous

    return SizingResult(
        n_gates=len(netlist),
        n_resized=len(resized),
        power_before=power_before,
        power_after=netlist_power(netlist, activity, temperature_k),
        width_before_um=width_before,
        width_after_um=total_gate_width_um(netlist),
    )


@dataclass(frozen=True)
class ResizingVsVddResult:
    """Head-to-head of down-sizing vs multi-Vdd on identical netlists."""

    sizing: SizingResult
    cvs: CvsResult

    @property
    def vdd_advantage(self) -> float:
        """CVS dynamic saving minus re-sizing dynamic saving."""
        return self.cvs.dynamic_saving - self.sizing.dynamic_saving


def resizing_vs_vdd_comparison(
    netlist_factory: Callable[[], Netlist],
    activity: float = 0.1,
    temperature_k: float = 300.0,
) -> ResizingVsVddResult:
    """Apply re-sizing and CVS to two fresh copies of the same design.

    ``netlist_factory`` must return identical netlists on each call
    (e.g. ``lambda: random_netlist(100, seed=7)``).
    """
    sizing = downsize_netlist(netlist_factory(), activity=activity,
                              temperature_k=temperature_k)
    cvs = assign_cvs(netlist_factory(), activity=activity,
                     temperature_k=temperature_k)
    return ResizingVsVddResult(sizing=sizing, cvs=cvs)

"""Clustered voltage scaling (Section 2.4, refs [18-20]).

CVS partitions a netlist between two supplies so that non-critical gates
run at Vdd,l and only critical gates keep Vdd,h, with the structural rule
that a Vdd,l gate never drives a Vdd,h gate directly -- level conversion
happens only at the (flop) boundary.  We therefore sweep the netlist in
reverse topological order: a gate is a candidate once *all* of its
fanouts already run at Vdd,l (a fanout-free gate must be an endpoint,
and a mixed endpoint/fanout gate still needs every gate fanout low),
and the assignment is kept only if the clock period still holds.

The paper's calibration points, which the benchmarks check:

* Vdd,l ~ 0.6-0.7 x Vdd,h maximises savings (we default to 0.65);
* ~75 % of gates tolerate Vdd,l on slack-rich designs;
* overall dynamic-power reduction of 45-50 % including 8-10 %
  level-conversion overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelParameterError
from repro.netlist.graph import Netlist
from repro.netlist.power import NetlistPower, netlist_power
from repro.netlist.sta import TimingCore

#: Default low-supply ratio (paper: "Vdd,l should be around 0.6 to 0.7
#: times Vdd,h to maximize power savings").
DEFAULT_VDD_RATIO = 0.65


@dataclass(frozen=True)
class CvsResult:
    """Outcome of a CVS pass."""

    vdd_high_v: float
    vdd_low_v: float
    n_gates: int
    n_low_vdd: int
    n_level_converters: int
    power_before: NetlistPower
    power_after: NetlistPower

    @property
    def low_vdd_fraction(self) -> float:
        """Fraction of gates assigned to Vdd,l."""
        return self.n_low_vdd / self.n_gates

    @property
    def dynamic_saving(self) -> float:
        """Fractional dynamic-power reduction including LC overhead."""
        before = self.power_before.total_dynamic_w
        if before == 0:
            return 0.0
        return 1.0 - self.power_after.total_dynamic_w / before

    @property
    def static_saving(self) -> float:
        """Fractional leakage reduction (Vdd,l also shrinks Ioff)."""
        before = self.power_before.static_w
        if before == 0:
            return 0.0
        return 1.0 - self.power_after.static_w / before


def assign_cvs(netlist: Netlist, vdd_ratio: float = DEFAULT_VDD_RATIO,
               activity: float = 0.1,
               temperature_k: float = 300.0) -> CvsResult:
    """Run CVS on ``netlist`` in place and report the savings.

    Gates keep their threshold and size; only the supply map and level
    converter flags change.  Timing is validated incrementally against
    the netlist's clock period.
    """
    if not 0.0 < vdd_ratio < 1.0:
        raise ModelParameterError(
            f"vdd_ratio must lie in (0, 1), got {vdd_ratio}"
        )
    vdd_high = netlist.nominal_vdd_v
    vdd_low = vdd_ratio * vdd_high

    power_before = netlist_power(netlist, activity, temperature_k)
    timer = TimingCore(netlist)
    if not timer.meets_timing():
        raise ModelParameterError(
            "netlist misses timing before CVS; nothing can be lowered"
        )

    endpoints = set(netlist.primary_outputs)
    n_low = 0
    for name in reversed(netlist.topo_order()):
        instance = netlist.instances[name]
        fanouts = netlist.fanouts(name)
        # Structural eligibility.  Every fanout sink must already *run*
        # at Vdd,l -- judged by effective supply, not by whether an
        # override is merely present, so a sink explicitly pinned at
        # Vdd,h (or reverted by a failed timing probe) blocks its
        # drivers.  Sinks are always instances in this graph model
        # (primary outputs are instances, never bare terminals), so the
        # supply lookup is total.  A gate with no fanouts must be an
        # endpoint (finalize() guarantees this); a *mixed*
        # endpoint/fanout gate still needs all its fanouts low -- its
        # flop boundary converts, its gate fanouts do not.
        eligible = all(
            netlist.instances[sink].effective_vdd(vdd_high)
            <= vdd_low + 1e-9
            for sink in fanouts
        ) and (bool(fanouts) or name in endpoints)
        if not eligible:
            continue
        # A failed probe restores the supply the gate *had*, not the
        # nominal default -- on a repeated pass (deeper ratio) the gate
        # may already hold a previous Vdd,l, and snapping it back to
        # Vdd,h would retroactively break the structural rule for the
        # drivers lowered beneath it.
        previous_vdd = instance.vdd_v
        previous_lc = instance.level_converter
        instance.vdd_v = vdd_low
        instance.level_converter = netlist.needs_level_converter(name)
        if timer.try_change([name]):
            n_low += 1
        else:
            instance.vdd_v = previous_vdd
            instance.level_converter = previous_lc

    n_lc = netlist.refresh_level_converters()
    power_after = netlist_power(netlist, activity, temperature_k)
    return CvsResult(
        vdd_high_v=vdd_high,
        vdd_low_v=vdd_low,
        n_gates=len(netlist),
        n_low_vdd=n_low,
        n_level_converters=n_lc,
        power_before=power_before,
        power_after=power_after,
    )

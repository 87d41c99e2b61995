"""Whole-netlist power accounting.

Dynamic power sums alpha * f * C * Vdd^2 over every net at its driver's
supply (the energy to charge a net is set by the *driver's* rail), plus
level-converter overhead, which is tracked separately so the 8-10 %
conversion-power bookkeeping of Section 2.4 can be reported.  Static
power sums each instance's leakage at its assigned supply and threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.netlist.graph import Netlist


@dataclass(frozen=True)
class NetlistPower:
    """Power breakdown of one netlist configuration."""

    dynamic_w: float
    level_converter_w: float
    static_w: float

    @property
    def total_dynamic_w(self) -> float:
        """Switching power including converter overhead [W]."""
        return self.dynamic_w + self.level_converter_w

    @property
    def total_w(self) -> float:
        """All power [W]."""
        return self.total_dynamic_w + self.static_w

    @property
    def lc_fraction(self) -> float:
        """Converter power as a fraction of total dynamic power."""
        if self.total_dynamic_w == 0:
            return 0.0
        return self.level_converter_w / self.total_dynamic_w


def netlist_power(netlist: Netlist,
                  activity: float | dict[str, float] = 0.1,
                  temperature_k: float = 300.0) -> NetlistPower:
    """Compute the power breakdown at a given switching activity.

    ``activity`` is either one factor applied to every net, or a
    per-net map (e.g. from :mod:`repro.netlist.logic` simulation or
    :mod:`repro.netlist.activity` estimation); nets missing from the
    map default to 0.1.
    """
    frequency = netlist.frequency_hz

    if isinstance(activity, dict):
        def activity_of(name: str) -> float:
            return activity.get(name, 0.1)
    else:
        def activity_of(name: str) -> float:
            return activity

    # Gates sharing a cell, threshold and size share one model.
    shared, models, input_caps = {}, {}, {}
    for name, instance in netlist.instances.items():
        key = (id(instance.cell), instance.vth_v, instance.size_factor)
        if key not in shared:
            model = instance.model()
            shared[key] = (model, model.input_cap_f)
        models[name], input_caps[name] = shared[key]
    dynamic = 0.0
    converters = 0.0
    static = 0.0
    for name, instance in netlist.instances.items():
        vdd = instance.effective_vdd(netlist.nominal_vdd_v)
        model = models[name]
        load = netlist.load_f(name, input_caps)
        alpha = activity_of(name)
        if instance.level_converter:
            lc_cap = netlist.lc_cap_f(instance)
            load -= lc_cap
            # The converter itself switches at the *high* rail.
            converters += (alpha * frequency * lc_cap
                           * netlist.nominal_vdd_v ** 2)
        dynamic += alpha * frequency * (load + model.parasitic_cap_f) \
            * vdd ** 2
        static += model.static_power_w(vdd_v=vdd,
                                       temperature_k=temperature_k)
    return NetlistPower(dynamic_w=dynamic, level_converter_w=converters,
                        static_w=static)


def total_gate_width_um(netlist: Netlist) -> float:
    """Total transistor width in the netlist [um] (area proxy)."""
    total = 0.0
    for instance in netlist.instances.values():
        model = instance.model()
        total += units.to_um(model.wn_m + model.wp_m)
    return total

"""Timing repair by critical-path up-sizing.

The inverse of :mod:`repro.optim.sizing`: when a netlist misses its
clock (after a clock tightening, a Vdd experiment, or an aggressive
Vth assignment), grow the drive of gates on violating paths until the
period holds or no further up-sizing helps.

Strategy: repeatedly trace the current critical path, up-size its
slowest-improvable gate by a fixed step (validated incrementally), and
stop when every endpoint meets the clock or a full pass over the
critical path yields no improvement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelParameterError
from repro.netlist.graph import Netlist
from repro.netlist.sta import TimingCore

#: Multiplicative growth per accepted up-sizing step.
DEFAULT_STEP = 1.25

#: Largest allowed re-sizing factor.
DEFAULT_MAX_FACTOR = 6.0


@dataclass(frozen=True)
class UpsizeResult:
    """Outcome of a timing-repair pass."""

    met_timing: bool
    n_upsized: int
    critical_before_s: float
    critical_after_s: float
    width_growth: float

    @property
    def speedup(self) -> float:
        """Fractional critical-path improvement."""
        return 1.0 - self.critical_after_s / self.critical_before_s


def fix_timing(netlist: Netlist, step: float = DEFAULT_STEP,
               max_factor: float = DEFAULT_MAX_FACTOR,
               max_passes: int = 200) -> UpsizeResult:
    """Up-size along critical paths until the clock holds (or stuck).

    Returns an :class:`UpsizeResult`; check ``met_timing`` -- a failing
    result leaves the netlist improved but still violating (the caller
    may relax the clock or restructure instead).
    """
    if step <= 1.0:
        raise ModelParameterError("step must exceed 1.0")
    if max_factor <= 1.0:
        raise ModelParameterError("max_factor must exceed 1.0")

    from repro.netlist.power import total_gate_width_um
    width_before = total_gate_width_um(netlist)
    timer = TimingCore(netlist)
    critical_before = timer.critical_delay_s
    upsized: set[str] = set()

    for _ in range(max_passes):
        if timer.meets_timing():
            break
        improved = False
        # Walk the critical path from the endpoint backwards: late
        # stages see the full downstream load and usually benefit most.
        for name in reversed(timer.critical_path()):
            instance = netlist.instances[name]
            if instance.size_factor * step > max_factor:
                continue
            previous_factor = instance.size_factor
            previous_critical = timer.critical_delay_s
            instance.size_factor = previous_factor * step
            # Accept any change that tightens the critical delay, even
            # if the period is still missed.
            timer.try_change([name], period_s=float("inf"))
            if timer.critical_delay_s < previous_critical - 1e-18:
                upsized.add(name)
                improved = True
                break
            instance.size_factor = previous_factor
            timer.try_change([name], period_s=float("inf"))
        if not improved:
            break

    return UpsizeResult(
        met_timing=timer.meets_timing(),
        n_upsized=len(upsized),
        critical_before_s=critical_before,
        critical_after_s=timer.critical_delay_s,
        width_growth=total_gate_width_um(netlist) / width_before - 1.0,
    )

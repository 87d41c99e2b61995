"""Former home of the optimizers' incremental timer.

The optimization flows now time their probes on
:class:`repro.netlist.sta.TimingCore`, the same core that runs full STA.
``perfbench/layers.py`` counts probes by wrapping
``repro.optim.incremental.IncrementalTimer.try_change``, so the core
keeps this name here; delete the alias once that lookup names
``repro.netlist.sta.TimingCore`` instead.
"""

from repro.netlist.sta import TimingCore as IncrementalTimer

__all__ = ["IncrementalTimer"]

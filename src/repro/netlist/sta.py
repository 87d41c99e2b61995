"""Static timing analysis over a :class:`~repro.netlist.graph.Netlist`.

Single-corner, topological arrival/required propagation.  Primary inputs
arrive at t = 0; every primary output must settle within the clock
period.  Slack is reported at each instance output.  One
:class:`TimingCore` serves full STA (every gate dirty) and the
optimizers' probes (only the fanout cone is re-timed); see DESIGN.md
section 6.6 for its state layout and exactness rule.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.circuits.gate import DELAY_FIT_K
from repro.errors import ModelParameterError, NetlistError
from repro.netlist.graph import FLOP_LOAD_FACTOR, Netlist, lc_delay_factor
from repro.obs import COUNT_BUCKETS, add_counter, observe, span

_INFINITY = float("inf")

#: Timing comparison tolerance of the incremental probes [s].
_EPS_S = 1e-15


@dataclass(frozen=True)
class TimingReport:
    """Result of one STA pass."""

    clock_period_s: float
    #: Arrival time at each instance output [s].
    arrival_s: dict[str, float]
    #: Required time at each instance output [s].
    required_s: dict[str, float]
    #: Slack at each instance output [s].
    slack_s: dict[str, float]
    #: Names along (one) critical path, driver first.
    critical_path: tuple[str, ...]
    #: Primary-output endpoints, in declaration order.
    endpoints: tuple[str, ...]

    @property
    def worst_slack_s(self) -> float:
        """Minimum slack over all instances [s]."""
        return min(self.slack_s.values())

    @property
    def critical_delay_s(self) -> float:
        """Longest endpoint arrival time [s]."""
        return max(self.arrival_s.values())

    def meets_timing(self, tolerance_s: float = 0.0) -> bool:
        """True when no slack is worse than ``-tolerance_s``."""
        return self.worst_slack_s >= -tolerance_s

    def path_utilisation(self) -> dict[str, float]:
        """Endpoint arrival as a fraction of the clock period.

        The paper cites MPU slack profiles in which "over half of all
        timing paths commonly use less than half the clock cycle"; this
        is the statistic that claim is about.  Only primary-output
        endpoints count -- a timing *path* terminates at an endpoint,
        and including internal-node arrivals (which are early by
        construction) would dilute the profile toward zero.
        """
        return {name: self.arrival_s[name] / self.clock_period_s
                for name in self.endpoints}


class TimingCore:
    """Arrival times of a netlist, kept current under local mutations.

    Model constants are memoized per (cell, supply, threshold, size,
    converter) assignment; loads are re-summed, never patched.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._order = order = netlist.topo_order()
        self._index = index = {name: i for i, name in enumerate(order)}
        n = len(order)
        self._instances = [netlist.instances[name] for name in order]
        self._fanin_names: list[tuple[str, ...] | None] = [None] * n
        self._fanins: list[list[int]] = [[] for _ in range(n)]
        self._fanouts = [[index[sink] for sink in netlist.fanouts(name)]
                         for name in order]
        outputs = set(netlist.primary_outputs)
        self._is_endpoint = [name in outputs for name in order]
        self._endpoints = [i for i in range(n) if self._is_endpoint[i]]
        self._flop_cap = [FLOP_LOAD_FACTOR * netlist._unit_input_cap()
                          if flag else 0.0 for flag in self._is_endpoint]
        self._memo: dict[tuple, tuple] = {}
        self._state: list[tuple | None] = [None] * n
        self._vdd, self._input_cap, self._parasitic_cap, self._drive, \
            self._lc_cap, self._lc_factor, self._load, self._delay, \
            self._arrival = ([0.0] * n for _ in range(9))
        for i in reversed(range(n)):  # sinks' caps before their loads
            self._resolve_fanins(i)
            self._refresh(i)
            self._retime(i)
        self._propagate(set(range(n)), _INFINITY, [])

    def _resolve_fanins(self, i: int) -> None:
        """Map fanin names to positions; primary inputs (t = 0) drop out,
        and an undriven or misnamed net must not pass timing silently."""
        instance = self._instances[i]
        positions = []
        for fanin in instance.fanins:
            if fanin in self._index:
                positions.append(self._index[fanin])
            elif not self.netlist.is_primary_input(fanin):
                raise NetlistError(
                    f"instance {instance.name!r}: fanin {fanin!r} is "
                    f"neither a primary input nor a timed instance "
                    f"(undriven or misnamed net)")
        self._fanins[i] = positions
        self._fanin_names[i] = instance.fanins

    def _refresh(self, i: int) -> tuple | None:
        """Re-read constants if the assignment moved; return the undo."""
        instance = self._instances[i]
        state = (id(instance.cell), instance.vdd_v, instance.vth_v,
                 instance.size_factor, instance.level_converter)
        previous = self._state[i]
        if state == previous:
            return None
        if state not in self._memo:
            model = instance.model()
            nominal = self.netlist.nominal_vdd_v
            vdd = instance.effective_vdd(nominal)
            drive = model.drive_current_a(vdd)
            if drive <= 0:
                raise ModelParameterError(
                    f"gate has no drive at Vdd = {vdd} V "
                    f"(Vth = {model.device.vth_v} V)")
            converter = instance.level_converter
            # The cell rides along so its id() cannot be reused.
            self._memo[state] = (
                vdd, model.input_cap_f, model.parasitic_cap_f, drive,
                self.netlist.lc_cap_f(instance) if converter else 0.0,
                lc_delay_factor(vdd / nominal) if converter else 1.0,
                instance.cell)
        self._assign(i, state)
        return i, previous

    def _assign(self, i: int, state: tuple) -> None:
        self._state[i] = state
        (self._vdd[i], self._input_cap[i], self._parasitic_cap[i],
         self._drive[i], self._lc_cap[i], self._lc_factor[i],
         _) = self._memo[state]

    def _retime(self, i: int) -> None:
        """Re-sum the load and recompute the delay; a 0.0 cap and a 1.0
        factor are exact, so the bits match :meth:`GateModel.delay_s`."""
        load = self.netlist.wire_cap_per_net_f
        for sink in self._fanouts[i]:
            load += self._input_cap[sink]
        load += self._flop_cap[i]
        load += self._lc_cap[i]
        if load < 0:
            raise ModelParameterError("load capacitance cannot be negative")
        self._load[i] = load
        self._delay[i] = (DELAY_FIT_K * (load + self._parasitic_cap[i])
                          * self._vdd[i] / self._drive[i]
                          * self._lc_factor[i])

    @property
    def arrival_s(self) -> dict[str, float]:
        """Arrival time at each instance output [s]."""
        return dict(zip(self._order, self._arrival))

    @property
    def delay_s(self) -> dict[str, float]:
        """Delay of each instance into its current load [s]."""
        return dict(zip(self._order, self._delay))

    def load_f(self, name: str) -> float:
        """Cached load on ``name``'s output net [F]."""
        return self._load[self._index[name]]

    @property
    def critical_delay_s(self) -> float:
        """Longest endpoint arrival [s]."""
        return max(self._arrival[i] for i in self._endpoints)

    def meets_timing(self, period_s: float | None = None) -> bool:
        """True when every endpoint settles within the period."""
        period = (self.netlist.clock_period_s if period_s is None
                  else period_s)
        return self.critical_delay_s <= period + _EPS_S

    def critical_path(self) -> tuple[str, ...]:
        """One critical path, driver first, by the strict-``>`` rule."""
        arrival = self._arrival
        cursor = max(self._endpoints, key=arrival.__getitem__)
        path = []
        while cursor >= 0:
            path.append(self._order[cursor])
            latest, worst = 0.0, -1
            for fanin in self._fanins[cursor]:
                if arrival[fanin] > latest:
                    latest, worst = arrival[fanin], fanin
            cursor = worst
        return tuple(reversed(path))

    def report(self, period_s: float) -> TimingReport:
        """Required times, slacks and a critical path at ``period_s``."""
        order, delay, arrival = self._order, self._delay, self._arrival
        required = [_INFINITY] * len(order)
        for i in range(len(order) - 1, -1, -1):
            bound = period_s if self._is_endpoint[i] else _INFINITY
            for sink in self._fanouts[i]:
                through = required[sink] - delay[sink]
                if through < bound:
                    bound = through
            if bound == _INFINITY:
                raise NetlistError(
                    f"instance {order[i]!r} reaches no endpoint; "
                    f"call Netlist.finalize() first")
            required[i] = bound
        return TimingReport(
            clock_period_s=period_s,
            arrival_s=dict(zip(order, arrival)),
            required_s=dict(zip(order, required)),
            slack_s={name: required[i] - arrival[i]
                     for i, name in enumerate(order)},
            critical_path=self.critical_path(),
            endpoints=tuple(self.netlist.primary_outputs),
        )

    def try_change(self, changed: list[str],
                   period_s: float | None = None) -> bool:
        """Validate a mutation the caller has already applied.

        ``changed`` names every gate whose assignment (cell, supply,
        threshold, size or converter flag) moved.  A gate whose input
        cap moved re-times its fanins too, so a resize lists only
        itself.  Returns True and commits when every endpoint still
        settles within the period.  Otherwise restores the cached state
        and returns False: the caller must then revert its mutation,
        which leaves the core consistent again.
        """
        period = (self.netlist.clock_period_s if period_s is None
                  else period_s)
        refreshed: list[tuple[int, tuple]] = []
        undo: list[tuple[list[float], int, float]] = []
        committed = False
        try:
            retimed = set()
            for name in changed:
                i = self._index.get(name)
                if i is None:
                    raise NetlistError(f"unknown instance {name!r}")
                retimed.add(i)
                if self._instances[i].fanins is not self._fanin_names[i]:
                    self._resolve_fanins(i)
                input_cap = self._input_cap[i]
                replaced = self._refresh(i)
                if replaced is not None:
                    refreshed.append(replaced)
                    if self._input_cap[i] != input_cap:
                        retimed.update(self._fanins[i])
            for i in retimed:
                undo += (self._load, i, self._load[i]), \
                    (self._delay, i, self._delay[i])
                self._retime(i)
            committed = self._propagate(retimed, period + _EPS_S, undo)
            return committed
        finally:
            if not committed:
                for array, i, old in undo:
                    array[i] = old
                for i, state in refreshed:
                    self._assign(i, state)

    def _propagate(self, retimed: set[int], limit_s: float,
                   undo: list[tuple[list[float], int, float]]) -> bool:
        """Re-time the fanout cone of ``retimed`` in topological order.

        An arrival moving by at most ``_EPS_S`` stops the wave (and is
        kept only if its delay was recomputed).  False as soon as an
        endpoint is later than ``limit_s``; ``undo`` logs old values.
        """
        arrival, delay = self._arrival, self._delay
        fanins, fanouts = self._fanins, self._fanouts
        is_endpoint = self._is_endpoint
        pop, push, log = heapq.heappop, heapq.heappush, undo.append
        heap = sorted(retimed)
        queued = set(retimed)
        while heap:
            i = pop(heap)
            latest = 0.0
            for fanin in fanins[i]:
                if arrival[fanin] > latest:
                    latest = arrival[fanin]
            new = latest + delay[i]
            if new > limit_s and is_endpoint[i]:
                return False
            old = arrival[i]
            if -_EPS_S <= new - old <= _EPS_S:
                if i in retimed:
                    log((arrival, i, old))
                    arrival[i] = new
                continue
            log((arrival, i, old))
            arrival[i] = new
            for sink in fanouts[i]:
                if sink not in queued:
                    queued.add(sink)
                    push(heap, sink)
        return True


def compute_sta(netlist: Netlist,
                clock_period_s: float | None = None) -> TimingReport:
    """Run a full STA pass and return a :class:`TimingReport`."""
    period = (netlist.clock_period_s if clock_period_s is None
              else clock_period_s)
    if period <= 0:
        raise NetlistError("clock period must be positive")
    with span("sta.compute", instances=len(netlist.instances)):
        add_counter("sta.passes")
        add_counter("sta.instances", len(netlist.instances))
        observe("sta.netlist_instances", len(netlist.instances),
                COUNT_BUCKETS)
        return TimingCore(netlist).report(period)

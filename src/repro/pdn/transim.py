"""Time-stepping RLC transient simulation of the supply loop (Section 4).

:mod:`repro.pdn.transients` prices the di/dt problem with two closed
forms -- the inductive kick ``L_eff * di/dt`` of the parallel bump
array and the characteristic impedance ``Z0 = sqrt(L/C)`` of the
package-inductance / on-die-decap tank.  Both are single numbers; the
actual supply response to a wake-up ramp, a clock-gating burst, or a
power virus is a *waveform*, and the closed forms are its limiting
regimes only.  This module simulates that waveform:

* the **supply loop** is the series RLC the paper describes: package
  loop inductance from the bump array (every bump in parallel), the
  grid's effective series resistance (the static IR-drop budget), and
  the thin-oxide on-die decap with an optional ESR;
* **stimuli** are piecewise-linear load-current waveforms (step, ramp,
  periodic burst, or sampled traces), so every segment has an exact
  state-space solution;
* the **integrator is segment-exact**: within each linear stimulus
  segment the two-state system ``x' = A x + B u(t)`` is propagated
  with the closed-form matrix exponential (evaluated through the
  trace/determinant formula, robust across under/over/critically
  damped loops) and *sampled vectorized* over the whole segment's time
  grid -- no per-step Python loop, unconditionally stable, and the
  same trajectory at any sample step;
* the **step selector** keeps the sample grid fine enough to resolve
  the resonance and the fastest stimulus edge, so the recorded peak
  droop is not an undersampling artifact (stability itself is free).

Validation anchors (tested in ``tests/test_pdn_transim.py``): a slow,
well-damped ramp reproduces the ``wakeup_transient`` inductive kick; a
lightly-damped current step droops by ``dI * Z0`` per
``supply_impedance_ohm``; a lossless loop conserves energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelParameterError, ReproError
from repro.itrs import ITRS_2000
from repro.obs import COUNT_BUCKETS, add_counter, observe, span
from repro.pdn.bumps import VDD_PAD_FRACTION, min_pitch_bump_count
from repro.pdn.transients import DECAP_PER_M2, supply_inductance_h

#: Step selector: resolve the resonant period by at least this many
#: samples (so the peak of a droop oscillation is not missed) ...
POINTS_PER_PERIOD = 32

#: ... and the fastest finite stimulus edge by at least this many.
POINTS_PER_EDGE = 8

#: Refusal threshold for a single simulation's sample count.
MAX_STEPS = 2_000_000

#: Default static IR-drop fraction of Vdd at full load; sets the
#: effective series (grid + spreading) resistance of the loop.
DEFAULT_IR_FRACTION = 0.025

#: Droop histogram buckets [V]: 1 mV .. ~0.5 V.
DROOP_BUCKETS = tuple(1e-3 * 2.0 ** k for k in range(10))


@dataclass(frozen=True)
class SupplyLoop:
    """The series-RLC supply loop: package L, grid R, on-die decap C."""

    #: Nominal supply voltage [V].
    vdd_v: float
    #: Effective package loop inductance (bumps in parallel) [H].
    inductance_h: float
    #: Effective series resistance of the grid/package loop [ohm].
    resistance_ohm: float
    #: On-die decoupling capacitance [F].
    decap_f: float
    #: Equivalent series resistance of the decap [ohm].
    esr_ohm: float = 0.0

    def __post_init__(self) -> None:
        if self.vdd_v <= 0:
            raise ModelParameterError("vdd must be positive")
        if self.inductance_h <= 0 or self.decap_f <= 0:
            raise ModelParameterError(
                "inductance and decap must be positive")
        if self.resistance_ohm < 0 or self.esr_ohm < 0:
            raise ModelParameterError("resistances cannot be negative")

    @property
    def z0_ohm(self) -> float:
        """Characteristic impedance sqrt(L/C) [ohm]."""
        return math.sqrt(self.inductance_h / self.decap_f)

    @property
    def omega0_rad_s(self) -> float:
        """Angular resonance frequency 1/sqrt(LC) [rad/s]."""
        return 1.0 / math.sqrt(self.inductance_h * self.decap_f)

    @property
    def period_s(self) -> float:
        """Resonant period 2 pi sqrt(LC) [s]."""
        return 2.0 * math.pi / self.omega0_rad_s

    @property
    def damping_ratio(self) -> float:
        """Series damping ratio (R + ESR) / (2 Z0)."""
        return (self.resistance_ohm + self.esr_ohm) / (2.0 * self.z0_ohm)

    @property
    def settle_s(self) -> float:
        """Envelope decay time of the transient (4 time constants) [s].

        The homogeneous response decays as ``exp(-zeta * w0 * t)``; four
        time constants put the residual ringing below 2 %.  An undamped
        loop never settles (returns inf).
        """
        rate = self.damping_ratio * self.omega0_rad_s
        return math.inf if rate == 0 else 4.0 / rate

    def state_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Continuous state-space (A, B) for x = [i_L, v_C], u = [Vdd, i_load]."""
        ind, cap = self.inductance_h, self.decap_f
        r_total = self.resistance_ohm + self.esr_ohm
        a = np.array([[-r_total / ind, -1.0 / ind],
                      [1.0 / cap, 0.0]])
        b = np.array([[1.0 / ind, self.esr_ohm / ind],
                      [0.0, -1.0 / cap]])
        return a, b

    def steady_state(self, i_load_a: float) -> np.ndarray:
        """DC operating point [i_L, v_C] at a constant load current."""
        return np.array([i_load_a,
                         self.vdd_v - self.resistance_ohm * i_load_a])

    def die_voltage(self, i_l: np.ndarray, v_c: np.ndarray,
                    i_load: np.ndarray) -> np.ndarray:
        """Die supply voltage v_C + ESR * (i_L - i_load) [V]."""
        return v_c + self.esr_ohm * (i_l - i_load)


def supply_loop_for_node(node_nm: int, use_min_pitch: bool, *,
                         decap_f: float | None = None,
                         ir_fraction: float = DEFAULT_IR_FRACTION,
                         damping_ratio: float | None = None,
                         esr_ohm: float = 0.0) -> SupplyLoop:
    """Build the supply loop for an ITRS node and bump scenario.

    Inductance comes from the parallel bump array (the same
    :func:`~repro.pdn.transients.supply_inductance_h` the closed forms
    use), capacitance from the thin-oxide decap fill over the die
    (matching :func:`~repro.pdn.transients.supply_impedance_ohm`)
    unless ``decap_f`` overrides it, and the series resistance from the
    static IR-drop budget ``ir_fraction * Vdd / I_supply`` -- unless
    ``damping_ratio`` is given, which pins R = 2 zeta Z0 directly (the
    validation scenarios use this to select a regime).
    """
    if not 0.0 <= ir_fraction < 1.0:
        raise ModelParameterError("ir fraction must lie in [0, 1)")
    record = ITRS_2000.node(node_nm)
    if use_min_pitch:
        n_bumps = round(min_pitch_bump_count(node_nm) * VDD_PAD_FRACTION)
    else:
        n_bumps = round(record.itrs_total_pads * VDD_PAD_FRACTION)
    inductance = supply_inductance_h(n_bumps)
    capacitance = decap_f if decap_f is not None \
        else DECAP_PER_M2 * record.die_area_m2
    if capacitance <= 0:
        raise ModelParameterError("decap must be positive")
    if damping_ratio is not None:
        if damping_ratio < 0:
            raise ModelParameterError("damping ratio cannot be negative")
        resistance = 2.0 * damping_ratio \
            * math.sqrt(inductance / capacitance)
    else:
        resistance = ir_fraction * record.vdd_v / record.supply_current_a
    return SupplyLoop(vdd_v=record.vdd_v, inductance_h=inductance,
                      resistance_ohm=resistance, decap_f=capacitance,
                      esr_ohm=esr_ohm)


@dataclass(frozen=True)
class CurrentStimulus:
    """A piecewise-linear load-current waveform.

    ``times_s`` is non-decreasing and starts at 0; a repeated time is
    an ideal jump.  The current is held constant after the last
    breakpoint.
    """

    times_s: tuple[float, ...]
    currents_a: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times_s) != len(self.currents_a):
            raise ModelParameterError(
                "times and currents must have the same length")
        if len(self.times_s) < 1:
            raise ModelParameterError("stimulus needs a breakpoint")
        if self.times_s[0] != 0.0:
            raise ModelParameterError("stimulus must start at t = 0")
        if any(t1 < t0 for t0, t1
               in zip(self.times_s, self.times_s[1:])):
            raise ModelParameterError("times must be non-decreasing")
        if min(self.currents_a) < 0:
            raise ModelParameterError("load current cannot be negative")

    @classmethod
    def step(cls, baseline_a: float, level_a: float,
             at_s: float = 0.0) -> "CurrentStimulus":
        """Ideal current step at ``at_s``."""
        if at_s < 0:
            raise ModelParameterError("step time cannot be negative")
        if at_s == 0.0:
            return cls((0.0, 0.0), (baseline_a, level_a))
        return cls((0.0, at_s, at_s), (baseline_a, baseline_a, level_a))

    @classmethod
    def ramp(cls, baseline_a: float, level_a: float,
             start_s: float, rise_s: float) -> "CurrentStimulus":
        """Linear ramp (the wake-up stimulus) starting at ``start_s``."""
        if start_s < 0 or rise_s <= 0:
            raise ModelParameterError(
                "ramp needs start >= 0 and rise > 0")
        if start_s == 0.0:
            return cls((0.0, rise_s), (baseline_a, level_a))
        return cls((0.0, start_s, start_s + rise_s),
                   (baseline_a, baseline_a, level_a))

    @classmethod
    def periodic(cls, low_a: float, high_a: float, period_s: float,
                 n_cycles: int, duty: float = 0.5,
                 edge_fraction: float = 0.05) -> "CurrentStimulus":
        """Trapezoidal burst train (clock gating / periodic activity)."""
        if period_s <= 0 or n_cycles < 1:
            raise ModelParameterError(
                "period must be positive, n_cycles >= 1")
        if not 0.0 < duty < 1.0:
            raise ModelParameterError("duty must lie in (0, 1)")
        if not 0.0 < edge_fraction <= 0.25:
            raise ModelParameterError(
                "edge fraction must lie in (0, 0.25]")
        edge = edge_fraction * period_s * min(duty, 1.0 - duty)
        times: list[float] = [0.0]
        currents: list[float] = [low_a]
        for cycle in range(n_cycles):
            start = cycle * period_s
            high_end = start + duty * period_s
            times += [start + edge, high_end, high_end + edge]
            currents += [high_a, high_a, low_a]
            times.append((cycle + 1) * period_s)
            currents.append(low_a)
        return cls(tuple(times), tuple(currents))

    @classmethod
    def from_samples(cls, dt_s: float,
                     currents_a: tuple[float, ...] | list[float]
                     ) -> "CurrentStimulus":
        """Piecewise-constant stimulus from sampled currents (jumps)."""
        if dt_s <= 0:
            raise ModelParameterError("sample period must be positive")
        if not currents_a:
            raise ModelParameterError("need at least one sample")
        times: list[float] = [0.0]
        currents: list[float] = [float(currents_a[0])]
        for index, value in enumerate(currents_a[1:], start=1):
            edge = index * dt_s
            times += [edge, edge]
            currents += [currents[-1], float(value)]
        return cls(tuple(times), tuple(currents))

    @property
    def last_time_s(self) -> float:
        """Time of the final breakpoint [s]."""
        return self.times_s[-1]

    @property
    def min_edge_s(self) -> float:
        """Shortest finite segment duration (inf if all are jumps)."""
        finite = [t1 - t0 for t0, t1, i0, i1
                  in zip(self.times_s, self.times_s[1:],
                         self.currents_a, self.currents_a[1:])
                  if t1 > t0 and i1 != i0]
        return min(finite) if finite else math.inf

    def current_at(self, t: np.ndarray | float) -> np.ndarray:
        """Load current at time(s) ``t`` [A] (vectorized)."""
        return np.interp(t, self.times_s, self.currents_a)

    def segments(self, duration_s: float
                 ) -> list[tuple[float, float, float, float]]:
        """Linear segments ``(t0, t1, i0, slope)`` covering [0, duration]."""
        if duration_s <= 0:
            raise ModelParameterError("duration must be positive")
        edges = [t for t in self.times_s if 0.0 < t < duration_s]
        bounds = sorted({0.0, *edges, duration_s})
        out = []
        for t0, t1 in zip(bounds, bounds[1:]):
            # sample strictly inside so a jump at t0 takes its post
            # value and a jump at t1 is left to the next segment
            i_start = float(self.current_at(np.nextafter(t0, t1)))
            i_end = float(self.current_at(np.nextafter(t1, t0)))
            slope = (i_end - i_start) / (t1 - t0)
            out.append((t0, t1, i_start, slope))
        return out


@dataclass(frozen=True, eq=False)
class TransientResult:
    """Sampled supply-loop response to one stimulus."""

    loop: SupplyLoop
    time_s: np.ndarray
    #: Die supply voltage per sample [V].
    v_die_v: np.ndarray
    #: Inductor (package) current per sample [A].
    inductor_a: np.ndarray
    #: Load current per sample [A].
    load_a: np.ndarray
    dt_s: float

    @property
    def n_steps(self) -> int:
        return len(self.time_s) - 1

    @property
    def droop_v(self) -> np.ndarray:
        """Instantaneous droop Vdd - v_die per sample [V]."""
        return self.loop.vdd_v - self.v_die_v

    @property
    def max_droop_v(self) -> float:
        """Worst droop over the run [V]."""
        return float(np.max(self.droop_v))

    @property
    def max_droop_fraction(self) -> float:
        """Worst droop as a fraction of Vdd."""
        return self.max_droop_v / self.loop.vdd_v

    @property
    def min_v_die_v(self) -> float:
        """Lowest die voltage reached [V]."""
        return float(np.min(self.v_die_v))

    @property
    def inductor_kick_v(self) -> np.ndarray:
        """Inductor voltage L di_L/dt per sample [V].

        Computed algebraically from the loop equation
        ``L di/dt = Vdd - R i_L - v_die`` -- no numerical
        differentiation, so it is exact at every sample.
        """
        return (self.loop.vdd_v
                - self.loop.resistance_ohm * self.inductor_a
                - self.v_die_v)

    @property
    def peak_inductor_kick_v(self) -> float:
        """Largest inductive kick |L di/dt| over the run [V]."""
        return float(np.max(np.abs(self.inductor_kick_v)))

    def energy_balance(self) -> dict[str, float]:
        """Trapezoid-quadrature energy audit over the run [J].

        ``residual = source - load - dissipated - stored_delta``; for a
        lossless loop (R = ESR = 0) the dissipated term is identically
        zero and the residual measures integrator + quadrature error
        only.
        """
        loop = self.loop
        i_l, i_load = self.inductor_a, self.load_a
        v_c = self.v_die_v - loop.esr_ohm * (i_l - i_load)
        stored = (0.5 * loop.inductance_h * i_l ** 2
                  + 0.5 * loop.decap_f * v_c ** 2)
        source = float(np.trapezoid(loop.vdd_v * i_l, self.time_s))
        load = float(np.trapezoid(self.v_die_v * i_load, self.time_s))
        dissipated = float(np.trapezoid(
            loop.resistance_ohm * i_l ** 2
            + loop.esr_ohm * (i_l - i_load) ** 2, self.time_s))
        stored_delta = float(stored[-1] - stored[0])
        return {
            "source_j": source,
            "load_j": load,
            "dissipated_j": dissipated,
            "stored_delta_j": stored_delta,
            "residual_j": source - load - dissipated - stored_delta,
        }


def select_step(loop: SupplyLoop, stimulus: CurrentStimulus,
                duration_s: float, dt_s: float | None = None) -> float:
    """Pick (or validate) the sample step for one simulation.

    The integrator is exact, so the selector guards *resolution*,
    not blow-up: the grid must sample the resonant period
    :data:`POINTS_PER_PERIOD` times (an undersampled ringing peak reads
    as a smaller droop) and the fastest finite stimulus edge
    :data:`POINTS_PER_EDGE` times.  A requested ``dt_s`` is honoured
    only when it is at least that fine; the total step count is capped
    at :data:`MAX_STEPS`.
    """
    if duration_s <= 0:
        raise ModelParameterError("duration must be positive")
    bound = loop.period_s / POINTS_PER_PERIOD
    if math.isfinite(stimulus.min_edge_s):
        bound = min(bound, stimulus.min_edge_s / POINTS_PER_EDGE)
    bound = min(bound, duration_s / 2.0)
    chosen = bound if dt_s is None else min(dt_s, bound)
    if chosen <= 0:
        raise ModelParameterError("time step must be positive")
    if duration_s / chosen > MAX_STEPS:
        raise ReproError(
            f"transient needs {duration_s / chosen:.0f} steps "
            f"(> {MAX_STEPS}); shorten the window or coarsen dt")
    return chosen


def _propagator(a: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """exp(A tau) for a 2x2 A, vectorized over tau -> (len(tau), 2, 2).

    Uses the trace/determinant closed form
    ``exp(A t) = e^{mu t} (cosh(d t) I + sinh(d t)/d (A - mu I))`` with
    ``mu = tr(A)/2`` and ``d = sqrt(mu^2 - det(A))`` evaluated in
    complex arithmetic, which is uniformly valid for under-, over- and
    critically-damped loops (the ``d -> 0`` limit is handled by a
    series guard).  This is the vectorized kernel of the exact
    integrator: one call samples a whole segment.
    """
    mu = 0.5 * (a[0, 0] + a[1, 1])
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    delta = np.sqrt(complex(mu * mu - det))
    tau = np.asarray(tau, dtype=float)
    scale = np.exp(mu * tau)
    arg = delta * tau
    cosh = np.cosh(arg)
    if abs(delta) * float(np.max(np.abs(tau), initial=0.0)) < 1e-8:
        # sinh(d t)/d -> t (1 + (d t)^2 / 6) as d -> 0
        sinhc = tau * (1.0 + arg * arg / 6.0)
    else:
        sinhc = np.sinh(arg) / delta
    eye = np.eye(2)
    dev = a - mu * eye
    out = (scale * cosh)[:, None, None] * eye \
        + (scale * sinhc)[:, None, None] * dev
    return np.real(out)


def _simulate_exact(loop: SupplyLoop, stimulus: CurrentStimulus,
                    time_s: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Segment-exact sampling of the state trajectory -> (n, 2)."""
    a, b = loop.state_matrices()
    a_inv = np.linalg.inv(a)
    states = np.empty((len(time_s), 2))
    states[0] = x0
    x = np.array(x0, dtype=float)
    duration = float(time_s[-1])
    for t0, t1, i0, slope in stimulus.segments(duration):
        # x_p(t) = -A^-1 B u(t) - A^-2 B u'   (u linear in t)
        u0 = np.array([loop.vdd_v, i0])
        du = np.array([0.0, slope])
        drift = a_inv @ (a_inv @ (b @ du))

        def particular(t: np.ndarray) -> np.ndarray:
            u_t = u0[None, :] + np.outer(t - t0, du)
            return -(u_t @ (a_inv @ b).T) - drift[None, :]

        first = int(np.searchsorted(time_s, t0, side="right"))
        last = int(np.searchsorted(time_s, t1, side="right"))
        idx = np.arange(first, last)
        homo0 = x - particular(np.array([t0]))[0]
        if len(idx):
            props = _propagator(a, time_s[idx] - t0)
            states[idx] = particular(time_s[idx]) \
                + np.einsum("nij,j->ni", props, homo0)
        # advance the segment-end state exactly
        end_prop = _propagator(a, np.array([t1 - t0]))[0]
        x = particular(np.array([t1]))[0] + end_prop @ homo0
    return states


def simulate(loop: SupplyLoop, stimulus: CurrentStimulus,
             duration_s: float, *, dt_s: float | None = None,
             x0: np.ndarray | None = None) -> TransientResult:
    """Simulate the supply loop's response to a load-current stimulus.

    ``x0`` is the initial state ``[i_L, v_C]``; by default the loop
    starts settled at the stimulus' initial current.
    """
    dt = select_step(loop, stimulus, duration_s, dt_s)
    n_steps = max(2, int(round(duration_s / dt)))
    time_s = np.linspace(0.0, duration_s, n_steps + 1)
    if x0 is None:
        # settle at the first breakpoint's current (not current_at(0),
        # which would absorb a jump placed at t = 0 into the DC start)
        x0 = loop.steady_state(float(stimulus.currents_a[0]))
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2,):
        raise ModelParameterError("x0 must be a 2-vector [i_L, v_C]")
    with span("pdn.transim", steps=n_steps):
        states = _simulate_exact(loop, stimulus, time_s, x0)
        i_load = stimulus.current_at(time_s)
        v_die = loop.die_voltage(states[:, 0], states[:, 1], i_load)
        add_counter("transim.runs")
        add_counter("transim.steps", n_steps)
        observe("transim.steps_per_run", n_steps, COUNT_BUCKETS)
        result = TransientResult(
            loop=loop, time_s=time_s, v_die_v=v_die,
            inductor_a=states[:, 0], load_a=np.asarray(i_load),
            dt_s=float(time_s[1] - time_s[0]))
        observe("transim.max_droop_v", result.max_droop_v,
                DROOP_BUCKETS)
    return result


__all__ = [
    "CurrentStimulus",
    "DEFAULT_IR_FRACTION",
    "DROOP_BUCKETS",
    "MAX_STEPS",
    "POINTS_PER_EDGE",
    "POINTS_PER_PERIOD",
    "SupplyLoop",
    "TransientResult",
    "select_step",
    "simulate",
    "supply_loop_for_node",
]

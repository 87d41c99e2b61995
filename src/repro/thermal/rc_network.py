"""Lumped thermal RC network of the die / spreader / heat-sink stack.

The DTM simulator needs thermal *dynamics*, not just the steady state of
Eq. (1): the die heats in milliseconds while the heat sink responds in
tens of seconds, which is exactly the separation of time scales that
makes sensor-driven throttling effective.

The stack is a chain of stages, each with a heat capacity and a thermal
resistance toward ambient-side; power enters at the junction (stage 0).
The network is linear and time-invariant, so a step at constant power
is exact: ``T' = Phi T + gamma P + eta T_amb``, where ``[Phi | gamma |
eta]`` is the matrix exponential of the stack's generator, evaluated
through its thermal modes (the eigenvectors of the symmetrized
conductance matrix).  No step size is too large and the stiff die/sink
time-scale split costs nothing; the matrices are computed once per step
size and each step is one small matvec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelParameterError
from repro.itrs.packaging import AMBIENT_C


@dataclass(frozen=True)
class ThermalStage:
    """One stage of the stack: a heat capacity and its outward resistance."""

    name: str
    #: Heat capacity [J/K].
    capacity_j_per_k: float
    #: Resistance from this stage toward the next (or ambient) [C/W].
    resistance_c_per_w: float

    def __post_init__(self) -> None:
        if self.capacity_j_per_k <= 0 or self.resistance_c_per_w <= 0:
            raise ModelParameterError(
                f"thermal stage {self.name!r} needs positive R and C"
            )


class ThermalNetwork:
    """A chain of :class:`ThermalStage` between junction and ambient."""

    def __init__(self, stages: list[ThermalStage],
                 t_ambient_c: float = AMBIENT_C):
        if not stages:
            raise ModelParameterError("network needs at least one stage")
        self.stages = list(stages)
        self.t_ambient_c = t_ambient_c
        self.temperatures_c = [t_ambient_c] * len(stages)
        #: (dt, rows of [Phi | gamma | eta]) of the last step size used.
        self._propagation: tuple[float, list[list[float]]] | None = None

    @property
    def theta_ja(self) -> float:
        """Total junction-to-ambient resistance [C/W]."""
        return sum(stage.resistance_c_per_w for stage in self.stages)

    @property
    def junction_c(self) -> float:
        """Current junction temperature [C]."""
        return self.temperatures_c[0]

    def reset(self, t_c: float | None = None) -> None:
        """Set every stage to ``t_c`` (default: ambient)."""
        value = self.t_ambient_c if t_c is None else t_c
        self.temperatures_c = [value] * len(self.stages)

    def steady_state_c(self, power_w: float) -> list[float]:
        """Steady-state temperature of every stage at constant power [C]."""
        if power_w < 0:
            raise ModelParameterError("power cannot be negative")
        temperatures = []
        downstream = self.theta_ja
        for stage in self.stages:
            temperatures.append(self.t_ambient_c + power_w * downstream)
            downstream -= stage.resistance_c_per_w
        return temperatures

    def settle(self, power_w: float) -> None:
        """Jump the network to its steady state at ``power_w``."""
        self.temperatures_c = self.steady_state_c(power_w)

    def _propagation_rows(self, dt_s: float) -> list[list[float]]:
        """Rows of ``[Phi | gamma | eta]`` for one step of ``dt_s``.

        With ``G`` the (symmetric) conductance matrix of the chain,
        grounded at ambient, the free stack is ``C dT/dt = -G T``.
        ``S = C^-1/2 G C^-1/2`` is symmetric positive definite; with
        ``S = Q diag(lam) Q^T`` the exact step is ``Phi = C^-1/2 Q
        diag(e^(-lam dt)) Q^T C^1/2``.  Every steady state is a fixed
        point of the step, which pins the input columns: ``gamma = (I -
        Phi) r`` with ``r`` each stage's rise per watt, and ``eta = (I -
        Phi) 1``.  Memoized for the last ``dt_s``, which is every step
        of a fixed-rate trace.

        NumPy's ``eigh`` rather than ``scipy.linalg.expm``: on a shared
        2-CPU host, scipy's threaded OpenBLAS LU (inside ``expm``)
        stalled ~8 ms per 5x5 call, while ``eigh`` takes ~50 us.
        """
        if self._propagation is None or self._propagation[0] != dt_s:
            n_stages = len(self.stages)
            conductance = np.zeros((n_stages, n_stages))
            for index, stage in enumerate(self.stages):
                g = 1.0 / stage.resistance_c_per_w
                conductance[index, index] += g
                if index + 1 < n_stages:
                    conductance[index + 1, index + 1] += g
                    conductance[index, index + 1] -= g
                    conductance[index + 1, index] -= g
            scale = np.array([stage.capacity_j_per_k
                              for stage in self.stages]) ** -0.5
            lam, modes = np.linalg.eigh(
                scale[:, None] * conductance * scale)
            phi = (scale[:, None] * modes * np.exp(-lam * dt_s)) \
                @ (modes.T / scale)
            relief = np.eye(n_stages) - phi
            rise_per_w = np.array(self.steady_state_c(1.0)) \
                - self.t_ambient_c
            rows = np.column_stack(
                [phi, relief @ rise_per_w, relief.sum(axis=1)])
            self._propagation = (dt_s, rows.tolist())
        return self._propagation[1]

    def step(self, power_w: float, dt_s: float) -> float:
        """Advance the network by ``dt_s`` with power injected at stage 0.

        Exact for power held constant over the step.  Returns the
        junction temperature after the step [C].
        """
        if power_w < 0:
            raise ModelParameterError("power cannot be negative")
        if dt_s <= 0:
            raise ModelParameterError("time step must be positive")
        state = [*self.temperatures_c, power_w, self.t_ambient_c]
        self.temperatures_c = [
            sum(weight * value for weight, value in zip(row, state))
            for row in self._propagation_rows(dt_s)]
        return self.junction_c


def default_thermal_network(theta_ja_total: float,
                            t_ambient_c: float = AMBIENT_C
                            ) -> ThermalNetwork:
    """Build a three-stage die/spreader/sink stack with total theta_ja.

    The resistance split (20/30/50 %) and heat capacities are typical of
    a desktop processor package: the die responds in ~10 ms, the
    spreader in ~1 s, the sink in ~100 s.
    """
    if theta_ja_total <= 0:
        raise ModelParameterError("theta_ja must be positive")
    return ThermalNetwork([
        ThermalStage("die", capacity_j_per_k=0.3,
                     resistance_c_per_w=0.20 * theta_ja_total),
        ThermalStage("spreader", capacity_j_per_k=40.0,
                     resistance_c_per_w=0.30 * theta_ja_total),
        ThermalStage("heat sink", capacity_j_per_k=400.0,
                     resistance_c_per_w=0.50 * theta_ja_total),
    ], t_ambient_c=t_ambient_c)

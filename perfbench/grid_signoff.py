"""grid-signoff: a seeded IR-drop sign-off campaign on one thread.

The campaign visits power-mesh designs at the 35 nm Fig. 5 operating
point.  Each visit solves one mesh at several corners; a corner scales
the sheet resistance and the current density by seeded multipliers.
Corners of a visit share a sparsity pattern, so after the first corner
they reuse the preconditioner setup.  The seed draws one visiting order
of the mesh pool and the campaign cycles through it.  The pool holds
more multilevel-rung meshes than the preconditioner cache has entries,
so a revisit finds its setup evicted and builds it again: first corners
write the cache, later corners read it.  The engine and the service are
not involved.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from common import Phase, interval_union, mean, median, metric, peak_rss_mb

RAILS_PER_PITCH = 32
#: Bump periods per side: 16,616 unknowns (Jacobi rung) up to 262,880
#: (multilevel rung).  Five of the six meshes take the multilevel rung,
#: one more than the preconditioner cache holds.
POOL_CELLS = (4, 6, 7, 8, 10, 16)
#: Warm-up mesh, outside the pool (83,520 unknowns, multilevel rung).
WARMUP_CELLS = 9
CORNERS = 3
#: Corner multipliers are drawn uniformly from this range.
MULTIPLIER_RANGE = (0.8, 1.25)
#: guarded_linear_solve's default relative-residual tolerance.  The
#: system is exactly linear in both multipliers, so corners may differ
#: from the scaled first corner by the solver tolerance only.
SOLVER_RTOL = 1e-8


@dataclass(frozen=True)
class Corner:
    cells: int
    sheet_mult: float
    density_mult: float
    n_nodes: int
    worst_drop_v: float
    solve_s: float


def check_visit(corners: list[Corner]) -> list[str]:
    """Each corner's drop must be the first corner's, scaled exactly."""
    first = corners[0]
    problems = []
    for corner in corners[1:]:
        scale = ((corner.sheet_mult * corner.density_mult)
                 / (first.sheet_mult * first.density_mult))
        expected = first.worst_drop_v * scale
        error = abs(corner.worst_drop_v - expected) / abs(expected)
        if not error <= SOLVER_RTOL:
            problems.append(
                f"cells={corner.cells}: worst drop {corner.worst_drop_v!r} "
                f"V, expected {expected!r} V (relative error {error:.2e})")
    return problems


class GridSignoff:
    name = "grid-signoff"

    def __init__(self, work_dir: Path, seed: int) -> None:
        from repro.analysis.scaling import _grid_inputs
        from repro.reliability.precond import PRECONDITIONER_CACHE

        self.rng = random.Random(seed)
        self.order = self.rng.sample(POOL_CELLS, len(POOL_CELLS))
        self.inputs = _grid_inputs()
        self._solve(WARMUP_CELLS, 1.0, 1.0)
        PRECONDITIONER_CACHE.clear()

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        pass

    def _solve(self, cells: int, sheet_mult: float,
               density_mult: float) -> Corner:
        from repro.pdn.grid import solve_power_grid_2d

        density, sheet, width, pitch = self.inputs
        start = time.monotonic()
        solution = solve_power_grid_2d(
            density * density_mult, sheet * sheet_mult,
            width / RAILS_PER_PITCH, pitch,
            rails_per_pitch=RAILS_PER_PITCH, cells=cells)
        return Corner(cells, sheet_mult, density_mult, solution.n_nodes,
                      solution.worst_drop_v, time.monotonic() - start)

    def run_phase(self, seconds: float, traced: bool) -> Phase:
        from repro.errors import ReproError
        from repro.obs import Trace, tracing
        from repro.reliability.precond import PRECONDITIONER_CACHE

        PRECONDITIONER_CACHE.clear()
        phase = Phase()
        trace = Trace("perfbench") if traced else None
        first: list[Corner] = []
        later: list[Corner] = []
        deadline = time.monotonic() + seconds
        start = time.monotonic()
        rounds = 0
        with tracing(trace) if trace is not None else nullcontext():
            # Whole rounds only: every round solves the same mesh mix.
            while rounds == 0 or time.monotonic() < deadline:
                rounds += 1
                for cells in self.order:
                    visit = []
                    for _ in range(CORNERS):
                        phase.attempted += 1
                        try:
                            visit.append(self._solve(
                                cells, self.rng.uniform(*MULTIPLIER_RANGE),
                                self.rng.uniform(*MULTIPLIER_RANGE)))
                        except ReproError as exc:
                            phase.failed += 1
                            phase.problems.append(f"cells={cells}: {exc}")
                    if len(visit) == CORNERS:
                        phase.problems += check_visit(visit)
                        first.append(visit[0])
                        later += visit[1:]
        end = time.monotonic()

        solves = first + later
        solve_s = sum(c.solve_s for c in solves)
        first_ns = median(1e9 * c.solve_s / c.n_nodes for c in first)
        later_ns = median(1e9 * c.solve_s / c.n_nodes for c in later)
        # Per-unknown medians, quoted as the time of a mesh of the pool's
        # mean size: the pool spans 16x in size, so a median of raw
        # times would sit on the edge between two mesh sizes.
        mean_nodes = mean(c.n_nodes for c in first)
        phase.e2e = {
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "cold_ms": metric(first_ns * mean_nodes / 1e6, "ms"),
            "warm_ms": metric(later_ns * mean_nodes / 1e6, "ms"),
            "throughput_per_s": metric(
                sum(c.n_nodes for c in solves) / solve_s if solve_s else 0.0,
                "1/s"),
        }
        phase.report = {
            "grid_unknowns_per_s": phase.e2e["throughput_per_s"],
            "grid_first_solve_ns_per_unknown": metric(first_ns, "ns"),
            "grid_corner_solve_ns_per_unknown": metric(later_ns, "ns"),
            "pool_mean_unknowns": metric(mean_nodes, "count"),
            "solves": metric(len(solves), "count"),
            "error_rate": metric(phase.failed / phase.attempted, "fraction"),
        }
        if trace is not None:
            phase.layers = self._layers(trace, start, end)
        return phase

    @staticmethod
    def _layers(trace: Any, start: float, end: float) -> dict[str, float]:
        from layers import span_metrics

        spans = trace.spans
        values = span_metrics(spans, trace.counters.as_dict())
        covered = interval_union(
            [(s.start_s, s.end_s) for s in spans if s.name == "pb.pdn.grid"],
            start, end)
        values["trace.unattributed_share"] = 1 - covered / (end - start)
        return values

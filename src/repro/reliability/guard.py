"""Guarded numerical solves: validated, observable, fallback-equipped.

Every headline result in the paper flows through an iterative numerical
routine -- the Ioff calibration root finds (Eqs. 2-4), the
electrothermal fixed point of Section 2, the resistive power-grid solve
behind Fig. 5.  Left unguarded, these are exactly the routines that
return silent NaN/garbage when a parameter leaves its domain or an
iteration stalls.  This module wraps them with one contract:

* **domain/bracket validation up front** -- non-finite endpoints,
  inverted brackets, and sign-change violations are rejected before any
  iteration runs;
* **non-convergence and NaN/Inf detection** -- a solve either returns a
  finite, converged answer or raises; nothing non-finite escapes;
* **one fallback strategy per step** -- bisection after a Brent
  failure, damped-relaxation restart for fixed points, a direct
  factorization after a conjugate-gradient miss, a dense solve after a
  sparse factorization failure;
* **structured errors** -- failures raise
  :class:`~repro.errors.CalibrationError` carrying iteration counts,
  best residuals, and the fallback attempted
  (:class:`SolveDiagnostics`), never a bare message.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.optimize import brentq

from repro.errors import CalibrationError
from repro.obs import (
    COUNT_BUCKETS,
    DURATION_BUCKETS,
    RESIDUAL_BUCKETS,
    add_counter,
    observe,
    span,
)
from repro.reliability.precond import (
    PRECONDITIONER_CACHE,
    jacobi_preconditioner,
)

FALLBACK_BISECT = "bisect"
FALLBACK_RELAXATION = "relaxation"
FALLBACK_DENSE = "dense"
FALLBACK_DIRECT = "direct"

#: Below this many unknowns a direct factorization beats CG setup cost,
#: so the ``spd=True`` path skips straight to ``spsolve``.
CG_MIN_UNKNOWNS = 256

#: ``auto`` ladder threshold: below this many unknowns Jacobi-CG
#: converges in affordable O(sqrt(n)) iterations; at or above it the
#: multilevel setup cost pays for itself within a single solve.
AMG_MIN_UNKNOWNS = 32768

#: Iteration budget for multilevel-preconditioned CG.  The V-cycle
#: makes the iteration count essentially mesh-size-independent (tens),
#: so the budget is a small constant rather than a function of ``n``.
AMG_MAX_ITERATIONS = 300

#: CG cannot reliably push the preconditioned relative residual below
#: the float64 rounding floor, which grows like ``eps * sqrt(n)`` for
#: mesh-like operators.  This factor sets the safety margin above it.
CG_NOISE_FLOOR_FACTOR = 50.0

#: Memory cap for the dense fallback: ``n^2 * 8`` bytes must stay
#: under this bound (512 MiB -> n <= ~8192) regardless of the caller's
#: ``dense_fallback_max``, so a failed sparse solve on a huge system
#: degrades to a structured error instead of an OOM kill.
DENSE_FALLBACK_MAX_BYTES = 512 * 1024 * 1024

PRECONDITIONER_AUTO = "auto"
PRECONDITIONER_JACOBI = "jacobi"
PRECONDITIONER_AMG = "amg"
PRECONDITIONER_CHOICES = (PRECONDITIONER_AUTO, PRECONDITIONER_JACOBI,
                          PRECONDITIONER_AMG)

#: Environment override for the default preconditioner policy --
#: the CLI ``--preconditioner`` knob sets this for child workers too.
PRECONDITIONER_ENV = "REPRO_PRECONDITIONER"


def _default_preconditioner() -> str:
    value = os.environ.get(PRECONDITIONER_ENV, "").strip().lower()
    return value if value in PRECONDITIONER_CHOICES \
        else PRECONDITIONER_AUTO


def _observe_solve(kind: str, iterations: int, residual: float | None,
                   fallback: str | None, converged: bool) -> None:
    """Land one solve's outcome in the distribution metrics.

    Successful solves previously dropped their final residual on the
    floor (only :class:`~repro.errors.CalibrationError` carried it);
    recording it here is what lets ``repro stats`` judge model fidelity
    from the residual distribution, not just failure counts.
    """
    observe("solver.iterations_per_solve", iterations, COUNT_BUCKETS,
            kind=kind)
    if residual is not None and math.isfinite(residual):
        observe("solver.residual", abs(residual), RESIDUAL_BUCKETS,
                kind=kind, converged=converged)
    # 0 = primary strategy sufficed, 1 = the one fallback ran.
    observe("solver.fallback_depth", 0 if fallback is None else 1,
            (0.5, 1.5), kind=kind)


@dataclass(frozen=True)
class SolveDiagnostics:
    """How a guarded solve went (attached to results and errors)."""

    name: str
    method: str
    iterations: int
    residual: float | None
    fallback: str | None = None
    bracket: tuple[float, float] | None = None
    converged: bool = True
    #: Preconditioner kind actually applied on the CG path
    #: ("jacobi" / "amg"), ``None`` for non-CG methods.
    preconditioner: str | None = None
    #: True when the multilevel setup came from the reuse cache.
    setup_reused: bool = False
    #: Preconditioner setup seconds vs iteration seconds -- the split
    #: that justifies (and monitors) setup reuse across sweep points.
    setup_s: float | None = None
    solve_s: float | None = None


@dataclass(frozen=True)
class GuardedRoot:
    """A validated scalar root plus its solve diagnostics."""

    root: float
    diagnostics: SolveDiagnostics


@dataclass(frozen=True)
class GuardedSolution:
    """A validated linear-system solution plus its solve diagnostics."""

    x: np.ndarray
    diagnostics: SolveDiagnostics


class _NonFiniteResidual(Exception):
    """Internal: the residual escaped to NaN/Inf during iteration."""

    def __init__(self, at: float) -> None:
        super().__init__(f"non-finite residual at {at!r}")
        self.at = at


def _checked(residual: Callable[[float], float]
             ) -> Callable[[float], float]:
    def wrapped(x: float) -> float:
        value = float(residual(x))
        if not math.isfinite(value):
            raise _NonFiniteResidual(x)
        return value
    return wrapped


def _fail(name: str, message: str, *, iterations: int = 0,
          residual: float | None = None, fallback: str | None = None,
          bracket: tuple[float, float] | None = None) -> CalibrationError:
    diagnostics = SolveDiagnostics(
        name=name, method="failed", iterations=iterations,
        residual=residual, fallback=fallback, bracket=bracket,
        converged=False)
    return CalibrationError(
        f"{name}: {message} "
        f"[iterations={iterations}, residual={residual!r}, "
        f"fallback={fallback!r}]",
        iterations=iterations, residual=residual, fallback=fallback,
        diagnostics=diagnostics)


def _bisect(residual: Callable[[float], float], lo: float, hi: float,
            f_lo: float, *, xtol: float, max_iter: int
            ) -> tuple[float, int, float, bool]:
    """Plain bisection; assumes a validated sign change on [lo, hi]."""
    low, high, f_low = lo, hi, f_lo
    iterations = 0
    while iterations < max_iter and (high - low) > xtol:
        iterations += 1
        mid = 0.5 * (low + high)
        f_mid = residual(mid)
        if f_mid == 0.0:
            return mid, iterations, 0.0, True
        if (f_mid > 0.0) == (f_low > 0.0):
            low, f_low = mid, f_mid
        else:
            high = mid
    mid = 0.5 * (low + high)
    return mid, iterations, residual(mid), (high - low) <= xtol


def _relaxation(residual: Callable[[float], float], lo: float,
                hi: float, *, xtol: float, max_iter: int
                ) -> tuple[float, int, float, bool]:
    """Damped fixed-point iteration on ``x <- x + w f(x)``, restarting
    from the bracket midpoint with a halved damping factor whenever the
    residual diverges (the classic relaxation restart for the
    electrothermal loop, where ``f`` is ``g(T) - T``)."""
    iterations = 0
    x = 0.5 * (lo + hi)
    for weight in (0.5, 0.25, 0.125, 0.0625):
        x = 0.5 * (lo + hi)
        best = abs(residual(x))
        for _ in range(max_iter):
            iterations += 1
            step = weight * residual(x)
            x = min(hi, max(lo, x + step))
            abs_f = abs(residual(x))
            if abs(step) <= xtol:
                return x, iterations, residual(x), True
            if abs_f > 10.0 * best:
                break  # diverging: restart with stronger damping
            best = min(best, abs_f)
    return x, iterations, residual(x), False


def guarded_solve(residual: Callable[[float], float], lo: float,
                  hi: float, *, name: str, xtol: float = 1e-9,
                  max_iter: int = 100,
                  fallback: str = FALLBACK_BISECT) -> GuardedRoot:
    """Find a root of ``residual`` on ``[lo, hi]`` or raise structurally.

    Brent's method is the primary strategy; on non-convergence or a
    NaN/Inf escape the named ``fallback`` (:data:`FALLBACK_BISECT` or
    :data:`FALLBACK_RELAXATION`) gets one shot.  Both the returned
    :class:`GuardedRoot` and any raised
    :class:`~repro.errors.CalibrationError` carry full
    :class:`SolveDiagnostics`.
    """
    with span(f"solve.{name}", kind="root") as solve_span:
        add_counter("solver.solves")
        try:
            result = _guarded_solve(residual, lo, hi, name=name,
                                    xtol=xtol, max_iter=max_iter,
                                    fallback=fallback)
        except CalibrationError as exc:
            add_counter("solver.failures")
            add_counter("solver.iterations", exc.iterations or 0)
            _observe_solve("root", exc.iterations or 0, exc.residual,
                           exc.fallback, converged=False)
            raise
        diagnostics = result.diagnostics
        add_counter("solver.iterations", diagnostics.iterations)
        if diagnostics.fallback is not None:
            add_counter("solver.fallbacks")
        _observe_solve("root", diagnostics.iterations,
                       diagnostics.residual, diagnostics.fallback,
                       converged=True)
        solve_span.set(method=diagnostics.method,
                       iterations=diagnostics.iterations)
    return result


def _guarded_solve(residual: Callable[[float], float], lo: float,
                   hi: float, *, name: str, xtol: float,
                   max_iter: int, fallback: str) -> GuardedRoot:
    if fallback not in (FALLBACK_BISECT, FALLBACK_RELAXATION):
        raise ValueError(f"unknown fallback {fallback!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _fail(name, f"non-finite bracket [{lo!r}, {hi!r}]",
                    bracket=(lo, hi))
    if lo >= hi:
        raise _fail(name, f"empty bracket [{lo}, {hi}]", bracket=(lo, hi))

    checked = _checked(residual)
    try:
        f_lo, f_hi = checked(lo), checked(hi)
    except _NonFiniteResidual as exc:
        raise _fail(name, f"residual non-finite at bracket point "
                          f"{exc.at!r}", bracket=(lo, hi)) from exc
    if f_lo == 0.0 or f_hi == 0.0:
        root = lo if f_lo == 0.0 else hi
        return GuardedRoot(root, SolveDiagnostics(
            name=name, method="bracket-endpoint", iterations=0,
            residual=0.0, bracket=(lo, hi)))
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise _fail(name, f"no sign change on [{lo}, {hi}] "
                          f"(f(lo)={f_lo:.6g}, f(hi)={f_hi:.6g})",
                    residual=min(abs(f_lo), abs(f_hi)),
                    bracket=(lo, hi))

    primary_iterations = 0
    try:
        root, report = brentq(checked, lo, hi, xtol=xtol,
                              maxiter=max_iter, full_output=True,
                              disp=False)
        primary_iterations = report.iterations
        final = checked(float(root))
        if report.converged and math.isfinite(float(root)):
            return GuardedRoot(float(root), SolveDiagnostics(
                name=name, method="brentq",
                iterations=primary_iterations, residual=final,
                bracket=(lo, hi)))
    except (_NonFiniteResidual, ValueError, RuntimeError):
        pass

    # one fallback attempt
    try:
        if fallback == FALLBACK_BISECT:
            root, extra, final, converged = _bisect(
                checked, lo, hi, f_lo, xtol=xtol, max_iter=2 * max_iter)
        else:
            root, extra, final, converged = _relaxation(
                checked, lo, hi, xtol=xtol, max_iter=max_iter)
    except _NonFiniteResidual as exc:
        raise _fail(name, f"residual escaped to NaN/Inf at {exc.at!r} "
                          f"during {fallback} fallback",
                    iterations=primary_iterations, fallback=fallback,
                    bracket=(lo, hi)) from exc
    iterations = primary_iterations + extra
    if converged and math.isfinite(root) and math.isfinite(final):
        return GuardedRoot(float(root), SolveDiagnostics(
            name=name, method=f"{fallback}-fallback",
            iterations=iterations, residual=final, fallback=fallback,
            bracket=(lo, hi)))
    raise _fail(name, "failed to converge (primary and fallback "
                      "exhausted)", iterations=iterations,
                residual=final if math.isfinite(final) else None,
                fallback=fallback, bracket=(lo, hi))


def guarded_linear_solve(matrix: Any, rhs: np.ndarray, *, name: str,
                         rtol: float = 1e-8,
                         dense_fallback_max: int = 20000,
                         spd: bool = False,
                         cg_min_unknowns: int = CG_MIN_UNKNOWNS,
                         preconditioner: str | None = None
                         ) -> GuardedSolution:
    """Solve a sparse linear system with validation and fallbacks.

    With ``spd=True`` the caller asserts the matrix is symmetric
    positive definite, and systems of at least ``cg_min_unknowns``
    unknowns are solved by preconditioned conjugate gradients first --
    the scaling path for large Laplacians, whose iteration count and
    residual land in the ``solver.iterations_per_solve`` /
    ``solver.residual`` histograms like every other guarded solve.
    ``preconditioner`` picks the rung: ``"auto"`` (default; Jacobi
    below :data:`AMG_MIN_UNKNOWNS`, smoothed-aggregation multilevel at
    or above it), ``"jacobi"``, or ``"amg"``; ``None``
    reads the :data:`PRECONDITIONER_ENV` environment override (the CLI
    ``--preconditioner`` knob).  Multilevel setups are reused across
    solves that share a sparsity fingerprint, and setup vs iteration
    time lands in the ``solver.setup_s`` / ``solver.solve_s``
    histograms.  A CG breakdown or missed tolerance falls back to the
    direct factorization (``fallback="direct"`` in the diagnostics),
    so the iterative path can never *weaken* the guarantee.

    The sparse factorization (``scipy.sparse.linalg.spsolve``) is the
    primary strategy otherwise; if it raises, or the solution carries
    NaN/Inf, or the relative residual exceeds ``rtol``, one dense
    (``numpy.linalg.solve``) attempt is made for systems up to
    ``dense_fallback_max`` unknowns *and* at most
    :data:`DENSE_FALLBACK_MAX_BYTES` of dense storage.  Failures raise
    :class:`~repro.errors.CalibrationError` with the residual achieved.
    """
    if preconditioner is None:
        preconditioner = _default_preconditioner()
    if preconditioner not in PRECONDITIONER_CHOICES:
        raise ValueError(f"unknown preconditioner {preconditioner!r}")
    with span(f"solve.{name}", kind="linear") as solve_span:
        add_counter("solver.solves")
        try:
            result = _guarded_linear_solve(
                matrix, rhs, name=name, rtol=rtol,
                dense_fallback_max=dense_fallback_max, spd=spd,
                cg_min_unknowns=cg_min_unknowns,
                preconditioner=preconditioner)
        except CalibrationError as exc:
            add_counter("solver.failures")
            add_counter("solver.iterations", exc.iterations or 0)
            _observe_solve("linear", exc.iterations or 0, exc.residual,
                           exc.fallback, converged=False)
            raise
        diagnostics = result.diagnostics
        add_counter("solver.iterations", diagnostics.iterations)
        if diagnostics.fallback is not None:
            add_counter("solver.fallbacks")
        _observe_solve("linear", diagnostics.iterations,
                       diagnostics.residual, diagnostics.fallback,
                       converged=True)
        if diagnostics.preconditioner is not None:
            reused = "1" if diagnostics.setup_reused else "0"
            if diagnostics.setup_s is not None:
                observe("solver.setup_s", diagnostics.setup_s,
                        DURATION_BUCKETS,
                        preconditioner=diagnostics.preconditioner,
                        reused=reused)
            if diagnostics.solve_s is not None:
                observe("solver.solve_s", diagnostics.solve_s,
                        DURATION_BUCKETS,
                        preconditioner=diagnostics.preconditioner,
                        reused=reused)
            solve_span.set(preconditioner=diagnostics.preconditioner,
                           setup_reused=diagnostics.setup_reused)
        solve_span.set(method=diagnostics.method,
                       unknowns=int(result.x.size))
    return result


def _cg_tolerance(rtol: float, n: int) -> float:
    """Scale-aware CG relative tolerance.

    Two decades below the guard's ``rtol`` (2-norm vs the guard's
    max-norm check) but never below the float64 rounding floor, which
    grows like ``eps * sqrt(n)`` for mesh-like operators.  The old
    policy clamped to ``min(1e-10, rtol * 1e-2)``: at 10^6 unknowns
    1e-10 sits *at* the noise floor, so CG burned its whole budget
    chasing an unreachable tolerance and reported a spurious miss.
    """
    floor = CG_NOISE_FLOOR_FACTOR * np.finfo(float).eps * math.sqrt(n)
    return max(rtol * 1e-2, floor)


def _resolve_preconditioner(kind: str, n: int) -> str:
    """Collapse ``auto`` onto the concrete ladder rung for ``n``."""
    if kind == PRECONDITIONER_AUTO:
        return PRECONDITIONER_AMG if n >= AMG_MIN_UNKNOWNS \
            else PRECONDITIONER_JACOBI
    return kind


@dataclass(frozen=True)
class _CGAttempt:
    """Outcome of one preconditioned-CG attempt."""

    x: np.ndarray | None
    iterations: int
    preconditioner: str | None
    setup_reused: bool
    setup_s: float
    solve_s: float


def _try_cg(sparse: Any, rhs: np.ndarray, *, rtol: float,
            preconditioner: str,
            rel_residual: Callable[[np.ndarray], float]) -> _CGAttempt:
    """One preconditioned CG attempt; ``x=None`` on a miss.

    The preconditioner ladder: ``amg`` builds (or reuses from the
    fingerprint cache) a multilevel hierarchy whose V-cycle keeps the
    iteration count mesh-size-independent; ``jacobi`` scales as
    ``O(sqrt(n))`` iterations.  The iteration budget matches the
    preconditioner -- a small constant for ``amg``, ``8 sqrt(n) + 100``
    for ``jacobi`` -- so a genuinely ill-conditioned system falls
    through to the factorization quickly instead of spinning.
    """
    from scipy.sparse.linalg import LinearOperator, cg

    n = int(rhs.size)
    setup_start = time.monotonic()
    applied = preconditioner
    setup_reused = False
    operator = None
    if preconditioner == PRECONDITIONER_AMG:
        built, setup_reused, _ = PRECONDITIONER_CACHE.get_or_build(
            sparse)
        if built is None:  # cannot coarsen: degrade one rung
            applied = PRECONDITIONER_JACOBI
        else:
            operator = LinearOperator(sparse.shape, matvec=built.apply)
    if applied == PRECONDITIONER_JACOBI:
        jacobi = jacobi_preconditioner(sparse)
        if jacobi is None:
            # not plausibly SPD; skip straight to direct
            return _CGAttempt(None, 0, None, False,
                              time.monotonic() - setup_start, 0.0)
        operator = LinearOperator(sparse.shape, matvec=jacobi.apply)
    setup_s = time.monotonic() - setup_start

    if applied == PRECONDITIONER_AMG:
        budget = AMG_MAX_ITERATIONS
    else:
        budget = int(8.0 * math.sqrt(n)) + 100
    iterations = 0

    def count(_: np.ndarray) -> None:
        nonlocal iterations
        iterations += 1

    solve_start = time.monotonic()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            x, info = cg(sparse, rhs,
                         rtol=_cg_tolerance(rtol, n), atol=0.0,
                         maxiter=budget, M=operator, callback=count)
    except Exception:
        return _CGAttempt(None, iterations, applied, setup_reused,
                          setup_s, time.monotonic() - solve_start)
    solve_s = time.monotonic() - solve_start
    x = np.asarray(x, dtype=float)
    if info == 0 and np.all(np.isfinite(x)) \
            and rel_residual(x) <= rtol:
        return _CGAttempt(x, iterations, applied, setup_reused,
                          setup_s, solve_s)
    return _CGAttempt(None, iterations, applied, setup_reused,
                      setup_s, solve_s)


def _guarded_linear_solve(matrix: Any, rhs: np.ndarray, *, name: str,
                          rtol: float, dense_fallback_max: int,
                          spd: bool, cg_min_unknowns: int,
                          preconditioner: str) -> GuardedSolution:
    from scipy.sparse.linalg import spsolve

    rhs = np.asarray(rhs, dtype=float)
    if rhs.size == 0:
        raise _fail(name, "empty linear system")
    if not np.all(np.isfinite(rhs)):
        raise _fail(name, "right-hand side contains NaN/Inf")
    data = matrix.data if hasattr(matrix, "data") else np.asarray(matrix)
    if not np.all(np.isfinite(data)):
        raise _fail(name, "matrix contains NaN/Inf entries")

    scale = float(np.max(np.abs(rhs)))

    def rel_residual(x: np.ndarray) -> float:
        return float(np.max(np.abs(matrix @ x - rhs))) / max(scale, 1e-300)

    sparse = matrix.tocsr() if hasattr(matrix, "tocsr") else matrix

    cg_attempted = False
    cg_iterations = 0
    if spd and rhs.size >= cg_min_unknowns and hasattr(sparse, "diagonal"):
        cg_attempted = True
        kind = _resolve_preconditioner(preconditioner, int(rhs.size))
        attempt = _try_cg(sparse, rhs, rtol=rtol, preconditioner=kind,
                          rel_residual=rel_residual)
        cg_iterations = attempt.iterations
        if attempt.x is not None:
            return GuardedSolution(attempt.x, SolveDiagnostics(
                name=name, method="cg", iterations=cg_iterations,
                residual=rel_residual(attempt.x),
                preconditioner=attempt.preconditioner,
                setup_reused=attempt.setup_reused,
                setup_s=attempt.setup_s, solve_s=attempt.solve_s))

    fallback_used = None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            x = spsolve(sparse, rhs)
        x = np.asarray(x, dtype=float)
        if np.all(np.isfinite(x)) and rel_residual(x) <= rtol:
            return GuardedSolution(x, SolveDiagnostics(
                name=name, method="spsolve",
                iterations=cg_iterations + 1,
                residual=rel_residual(x),
                fallback=FALLBACK_DIRECT if cg_attempted else None))
    except Exception:
        x = None

    # one dense fallback attempt, memory-capped: a million-unknown
    # dense matrix would be terabytes, so the cap turns a would-be OOM
    # kill into a structured CalibrationError.
    residual = None
    dense_bytes = int(rhs.size) * int(rhs.size) * 8
    if rhs.size <= dense_fallback_max \
            and dense_bytes <= DENSE_FALLBACK_MAX_BYTES:
        fallback_used = FALLBACK_DENSE
        try:
            dense = (matrix.toarray() if hasattr(matrix, "toarray")
                     else np.asarray(matrix, dtype=float))
            x = np.linalg.solve(dense, rhs)
            if np.all(np.isfinite(x)):
                residual = rel_residual(x)
                if residual <= rtol:
                    return GuardedSolution(x, SolveDiagnostics(
                        name=name, method="spsolve",
                        iterations=cg_iterations + 2,
                        residual=residual, fallback=FALLBACK_DENSE))
        except np.linalg.LinAlgError:
            pass
    raise _fail(name, "linear solve failed (singular or ill-conditioned "
                      "system)",
                iterations=cg_iterations + (2 if fallback_used else 1),
                residual=residual, fallback=fallback_used)

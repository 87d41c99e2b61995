"""E-ET experiments: transient supply loop + electrothermal co-sim."""

import numpy as np


def test_wakeup_droop_cosim(benchmark, run):
    result = benchmark.pedantic(run, args=("E-ET1",), rounds=2,
                                iterations=1)
    # Acceptance criterion: closed-form L di/dt agreement within 5 %.
    assert result["max_abs_rel_error"] <= 0.05
    assert result["within_5pct"] == 1.0


def test_dtm_virus_cosim(benchmark, run):
    result = benchmark.pedantic(run, args=("E-ET2",), rounds=2,
                                iterations=1)
    # Unmanaged violates; every DTM policy holds the junction with a
    # bounded throughput loss and a clean supply.
    assert result["unmanaged_violation"] == 1.0
    assert result["any_managed_violation"] == 0.0
    assert 0.5 <= result["min_throughput_fraction"] < 1.0


def test_emergency_droop_scaling(benchmark, run):
    result = benchmark.pedantic(run, args=("E-ET4",), rounds=2,
                                iterations=1)
    assert result["within_5pct"] == 1.0
    # the quadratic decap lever: droop halves per 4x decap
    assert abs(result["decap_x0.25_droop_v"]
               / result["decap_x1_droop_v"] - 2.0) < 0.05


def test_transim_stepping_kernel(benchmark):
    """The raw stepping kernel: the closed-form segment propagator,
    sampled vectorized over each stimulus segment's time grid.

    The committed ``benchmarks/cosim/`` snapshots record its speedup
    over the former sequential trapezoid kernel.
    """
    from repro.pdn.transim import (CurrentStimulus, simulate,
                                   supply_loop_for_node)

    loop = supply_loop_for_node(100, False, damping_ratio=0.3)
    stimulus = CurrentStimulus.periodic(
        10.0, 120.0, loop.period_s * 4.0, 8)
    duration = loop.period_s * 40.0
    dt = loop.period_s / 512.0

    def kernel():
        return simulate(loop, stimulus, duration, dt_s=dt)

    result = benchmark.pedantic(kernel, rounds=3, iterations=1)
    assert result.n_steps >= 10_000
    assert np.all(np.isfinite(result.v_die_v))

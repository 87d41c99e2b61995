"""Test-suite configuration.

Registers a deterministic hypothesis profile: model evaluations involve
scipy root-finding whose wall time varies across machines, so the
per-example deadline is disabled and examples are derandomised for
reproducible CI runs.

``registry_results`` sweeps the whole experiment registry once per
session; the paper-shape asserts and the EXPERIMENTS.md report test
share it.
"""

import pytest
from hypothesis import settings

settings.register_profile("repro", deadline=None, derandomize=True)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def registry_results():
    """Every registry experiment's result, from one engine sweep."""
    from repro.engine import EngineConfig, run_experiments

    sweep = run_experiments(config=EngineConfig(jobs=4))
    failed = {record.experiment_id: record.error
              for record in sweep.records if not record.ok}
    assert not failed, f"registry experiments failed: {failed}"
    return sweep.results

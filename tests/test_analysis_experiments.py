"""Experiment registry: coverage and runnability of the fast artifacts.

Every artifact's paper shape, the heavy claims (E-C3..E-C5, E-C7)
included, is asserted in ``tests/test_paper_shapes.py``; here we check
the registry itself plus every cheap runner through the single-shot
``run_experiment`` path.
"""

import pytest

from repro.analysis import EXPERIMENTS, run_experiment
from repro.errors import ReproError

ALL_IDS = {"E-T1", "E-T2", "E-F1", "E-F2", "E-F3", "E-F4", "E-F5",
           "E-C1", "E-C2", "E-C3", "E-C4", "E-C5", "E-C6", "E-C7",
           "E-V1", "E-S1", "E-S2", "E-S3", "E-S4",
           "E-X1", "E-X2", "E-X3", "E-X4",
           "E-ET1", "E-ET2", "E-ET3", "E-ET4"}


def test_registry_covers_every_artifact():
    assert set(EXPERIMENTS) == ALL_IDS


def test_every_table_and_figure_has_an_experiment():
    artifacts = {e.paper_artifact for e in EXPERIMENTS.values()}
    for artifact in ("Table 1", "Table 2", "Figure 1", "Figure 2",
                     "Figure 3", "Figure 4", "Figure 5"):
        assert artifact in artifacts


def test_descriptions_nonempty():
    for experiment in EXPERIMENTS.values():
        assert experiment.description
        assert experiment.id.startswith("E-")


@pytest.mark.parametrize("experiment_id",
                         ["E-T1", "E-T2", "E-F1", "E-F2", "E-F3",
                          "E-F4", "E-F5", "E-C2", "E-C6", "E-V1",
                          "E-X1", "E-X3", "E-ET1", "E-ET4"])
def test_fast_experiments_run(experiment_id):
    result = run_experiment(experiment_id)
    assert result


def test_unknown_id_raises():
    with pytest.raises(ReproError):
        run_experiment("E-X9")

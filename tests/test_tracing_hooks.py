"""The benchmark's span hooks name attributes the program still defines.

``perfbench/tracing.py`` wraps each ``(owner, attr)`` of its ``HOOKS`` table
by replacing ``owner.__dict__[attr]``, so a renamed or moved function would
only surface in a traced benchmark run; this test catches it first.
"""

import importlib.util
import pathlib

import numpy as np

from matmine import data, homogenization, mining, training

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.HOOKS
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, *_ in tracing.HOOKS
               if attr not in owner.__dict__]
    assert missing == []


def test_detection_and_admission_call_distinct_mask_through_the_module(monkeypatch):
    # the benchmark counts ``mining.distinct_mask`` spans on every workload
    # and fails when a traced layer records none
    calls = []
    original = mining.distinct_mask

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(mining, "distinct_mask", counted)
    rng = np.random.default_rng(0)
    F = np.eye(3) + 0.1 * rng.normal(size=(20, 3, 3))
    ds = data.DataSet(F, np.zeros_like(F), ["init"] * 20, np.zeros(20, dtype=int),
                      np.arange(20), np.zeros(20, dtype=int), np.zeros(20))
    paths = np.stack([np.eye(3) + t * 0.4 * rng.normal(size=(4, 3, 3))
                      for t in np.linspace(0.0, 1.0, 3)], axis=1)
    mining.detect_new_paths(ds, paths, np.linspace(0.0, 1.0, 3), (1.0, 0.0, 0.0))
    assert calls
    calls.clear()
    inv = ds.invariant_values((0.0, 0.0, 1.0))
    mining.filter_candidates(inv, inv[:5], mining.coordinate_ranges(inv), 0.01)
    assert calls


def test_initial_dataset_drives_the_suite_through_the_module(monkeypatch):
    # the benchmark's set-up layer is ``homogenization.drive_material_point``
    calls = []
    original = homogenization.drive_material_point

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(homogenization, "drive_material_point", counted)
    mining.initial_dataset(mining.AnalyticOracle().evaluate_states, n_steps=1)
    assert len(calls) == len(homogenization.initial_load_suite())


def test_training_calls_stress_loss_through_the_module(monkeypatch):
    # the benchmark's fine hook ``training.stress_loss`` counts loss calls
    calls = []
    original = training.stress_loss

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "stress_loss", counted)
    rng = np.random.default_rng(0)
    F = np.eye(3) + 0.05 * rng.normal(size=(12, 3, 3))
    P = F @ (np.eye(3) + np.swapaxes(F, 1, 2) @ F)
    ds = data.DataSet(F, P, ["init"] * 12, np.zeros(12, dtype=int),
                      np.arange(12), np.zeros(12, dtype=int), np.zeros(12))
    cfg = training.TrainingConfig(n_neurons=2, restarts=2, max_iterations=5)
    _, report = training.train(ds, cfg)
    assert len(calls) > max(r["n_iterations"] for r in report.restarts)

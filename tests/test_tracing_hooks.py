"""The benchmark's span hooks name attributes the program still defines.

``perfbench/tracing.py`` wraps each ``(owner, attr)`` of its ``HOOKS`` table
by replacing ``owner.__dict__[attr]``, so a renamed or moved function would
only surface in a traced benchmark run; this test catches it first.
"""

import functools
import importlib.util
import logging
import pathlib

import numpy as np
import scipy.sparse.linalg

from matmine import (cli, config, data, homogenization, macro, materials,
                     mining, surrogate, tensors, training)
from matmine.errors import MatmineError

import helpers

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
    # and fails when a traced layer records none; each pass calls it once,
    # for its static pass, and settles the rest on a tree of its own
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
    detected = mining.detect_new_paths(ds, paths, np.linspace(0.0, 1.0, 3),
                                       (1.0, 0.0, 0.0))
    assert detected and len(calls) == 1
    calls.clear()
    inv = ds.invariant_values((0.0, 0.0, 1.0))
    kept = mining.filter_candidates(inv, inv[:5], mining.coordinate_ranges(inv),
                                    0.01)
    assert kept and len(calls) == 1


def test_kbase_commands_read_and_write_through_the_data_module(monkeypatch,
                                                               tmp_path):
    # ``kbase-scale``, whose unit is ``matmine enrich``, fails a traced run
    # when ``data.load_kbase`` or ``data.save_kbase`` records no calls
    rng = np.random.default_rng(4)
    F = np.eye(3) + 0.02 * rng.normal(size=(20, 3, 3))
    P = mining.AnalyticOracle().evaluate_path(F, warm_start=False)
    data.save_kbase(data.DataSet(F, P, ["init"] * 20, np.zeros(20, dtype=int),
                                 np.arange(20), np.zeros(20, dtype=int),
                                 np.zeros(20)), tmp_path / "kb.txt")
    records = [(np.eye(3) + 0.05 * k * rng.normal(size=(3, 3)), np.zeros((3, 3)),
                "detected:cuboid-hole", 0, pid, k, k / 3.0)
               for pid in range(2) for k in range(1, 4)]
    data.save_kbase(data.from_records(records), tmp_path / "det.txt")

    calls = {"load_kbase": 0, "save_kbase": 0}

    def counted(attr):
        original = getattr(data, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(data, attr, wrapper)

    counted("load_kbase")
    counted("save_kbase")
    assert cli.main(["enrich", "--dataset", str(tmp_path / "kb.txt"),
                     "--paths", str(tmp_path / "det.txt"),
                     "--out", str(tmp_path / "out.txt")]) == 0
    assert calls == {"load_kbase": 2, "save_kbase": 1}
    assert len(data.load_kbase(tmp_path / "out.txt")) > 20


def test_initial_dataset_drives_the_suite_through_the_module(monkeypatch):
    # the benchmark's set-up layer is ``homogenization.drive_material_point``
    calls = []
    original = homogenization.drive_material_point

    def counted(stress, cases, **kwargs):
        calls.append([case.name for case in cases])
        return original(stress, cases, **kwargs)

    monkeypatch.setattr(homogenization, "drive_material_point", counted)
    mining.initial_dataset(functools.partial(mining.AnalyticOracle().evaluate_path,
                                             warm_start=False), n_steps=1)
    assert calls == [[case.name for case in homogenization.initial_load_suite()]]


def _detected_histories(rng, n_paths):
    F = np.eye(3) + 0.02 * rng.normal(size=(20, 3, 3))
    ds = data.DataSet(F, np.zeros_like(F), ["init"] * 20, np.zeros(20, dtype=int),
                      np.arange(20), np.zeros(20, dtype=int), np.zeros(20))
    times = np.linspace(0.0, 1.0, 4)
    detected = []
    for p in range(n_paths):
        steps = np.cumsum(0.1 * rng.normal(size=(3, 3, 3)), axis=0)
        path = np.concatenate([np.eye(3)[None], np.eye(3) + steps])
        detected.append(mining.DetectedPath(p, 3, times, path))
    return ds, detected


def test_enrich_calls_the_oracle_class_once_per_history(monkeypatch):
    # the benchmark's coarse hook wraps ``type(oracle).evaluate_path`` and
    # reads a history's state count as the length of its first positional
    # argument less the undeformed state enrich prepends
    calls = []
    original = mining.AnalyticOracle.evaluate_path

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(mining.AnalyticOracle, "evaluate_path", counted)
    ds, detected = _detected_histories(np.random.default_rng(1), 4)
    new, _ = mining.enrich(ds, detected, mining.AnalyticOracle(),
                           (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    histories = sorted(set(new.path_id.tolist()))
    assert len(histories) > 1 and len(calls) == len(histories)
    for args, pid in zip(calls, histories):
        np.testing.assert_array_equal(
            args[0], np.concatenate([np.eye(3)[None], new.F[new.path_id == pid]]))


def test_a_raising_oracle_logs_oracle_failed(caplog):
    # the benchmark counts skipped histories by this warning's prefix
    class Raising:
        def evaluate_path(self, F, warm_start=True):
            raise MatmineError("synthetic failure")

    ds, detected = _detected_histories(np.random.default_rng(2), 2)
    with caplog.at_level(logging.WARNING, logger="matmine.mining"):
        new, _ = mining.enrich(ds, detected, Raising(),
                               (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    assert len(new) == 0
    skipped = [r for r in caplog.records if r.msg.startswith("oracle failed")]
    assert len(skipped) == 2


def test_cell_newton_updates_call_the_fd_tangent_and_spsolve_through_the_modules(
        monkeypatch):
    # ``voxel-enrich`` fails a traced run when ``materials.stress_tangent_fd``
    # or the cell's ``scipy.sparse.linalg.spsolve`` records no calls
    calls = {"tangent": 0, "spsolve": 0}

    def counted(key, original):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return wrapper

    solver = homogenization.VoxelHomogenizer(homogenization.fiber_rve(2, 0.5, seed=1))
    assert len(solver.phase_masks) == 2
    monkeypatch.setattr(materials, "stress_tangent_fd",
                        counted("tangent", materials.stress_tangent_fd))
    monkeypatch.setattr(scipy.sparse.linalg, "spsolve",
                        counted("spsolve", scipy.sparse.linalg.spsolve))
    sol = solver.solve(np.diag([1.05, 1.0, 0.98]))
    assert sol.iterations > 0
    assert calls["spsolve"] == sol.iterations
    assert calls["tangent"] == 2 * sol.iterations
    # construction condenses the undeformed cell: one tangent per phase at
    # C = I and one factorisation for the nine right-hand sides
    calls.update(tangent=0, spsolve=0)
    homogenization.VoxelHomogenizer(solver.rve)
    assert calls == {"tangent": 2, "spsolve": 1}


def test_macro_newton_calls_the_surrogate_layers_through_the_modules(monkeypatch):
    # ``cuboid-cold`` fails a traced run when ``surrogate.model_stress``,
    # ``surrogate.model_tangent`` or ``tensors.invariant_hessians`` records
    # no calls
    calls = {"model_stress": 0, "model_tangent": 0, "invariant_hessians": 0}

    def counted(owner, attr):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    counted(surrogate, "model_stress")
    counted(surrogate, "model_tangent")
    counted(tensors, "invariant_hessians")
    mesh = macro.box_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    bcs = (macro.DisplacementRamp("x1min", (0.0, 0.0, 0.0)),
           macro.DisplacementRamp("x1max", (0.05, 0.0, 0.0)))
    state = macro.solve_macro(mesh, bcs,
                              macro.surrogate_law(helpers.one_neuron_model(),
                                                  (0.0, 0.0, 1.0)),
                              n_steps=2, shear_scale=60.0)
    updates = sum(rec.iterations for rec in state.steps)
    assert state.completed and updates > 0
    assert calls["model_tangent"] == updates
    assert calls["invariant_hessians"] >= updates
    assert calls["model_stress"] > updates


def test_initial_stress_is_the_cold_oracle_call():
    # the benchmark builds its set-up suite with ``config.make_initial_stress``
    rc = config.load_config(None)
    F = np.eye(3) + 0.05 * np.random.default_rng(3).normal(size=(4, 3, 3))
    np.testing.assert_array_equal(
        config.make_initial_stress(rc)(F),
        config.make_oracle(rc).evaluate_path(F, warm_start=False))


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

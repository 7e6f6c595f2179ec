"""The benchmark's workloads: seeded inputs, one timed unit, output checks.

A workload's ``setup(seed, work_dir)`` builds its inputs; the same seed gives
the same inputs, and ``digest`` hashes the part of them the benchmark itself
generates.  ``run_unit`` is the timed part.  ``check_unit`` and
``check_run`` return lists of failure messages; ``fingerprint`` names the
outputs that must repeat bit for bit across units and runs of one seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from matmine import config, data, macro, materials, mining, tensors, training
from matmine.errors import MatmineError, MaxIterationsExceeded

MACRO_AXIS = np.array([1.0, 0.0, 0.0])   # fiber direction of the cuboid problem
RVE_AXIS = np.array([0.0, 0.0, 1.0])     # microscale frame of the oracles
LOOP = mining.LoopConfig()               # default detection and filter tolerances


@dataclass
class Outcome:
    """What one unit produced."""

    rounds: int                 # mining rounds (train/solve/detect/enrich cycles)
    tuples_mined: int
    fingerprint: str = ""
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def _sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()[:16]


def _turn(axis, angle):
    """Rotation by ``angle`` about the unit vector ``axis`` (Rodrigues)."""
    K = np.cross(np.eye(3), np.asarray(axis, dtype=float))
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * K @ K


def _initial_suite(rc):
    return mining.initial_dataset(eps_filter=rc.loop.eps_filter,
                                  n_steps=rc.initial_steps,
                                  rve_fiber_axis=rc.loop.rve_fiber_axis,
                                  stress=config.make_initial_stress(rc))


# ---------------------------------------------------------------------------

class CuboidCold:
    """``mining.run_loop`` on cuboid-hole from the initial suite."""

    name = "cuboid-cold"
    threads = 1
    layers = ("training.train", "training.stress_loss", "macro.solve_macro",
              "macro.spsolve", "fem.tangent_matrix",
              "fem.nominal_stress_operator", "fem.internal_forces",
              "surrogate.model_stress", "surrogate.model_tangent",
              "tensors.invariant_hessians", "mining.detect_new_paths",
              "mining.distinct_mask", "mining.filter_candidates",
              "mining.enrich", "oracle.evaluate_path",
              "mining.write_artifacts", "data.save_kbase")
    setup_layers = ("homogenization.drive_material_point",)
    # Training seeds whose loops took 3 rounds and 180 macro Newton
    # iterations and mined 100-110 tuples on the code this benchmark was
    # defined on; the workload seed picks one.  Every seed thus asks for the
    # same trajectory and about the same work, and a change to the program
    # that makes the loop converge in fewer or more rounds moves the
    # whole-loop wall time.
    training_seeds = (1, 3, 9, 17, 27, 28)

    def overrides(self, seed):
        # the quick schedule of the closed-loop release gates
        return {("geometry", "name"): "cuboid-hole",
                ("geometry", "resolution"): 1,
                ("training", "restarts"): 4,
                ("training", "max_iterations"): 1500,
                ("training", "seed"):
                    self.training_seeds[seed % len(self.training_seeds)],
                ("loop", "n_max"): 10,
                ("loop", "threads"): self.threads}

    def setup(self, seed, work_dir):
        rc = config.load_config(None, overrides=self.overrides(seed))
        return SimpleNamespace(rc=rc, problem=config.make_problem(rc),
                               oracle=config.make_oracle(rc),
                               initial=_initial_suite(rc))

    def digest(self, inp, seed):
        return _sha(sorted((f"{s}.{k}", v) for (s, k), v in self.overrides(seed).items()))

    def run_unit(self, inp, out_dir):
        try:
            result = mining.run_loop(inp.problem, inp.oracle, inp.initial,
                                     inp.rc.training, inp.rc.loop,
                                     out_dir=out_dir)
        except MaxIterationsExceeded as exc:
            result = exc.result
        return result

    def check_unit(self, inp, result, out_dir):
        out = Outcome(rounds=len(result.iterations),
                      tuples_mined=len(result.dataset) - len(inp.initial))
        if not result.converged:
            out.failures.append("loop did not converge")
        with open(os.path.join(out_dir, "loop_report.json"), "rb") as fh:
            out.fingerprint = hashlib.sha256(fh.read()).hexdigest()[:16]
        p95 = float("inf")
        if result.final_state is not None:
            paths, times = macro.collect_deformations(result.final_state)
            val = mining.validate_coverage(result.model, result.dataset, paths,
                                           times, inp.oracle,
                                           inp.problem.fiber_axis,
                                           inp.rc.loop.rve_fiber_axis)
            p95 = val["rel_p95"]
        if not p95 <= 0.05:
            out.failures.append(f"validation p95 relative error {p95:.4g} > 0.05")
        out.extra = {"val_rel_p95": p95}
        return out

    def check_run(self, inp):
        return []

    def states(self, totals):
        """Quadrature-point states of every converged macro load step."""
        return totals.info("macro.solve_macro", "qp_states")


# ---------------------------------------------------------------------------

class VoxelEnrich:
    """``mining.enrich`` with the voxel-cell oracle on generated paths."""

    name = "voxel-enrich"
    threads = 2
    # Four stretch ramps F(t) = Q diag(1 + t (s - 1)) Q^T with states at
    # t = 0.75 and 1, the second warm started from the first.  Q tilts the
    # stretch axes off the fiber by a fixed turn and then turns them about the
    # fiber by an angle drawn from the seed.  The seed thus changes every
    # tensor but no invariant, so each seed asks the cells for about the same
    # work, and all eight states are admitted: their isotropic invariants lie
    # more than 3% of the initial suite's ranges away from the suite and from
    # each other.  Four paths give both threads equal shares.
    stretches = np.array([[1.02, 0.88, 1.22], [0.99, 1.09, 1.08],
                          [1.23, 0.86, 1.09], [0.88, 0.88, 1.19]])
    times = np.array([0.0, 0.75, 1.0])
    layers = ("mining.enrich", "mining.filter_candidates", "mining.distinct_mask",
              "oracle.evaluate_path", "homogenization.solve",
              "homogenization.spsolve", "materials.stress_tangent_fd",
              "fem.tangent_matrix", "fem.nominal_stress_operator",
              "fem.internal_forces")
    setup_layers = ("homogenization.drive_material_point",)

    def setup(self, seed, work_dir):
        # the cell is the configured default one; the seed draws the frames
        rc = config.load_config(None, overrides={
            ("oracle", "kind"): "voxel", ("loop", "threads"): self.threads})
        analytic = config.load_config(None)
        angles = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi,
                                                     len(self.stretches))
        Q = [_turn(MACRO_AXIS, a) @ _turn((0.0, 1.0, 0.0), 0.5) for a in angles]
        t = self.times[:, None]
        detected = []
        for p, (frame, s) in enumerate(zip(Q, self.stretches)):
            F = np.einsum("ik,tk,jk->tij", frame, 1.0 + t * (s - 1.0), frame)
            detected.append(mining.DetectedPath(p, len(t) - 1, self.times, F))
        return SimpleNamespace(rc=rc, oracle=config.make_oracle(rc),
                               initial=_initial_suite(analytic),
                               detected=detected)

    def digest(self, inp, seed):
        return _sha(*[path.F for path in inp.detected])

    def run_unit(self, inp, out_dir):
        return mining.enrich(inp.initial, inp.detected, inp.oracle, MACRO_AXIS,
                             inp.rc.loop.rve_fiber_axis, inp.rc.loop.eps_filter,
                             source="mined:bench", threads=self.threads)

    def check_unit(self, inp, result, out_dir):
        new, n_candidates = result
        out = Outcome(rounds=1, tuples_mined=len(new))
        out.fingerprint = _sha(new.path_id.tolist(), new.step.tolist(), new.P)
        if len(new) == 0:
            out.failures.append("no state admitted")
        else:
            try:
                T = training.second_pk_targets(new)
            except MatmineError as exc:
                out.failures.append(f"admitted tuple fails the stress check: {exc}")
            else:
                if not np.all(np.isfinite(T)):
                    out.failures.append("non-finite second Piola-Kirchhoff stress")
        out.extra = {"candidates": n_candidates}
        return out

    def check_run(self, inp):
        return []

    def states(self, totals):
        """States the oracle evaluated."""
        return totals.info("oracle.evaluate_path", "states")


# ---------------------------------------------------------------------------

class KbaseScale:
    """``detect`` then ``enrich`` against a large generated knowledge base.

    The base holds the states of 625 random ramps in the microscale frame,
    16 per ramp.  Each of the 768 histories follows one of those ramps,
    rotated to the macro frame and slightly perturbed; about a third of them
    run past the end of their ramp, which is where detections come from.
    """

    name = "kbase-scale"
    threads = 1
    kb_paths, kb_steps = 625, 16
    n_points, n_states = 768, 16        # cuboid quadrature points and states
    leave_share, noise = 0.3, 0.005
    layers = ("data.load_kbase", "data.save_kbase", "mining.detect_new_paths",
              "mining.distinct_mask", "mining.filter_candidates",
              "mining.enrich", "oracle.evaluate_path")
    setup_layers = ()

    def setup(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        # displacement gradients of the base's ramps F(t) = I + t H
        H = rng.uniform(-0.12, 0.12, size=(self.kb_paths, 3, 3))
        idx = np.arange(3)
        H[:, idx, idx] = rng.uniform(-0.2, 0.3, size=(self.kb_paths, 3))
        t = np.arange(1, self.kb_steps + 1) / self.kb_steps
        F = (np.eye(3) + t[None, :, None, None] * H[:, None]).reshape(-1, 3, 3)
        P = materials.oracle_nominal_stress(F, materials.OracleParameters())
        n = len(F)
        kbase = data.DataSet(F, P, ["init:bench"] * n, np.zeros(n, dtype=int),
                             np.repeat(np.arange(self.kb_paths), self.kb_steps),
                             np.tile(np.arange(1, self.kb_steps + 1), self.kb_paths),
                             np.tile(t, self.kb_paths))
        kbase_path = os.path.join(work_dir, "kbase-input.txt")
        data.save_kbase(kbase, kbase_path)

        Q = tensors.rotation_aligning(MACRO_AXIS, RVE_AXIS)
        follow = rng.integers(0, self.kb_paths, self.n_points)
        H_macro = np.einsum("ki,pkl,lj->pij", Q, H[follow], Q)
        H_macro += rng.normal(0.0, self.noise, H_macro.shape)
        leaves = rng.random(self.n_points) < self.leave_share
        reach = np.where(leaves, rng.uniform(1.3, 1.6, self.n_points),
                         rng.uniform(0.5, 1.0, self.n_points))
        times = np.linspace(0.0, 1.0, self.n_states)
        paths = np.eye(3) + ((reach[:, None] * times)[:, :, None, None]
                             * H_macro[:, None])
        return SimpleNamespace(kbase=kbase, kbase_path=kbase_path, paths=paths,
                               times=times, F=F, oracle=mining.AnalyticOracle())

    def digest(self, inp, seed):
        return _sha(inp.F, inp.paths)

    def run_unit(self, inp, out_dir):
        kbase = data.load_kbase(inp.kbase_path)
        detected = mining.detect_new_paths(kbase, inp.paths, inp.times,
                                           MACRO_AXIS, RVE_AXIS, LOOP.eps_detect)
        new, n_candidates = mining.enrich(
            kbase, detected, inp.oracle, MACRO_AXIS, RVE_AXIS, LOOP.eps_filter,
            iteration=int(kbase.iteration.max()) + 1, source="mined:bench")
        data.save_kbase(kbase.merged_with(new), os.path.join(out_dir, "kbase.txt"))
        return kbase, detected, new, n_candidates

    def states(self, totals):
        """History states scanned by detection."""
        return self.n_points * self.n_states

    def check_unit(self, inp, result, out_dir):
        kbase, detected, new, n_candidates = result
        out = Outcome(rounds=1, tuples_mined=len(new))
        pairs = [(d.point_id, d.last_step) for d in detected]
        out.fingerprint = _sha(pairs, new.path_id.tolist(), new.step.tolist(),
                               new.P)
        if len(kbase) != len(inp.kbase):
            out.failures.append(f"loaded {len(kbase)} of {len(inp.kbase)} rows")
        if not detected or not len(new):
            out.failures.append("nothing detected or admitted")
        out.extra = {"detected_paths": len(detected), "candidates": n_candidates}
        return out

    def check_run(self, inp):
        """Detection and admission on a subsample equal the quadratic references."""
        import oracles   # tests/oracles.py

        sub = inp.kbase.subset(np.arange(0, len(inp.kbase), 25))
        paths = inp.paths[:48]
        detected = mining.detect_new_paths(sub, paths, inp.times, MACRO_AXIS,
                                           RVE_AXIS, LOOP.eps_detect)
        known = sub.invariant_values(RVE_AXIS)
        ranges = mining.coordinate_ranges(known)
        M = tensors.structural_tensor(MACRO_AXIS)
        path_inv = [tensors.invariants(tensors.right_cauchy_green(p), M)
                    for p in paths]
        want = oracles.detect_bruteforce(path_inv, list(known), ranges,
                                         LOOP.eps_detect)
        got = [(d.point_id, d.last_step) for d in detected]
        if got != want or not got:
            return [f"subsample detection {got} differs from the reference {want}"]
        F = np.concatenate([mining.rotate_to_microscale(d.F[1:], MACRO_AXIS,
                                                        RVE_AXIS)
                            for d in detected])
        cand = tensors.invariants(tensors.right_cauchy_green(F),
                                  tensors.structural_tensor(RVE_AXIS))
        got = mining.filter_candidates(cand, known, ranges, LOOP.eps_filter)
        want = oracles.filter_bruteforce(cand, known, ranges, LOOP.eps_filter)
        if got != want or not got:
            return ["subsample admission differs from the reference"]
        return []


WORKLOADS = {w.name: w for w in (CuboidCold, VoxelEnrich, KbaseScale)}

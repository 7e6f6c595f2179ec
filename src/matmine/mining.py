"""Closed-loop data mining: detect unknown states, query the oracle, retrain.

One loop iteration trains a surrogate on the current dataset, runs the
macroscopic problem with it, maps every quadrature-point deformation history
into invariant space and hunts for states that are not represented in the
dataset yet.  Detected histories are rotated into the microscale frame,
deduplicated and handed to the oracle; the answers enlarge the dataset for
the next iteration.  The loop ends when a completed macro solve contains
nothing new.  The starting dataset is the initial load suite, driven through
the same oracle and filtered alike.  The package has two oracles, the
closed-form :class:`AnalyticOracle` and the cell-solving
:class:`VoxelOracle`, and every oracle answers through one call,
``evaluate_path(F, warm_start)``: warm along a mined history, cold for the
independent states of the initial suite and of validation.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import json
import logging
import os
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from . import data, homogenization, macro, materials, surrogate, tensors, training
from .errors import (EmptyDataSet, FirstStepDivergence, MatmineError,
                     MaxIterationsExceeded)

log = logging.getLogger(__name__)

REPORT_VERSION = "loop-report-v1"


# ---------------------------------------------------------------------------
# invariant-space set operations

def coordinate_ranges(values):
    """Per-coordinate spread of a set of vectors, for range normalization."""
    values = np.asarray(values, dtype=float)
    return values.max(axis=0) - values.min(axis=0)


def _positive(ranges):
    """Ranges with zero (or NaN) spreads replaced by 1, the metric's divisor."""
    ranges = np.asarray(ranges, dtype=float)
    return np.where(ranges > 0.0, ranges, 1.0)


def _far(a, b, ranges, tol):
    """The metric's exact verdict: True where rows of ``a`` and ``b`` are
    farther apart than ``tol``, broadcast over the leading axes."""
    return (np.abs(a - b) / ranges).max(axis=-1) > tol


class _ScaledTree:
    """kd-tree of ``rows`` in the scaled coordinates ``(x - lo) / ranges``.

    ``lo`` is the per-coordinate minimum of ``rows`` (0 where that is not
    finite) and ``ranges`` are positive; in these coordinates the Chebyshev
    distance is the metric up to rounding.  With ``u = eps / 2``, a scaled
    coordinate carries a relative error of at most ``2u``, so a scaled
    difference is off from ``(a - b) / r`` by at most ``4u S`` plus ``u`` of
    itself, while ``|a - b| / r`` as computed is off by at most ``2u`` of
    itself; as a distance is at most ``2S``, the two disagree by less than
    ``6 eps S``, ``S >= 1`` bounding the scaled magnitudes of the tree rows
    and of ``reach``, which holds every row that will be looked up.
    ``margin = 64 eps S`` covers that gap, and the tree's pruning, which
    compares the same rounded differences, with an order of magnitude to
    spare.  Rows with an inf or NaN after scaling stay out of the tree:
    ``in_tree`` and ``out_tree`` index the two kinds.
    """

    def __init__(self, rows, ranges, reach):
        self.rows, self.ranges = rows, ranges
        lo = rows.min(axis=0, initial=np.inf)
        lo[~np.isfinite(lo)] = 0.0
        self.lo = lo
        scaled = self.scale(rows)
        finite = np.isfinite(scaled).all(axis=1)
        self.in_tree, self.out_tree = np.flatnonzero(finite), np.flatnonzero(~finite)
        scaled = scaled[finite]
        reach = self.scale(reach)
        reach = reach[np.isfinite(reach).all(axis=1)]
        self.margin = 64.0 * np.finfo(float).eps * max(
            1.0, np.abs(scaled).max(initial=0.0), np.abs(reach).max(initial=0.0))
        self.tree = cKDTree(scaled)

    def scale(self, x):
        return (x - self.lo) / self.ranges

    def close_pairs(self, queries, tol):
        """Index pairs (query, row) that are not farther apart than ``tol``.

        The tree proposes every finite pair within ``tol + margin``; those
        proposals, and every pair with a non-finite side, are settled by the
        exact expression.  A pair may be listed twice.
        """
        q = self.scale(queries)
        finite = np.isfinite(q).all(axis=1)
        ok, odd = np.flatnonzero(finite), np.flatnonzero(~finite)
        balls = self.tree.query_ball_point(q[ok], tol + self.margin, p=np.inf)
        counts = [len(ball) for ball in balls]
        hits = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp,
                           count=sum(counts))
        qi = np.concatenate([np.repeat(ok, counts),
                             np.repeat(odd, len(self.rows)),
                             np.repeat(np.arange(len(queries)), len(self.out_tree))])
        rj = np.concatenate([self.in_tree[hits],
                             np.tile(np.arange(len(self.rows)), len(odd)),
                             np.tile(self.out_tree, len(queries))])
        close = ~_far(queries[qi], self.rows[rj], self.ranges, tol)
        return qi[close], rj[close]


def distinct_mask(candidates, existing, ranges, tol):
    """True per candidate row if it is far from every existing row.

    Distance is the range-normalized Chebyshev metric: the largest
    per-coordinate difference divided by that coordinate's spread.  Zero
    spreads fall back to plain absolute differences, so a coordinate that is
    constant across the dataset still vetoes closeness when it moves.  A
    candidate ``c`` is distinct when its distance to every existing row
    ``e``, ``(np.abs(c - e) / ranges).max()``, exceeds ``tol`` strictly.

    The search runs on a :class:`_ScaledTree` of the existing rows, whose
    ``margin`` bounds the rounding of its distances.  One nearest-neighbour
    query settles most candidates: a neighbour beyond ``tol + margin`` makes
    one distinct, one at or below ``tol - margin`` makes it not distinct.
    The rest stay open, and one :meth:`_ScaledTree.close_pairs` call settles
    them by the expression above: those with a neighbour in between, those
    with an inf or NaN (after scaling), and every candidate when some
    existing row has one.  A NaN distance never exceeds ``tol``, so a NaN
    candidate is not distinct.  The answers are thus bit for bit those of
    the dense pairwise scan.

    The sequential passes of :func:`filter_candidates` and
    :func:`detect_new_paths` call this once, for their static pass, and
    settle the rest on one more tree built the same way.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    existing = np.asarray(existing, dtype=float)
    if existing.size == 0:
        return np.ones(len(candidates), dtype=bool)
    existing = np.atleast_2d(existing)
    ranges = _positive(ranges)

    near = _ScaledTree(existing, ranges, candidates)
    query = near.scale(candidates)
    finite = np.isfinite(query).all(axis=1)
    query[~finite] = 0.0  # forced open below
    d, _ = near.tree.query(query, p=np.inf,
                           distance_upper_bound=tol + near.margin)
    out = (d > tol - near.margin) | ~finite
    open_ = np.flatnonzero(out & (np.isfinite(d) | ~finite
                                  | (len(near.out_tree) > 0)))
    qi, _ = near.close_pairs(candidates[open_], tol)
    out[open_[qi]] = False
    return out


def filter_candidates(candidates, existing, ranges, tol):
    """Greedy dedup in index order; returns indices of admitted rows.

    A row is admitted when it is distinct from the existing set and from
    every row admitted before it, so the output set has no internal pair
    within ``tol`` either.  One static :func:`distinct_mask` pass settles
    the existing set for all rows at once.  The rows it admits go into one
    kd-tree, built like :func:`distinct_mask`'s, which yields each row's
    exact within-``tol`` neighbours once; the greedy pass then admits rows
    in index order unless an admitted row has marked them.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    static = np.flatnonzero(distinct_mask(candidates, existing, ranges, tol))
    rows = candidates[static]
    i, j = _ScaledTree(rows, _positive(ranges), rows).close_pairs(rows, tol)
    later = i < j
    order = np.argsort(i[later], kind="stable")
    i, j = i[later][order], j[later][order]
    bounds = np.searchsorted(i, np.arange(len(rows) + 1))
    marked = np.zeros(len(rows), dtype=bool)
    kept = []
    for k in range(len(rows)):
        if not marked[k]:
            kept.append(int(static[k]))
            marked[j[bounds[k]:bounds[k + 1]]] = True
    return kept


@dataclass
class DetectedPath:
    """A quadrature-point history flagged as containing unknown states.

    ``last_step`` is the largest step index whose invariant image was
    distinct; the stored series runs from the undeformed state up to and
    including that step.
    """

    point_id: int
    last_step: int
    t: np.ndarray
    F: np.ndarray


def detect_new_paths(dataset: data.DataSet, paths, times, macro_fiber_axis,
                     rve_fiber_axis=(0.0, 0.0, 1.0), eps=0.05):
    """Find quadrature-point histories with states absent from the dataset.

    ``paths`` is (n_points, n_steps+1, 3, 3) from the macro solve (step 0
    undeformed).  Each path is scanned from its final state backwards; the
    first distinct state found truncates the path there, and all states of
    the truncated path join the comparison set for later points, so a state
    is only ever claimed once per sweep.  Ranges for the normalized metric
    are frozen from the dataset.

    One static :func:`distinct_mask` pass compares every state with the
    dataset, and the states it flags go into one kd-tree, built like
    :func:`distinct_mask`'s.  Points are then visited in order, and a point
    whose flagged states have all gone stale is skipped.  When a point
    claims its states, only those newly claimed rows are looked up in the
    tree, and the flagged states within ``eps`` of them go stale.
    """
    known = dataset.invariant_values(rve_fiber_axis)
    M = tensors.structural_tensor(macro_fiber_axis)
    paths = np.asarray(paths, dtype=float)
    n_points, n_states = paths.shape[:2]
    C = tensors.right_cauchy_green(paths.reshape(-1, 3, 3))
    path_inv = tensors.invariants(C.reshape(n_points, n_states, 3, 3), M)
    return [DetectedPath(p, n, np.asarray(times)[:n + 1].copy(),
                         paths[p, :n + 1].copy())
            for p, n in _novel_prefixes(path_inv[:, 1:], known,
                                        coordinate_ranges(known), eps)]


def _novel_prefixes(step_inv, known, ranges, tol):
    """The detection sweep of :func:`detect_new_paths` over (n_points,
    n_steps, k) invariant images.

    Returns ``(point, n)`` pairs in point order: ``n`` is the last step of
    the point (counted from 1) that is distinct from ``known`` and from the
    states ``1..n`` claimed by the points before it.  A flagged state goes
    stale once a claimed row lies within ``tol`` of it.
    """
    n_points, n_steps = step_inv.shape[:2]
    rows = step_inv.reshape(-1, step_inv.shape[-1])
    flagged = np.flatnonzero(distinct_mask(rows, known, ranges, tol))
    near = _ScaledTree(rows[flagged], _positive(ranges), rows)
    stale = np.zeros(len(flagged), dtype=bool)
    bounds = np.searchsorted(flagged, np.arange(n_points + 1) * n_steps)
    out = []
    for p in np.flatnonzero(np.diff(bounds)):
        fresh = np.flatnonzero(~stale[bounds[p]:bounds[p + 1]])
        if not fresh.size:
            continue
        p = int(p)
        n = int(flagged[bounds[p] + fresh[-1]]) - p * n_steps + 1
        out.append((p, n))
        _, hit = near.close_pairs(step_inv[p, :n], tol)
        stale[hit] = True
    return out


def rotate_to_microscale(F_series, macro_fiber_axis, rve_fiber_axis):
    """Re-express deformation histories in the microscale frame.

    The rotation takes the macroscopic fiber direction onto the microscale
    one; deformations transform as F -> Q F Q^T, which preserves the
    invariant image by construction.
    """
    Q = tensors.rotation_aligning(macro_fiber_axis, rve_fiber_axis)
    return np.einsum("ik,...kl,jl->...ij", Q, np.asarray(F_series, dtype=float), Q)


# ---------------------------------------------------------------------------
# microscale oracles

class AnalyticOracle:
    """Closed-form homogenized response; the fast stand-in for cell solves."""

    name = "analytic"

    def __init__(self, params: materials.OracleParameters = None):
        self.params = params if params is not None else materials.OracleParameters()

    def evaluate_path(self, F, warm_start=True):
        del warm_start  # pointwise
        return materials.oracle_nominal_stress(F, self.params)


class VoxelOracle:
    """Periodic voxel cell solves, each state of a history ramped from the last."""

    name = "voxel"

    def __init__(self, rve: homogenization.VoxelRVE, substeps=2):
        self.substeps = substeps
        # a solve only reads the homogenizer, so the enrich threads share it
        self.homogenizer = homogenization.VoxelHomogenizer(rve)

    def evaluate_path(self, F, warm_start=True):
        """Cell-averaged nominal stresses of a (..., 3, 3) stack.

        Warm, the states are one history: each solve ramps from the last
        converged state, its deformation and fluctuation, in ``substeps``
        increments.  Cold, each ramps from the undeformed cell, in
        ``max(2, substeps)`` increments.  The first state of a history is
        solved as a cold one with ``substeps`` increments.
        """
        F = np.asarray(F, dtype=float)
        out = np.empty_like(F)
        n_steps = self.substeps if warm_start else max(2, self.substeps)
        sol = None
        for idx in np.ndindex(F.shape[:-2]):
            sol = self.homogenizer.solve(F[idx], n_steps=n_steps,
                                         start=sol if warm_start else None)
            out[idx] = sol.P_bar
        return out


def initial_dataset(stress, eps_filter=0.01, n_steps=12,
                    rve_fiber_axis=(0.0, 0.0, 1.0)):
    """Drive the initial load suite and dedup it into the starting dataset.

    ``stress`` is the pointwise nominal stress map the material-point driver
    follows, normally an oracle's ``evaluate_path`` with ``warm_start=False``.
    The raw suite shares its undeformed state across all paths and its
    gentler load levels crowd together, so the same greedy filter used for
    mined data thins it here; ranges come from the raw suite itself.
    """
    records = []
    for pid, case in enumerate(homogenization.initial_load_suite()):
        path = homogenization.drive_material_point(stress, case, n_steps=n_steps)
        records += [(path.F[k], path.P[k], f"init:{case.name}", 0, pid, k,
                     path.t[k]) for k in range(len(path.t))]
    raw = data.from_records(records)
    inv = raw.invariant_values(rve_fiber_axis)
    kept = filter_candidates(inv, np.zeros((0, inv.shape[1])),
                             coordinate_ranges(inv), eps_filter)
    return raw.subset(kept)


def enrich(dataset: data.DataSet, detected, oracle, macro_fiber_axis,
           rve_fiber_axis=(0.0, 0.0, 1.0), eps_filter=0.01, iteration=1,
           source="mined", threads=1):
    """Evaluate the oracle on deduplicated detected states.

    Every detected history is rotated to the microscale frame; its states
    (the undeformed step excluded, the dataset holds it already) are filtered
    greedily in canonical order (path id, then step) against the dataset's
    invariant image and against each other, and only admitted states go to
    the oracle.  Histories whose oracle evaluation fails are skipped with a
    warning.  Returns (new tuples, pre-filter candidate count).
    """
    M_rve = tensors.structural_tensor(rve_fiber_axis)
    known = dataset.invariant_values(rve_fiber_axis)
    ranges = coordinate_ranges(known)

    series = []
    meta = []
    for path in detected:
        F_rve = rotate_to_microscale(path.F, macro_fiber_axis, rve_fiber_axis)
        series.append(F_rve)
        for k in range(1, path.last_step + 1):
            meta.append((len(series) - 1, k, path.point_id, path.t[k]))
    if not meta:
        return data.DataSet(), 0

    cand_F = np.stack([series[s][k] for s, k, _, _ in meta])
    cand_inv = tensors.invariants(tensors.right_cauchy_green(cand_F), M_rve)
    kept = filter_candidates(cand_inv, known, ranges, eps_filter)

    by_series = {}
    for idx in kept:
        by_series.setdefault(meta[idx][0], []).append(idx)
    jobs = [(s, idxs, series[s][[meta[i][1] for i in idxs]])
            for s, idxs in sorted(by_series.items())]

    if threads > 1 and len(jobs) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(
                lambda job: _try_series(oracle, job[2]), jobs))
    else:
        results = [_try_series(oracle, job[2]) for job in jobs]

    records = []
    for (s, idxs, F_kept), P_path in zip(jobs, results):
        if P_path is None:
            continue
        for i, F, P in zip(idxs, F_kept, P_path):
            _, k, pid, t = meta[i]
            records.append((F, P, source, iteration, pid, k, t))
    return data.from_records(records), len(meta)


def _try_series(oracle, F_series):
    """Oracle along one history from the undeformed start; None if it raises."""
    F_path = np.concatenate([np.eye(3)[None], F_series])
    try:
        return oracle.evaluate_path(F_path)[1:]
    except MatmineError as exc:
        log.warning("oracle failed on a mined history, skipping it: %s", exc)
        return None


# ---------------------------------------------------------------------------
# the loop

@dataclass
class LoopConfig:
    """Knobs of the outer mining loop.

    ``eps_detect`` flags unknown states, ``eps_filter`` dedups admitted ones;
    the filter tolerance must be the tighter of the two so every detection
    contributes at least one tuple.
    """

    eps_detect: float = 0.05
    eps_filter: float = 0.01
    n_max: int = 20
    inner_repeats: int = 5
    rve_fiber_axis: tuple = (0.0, 0.0, 1.0)
    threads: int = 1

    def __post_init__(self):
        if not 0.0 < self.eps_filter < self.eps_detect < 1.0:
            raise ValueError("need 0 < eps_filter < eps_detect < 1")
        if self.n_max < 1 or self.inner_repeats < 1:
            raise ValueError("n_max and inner_repeats must be at least 1")


@dataclass
class IterationReport:
    iteration: int
    dataset_size: int
    training_seed: int
    training_loss: float
    holdout_loss: float
    repeats: int
    t_end: float
    t_goal: float
    completed: bool
    detected_paths: int
    candidate_states: int
    new_tuples: int


@dataclass
class LoopResult:
    converged: bool
    iterations: list
    model: surrogate.SurrogateModel
    dataset: data.DataSet
    final_training_seed: int
    final_state: object = None  # MacroState of the last solve, when one exists

    def report_dict(self):
        return {
            "version": REPORT_VERSION,
            "converged": self.converged,
            "n_iterations": len(self.iterations),
            "final_training_seed": self.final_training_seed,
            "iterations": [vars(r).copy() for r in self.iterations],
        }

    def save_report(self, path):
        with data.atomic_write(path) as fh:
            json.dump(self.report_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def _derived_seed(base, iteration, repeat):
    # deterministic per (iteration, repeat); folded to a plain int so it can
    # be stored in reports and replayed
    return int(np.random.SeedSequence((base, iteration, repeat)).generate_state(1)[0])


def run_loop(problem: macro.MacroProblem, oracle, initial_data: data.DataSet,
             train_config: training.TrainingConfig,
             loop_config: LoopConfig = None, out_dir=None):
    """Run the full mine-train-solve cycle until nothing new is found.

    Iterations proceed as: train on the current dataset, solve the macro
    problem, detect unknown states.  An iteration whose solve dies early
    without detecting anything is retried with a fresh training seed, up to
    ``inner_repeats`` attempts.  The loop converges when a full-ramp solve
    yields no detections; exceeding ``n_max`` iterations or stalling raises
    :class:`MaxIterationsExceeded` with the partial result attached as
    ``exc.result``.  With ``out_dir`` set, the model, dataset and report are
    rewritten after every iteration, so an aborted run can resume from disk.
    """
    lc = loop_config if loop_config is not None else LoopConfig()
    dataset = initial_data
    reports = []
    converged = False
    result = None

    for iteration in range(1, lc.n_max + 1):
        detected = []
        state = None
        repeats = 0
        for repeat in range(lc.inner_repeats):
            repeats = repeat + 1
            seed_used = _derived_seed(train_config.seed, iteration, repeat)
            cfg = replace(train_config, seed=seed_used)
            model, train_report = training.train(dataset, cfg,
                                                 fiber_axis=lc.rve_fiber_axis)
            try:
                state = macro.solve_macro(
                    problem.mesh, problem.bcs,
                    macro.surrogate_law(model, problem.fiber_axis),
                    problem.n_steps)
            except FirstStepDivergence as exc:
                log.warning("macro solve diverged on the first step "
                            "(iteration %d, repeat %d): %s",
                            iteration, repeat + 1, exc)
                state = None
                detected = []
                continue
            paths, times = macro.collect_deformations(state)
            detected = detect_new_paths(dataset, paths, times,
                                        problem.fiber_axis,
                                        lc.rve_fiber_axis, lc.eps_detect)
            if state.completed or detected:
                break
        t_end = state.t_end if state is not None else 0.0
        completed = state is not None and state.completed

        new_rows, n_candidates = data.DataSet(), 0
        if detected:
            new_rows, n_candidates = enrich(
                dataset, detected, oracle, problem.fiber_axis,
                lc.rve_fiber_axis, lc.eps_filter, iteration,
                source=f"mined:{problem.name}", threads=lc.threads)
        reports.append(IterationReport(
            iteration=iteration, dataset_size=int(len(dataset)),
            training_seed=int(seed_used),
            training_loss=float(train_report.train_loss),
            holdout_loss=float(train_report.test_loss), repeats=repeats,
            t_end=float(t_end), t_goal=1.0, completed=bool(completed),
            detected_paths=len(detected), candidate_states=int(n_candidates),
            new_tuples=int(len(new_rows))))

        if completed and not detected:
            converged = True
        if len(new_rows):
            dataset = dataset.merged_with(new_rows)
        result = LoopResult(converged, reports, model, dataset, seed_used,
                            final_state=state)
        if out_dir is not None:
            write_artifacts(result, out_dir)
        if converged:
            return result
        if not detected and not completed:
            exc = MaxIterationsExceeded(
                f"stalled in iteration {iteration}: no completed solve and "
                f"nothing detected after {repeats} training repeats")
            exc.result = result
            raise exc

    exc = MaxIterationsExceeded(
        f"no convergence within {lc.n_max} loop iterations")
    exc.result = result
    raise exc


def write_artifacts(result: LoopResult, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    surrogate.save_model(result.model, os.path.join(out_dir, "model.json"))
    data.save_kbase(result.dataset, os.path.join(out_dir, "kbase.txt"))
    result.save_report(os.path.join(out_dir, "loop_report.json"))


# ---------------------------------------------------------------------------
# validation against the oracle

def validate_coverage(model: surrogate.SurrogateModel, dataset: data.DataSet,
                      paths, times, oracle, macro_fiber_axis,
                      rve_fiber_axis=(0.0, 0.0, 1.0), tol=0.05):
    """Probe the surrogate against the oracle outside the dataset's coverage.

    Every quadrature-point state of the final solve (undeformed step
    excluded) is rotated to the microscale frame and compared against the
    dataset in the space of the six independent deformation-tensor
    components, range-normalized Chebyshev metric: states within ``tol`` of
    a stored tuple are covered and skipped (their oracle answers already
    exist).  Uncovered states get fresh oracle evaluations, and the
    surrogate's predictions are scored against them with per-state relative
    Frobenius errors.  When the dataset covers everything, all states are
    probed instead so the report is never empty.

    Returns a summary dict plus the raw per-state arrays for scatter plots.
    An empty dataset raises :class:`EmptyDataSet`.
    """
    del times
    if len(dataset) == 0:
        raise EmptyDataSet("no tuples to validate against")
    paths = np.asarray(paths, dtype=float)
    F_states = paths[:, 1:].reshape(-1, 3, 3)
    F_rve = rotate_to_microscale(F_states, macro_fiber_axis, rve_fiber_axis)
    C_rve = tensors.sym_to_mandel(tensors.right_cauchy_green(F_rve))
    C_data = tensors.sym_to_mandel(tensors.right_cauchy_green(dataset.F))
    ranges = coordinate_ranges(C_data)
    uncovered = distinct_mask(C_rve, C_data, ranges, tol)

    complete = not uncovered.any()
    F_probe = F_rve if complete else F_rve[uncovered]
    M = tensors.structural_tensor(rve_fiber_axis)
    P_oracle = oracle.evaluate_path(F_probe, warm_start=False)
    P_model = surrogate.model_nominal_stress(model, F_probe, M)
    norm_oracle = np.linalg.norm(P_oracle.reshape(len(F_probe), -1), axis=1)
    norm_model = np.linalg.norm(P_model.reshape(len(F_probe), -1), axis=1)
    err = np.linalg.norm((P_model - P_oracle).reshape(len(F_probe), -1), axis=1)
    nonzero = norm_oracle > 0.0
    rel = err[nonzero] / norm_oracle[nonzero]
    rel_all = np.full(len(F_probe), np.inf)
    rel_all[nonzero] = rel
    return {
        "n_states": int(len(F_states)),
        "n_uncovered": 0 if complete else int(len(F_probe)),
        "coverage_complete": bool(complete),
        "n_compared": int(nonzero.sum()),
        "rel_mean": float(rel.mean()) if rel.size else 0.0,
        "rel_p95": float(np.percentile(rel, 95.0)) if rel.size else 0.0,
        "rel_max": float(rel.max()) if rel.size else 0.0,
        "scatter": np.column_stack([norm_oracle, norm_model, rel_all]),
    }

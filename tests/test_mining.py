import functools
import json
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from matmine import (data, homogenization, macro, materials, mining, surrogate,
                     tensors, training)
from matmine.errors import (CorruptRecord, EmptyDataSet, FormatVersionMismatch,
                            MatmineError, MaxIterationsExceeded)

import helpers
import oracles

E1 = np.array([1.0, 0.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def rng0(seed):
    return np.random.default_rng(seed)


def random_walk_paths(rng, n_paths, n_steps, spread=0.08):
    """Deformation histories as products of near-identity increments."""
    paths = np.empty((n_paths, n_steps + 1, 3, 3))
    for p in range(n_paths):
        F = np.eye(3)
        paths[p, 0] = F
        for k in range(1, n_steps + 1):
            F = (np.eye(3) + rng.uniform(-spread, spread, (3, 3))) @ F
            paths[p, k] = F
    return paths


def random_dataset(rng, m, spread=0.3):
    F = np.stack([oracles.random_defgrad(rng, spread) for _ in range(m)])
    return data.DataSet(F, np.zeros_like(F), ["init"] * m,
                        np.zeros(m, dtype=int), np.arange(m),
                        np.zeros(m, dtype=int), np.zeros(m))


# --- metric and filter against the quadratic references ------------------------


def test_distinct_mask_matches_reference_rowwise():
    rng = rng0(40)
    existing = rng.normal(size=(35, 6))
    cand = rng.normal(size=(25, 6))
    ranges = mining.coordinate_ranges(existing)
    ranges[3] = 0.0  # exercises the absolute-difference fallback
    got = mining.distinct_mask(cand, existing, ranges, 0.4)
    want = [oracles.chebyshev_distinct_bruteforce(c, existing, ranges, 0.4)
            for c in cand]
    assert got.tolist() == want
    assert got.any() and not got.all()


def test_detection_matches_reverse_scan_reference():
    rng = rng0(41)
    ds = random_dataset(rng, 60)
    paths = random_walk_paths(rng, 50, 5)
    times = np.linspace(0.0, 1.0, 6)

    detected = mining.detect_new_paths(ds, paths, times, E1, E3, eps=0.05)

    known = ds.invariant_values(E3)
    ranges = mining.coordinate_ranges(known)
    M = tensors.structural_tensor(E1)
    path_inv = [tensors.invariants(tensors.right_cauchy_green(p), M)
                for p in paths]
    want = oracles.detect_bruteforce(path_inv, list(known), ranges, 0.05)

    assert [(d.point_id, d.last_step) for d in detected] == want
    assert 0 < len(detected) < 50
    for d in detected:
        np.testing.assert_array_equal(d.F, paths[d.point_id, :d.last_step + 1])
        np.testing.assert_array_equal(d.t, times[:d.last_step + 1])


def test_detection_ignores_covered_paths():
    rng = rng0(42)
    paths = random_walk_paths(rng, 4, 5)
    F_rows = mining.rotate_to_microscale(paths[:, 1:].reshape(-1, 3, 3), E1, E3)
    m = len(F_rows)
    ds = data.DataSet(F_rows, np.zeros_like(F_rows), ["init"] * m,
                      np.zeros(m, dtype=int), np.arange(m),
                      np.zeros(m, dtype=int), np.zeros(m))
    out = mining.detect_new_paths(ds, paths, np.linspace(0, 1, 6), E1, E3)
    assert out == []


def test_filter_matches_greedy_reference():
    rng = rng0(43)
    cand = rng.normal(size=(200, 6)) * np.array([3.0, 3.0, 1.0, 0.5, 2.0, 0.2])
    existing = rng.normal(size=(40, 6)) * np.array([3.0, 3.0, 1.0, 0.5, 2.0, 0.2])
    existing[:, 4] = 1.0  # zero range in one coordinate
    ranges = mining.coordinate_ranges(existing)
    for tol in (0.05, 0.2, 0.6):
        got = mining.filter_candidates(cand, existing, ranges, tol)
        assert got == oracles.filter_bruteforce(cand, existing, ranges, tol)
    # empty pool admits the first candidate unconditionally
    got = mining.filter_candidates(cand, [], ranges, 0.2)
    assert got == oracles.filter_bruteforce(cand, [], ranges, 0.2)
    assert got[0] == 0


def test_filter_accepts_a_single_row_or_no_rows_as_existing():
    rng = rng0(47)
    cand = rng.normal(size=(60, 4))
    ranges = np.abs(rng.normal(size=4)) + 0.5
    row = cand[7] + 0.01
    want = oracles.filter_bruteforce(cand, [row], ranges, 0.3)
    assert 7 not in want
    assert mining.filter_candidates(cand, row, ranges, 0.3) == want
    assert mining.filter_candidates(cand, row[None], ranges, 0.3) == want
    want = oracles.filter_bruteforce(cand, [], ranges, 0.3)
    for empty in ([], np.zeros(0), np.zeros((0, 4))):
        assert mining.filter_candidates(cand, empty, ranges, 0.3) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_filter_postcondition_pairwise_distinct(seed):
    rng = rng0(seed)
    tol = float(rng.uniform(0.05, 0.5))
    cand = rng.normal(size=(rng.integers(1, 40), 4))
    existing = rng.normal(size=(int(rng.integers(0, 15)), 4))
    ranges = np.abs(rng.normal(size=4))
    kept = mining.filter_candidates(cand, existing, ranges, tol)
    admitted = cand[kept]
    for i, row in enumerate(admitted):
        others = np.concatenate([existing.reshape(-1, 4),
                                 np.delete(admitted, i, axis=0)])
        if len(others):
            assert mining.distinct_mask(row[None], others, ranges, tol)[0]
    # rejected rows are close to the final set (greedy admission is maximal)
    final = np.concatenate([existing.reshape(-1, 4), admitted])
    for i in range(len(cand)):
        if i not in kept and len(final):
            assert not mining.distinct_mask(cand[i][None], final, ranges, tol)[0]


def _nudged(x, ulps):
    """``x`` moved by ``ulps`` units in the last place (either sign)."""
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.inf if ulps > 0 else -np.inf)
    return x


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_distinct_mask_matches_reference_at_the_tolerance_boundary(seed):
    # candidates sit within a few ulps of tol * range of some existing row in
    # one coordinate, on data with large offsets, tiny spreads and a zero one
    rng = rng0(seed)
    k = int(rng.integers(1, 7))
    m = int(rng.integers(1, 30))
    offset = 10.0 ** rng.uniform(-2.0, 6.0, k) * rng.choice([-1.0, 1.0], k)
    ranges = 10.0 ** rng.uniform(-6.0, 2.0, k)
    ranges[rng.integers(k)] = 0.0
    spread = np.where(ranges > 0.0, ranges, 1.0)
    existing = offset + rng.uniform(0.0, 1.0, (m, k)) * spread
    tol = float(rng.choice([0.0, 1e-12, 0.01, 0.05, 0.3]))
    n = 24
    cand = existing[rng.integers(m, size=n)]
    cand = cand + rng.uniform(-0.5, 0.5, (n, k)) * tol * spread
    for row in cand:
        j = rng.integers(k)
        edge = row[j] + rng.choice([-1.0, 1.0]) * tol * spread[j]
        row[j] = _nudged(edge, int(rng.integers(-2, 3)))
    got = mining.distinct_mask(cand, existing, ranges, tol)
    want = [oracles.chebyshev_distinct_bruteforce(c, existing, ranges, tol)
            for c in cand]
    assert got.tolist() == want


def test_distinct_mask_keeps_the_dense_answer_for_non_finite_rows():
    # the dense scan's answers: a NaN distance never exceeds tol, an infinite
    # one always does, and inf - inf is NaN
    rng = rng0(45)
    existing = rng.normal(size=(20, 3))
    ranges = mining.coordinate_ranges(existing)
    far = existing[0] + 10.0 * ranges
    cand = np.array([existing[0], existing[0], existing[0], existing[0], far])
    cand[1, 1] = np.nan
    cand[2, 0] = np.inf
    cand[3] = [np.inf, -np.inf, np.nan]
    got = mining.distinct_mask(cand, existing, ranges, 0.1)
    assert got.tolist() == [False, False, True, False, True]

    with_inf = np.vstack([existing, existing[1]])
    with_inf[-1, 0] = np.inf
    with np.errstate(invalid="ignore"):
        got = mining.distinct_mask(cand, with_inf, ranges, 0.1)
    assert got.tolist() == [False, False, False, False, True]

    with_nan = np.vstack([existing, [np.nan, 0.0, 0.0]])
    got = mining.distinct_mask(cand, with_nan, ranges, 0.1)
    assert got.tolist() == [False] * 5


def test_detection_claims_states_only_once_per_sweep():
    rng = rng0(46)
    ds = random_dataset(rng, 40, spread=0.05)
    first = random_walk_paths(rng, 1, 5, spread=0.12)[0]
    # a copy of the first path, suppressed by its states alone; and one whose
    # last state is a claimed one but whose third is new, so the sweep
    # truncates it where a scan against the dataset would not
    copy = first.copy()
    partial = first.copy()
    partial[5] = first[2]
    partial[3] = first[3] @ np.diag([1.3, 0.8, 1.1])
    paths = np.stack([first, copy, partial])
    times = np.linspace(0.0, 1.0, 6)

    detected = mining.detect_new_paths(ds, paths, times, E1, E3, eps=0.05)
    alone = [mining.detect_new_paths(ds, paths[p:p + 1], times, E1, E3, eps=0.05)
             for p in range(3)]

    known = ds.invariant_values(E3)
    ranges = mining.coordinate_ranges(known)
    M = tensors.structural_tensor(E1)
    path_inv = [tensors.invariants(tensors.right_cauchy_green(p), M)
                for p in paths]
    want = oracles.detect_bruteforce(path_inv, list(known), ranges, 0.05)
    assert [(d.point_id, d.last_step) for d in detected] == want == [(0, 5), (2, 3)]
    assert [[d.last_step for d in a] for a in alone] == [[5], [5], [5]]


# --- the sequential passes against the references, at the edges --------------

EDGE_RANGES = np.array([1.0, 2.0, 0.5, 0.0])


def edge_rows(rng, n, non_finite=True):
    """Rows on a grid of eighths, so that with ``EDGE_RANGES`` and a tol of
    0.125 or 0.25 many distances fall exactly on tol; a quarter of them
    repeat other rows and, with ``non_finite``, an eighth hold an inf, a
    -inf or a NaN."""
    rows = rng.integers(-6, 7, size=(n, 4)) / 8.0
    rows[rng.integers(n, size=n // 4)] = rows[rng.integers(n, size=n // 4)]
    if non_finite:
        odd = rng.choice(n, size=max(1, n // 8), replace=False)
        rows[odd, rng.integers(4, size=len(odd))] = rng.choice(
            [np.inf, -np.inf, np.nan], size=len(odd))
    return rows


def with_step0(step_inv):
    """``detect_bruteforce``'s input: each path with a leading step 0."""
    return [np.vstack([np.zeros(path.shape[-1]), path]) for path in step_inv]


@pytest.mark.parametrize("seed", range(8))
def test_filter_matches_greedy_reference_on_edge_rows(seed):
    rng = rng0(600 + seed)
    cand = edge_rows(rng, 60)
    with_inf = edge_rows(rng, 12, non_finite=False)
    with_inf[3, 1] = -np.inf
    with_nan = edge_rows(rng, 12, non_finite=False)
    with_nan[5, 2] = np.nan
    admitted = []
    with np.errstate(invalid="ignore"):
        for existing in (np.zeros((0, 4)), edge_rows(rng, 1, non_finite=False),
                         with_inf, with_nan):
            for tol in (0.125, 0.25):
                got = mining.filter_candidates(cand, existing, EDGE_RANGES, tol)
                assert got == oracles.filter_bruteforce(cand, existing,
                                                        EDGE_RANGES, tol)
                admitted.append(len(got))
    assert 0 < max(admitted) < len(cand) and min(admitted) == 0


@pytest.mark.parametrize("seed", range(8))
def test_detection_sweep_matches_reverse_scan_reference_on_edge_rows(seed):
    rng = rng0(610 + seed)
    step_inv = edge_rows(rng, 16 * 5).reshape(16, 5, 4)
    step_inv[12:] = step_inv[rng.integers(12, size=4)]  # repeated histories
    known = edge_rows(rng, 10, non_finite=False)
    with_inf = np.vstack([known, [0.0, np.inf, 0.0, 0.0]])
    hits = []
    with np.errstate(invalid="ignore"):
        for base in (known, with_inf):
            for tol in (0.125, 0.25):
                got = mining._novel_prefixes(step_inv, base, EDGE_RANGES, tol)
                want = oracles.detect_bruteforce(with_step0(step_inv), list(base),
                                                 EDGE_RANGES, tol)
                assert got == want
                hits.append(len(got))
    assert 0 < min(hits) and max(hits) < 16


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_sequential_passes_match_the_references_at_the_tolerance_boundary(seed):
    # each row sits within a few ulps of tol * range of an earlier row in one
    # coordinate, on data with large offsets, tiny spreads and a zero one
    rng = rng0(seed)
    k = int(rng.integers(1, 5))
    offset = 10.0 ** rng.uniform(-2.0, 6.0, k) * rng.choice([-1.0, 1.0], k)
    ranges = 10.0 ** rng.uniform(-6.0, 2.0, k)
    ranges[rng.integers(k)] = 0.0
    spread = np.where(ranges > 0.0, ranges, 1.0)
    tol = float(rng.choice([1e-12, 0.01, 0.05, 0.3]))
    rows = [offset + rng.uniform(0.0, 1.0, k) * spread for _ in range(3)]
    while len(rows) < 3 + 24:
        row = rows[rng.integers(len(rows))] + (
            rng.uniform(-0.5, 0.5, k) * tol * spread)
        j = rng.integers(k)
        row[j] = _nudged(row[j] + rng.choice([-1.0, 1.0]) * tol * spread[j],
                         int(rng.integers(-2, 3)))
        rows.append(row)
    known, cand = np.array(rows[:2]), np.array(rows[3:])
    for existing in (known, known[:0]):
        assert mining.filter_candidates(cand, existing, ranges, tol) == \
            oracles.filter_bruteforce(cand, existing, ranges, tol)
    steps = cand.reshape(8, 3, k)
    assert mining._novel_prefixes(steps, known, ranges, tol) == \
        oracles.detect_bruteforce(with_step0(steps), list(known), ranges, tol)


def test_sequential_passes_settle_pairs_the_scaled_tree_puts_beyond_tol():
    # rows a and b are 0.9999999999999999 tol apart by the metric, but
    # 1.0000000000000009 tol apart in the tree's scaled coordinates (the
    # first row is their minimum), so only the margin keeps them together
    lo, a, b = 4.972099357892111, 16.44318772580909, 16.833028504528354
    ranges, tol = np.array([3.8984077871926464]), 0.1
    rows = np.array([[lo], [a], [b]])
    want = oracles.filter_bruteforce(rows, [], ranges, tol)
    assert mining.filter_candidates(rows, np.zeros((0, 1)), ranges, tol) == \
        want == [0, 1]
    steps = np.array([[[lo], [a]], [[b], [b]]])
    known = np.array([[lo - 10.0]])
    want = oracles.detect_bruteforce(with_step0(steps), list(known), ranges, tol)
    assert mining._novel_prefixes(steps, known, ranges, tol) == want == [(0, 2)]


def test_sequential_passes_on_empty_and_one_row_inputs():
    ranges = np.array([1.0, 0.5, 0.0])
    row = np.array([[0.25, 0.5, 0.75]])
    near, far = row + 0.0625, row + 1.0
    for cand in (np.zeros((0, 3)), row, np.vstack([row, near]),
                 np.vstack([row, far])):
        for existing in (np.zeros((0, 3)), row, near, far):
            got = mining.filter_candidates(cand, existing, ranges, 0.125)
            assert got == oracles.filter_bruteforce(cand, existing, ranges, 0.125)
    for steps in (np.zeros((0, 2, 3)), row[None], near[None], far[None],
                  np.stack([far, far]), np.stack([np.vstack([far, row])])):
        got = mining._novel_prefixes(steps, row, ranges, 0.125)
        assert got == oracles.detect_bruteforce(with_step0(steps), list(row),
                                                ranges, 0.125)


def test_sequential_passes_build_two_trees_however_many_states_they_flag(
        monkeypatch):
    # mostly novel histories: random 16-state walks against a small base, so
    # most points are flagged and most of those are detected
    built = []

    def counted(rows):
        built.append(len(rows))
        return cKDTree(rows)

    monkeypatch.setattr(mining, "cKDTree", counted)
    rng = rng0(63)
    ds = random_dataset(rng, 20, spread=0.05)
    known = ds.invariant_values(E3)
    ranges = mining.coordinate_ranges(known)
    M = tensors.structural_tensor(E1)
    times = np.linspace(0.0, 1.0, 17)
    flagged = []
    for n_paths in (24, 240):
        paths = random_walk_paths(rng, n_paths, 16)
        built.clear()
        detected = mining.detect_new_paths(ds, paths, times, E1, E3, eps=0.05)
        assert len(built) == 2
        flagged.append(built[1])
        assert len(detected) > n_paths // 2

        cand = np.concatenate([tensors.invariants(
            tensors.right_cauchy_green(d.F[1:]), M) for d in detected])
        built.clear()
        kept = mining.filter_candidates(cand, known, ranges, 0.01)
        assert len(built) == 2 and len(kept) > len(cand) // 2
        if n_paths == 24:
            path_inv = [tensors.invariants(tensors.right_cauchy_green(p), M)
                        for p in paths]
            want = oracles.detect_bruteforce(path_inv, list(known), ranges, 0.05)
            assert [(d.point_id, d.last_step) for d in detected] == want
            assert kept == oracles.filter_bruteforce(cand, known, ranges, 0.01)
    assert flagged[1] > 5 * flagged[0]


# --- rotation and enrichment ----------------------------------------------------


def test_rotation_to_microscale_preserves_invariant_image():
    rng = rng0(44)
    F = np.stack([oracles.random_defgrad(rng) for _ in range(20)])
    F_rve = mining.rotate_to_microscale(F, E1, E3)
    inv_macro = tensors.invariants(tensors.right_cauchy_green(F),
                                   tensors.structural_tensor(E1))
    inv_rve = tensors.invariants(tensors.right_cauchy_green(F_rve),
                                 tensors.structural_tensor(E3))
    np.testing.assert_allclose(inv_rve, inv_macro, rtol=0, atol=1e-10)


def test_enrich_provenance_and_stresses():
    rng = rng0(45)
    ds = random_dataset(rng, 50)
    paths = random_walk_paths(rng, 8, 4, spread=0.12)
    times = np.linspace(0.0, 1.0, 5)
    detected = mining.detect_new_paths(ds, paths, times, E1, E3, eps=0.03)
    assert detected
    oracle = mining.AnalyticOracle()
    new, n_cand = mining.enrich(ds, detected, oracle, E1, E3,
                                eps_filter=0.01, iteration=3, source="mined:test")
    assert 0 < len(new) <= n_cand
    assert n_cand == sum(d.last_step for d in detected)
    assert set(new.source) == {"mined:test"}
    assert np.all(new.iteration == 3)
    point_ids = {d.point_id for d in detected}
    assert set(new.path_id.tolist()) <= point_ids
    for i in range(len(new)):
        d = next(d for d in detected if d.point_id == new.path_id[i])
        k = new.step[i]
        assert 1 <= k <= d.last_step
        assert new.t[i] == times[k]
        np.testing.assert_array_equal(
            new.F[i], mining.rotate_to_microscale(d.F[k], E1, E3))
        # analytic oracle answers are the closed form at the stored state
        np.testing.assert_allclose(
            new.P[i], materials.oracle_nominal_stress(new.F[i], oracle.params),
            rtol=1e-9, atol=1e-9)
    # mined tuples carry the same invariant image as their macro origins
    for i in range(len(new)):
        d = next(d for d in detected if d.point_id == new.path_id[i])
        inv_rve = tensors.invariants(
            tensors.right_cauchy_green(new.F[i]), tensors.structural_tensor(E3))
        inv_mac = tensors.invariants(
            tensors.right_cauchy_green(d.F[new.step[i]]),
            tensors.structural_tensor(E1))
        np.testing.assert_allclose(inv_rve, inv_mac, rtol=0, atol=1e-10)


def test_rotating_the_macro_problem_with_its_fiber_keeps_the_mined_image():
    # F -> R F R^T and a -> R a leave every invariant, hence every decision,
    # unchanged; no distance of this seed lies within 1e-9 of either tolerance
    rng = rng0(60)
    ds = random_dataset(rng, 60)
    paths = random_walk_paths(rng, 30, 5, spread=0.1)
    times = np.linspace(0.0, 1.0, 6)
    R = oracles.random_rotation(rng)
    turned = np.einsum("ik,pskl,jl->psij", R, paths, R)
    oracle = mining.AnalyticOracle()

    detected = mining.detect_new_paths(ds, paths, times, E1, E3)
    detected_r = mining.detect_new_paths(ds, turned, times, R @ E1, E3)
    assert 0 < len(detected) < 30
    assert ([(d.point_id, d.last_step) for d in detected_r]
            == [(d.point_id, d.last_step) for d in detected])

    new, n_cand = mining.enrich(ds, detected, oracle, E1, E3)
    new_r, n_cand_r = mining.enrich(ds, detected_r, oracle, R @ E1, E3)
    assert n_cand_r == n_cand and len(new) > 0
    assert new_r.path_id.tolist() == new.path_id.tolist()
    assert new_r.step.tolist() == new.step.tolist()
    np.testing.assert_allclose(new_r.invariant_values(E3),
                               new.invariant_values(E3), rtol=1e-12, atol=1e-12)


def test_enrich_drops_duplicate_path_and_known_states():
    rng = rng0(46)
    ds = random_dataset(rng, 40)
    path = random_walk_paths(rng, 1, 4, spread=0.15)[0]
    times = np.linspace(0.0, 1.0, 5)
    twin = [mining.DetectedPath(0, 4, times, path),
            mining.DetectedPath(1, 4, times, path.copy())]
    oracle = mining.AnalyticOracle()
    new, _ = mining.enrich(ds, twin, oracle, E1, E3)
    assert len(new) > 0
    assert set(new.path_id.tolist()) == {0}  # the twin is filtered out entirely
    # resubmitting states the dataset now holds yields nothing
    grown = ds.merged_with(new)
    again, _ = mining.enrich(grown, [twin[0]], oracle, E1, E3)
    assert len(again) == 0


def test_enrich_skips_failing_oracle_paths():
    rng = rng0(47)
    ds = random_dataset(rng, 40)
    paths = random_walk_paths(rng, 3, 3, spread=0.15)
    times = np.linspace(0.0, 1.0, 4)
    detected = [mining.DetectedPath(p, 3, times, paths[p]) for p in range(3)]
    inner = mining.AnalyticOracle()
    target = mining.rotate_to_microscale(paths[1][1], E1, E3)

    class Flaky:
        def evaluate_path(self, F_series):
            if np.any(np.all(np.abs(F_series - target) < 1e-12, axis=(1, 2))):
                raise MatmineError("synthetic failure")
            return inner.evaluate_path(F_series)

    new, _ = mining.enrich(ds, detected, Flaky(), E1, E3)
    assert len(new) > 0
    assert 1 not in set(new.path_id.tolist())
    assert {0, 2} & set(new.path_id.tolist())


def test_enrich_runs_with_thread_pool():
    rng = rng0(48)
    ds = random_dataset(rng, 40)
    paths = random_walk_paths(rng, 6, 3, spread=0.15)
    times = np.linspace(0.0, 1.0, 4)
    detected = [mining.DetectedPath(p, 3, times, paths[p]) for p in range(6)]
    # the voxel oracle's threads share one homogenizer; a short switch
    # interval makes them interleave inside its solves
    for oracle in (mining.AnalyticOracle(),
                   mining.VoxelOracle(homogenization.fiber_rve(2, 0.25, seed=5))):
        serial, n1 = mining.enrich(ds, detected, oracle, E1, E3, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled, n2 = mining.enrich(ds, detected, oracle, E1, E3, threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert n1 == n2 and len(serial) > 0
        np.testing.assert_array_equal(serial.F, pooled.F)
        np.testing.assert_array_equal(serial.P, pooled.P)
        assert serial.path_id.tolist() == pooled.path_id.tolist()


def test_voxel_oracle_builds_its_cell_once(monkeypatch):
    built = []
    init = homogenization.VoxelHomogenizer.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(homogenization.VoxelHomogenizer, "__init__",
                        counting_init)
    oracle = mining.VoxelOracle(homogenization.fiber_rve(2, 0.25, seed=5))
    F = np.array([[1.08, 0.03, 0.0], [0.0, 0.96, 0.02], [0.01, 0.0, 0.98]])
    oracle.evaluate_path([np.eye(3), F])
    oracle.evaluate_path([np.eye(3), F.T])
    oracle.evaluate_path(np.stack([F, F.T]), warm_start=False)
    assert len(built) == 1


@pytest.mark.parametrize("oracle", [
    mining.AnalyticOracle(),
    mining.VoxelOracle(homogenization.fiber_rve(2, 0.25, seed=5)),
], ids=["analytic", "voxel"])
def test_oracles_reject_an_inverted_state(oracle):
    with pytest.raises(MatmineError):
        oracle.evaluate_path(np.stack([np.eye(3), np.diag([-0.5, 1.0, 1.0])]))


def test_voxel_oracle_answers_single_states_and_batches_alike():
    oracle = mining.VoxelOracle(homogenization.fiber_rve(3, 0.25, seed=5))
    F = np.array([[1.08, 0.03, 0.0], [0.0, 0.96, 0.02], [0.01, 0.0, 0.98]])
    single = oracle.evaluate_path(F, warm_start=False)
    batched = oracle.evaluate_path(F[None], warm_start=False)
    assert single.shape == (3, 3) and batched.shape == (1, 3, 3)
    np.testing.assert_array_equal(single, batched[0])


def test_voxel_oracle_warm_history_starts_like_a_cold_state():
    # with the default two substeps, the first state of a history and a cold
    # state are both one two-increment solve from the undeformed cell
    oracle = mining.VoxelOracle(homogenization.fiber_rve(2, 0.25, seed=5))
    assert oracle.substeps == 2
    F = np.array([[1.08, 0.03, 0.0], [0.0, 0.96, 0.02], [0.01, 0.0, 0.98]])
    history = np.stack([F, F @ F])
    warm = oracle.evaluate_path(history)
    cold = oracle.evaluate_path(history, warm_start=False)
    np.testing.assert_array_equal(warm[0], cold[0])


# --- initial dataset -------------------------------------------------------------


def test_initial_dataset_is_filtered_and_keeps_one_identity():
    stress = functools.partial(mining.AnalyticOracle().evaluate_path,
                               warm_start=False)
    raw = mining.initial_dataset(stress, eps_filter=0.01, n_steps=6)
    full = mining.initial_dataset(stress, eps_filter=1e-12, n_steps=6)
    assert 0 < len(raw) < len(full)
    identity_rows = np.flatnonzero(
        np.all(np.abs(raw.F - np.eye(3)) < 1e-14, axis=(1, 2)))
    assert len(identity_rows) == 1
    # post-filter property: no two tuples within the filter tolerance
    inv = raw.invariant_values(E3)
    ranges = mining.coordinate_ranges(full.invariant_values(E3))
    for i in range(len(raw)):
        assert mining.distinct_mask(inv[i][None], np.delete(inv, i, axis=0),
                                    ranges, 0.01)[0]


# --- the closed loop -------------------------------------------------------------


def _bar_problem(stretch, n_steps):
    mesh = macro.box_mesh((2.0, 1.0, 1.0), (4, 2, 2))
    origin = np.where(np.linalg.norm(mesh.nodes, axis=1) < 1e-9)[0]
    on_y = np.where((np.abs(mesh.nodes[:, 0]) < 1e-9)
                    & (np.abs(mesh.nodes[:, 2]) < 1e-9))[0]
    mesh.node_sets["pin-origin"] = origin
    mesh.node_sets["pin-yline"] = on_y
    bcs = (macro.DisplacementRamp("x1min", (0.0, 0.0, 0.0),
                                  components=(True, False, False)),
           macro.DisplacementRamp("x1max", ((stretch - 1.0) * 2.0, 0.0, 0.0),
                                  components=(True, False, False)),
           macro.DisplacementRamp("pin-origin", (0.0, 0.0, 0.0),
                                  components=(False, True, True)),
           macro.DisplacementRamp("pin-yline", (0.0, 0.0, 0.0),
                                  components=(False, False, True)))
    return macro.MacroProblem("stretch-bar", mesh, bcs, fiber_axis=E1,
                              n_steps=n_steps)


@pytest.fixture(scope="module")
def synthetic_truth():
    truth = helpers.one_neuron_model(growth_mode=True)
    stress = lambda F: surrogate.model_nominal_stress(truth, F)
    initial = mining.initial_dataset(n_steps=8, stress=stress)
    return truth, initial


def _loop_setup(synthetic_truth, stretch=1.8):
    truth, initial = synthetic_truth
    problem = _bar_problem(stretch, n_steps=6)
    oracle = helpers.ModelOracle(truth, E3)
    cfg = training.TrainingConfig(n_neurons=3, restarts=3, seed=5,
                                  growth_mode=True, anisotropy="isotropic",
                                  max_iterations=1500)
    return problem, oracle, cfg


def test_loop_closes_on_synthetic_truth(synthetic_truth, tmp_path):
    problem, oracle, cfg = _loop_setup(synthetic_truth)
    lc = mining.LoopConfig(n_max=6, inner_repeats=3)
    result = mining.run_loop(problem, oracle, synthetic_truth[1], cfg, lc,
                             out_dir=tmp_path / "run")
    assert result.converged
    assert len(result.iterations) <= 3
    last = result.iterations[-1]
    assert last.completed and last.t_end == pytest.approx(1.0)
    assert last.new_tuples == 0 and last.detected_paths == 0
    # the ramp passes beyond the initial suite, so iteration one must mine
    first = result.iterations[0]
    assert first.new_tuples > 0
    # dataset growth is monotone and the report mirrors it
    sizes = [r.dataset_size for r in result.iterations]
    assert sizes == sorted(sizes)
    assert len(result.dataset) == sizes[-1] + last.new_tuples
    # persisted artifacts exist and agree with the returned objects
    reloaded = data.load_kbase(tmp_path / "run" / "kbase.txt")
    assert len(reloaded) == len(result.dataset)
    model = surrogate.load_model(tmp_path / "run" / "model.json")
    np.testing.assert_array_equal(model.gate_weights,
                                  result.model.gate_weights)
    doc = json.loads((tmp_path / "run" / "loop_report.json").read_text())
    assert doc["converged"] is True
    assert doc["n_iterations"] == len(result.iterations)
    assert "wall" not in json.dumps(doc)
    # every mined tuple was distinct from the pre-loop dataset (soundness)
    initial = synthetic_truth[1]
    ranges = mining.coordinate_ranges(initial.invariant_values(E3))
    mined = result.dataset.subset(np.flatnonzero(result.dataset.iteration > 0))
    if len(mined):
        fresh = mining.distinct_mask(mined.invariant_values(E3),
                                     initial.invariant_values(E3),
                                     ranges, lc.eps_filter)
        assert fresh.all()
    # the artifacts replay the final model: retraining the stored base with
    # the reported seed gives model.json back, and the final solve finds
    # nothing the stored base lacks
    replay = training.train(reloaded, replace(cfg, seed=doc["final_training_seed"]),
                            fiber_axis=lc.rve_fiber_axis)[0]
    surrogate.save_model(replay, tmp_path / "replay.json")
    assert ((tmp_path / "replay.json").read_bytes()
            == (tmp_path / "run" / "model.json").read_bytes())
    paths, times = macro.collect_deformations(result.final_state)
    assert mining.detect_new_paths(reloaded, paths, times, problem.fiber_axis,
                                   lc.rve_fiber_axis, lc.eps_detect) == []


def test_loop_is_deterministic(synthetic_truth, tmp_path):
    problem, oracle, cfg = _loop_setup(synthetic_truth, stretch=1.7)
    lc = mining.LoopConfig(n_max=6, inner_repeats=3)
    a = mining.run_loop(problem, oracle, synthetic_truth[1], cfg, lc)
    b = mining.run_loop(problem, oracle, synthetic_truth[1], cfg, lc)
    assert a.report_dict() == b.report_dict()
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    surrogate.save_model(a.model, pa)
    surrogate.save_model(b.model, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_loop_raises_when_budget_exhausted(synthetic_truth):
    problem, oracle, cfg = _loop_setup(synthetic_truth)
    lc = mining.LoopConfig(n_max=1, inner_repeats=2)
    with pytest.raises(MaxIterationsExceeded) as err:
        mining.run_loop(problem, oracle, synthetic_truth[1], cfg, lc)
    partial = err.value.result
    assert not partial.converged
    assert len(partial.iterations) == 1
    assert partial.iterations[0].new_tuples > 0
    assert len(partial.dataset) > len(synthetic_truth[1])


def test_aborted_run_resumes_from_disk(synthetic_truth, tmp_path):
    problem, oracle, cfg = _loop_setup(synthetic_truth)
    with pytest.raises(MaxIterationsExceeded) as err:
        mining.run_loop(problem, oracle, synthetic_truth[1], cfg,
                        mining.LoopConfig(n_max=1, inner_repeats=2),
                        out_dir=tmp_path / "aborted")
    partial = err.value.result
    kbase = data.load_kbase(tmp_path / "aborted" / "kbase.txt")
    for name in ("F", "P", "iteration", "path_id", "step", "t"):
        np.testing.assert_array_equal(getattr(kbase, name),
                                      getattr(partial.dataset, name))
    assert kbase.source == partial.dataset.source
    model = surrogate.load_model(tmp_path / "aborted" / "model.json")
    for name in ("gate_weights", "input_weights", "reciprocal_weights",
                 "biases", "energy_offset"):
        np.testing.assert_array_equal(getattr(model, name),
                                      getattr(partial.model, name))
    np.testing.assert_array_equal(model.bounds.lower, partial.model.bounds.lower)
    np.testing.assert_array_equal(model.bounds.upper, partial.model.bounds.upper)

    lc = mining.LoopConfig(n_max=6, inner_repeats=3)

    def report(initial, out):
        try:
            mining.run_loop(problem, oracle, initial, cfg, lc, out_dir=out)
        except MaxIterationsExceeded:
            pass
        return (out / "loop_report.json").read_bytes()

    assert report(kbase, tmp_path / "disk") == report(partial.dataset,
                                                      tmp_path / "memory")


def test_loop_config_validation():
    with pytest.raises(ValueError):
        mining.LoopConfig(eps_detect=0.01, eps_filter=0.05)
    with pytest.raises(ValueError):
        mining.LoopConfig(n_max=0)
    with pytest.raises(ValueError):
        mining.LoopConfig(inner_repeats=0)


def test_derived_seeds_are_stable_and_distinct():
    s = mining._derived_seed(0, 1, 0)
    assert s == mining._derived_seed(0, 1, 0)
    seen = {mining._derived_seed(0, i, r) for i in range(1, 5) for r in range(5)}
    assert len(seen) == 20


# --- validation ------------------------------------------------------------------


def test_validate_coverage_full_and_partial(synthetic_truth):
    truth, _ = synthetic_truth
    rng = rng0(49)
    paths = random_walk_paths(rng, 6, 4, spread=0.1)
    times = np.linspace(0.0, 1.0, 5)
    F_rows = mining.rotate_to_microscale(paths[:, 1:].reshape(-1, 3, 3), E1, E3)
    m = len(F_rows)
    covering = data.DataSet(F_rows, np.zeros_like(F_rows), ["init"] * m,
                            np.zeros(m, dtype=int), np.arange(m),
                            np.zeros(m, dtype=int), np.zeros(m))
    oracle = helpers.ModelOracle(truth, E3)
    out = mining.validate_coverage(truth, covering, paths, times, oracle, E1, E3)
    assert out["n_uncovered"] == 0 and out["coverage_complete"]
    # complete coverage probes every state instead of reporting nothing
    assert out["n_compared"] == out["n_states"]
    assert out["rel_max"] == 0.0

    sparse = covering.subset(np.arange(3))
    out = mining.validate_coverage(truth, sparse, paths, times, oracle, E1, E3)
    assert out["n_uncovered"] > 0 and not out["coverage_complete"]
    assert out["scatter"].shape == (out["n_uncovered"], 3)
    # the surrogate IS the oracle here, so the scatter collapses onto zero
    assert out["rel_max"] == 0.0
    assert out["n_compared"] == out["n_uncovered"]


def test_validate_coverage_rejects_an_empty_dataset(synthetic_truth):
    truth, _ = synthetic_truth
    paths = random_walk_paths(rng0(50), 2, 3, spread=0.1)
    with pytest.raises(EmptyDataSet):
        mining.validate_coverage(truth, data.DataSet(), paths,
                                 np.linspace(0.0, 1.0, 4),
                                 helpers.ModelOracle(truth, E3), E1, E3)


# --- knowledge-base files ---------------------------------------------------------


class TestKnowledgeBase:
    def _dataset(self, seed, m=12):
        rng = rng0(seed)
        F = np.stack([oracles.random_defgrad(rng) for _ in range(m)])
        P = rng.normal(size=(m, 3, 3)) * 40.0
        return data.DataSet(F, P, [f"mined:case-{i % 3}" for i in range(m)],
                            rng.integers(0, 4, m), rng.integers(0, 99, m),
                            rng.integers(0, 13, m), rng.random(m))

    def test_roundtrip_is_bit_exact(self, tmp_path):
        ds = self._dataset(50)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        data.save_kbase(ds, p1)
        back = data.load_kbase(p1)
        data.save_kbase(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(ds.F, back.F)
        np.testing.assert_array_equal(ds.P, back.P)
        np.testing.assert_array_equal(ds.t, back.t)
        assert ds.source == back.source

    def test_concatenated_files_load_as_union(self, tmp_path):
        d1, d2 = self._dataset(51, 7), self._dataset(52, 5)
        p1, p2, cat = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
        data.save_kbase(d1, p1)
        data.save_kbase(d2, p2)
        cat.write_bytes(p1.read_bytes() + p2.read_bytes())
        union = data.load_kbase(cat)
        assert len(union) == 12  # duplicates retained, IO never filters
        np.testing.assert_array_equal(union.F[:7], d1.F)
        np.testing.assert_array_equal(union.F[7:], d2.F)

    def test_header_only_file_is_empty_dataset(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text(f"# {data.KBASE_VERSION}\n")
        assert len(data.load_kbase(p)) == 0

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("# some-other-format-v9\n")
        with pytest.raises(FormatVersionMismatch):
            data.load_kbase(p)
        p.write_text("")
        with pytest.raises(FormatVersionMismatch):
            data.load_kbase(p)

    def test_corrupt_records_report_line_numbers(self, tmp_path):
        ds = self._dataset(53, 3)
        p = tmp_path / "broken.txt"
        data.save_kbase(ds, p)
        lines = p.read_text().splitlines()
        lines[3] = lines[3].rsplit(" ", 1)[0]  # drop one field from record 2
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptRecord) as err:
            data.load_kbase(p)
        assert err.value.line_no == 4

        lines = p.read_text().splitlines()
        parts = lines[2].split()
        parts[6] = "nan"
        lines[2] = " ".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptRecord) as err:
            data.load_kbase(p)
        assert err.value.line_no == 3


class TestRecordText:
    """``save_kbase`` reuses a loaded record's text only while its numbers
    are bitwise the ones read; the file always equals the fresh writer's."""

    def _loaded(self, tmp_path, seed=57, m=20):
        ds = TestKnowledgeBase()._dataset(seed, m)
        ds.P[4, 0, 0] = 0.0
        path = tmp_path / f"in-{seed}.txt"
        data.save_kbase(ds, path)
        return data.load_kbase(path)

    def _assert_fresh(self, ds, tmp_path):
        data.save_kbase(ds, tmp_path / "got.txt")
        oracles.save_kbase_reference(ds, tmp_path / "want.txt")
        assert (tmp_path / "got.txt").read_bytes() == \
            (tmp_path / "want.txt").read_bytes()
        return (tmp_path / "got.txt").read_text()

    def test_loaded_subsets_and_merges_write_the_fresh_bytes(self, tmp_path):
        ds = self._loaded(tmp_path)
        other = self._loaded(tmp_path, seed=58, m=6)
        self._assert_fresh(ds, tmp_path)
        self._assert_fresh(ds.subset([5, 2, 2, 19]), tmp_path)
        self._assert_fresh(ds.subset(np.arange(20) % 3 == 0), tmp_path)
        self._assert_fresh(ds.merged_with(TestKnowledgeBase()._dataset(59, 4)),
                           tmp_path)
        self._assert_fresh(TestKnowledgeBase()._dataset(59, 4).merged_with(ds),
                           tmp_path)
        self._assert_fresh(ds.merged_with(other).subset([24, 3, 20]), tmp_path)
        self._assert_fresh(ds.subset([1, 2]).merged_with(ds.subset([7])),
                           tmp_path)
        self._assert_fresh(ds.subset(np.zeros(0, dtype=int)), tmp_path)
        # a row read from no text, whose numbers are those of unset text
        zero = data.DataSet(np.zeros((1, 3, 3)), np.zeros((1, 3, 3)), ["zero"],
                            [0], [0], [0], [0.0])
        self._assert_fresh(ds.merged_with(zero), tmp_path)

    @pytest.mark.parametrize("empty", [[], np.array([]), np.zeros(0, dtype=int)])
    def test_empty_selections_give_empty_sets(self, tmp_path, empty):
        for ds in (TestKnowledgeBase()._dataset(62, 5), self._loaded(tmp_path)):
            none = ds.subset(empty)
            assert len(none) == 0 and none.source == []
            assert self._assert_fresh(none, tmp_path).count("\n") == 2
            assert len(ds.merged_with(none)) == len(ds)

    @pytest.mark.parametrize("edit", ["F entry", "P", "negative zero",
                                      "source", "iteration"])
    def test_edited_rows_are_formatted_afresh(self, tmp_path, edit):
        ds = self._loaded(tmp_path)
        before = self._assert_fresh(ds, tmp_path).splitlines()
        if edit == "F entry":
            ds.F[3, 1, 2] = np.nextafter(ds.F[3, 1, 2], np.inf)
        elif edit == "P":
            ds.P = ds.P[::-1].copy()
        elif edit == "negative zero":
            ds.P[4, 0, 0] = -0.0
        elif edit == "source":
            ds.source[6] = "mined:edited row"
        else:
            ds.iteration[8] = 11
        after = self._assert_fresh(ds.merged_with(ds.subset([3, 4])),
                                   tmp_path).splitlines()
        changed = [i - 2 for i, (a, b) in enumerate(zip(before, after)) if a != b]
        assert changed == {"F entry": [3], "P": list(range(20)),
                           "negative zero": [4], "source": [6],
                           "iteration": [8]}[edit]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_line_endings_and_non_ascii_sources(self, tmp_path, newline):
        ds = TestKnowledgeBase()._dataset(61, 5)
        ds.source[2] = "mined:gewölbe"
        data.save_kbase(ds, tmp_path / "lf.txt")
        text = (tmp_path / "lf.txt").read_text()
        (tmp_path / "other.txt").write_bytes(
            text.replace("\n", newline).encode())
        back = data.load_kbase(tmp_path / "other.txt")
        assert back.source == ds.source
        for name in ("F", "P", "t"):
            np.testing.assert_array_equal(getattr(back, name), getattr(ds, name))
        assert self._assert_fresh(back, tmp_path) == text

    def test_hand_edited_literals_are_written_back_as_read(self, tmp_path):
        ds = TestKnowledgeBase()._dataset(60, 3)
        path = tmp_path / "hand.txt"
        data.save_kbase(ds, path)
        lines = path.read_text().splitlines()
        parts = lines[3].split()
        parts[4] = "1.50"
        parts[10] = f"{float(parts[10]):.17e}"
        lines[3] = "\t".join(parts[:4]) + "\t" + "  ".join(parts[4:])
        path.write_text("\n".join(lines) + "\n")
        # the numbers are kept as read, source and labels formatted as ever
        lines[3] = " ".join(parts[:4]) + " " + "  ".join(parts[4:])

        back = data.load_kbase(path)
        assert back.t[1] == 1.5
        back.F[2, 0, 0] += 1.0   # the third record goes stale
        data.save_kbase(back, tmp_path / "again.txt")
        again = (tmp_path / "again.txt").read_text().splitlines()
        assert again[:4] == lines[:4]
        assert again[4] != lines[4]
        reread = data.load_kbase(tmp_path / "again.txt")
        for name in ("F", "P", "t"):
            np.testing.assert_array_equal(getattr(reread, name),
                                          getattr(back, name))
        # a file save_kbase formats itself keeps shortest round-trip literals
        oracles.save_kbase_reference(reread.subset([0, 2]), tmp_path / "want.txt")
        data.save_kbase(reread.subset([0, 2]), tmp_path / "got.txt")
        assert (tmp_path / "got.txt").read_bytes() == \
            (tmp_path / "want.txt").read_bytes()


class _Unprintable:
    def __str__(self):
        raise RuntimeError("write interrupted")

    def __reduce__(self):
        raise RuntimeError("write interrupted")


@pytest.mark.parametrize("artifact",
                         ["kbase", "report", "training-report", "state"])
def test_interrupted_write_keeps_previous_file(tmp_path, artifact):
    ds = TestKnowledgeBase()._dataset(54, 6)
    path = tmp_path / "artifact"
    if artifact == "kbase":
        data.save_kbase(ds, path)
        ds.source[4] = _Unprintable()   # raises after four records are written
        write = lambda: data.save_kbase(ds, path)
    elif artifact == "training-report":
        report = training.TrainingReport(
            n_data=54, n_train=43, n_test=11, config={}, restarts=[],
            selected_restart=0, train_loss=0.5, test_loss=0.6, growth={},
            wall_seconds=1.0)
        report.save(path)
        # the restart list is dumped before the losses, which never arrive
        report.restarts.append(object())
        write = lambda: report.save(path)
    elif artifact == "state":
        mesh = macro.box_mesh((1.0, 1.0, 1.0), (1, 1, 1))
        F = np.broadcast_to(np.eye(3), (1, 8, 3, 3))
        step = macro.StepRecord(0.0, np.zeros((8, 3)), F, F, 0, [])
        state = macro.MacroState([step])
        macro.save_state(state, mesh, path)
        # the mesh and times are archived before the unpicklable displacements
        step.u = np.full((8, 3), _Unprintable(), dtype=object)
        write = lambda: macro.save_state(state, mesh, path)
    else:
        result = mining.LoopResult(True, [], None, ds, 7)
        result.save_report(path)
        # json cannot encode the record, so the dump stops partway
        result.iterations.append(SimpleNamespace(loss=object()))
        write = lambda: result.save_report(path)
    before = path.read_bytes()
    with pytest.raises((RuntimeError, TypeError)):
        write()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]

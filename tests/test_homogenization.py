"""Mixed-control point driver and the periodic voxel cell solver."""

import dataclasses
import functools

import numpy as np
import pytest

import helpers
import oracles
from matmine import homogenization as hom
from matmine import materials, mining, tensors
from matmine.errors import NewtonDivergence, ZeroMean


# --- load suite ------------------------------------------------------------

def test_initial_suite_is_18_distinct_cases():
    cases = hom.initial_load_suite()
    assert len(cases) == 18
    assert len({c.name for c in cases}) == 18


def test_uniaxial_case_frees_lateral_diagonal():
    case = hom.uniaxial_case(0, 1.6)
    assert case.values[0, 0] == 1.6
    assert case.prescribed[0, 0]
    assert not case.prescribed[1, 1] and not case.prescribed[2, 2]
    # off-diagonals pinned to zero
    off = ~np.eye(3, dtype=bool)
    assert case.prescribed[off].all()
    assert np.all(case.values[off] == 0.0)


def test_equibiaxial_case_frees_odd_axis():
    case = hom.equibiaxial_case(0, 2, 1.3)
    assert case.prescribed[0, 0] and case.prescribed[2, 2]
    assert not case.prescribed[1, 1]
    assert case.values[0, 0] == case.values[2, 2] == 1.3


def test_shear_case_fully_prescribed():
    case = hom.shear_case(1, 2, 0.5)
    assert case.prescribed.all()
    expected = np.eye(3)
    expected[1, 2] = 0.5
    assert np.array_equal(case.values, expected)


# --- material point driver ---------------------------------------------------

def _oracle_stress(oracle):
    return lambda F: materials.oracle_nominal_stress(F, oracle)


def test_shear_path_returns_prescribed_gradients():
    oracle = materials.OracleParameters()
    path = hom.drive_material_point(_oracle_stress(oracle),
                                    hom.shear_case(0, 1, 0.5), n_steps=4)
    assert path.F.shape == (5, 3, 3)
    for k, t in enumerate(path.t):
        expected = np.eye(3)
        expected[0, 1] = 0.5 * t
        np.testing.assert_array_equal(path.F[k], expected)
        np.testing.assert_allclose(
            path.P[k], materials.oracle_nominal_stress(path.F[k], oracle))


def test_uniaxial_path_zeroes_lateral_stress():
    oracle = materials.OracleParameters()
    case = hom.uniaxial_case(2, 1.6)
    path = hom.drive_material_point(_oracle_stress(oracle), case)
    tol = 1e-9 * oracle.matrix.initial_shear_modulus
    for k in range(len(path.t)):
        assert abs(path.P[k][0, 0]) <= tol
        assert abs(path.P[k][1, 1]) <= tol
    # loading along the fiber keeps the response transversely symmetric
    np.testing.assert_allclose(path.F[-1][0, 0], path.F[-1][1, 1], rtol=1e-9)
    assert path.F[-1][0, 0] < 1.0


def test_uniaxial_compression_across_fiber_converges():
    oracle = materials.OracleParameters()
    path = hom.drive_material_point(_oracle_stress(oracle),
                                    hom.uniaxial_case(0, 0.7))
    tol = 1e-9 * oracle.matrix.initial_shear_modulus
    assert abs(path.P[-1][1, 1]) <= tol
    assert abs(path.P[-1][2, 2]) <= tol
    assert path.F[-1][0, 0] == pytest.approx(0.7)


def test_driver_evaluates_the_stress_once_per_deformation():
    oracle = materials.OracleParameters()
    seen = []

    def stress(F):
        seen.append(F.tobytes())
        return materials.oracle_nominal_stress(F, oracle)

    path = hom.drive_material_point(stress, hom.uniaxial_case(2, 1.6), n_steps=4)
    assert len(seen) == len(set(seen))
    for F, P in zip(path.F, path.P, strict=True):
        assert F.tobytes() in seen
        np.testing.assert_array_equal(P, materials.oracle_nominal_stress(F, oracle))


def test_incompressible_single_term_limit_matches_closed_form():
    # one-term alpha=2 rubber with a stiff volumetric penalty behaves like
    # the classical incompressible P11 = G (lam - lam^-2) response
    G = 80.0
    params = materials.OgdenParameters(mu=(G,), alpha=(2.0,), kappa=1e5 * G)

    def stress(F):
        return F @ materials.ogden_stress_from_C(
            tensors.right_cauchy_green(F), params)

    lam = 1.5
    path = hom.drive_material_point(stress, hom.uniaxial_case(0, lam),
                                    force_scale=G)
    closed = G * (lam - lam ** -2)
    assert path.P[-1][0, 0] == pytest.approx(closed, rel=1e-2)


def test_initial_data_contains_identity_rows_and_oracle_stresses():
    oracle = materials.OracleParameters()
    # an axis off every symmetry plane of the suite, so only the undeformed
    # state the 18 paths share is filtered, down to one row
    stress = functools.partial(mining.AnalyticOracle(oracle).evaluate_path,
                               warm_start=False)
    ds = mining.initial_dataset(stress, eps_filter=1e-12, n_steps=3,
                                rve_fiber_axis=(0.2, 0.3, 0.9))
    assert len(ds) == 18 * 3 + 1
    start = ds.step == 0
    np.testing.assert_array_equal(ds.F[start], np.eye(3)[None])
    np.testing.assert_allclose(ds.P[start], 0.0, atol=1e-20)
    rng = np.random.default_rng(3)
    for i in rng.choice(len(ds), 8, replace=False):
        np.testing.assert_allclose(
            ds.P[i], materials.oracle_nominal_stress(ds.F[i], oracle),
            atol=1e-12)
    assert all(s.startswith("init:") for s in ds.source)
    assert set(ds.iteration) == {0}


# --- voxel cell solver -------------------------------------------------------

def test_homogeneous_cell_reproduces_pointwise_response():
    rve = helpers.homogeneous_rve(3)
    solver = hom.VoxelHomogenizer(rve)
    F_bar = np.array([[1.1, 0.05, 0.0],
                      [0.0, 0.95, 0.02],
                      [0.0, 0.0, 1.03]])
    sol = solver.solve(F_bar)
    expected = F_bar @ materials.ogden_stress_from_C(
        tensors.right_cauchy_green(F_bar), materials.MATRIX_RUBBER)
    np.testing.assert_allclose(sol.P_bar, expected, rtol=1e-8, atol=1e-10)
    assert np.max(np.abs(sol.u_tilde)) < 1e-10
    assert sol.psi_bar == pytest.approx(
        helpers.ogden_energy(F_bar, materials.MATRIX_RUBBER), rel=1e-8)


def test_layered_cell_matches_semianalytic_laminate():
    fraction = 0.5
    rve = helpers.layered_rve(4, fraction, axis=0)
    solver = hom.VoxelHomogenizer(rve)
    lam_bar = 1.15
    sol = solver.solve(np.diag([lam_bar, 1.0, 1.0]), n_steps=2)
    lam1, lam2, p11 = oracles.laminate_uniaxial(
        lambda F: helpers.ogden_energy(F, materials.FIBER_STIFF),
        lambda F: helpers.ogden_energy(F, materials.MATRIX_RUBBER),
        fraction, lam_bar)
    assert sol.P_bar[0, 0] == pytest.approx(p11, rel=1e-6)
    # the exact fields are piecewise affine, so the per-point stretches
    # should cluster at the two semianalytic layer values
    f11 = sol.F_qp[..., 0, 0].reshape(-1)
    phase = np.repeat(rve.phase.reshape(-1), 8)
    np.testing.assert_allclose(f11[phase == 1], lam1, rtol=1e-6)
    np.testing.assert_allclose(f11[phase == 0], lam2, rtol=1e-6)


def test_work_average_identity_holds_on_random_cell():
    rve = hom.fiber_rve(4, 0.25, seed=11)
    solver = hom.VoxelHomogenizer(rve)
    F_bar = np.eye(3)
    F_bar[2, 2] = 1.12
    F_bar[0, 2] = 0.04
    sols = helpers.cell_path(solver, F_bar, n_steps=3)
    for prev, curr in zip(sols[:-1], sols[1:]):
        assert helpers.work_rate_mismatch(prev, curr) < 1e-6


def test_work_average_identity_flags_inconsistent_fields():
    rve = hom.fiber_rve(3, 0.25, seed=5)
    solver = hom.VoxelHomogenizer(rve)
    F_bar = np.eye(3)
    F_bar[2, 2] = 1.1
    sols = helpers.cell_path(solver, F_bar, n_steps=2)
    rng = np.random.default_rng(0)
    sols[-1].F_qp = sols[-1].F_qp + 0.02 * rng.normal(size=sols[-1].F_qp.shape)
    assert helpers.work_rate_mismatch(sols[-2], sols[-1]) > 1e-3


def test_energy_average_integrates_work_along_path():
    rve = hom.fiber_rve(3, 0.25, seed=7)
    solver = hom.VoxelHomogenizer(rve)
    F_bar = np.eye(3)
    F_bar[2, 2] = 1.15
    F_bar[0, 1] = 0.05
    sols = helpers.cell_path(solver, F_bar, n_steps=8)
    assert helpers.path_energy_mismatch(sols) < 1e-2


def _path_by_hand(solver, F_bar, n_steps, predict=True):
    """The ramp ``helpers.cell_path`` runs, as its own loop: each
    increment starts from the secant prediction along the one before, or,
    without ``predict``, from the last converged fluctuation."""
    u_tilde = np.zeros((solver.n_nodes, 3))
    F_last, F_step, u_step = np.eye(3), np.zeros((3, 3)), np.zeros_like(u_tilde)
    out = []
    for k in range(n_steps + 1):
        F_k = np.eye(3) + (k / n_steps) * (F_bar - np.eye(3))
        norm2 = np.vdot(F_step, F_step)
        alpha = np.vdot(F_k - F_last, F_step) / norm2 if norm2 > 0.0 else 0.0
        u_0 = u_tilde + alpha * u_step if predict and alpha != 0.0 else u_tilde
        updates = []
        u_k, F, P, _ = solver._newton(F_k, u_0, updates)
        F_step, u_step = F_k - F_last, u_k - u_tilde
        F_last, u_tilde = F_k, u_k
        out.append(solver._package(F_k, u_tilde, F, P, len(updates),
                                   F_step, u_step))
    return out


def _ramp_solver():
    F_bar = np.eye(3)
    F_bar[2, 2] = 1.15
    F_bar[0, 1] = 0.05
    return hom.VoxelHomogenizer(hom.fiber_rve(3, 0.25, seed=7)), F_bar


def test_path_is_a_chain_of_one_increment_solves():
    solver, F_bar = _ramp_solver()
    for got, ref in zip(helpers.cell_path(solver, F_bar, n_steps=3),
                        _path_by_hand(solver, F_bar, 3), strict=True):
        for name in ("F_bar", "P_bar", "F_qp", "P_qp", "psi_qp", "u_tilde",
                     "F_step", "u_step"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))
        assert got.psi_bar == ref.psi_bar
        assert got.iterations == ref.iterations


def test_secant_prediction_saves_updates_and_keeps_the_answer():
    solver, F_bar = _ramp_solver()
    predicted = helpers.cell_path(solver, F_bar, n_steps=3)
    plain = _path_by_hand(solver, F_bar, 3, predict=False)
    for got, ref in zip(predicted, plain, strict=True):
        np.testing.assert_allclose(got.P_bar, ref.P_bar, rtol=1e-8,
                                   atol=1e-8 * np.abs(ref.P_bar).max())
    assert (sum(s.iterations for s in predicted)
            < sum(s.iterations for s in plain))


@pytest.mark.parametrize("n_steps", [0, -1])
@pytest.mark.parametrize("method", ["solve"])
def test_cell_solves_need_at_least_one_increment(method, n_steps):
    solver = hom.VoxelHomogenizer(helpers.homogeneous_rve(2))
    with pytest.raises(ValueError, match="n_steps"):
        getattr(solver, method)(np.diag([1.1, 1.0, 1.0]), n_steps)


def _stretch_history():
    F_1 = np.array([[1.06, 0.02, 0.0], [0.0, 0.97, 0.01], [0.01, 0.0, 1.09]])
    return F_1, np.eye(3) + 1.5 * (F_1 - np.eye(3))


def test_warm_solve_ramps_from_the_previous_state():
    solver = hom.VoxelHomogenizer(hom.fiber_rve(4, 0.3, seed=2))
    F_1, F_2 = _stretch_history()
    first = solver.solve(F_1, n_steps=2)
    warm = solver.solve(F_2, n_steps=2, start=first)
    cold = solver.solve(F_2, n_steps=2)
    np.testing.assert_array_equal(warm.F_bar, F_2)
    np.testing.assert_allclose(warm.P_bar, cold.P_bar,
                               rtol=1e-8, atol=1e-8 * np.abs(cold.P_bar).max())
    assert warm.iterations <= cold.iterations
    # ramped from itself, a converged state needs no update
    assert solver.solve(F_1, n_steps=2, start=first).iterations == 0
    assert solver.solve(F_1, start=first).iterations == 0
    # the voxel oracle hands each state of a history the one before
    oracle = mining.VoxelOracle(solver.rve)
    np.testing.assert_array_equal(oracle.evaluate_path(np.stack([F_1, F_2]))[1],
                                  warm.P_bar)


def _recording_newton(monkeypatch, solver):
    """Record each Newton attempt of ``solver``: its start and whether it
    raised."""
    attempts = []
    newton = solver._newton

    def recorded(F_bar, u_tilde, updates):
        n = len(updates)
        try:
            out = newton(F_bar, u_tilde, updates)
        except NewtonDivergence:
            attempts.append((u_tilde, "diverged", len(updates) - n))
            raise
        attempts.append((u_tilde, "converged", len(updates) - n))
        return out

    monkeypatch.setattr(solver, "_newton", recorded)
    return attempts


def _plain_warm(solver, start, F_bar, n_steps):
    """``solve`` from ``start`` with every increment starting from the last
    converged fluctuation."""
    u_tilde, updates = start.u_tilde, []
    for k in range(1, n_steps + 1):
        F_k = (F_bar if k == n_steps
               else start.F_bar + (k / n_steps) * (F_bar - start.F_bar))
        u_tilde, F, P, _ = solver._newton(F_k, u_tilde, updates)
    return solver._package(F_bar, u_tilde, F, P, len(updates), None, None)


def test_a_diverging_prediction_reruns_from_the_converged_state(monkeypatch):
    solver = hom.VoxelHomogenizer(hom.fiber_rve(4, 0.3, seed=2))
    F_1, F_2 = _stretch_history()
    first = solver.solve(F_1, n_steps=2)
    plain = _plain_warm(solver, first, F_2, 2)
    attempts = _recording_newton(monkeypatch, solver)
    wild = dataclasses.replace(first, u_step=1e3 * first.u_step)
    sol = solver.solve(F_2, n_steps=2, start=wild)
    assert [a[1] for a in attempts] == ["diverged", "converged", "converged"]
    assert attempts[1][0] is first.u_tilde
    np.testing.assert_allclose(sol.P_bar, plain.P_bar, rtol=1e-8,
                               atol=1e-8 * np.abs(plain.P_bar).max())
    assert sol.iterations == sum(a[2] for a in attempts)


def test_updates_of_a_diverged_prediction_count_as_iterations(monkeypatch):
    # perfbench's traced voxel-enrich run reads one stress_tangent_fd call
    # per phase and one spsolve per counted update
    solver = hom.VoxelHomogenizer(hom.fiber_rve(4, 0.3, seed=2))
    F_1, F_2 = _stretch_history()
    first = solver.solve(F_1, n_steps=2)
    attempts = _recording_newton(monkeypatch, solver)
    tangents = []
    fd = materials.stress_tangent_fd
    monkeypatch.setattr(materials, "stress_tangent_fd",
                        lambda *a, **kw: tangents.append(1) or fd(*a, **kw))
    calls = helpers.force_colamd(monkeypatch)
    sol = solver.solve(F_2, n_steps=2,
                       start=dataclasses.replace(first, u_step=30 * first.u_step))
    assert attempts[0][1:] == ("diverged", 1)
    assert len(calls) == sol.iterations == sum(a[2] for a in attempts)
    assert len(tangents) == len(solver.phase_masks) * sol.iterations


def test_principal_frame_tangent_leaves_the_cell_solve_unchanged(monkeypatch):
    solver = hom.VoxelHomogenizer(hom.fiber_rve(4, 0.3, seed=2))
    F_1, _ = _stretch_history()
    principal = solver.solve(F_1, n_steps=2)
    monkeypatch.setattr(materials, "ogden_tangent_fd", oracles.ogden_tangent_lab_fd)
    lab = solver.solve(F_1, n_steps=2)
    assert principal.iterations == lab.iterations > 0
    np.testing.assert_allclose(principal.P_bar, lab.P_bar, rtol=0.0,
                               atol=1e-9 * np.abs(lab.P_bar).max())


def test_a_step_across_the_previous_one_starts_from_the_converged_state():
    solver = hom.VoxelHomogenizer(hom.fiber_rve(3, 0.25, seed=7))
    # binary fractions, so the two steps are exactly orthogonal
    F_1 = np.diag([1.0, 1.0, 1.0625])
    first = solver.solve(F_1)
    np.testing.assert_array_equal(first.F_step, F_1 - np.eye(3))
    F_2 = F_1.copy()
    F_2[0, 1] = 0.03125
    sol = solver.solve(F_2, start=first)
    ref = _plain_warm(solver, first, F_2, 1)
    np.testing.assert_array_equal(sol.u_tilde, ref.u_tilde)
    np.testing.assert_array_equal(sol.P_qp, ref.P_qp)
    assert sol.iterations == ref.iterations > 0


def test_cell_ordering_leaves_the_solution_unchanged(monkeypatch):
    solver = hom.VoxelHomogenizer(hom.fiber_rve(4, 0.3, seed=2))
    F_1, _ = _stretch_history()
    symmetric = solver.solve(F_1, n_steps=2)
    calls = helpers.force_colamd(monkeypatch)
    colamd = solver.solve(F_1, n_steps=2)
    assert len(calls) == colamd.iterations > 0
    np.testing.assert_allclose(symmetric.P_bar, colamd.P_bar, rtol=1e-10,
                               atol=1e-10 * np.abs(colamd.P_bar).max())
    np.testing.assert_allclose(symmetric.u_tilde, colamd.u_tilde, rtol=0.0,
                               atol=1e-10 * np.abs(colamd.u_tilde).max())


# --- scatter statistic -------------------------------------------------------

def test_chi_squared_hand_value():
    assert hom.chi_squared([1.0, 1.0, 1.05, 0.95]) == pytest.approx(0.005)


def test_chi_squared_rejects_zero_mean():
    with pytest.raises(ZeroMean):
        hom.chi_squared([-1.0, 1.0])


def test_scatter_shrinks_with_cell_size():
    study = hom.rve_size_study((2, 4), volume_fraction=0.25,
                               n_realizations=6, seed=42, stretch=1.08)
    assert study[4] < study[2]

"""Mixed-control point driver and the periodic voxel cell solver."""

import dataclasses
import functools

import numpy as np
import pytest

import helpers
import oracles
from matmine import homogenization as hom
from matmine import config, fem, macro, materials, mining, tensors
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


def test_load_cases_compare_by_identity():
    case = hom.uniaxial_case(0, 1.6)
    assert case == case
    assert case in [case]
    twin = hom.uniaxial_case(0, 1.6)
    assert case != twin
    assert twin not in [case]


# --- material point driver ---------------------------------------------------

def _oracle_stress(oracle):
    return lambda F: materials.oracle_nominal_stress(F, oracle)


def test_shear_path_returns_prescribed_gradients():
    oracle = materials.OracleParameters()
    [path] = hom.drive_material_point(_oracle_stress(oracle),
                                      [hom.shear_case(0, 1, 0.5)], n_steps=4)
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
    [path] = hom.drive_material_point(_oracle_stress(oracle), [case])
    tol = 1e-9 * oracle.matrix.initial_shear_modulus
    for k in range(len(path.t)):
        assert abs(path.P[k][0, 0]) <= tol
        assert abs(path.P[k][1, 1]) <= tol
    # loading along the fiber keeps the response transversely symmetric
    np.testing.assert_allclose(path.F[-1][0, 0], path.F[-1][1, 1], rtol=1e-9)
    assert path.F[-1][0, 0] < 1.0


def test_uniaxial_compression_across_fiber_converges():
    oracle = materials.OracleParameters()
    [path] = hom.drive_material_point(_oracle_stress(oracle),
                                      [hom.uniaxial_case(0, 0.7)])
    tol = 1e-9 * oracle.matrix.initial_shear_modulus
    assert abs(path.P[-1][1, 1]) <= tol
    assert abs(path.P[-1][2, 2]) <= tol
    assert path.F[-1][0, 0] == pytest.approx(0.7)


def test_driver_evaluates_the_stress_once_per_deformation():
    oracle = materials.OracleParameters()
    seen = []

    def stress(F):
        seen.extend(row.tobytes() for row in np.reshape(F, (-1, 3, 3)))
        return materials.oracle_nominal_stress(F, oracle)

    [path] = hom.drive_material_point(stress, [hom.uniaxial_case(2, 1.6)],
                                      n_steps=4)
    assert len(seen) == len(set(seen))
    for F, P in zip(path.F, path.P, strict=True):
        assert F.tobytes() in seen
        np.testing.assert_array_equal(P, materials.oracle_nominal_stress(F, oracle))


def _assert_same_path(got, ref):
    assert got.name == ref.name
    for name in ("t", "F", "P"):
        np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))


def _alone(stress, cases, n_steps):
    """Each case driven on its own."""
    return [hom.drive_material_point(stress, [case], n_steps=n_steps)[0]
            for case in cases]


@pytest.mark.parametrize("n_steps", [1, 12])
def test_cases_driven_together_follow_their_own_paths(n_steps):
    stress = _oracle_stress(materials.OracleParameters())
    cases = hom.initial_load_suite()
    together = hom.drive_material_point(stress, cases, n_steps=n_steps)
    for got, ref in zip(together, _alone(stress, cases, n_steps), strict=True):
        _assert_same_path(got, ref)


def _arctan_stress(calls):
    """Nominal stress: the arctan, entry by entry, of 10 (F - I) with
    10 (F[0, 0] - 1) added to entry [1, 1]; raises where det F <= 0.  Records
    each call's deformation gradients in ``calls``.

    In one step of a uniaxial case along the first axis, the free F[1, 1]
    solves arctan(10 (F[1, 1] - 1) + u0) = 0 from u0 = 10 (stretch - 1).  A
    full Newton step from u0 > 1.39 lands on a larger residual, and from
    u0 > 3.6 at F[1, 1] < 0.
    """
    def stress(F):
        calls.append(np.array(F))
        tensors.jacobian(F)
        arg = 10.0 * (F - np.eye(3))
        arg[..., 1, 1] += 10.0 * (F[..., 0, 0] - 1.0)
        return np.arctan(arg)
    return stress


def _named(case, name):
    return dataclasses.replace(case, name=name)


def test_shortened_and_failed_trials_leave_each_case_its_own_path():
    overshoots = _named(hom.uniaxial_case(0, 1.2), "overshoots")
    raises = _named(hom.uniaxial_case(0, 1.5), "raises")
    cases = [hom.uniaxial_case(0, 1.05), overshoots, hom.shear_case(0, 1, 0.5),
             raises, hom.equibiaxial_case(0, 2, 1.08), hom.uniaxial_case(0, 1.1)]
    calls = []
    together = hom.drive_material_point(_arctan_stress(calls), cases, n_steps=1)
    for got, ref in zip(together, _alone(_arctan_stress([]), cases, 1),
                        strict=True):
        _assert_same_path(got, ref)
    tol = 1e-9 * materials.MATRIX_RUBBER.initial_shear_modulus
    for case, path in zip(cases, together):
        assert np.all(np.abs(path.P[-1][~case.prescribed]) <= tol)
    # the free entries solve F[1, 1] = 2 - F[0, 0]
    assert together[1].F[-1, 1, 1] == pytest.approx(0.8, abs=1e-9)
    assert together[3].F[-1, 1, 1] == pytest.approx(0.5, abs=1e-9)
    # the first full step of the overshooting case was halved once, that of
    # the raising case twice, after trials past det F = 0 evaluated row by row
    tried = np.concatenate([np.reshape(F, (-1, 3, 3)) for F in calls])
    for stretch, full_below, alpha in ((1.2, 0.5, 0.5), (1.5, 0.0, 0.25)):
        ours = tried[tried[:, 0, 0] == stretch, 1, 1]
        full = ours.min()
        assert full < full_below
        assert np.any(np.isclose(ours, 1.0 + alpha * (full - 1.0),
                                 rtol=0.0, atol=1e-12))
    assert any(F.ndim == 2 for F in calls)


def test_a_case_that_cannot_converge_names_itself():
    # from u0 = 1000 even a 2^-10 step lands at F[1, 1] < 0
    cases = [hom.uniaxial_case(0, 1.05), _named(hom.uniaxial_case(0, 101.0), "stalls"),
             hom.uniaxial_case(0, 1.5)]
    with pytest.raises(NewtonDivergence,
                       match="line search stalled on path stalls at t=1"):
        hom.drive_material_point(_arctan_stress([]), cases, n_steps=1)


def test_incompressible_single_term_limit_matches_closed_form():
    # one-term alpha=2 rubber with a stiff volumetric penalty behaves like
    # the classical incompressible P11 = G (lam - lam^-2) response
    G = 80.0
    params = materials.OgdenParameters(mu=(G,), alpha=(2.0,), kappa=1e5 * G)

    def stress(F):
        return tensors.nominal_stress(F, lambda C: materials.ogden_law(C, params))

    lam = 1.5
    [path] = hom.drive_material_point(stress, [hom.uniaxial_case(0, lam)],
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

def test_homogeneous_cell_reproduces_pointwise_response(monkeypatch):
    F_bar = np.array([[1.1, 0.05, 0.0],
                      [0.0, 0.95, 0.02],
                      [0.0, 0.0, 1.03]])
    expected = tensors.nominal_stress(
        F_bar, lambda C: materials.ogden_law(C, materials.MATRIX_RUBBER))
    rve = helpers.homogeneous_rve(3)
    solved = hom.VoxelHomogenizer(rve)
    # the solved cell is one node with no free dof; the uncollapsed 3^3 cell
    # still runs a periodic 3D Newton solve
    monkeypatch.setattr(hom, "_voxel_topology", oracles.uncollapsed_voxel_topology)
    uncollapsed = hom.VoxelHomogenizer(rve)
    assert (solved.n_nodes, uncollapsed.n_nodes) == (1, 27)
    for solver in (solved, uncollapsed):
        sol = solver.solve(F_bar)
        np.testing.assert_allclose(sol.P_bar, expected, rtol=1e-8, atol=1e-10)
        assert np.max(np.abs(sol.u_tilde)) < 1e-10
        assert helpers.cell_energy(solver, sol) == pytest.approx(
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
    f11 = sol.F_qp[..., 0, 0]
    (_, matrix), (_, fiber) = solver.phase_masks
    np.testing.assert_allclose(f11[fiber], lam1, rtol=1e-6)
    np.testing.assert_allclose(f11[matrix], lam2, rtol=1e-6)


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
    assert helpers.path_energy_mismatch(solver, sols) < 1e-2


def _path_by_hand(solver, F_bar, n_steps, predict=True):
    """The ramp ``helpers.cell_path`` runs, as its own loop: each
    increment starts from the secant prediction along the one before, the
    first one away from the undeformed cell along the cell's linear response,
    or, without ``predict``, from the last converged fluctuation."""
    u_tilde = np.zeros((solver.n_nodes, 3))
    F_last, F_step, u_step = np.eye(3), np.zeros((3, 3)), np.zeros_like(u_tilde)
    out = []
    for k in range(n_steps + 1):
        F_k = np.eye(3) + (k / n_steps) * (F_bar - np.eye(3))
        if (np.array_equal(F_last, np.eye(3)) and not np.any(u_tilde)
                and not np.any(F_step)):
            F_step = F_k - F_last
            u_step = solver.linear_response @ F_step.reshape(-1)
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
        for name in ("F_bar", "P_bar", "F_qp", "P_qp", "u_tilde",
                     "F_step", "u_step"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))
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


def test_linear_response_gives_the_homogenized_stiffness_at_rest():
    # <A0 : (1 + grad U)> against central differences of P_bar at I +- eps E;
    # the differences err by O(eps^2) ~ 1e-10 of the stiffness and the phase
    # tangents at C = I by their own FD step, ~1e-10 too, while Newton's
    # quadratic convergence leaves the cell solves far below that (1e-11 to
    # 8e-11 measured in all), so 1e-8 of the largest entry is a hundredfold
    # margin
    solver = hom.VoxelHomogenizer(hom.fiber_rve(3, 0.5, seed=1))
    grid, eye = solver.grid, np.eye(3)
    A0 = np.empty(grid.wdet.shape + (3, 3, 3, 3))
    for params, mask in solver.phase_masks:
        A0[mask] = fem.nominal_stress_operator(
            eye, np.zeros((3, 3)), materials.ogden_law(eye, params)[1]())
    L = np.empty((3, 3, 9))
    for m in range(9):
        H = np.eye(9)[m].reshape(3, 3)
        u = solver.linear_response[..., m]
        grad = fem.deformation_gradients(u[grid.conn], grid.dNdX) - eye + H
        L[..., m] = fem.volume_average(
            np.einsum("eqijkl,eqkl->eqij", A0, grad), grid.wdet)
    eps = 1e-5
    for k, l in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)):
        E = np.zeros((3, 3))
        E[k, l] = E[l, k] = 1.0
        fd = (solver.solve(eye + eps * E).P_bar
              - solver.solve(eye - eps * E).P_bar) / (2.0 * eps)
        np.testing.assert_allclose(L @ E.reshape(9), fd, rtol=0.0,
                                   atol=1e-8 * np.abs(L).max())


def test_cold_solves_start_from_the_linear_response(monkeypatch):
    solver = hom.VoxelHomogenizer(hom.fiber_rve(4, 0.3, seed=2))
    F_1, F_2 = _stretch_history()
    shear = np.eye(3)
    shear[0, 2] = 0.1
    loads = (F_1, F_2, shear, np.diag([0.9, 0.95, 1.15]))
    predicted = [solver.solve(F_bar, n_steps=2) for F_bar in loads]
    # a zero response starts the first increment from the undeformed cell
    monkeypatch.setattr(solver, "linear_response",
                        np.zeros_like(solver.linear_response))
    plain = [solver.solve(F_bar, n_steps=2) for F_bar in loads]
    for got, ref in zip(predicted, plain, strict=True):
        np.testing.assert_allclose(got.P_bar, ref.P_bar, rtol=1e-8,
                                   atol=1e-8 * np.abs(ref.P_bar).max())
    assert (sum(s.iterations for s in predicted)
            < sum(s.iterations for s in plain))


@pytest.mark.parametrize("n_steps", [0, -1, -2])
@pytest.mark.parametrize("method", ["solve", "solve_macro",
                                    "drive_material_point"])
def test_cell_solves_need_at_least_one_increment(method, n_steps):
    if method == "solve":
        solver = hom.VoxelHomogenizer(helpers.homogeneous_rve(2))
        solve = functools.partial(solver.solve, np.diag([1.1, 1.0, 1.0]))
    elif method == "drive_material_point":
        svk_nominal = functools.partial(tensors.nominal_stress, law=helpers.SVK)
        solve = functools.partial(hom.drive_material_point, svk_nominal,
                                  [hom.uniaxial_case(0, 1.1)])
    else:
        mesh = macro.box_mesh((1.0, 1.0, 1.0), (1, 1, 1))
        bcs = (macro.DisplacementRamp("x1min", (0.0, 0.0, 0.0)),
               macro.DisplacementRamp("x1max", (0.1, 0.0, 0.0)))
        solve = functools.partial(macro.solve_macro, mesh, bcs, helpers.SVK)
    with pytest.raises(ValueError, match="n_steps"):
        solve(n_steps=n_steps)


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
    oracle = mining.VoxelOracle(solver.rve, substeps=2)
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


def test_an_increment_whose_two_starts_diverge_is_cut_back(monkeypatch):
    solver = hom.VoxelHomogenizer(hom.fiber_rve(4, 0.3, seed=2))
    F_1, F_2 = _stretch_history()
    first = solver.solve(F_1, n_steps=2)
    two_steps = solver.solve(F_2, n_steps=2, start=first)
    attempts, newton = [], solver._newton

    def both_starts_diverge(F_bar, u_tilde, updates):
        attempts.append(F_bar)
        if len(attempts) <= 2:
            raise NewtonDivergence("injected")
        return newton(F_bar, u_tilde, updates)

    monkeypatch.setattr(solver, "_newton", both_starts_diverge)
    sol = solver.solve(F_2, start=first)
    # the predicted and the plain start at F_2, then half the increment
    assert len(attempts) > 3
    np.testing.assert_array_equal(attempts[:2], [F_2, F_2])
    np.testing.assert_array_equal(attempts[2], F_1 + 0.5 * (F_2 - F_1))
    np.testing.assert_allclose(sol.P_bar, two_steps.P_bar, rtol=1e-8,
                               atol=1e-8 * np.abs(two_steps.P_bar).max())
    np.testing.assert_array_equal(sol.F_bar, F_2)


@pytest.mark.parametrize("axis", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, -2.0, 0.5)])
def test_cell_response_is_objective(axis):
    # a rigid rotation Q on top of F_bar turns P_bar with it; small turns
    # only, since the ramp interpolates F linearly and a large Q makes its
    # intermediate states nearly singular
    solver = hom.VoxelHomogenizer(hom.fiber_rve(4, 0.3, seed=2))
    F_1, _ = _stretch_history()
    Q = tensors.rotation_about(axis, 0.25)
    plain = solver.solve(F_1, n_steps=2)
    turned = solver.solve(Q @ F_1, n_steps=2)
    assert plain.iterations > 0 and turned.iterations > 0
    np.testing.assert_allclose(turned.P_bar, Q @ plain.P_bar, rtol=0.0,
                               atol=1e-8 * np.abs(plain.P_bar).max())


def test_large_rotations_are_objective_at_the_default_increments():
    # a linear ramp of Q F_bar passes nearly singular states for a large Q;
    # the oracle's default increment count must not take that ramp
    oracle = mining.VoxelOracle(hom.fiber_rve(4, 0.3, seed=2))
    solver, n_steps = oracle.homogenizer, oracle.substeps
    F_bar = np.diag([1.0, 1.0, 1.15])
    plain = solver.solve(F_bar, n_steps=n_steps)
    assert plain.iterations > 0
    rng = np.random.default_rng(3)
    for _ in range(6):
        Q = oracles.random_rotation(rng)
        turned = solver.solve(Q @ F_bar, n_steps=n_steps)
        np.testing.assert_allclose(turned.P_bar, Q @ plain.P_bar, rtol=0.0,
                                   atol=1e-10 * np.abs(plain.P_bar).max())
        assert turned.iterations <= 2 * plain.iterations


def test_principal_frame_tangent_leaves_the_cell_solve_unchanged(monkeypatch):
    solver = hom.VoxelHomogenizer(hom.fiber_rve(4, 0.3, seed=2))
    F_1, _ = _stretch_history()
    principal = solver.solve(F_1, n_steps=2)
    ogden_law = materials.ogden_law
    monkeypatch.setattr(materials, "ogden_law", lambda C, params: (
        ogden_law(C, params)[0],
        lambda: oracles.ogden_tangent_lab_fd(C, params)))
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


# --- extruded cells --------------------------------------------------------------

def test_the_cell_keeps_one_voxel_layer_along_each_constant_axis():
    rc = config.load_config(None, overrides={("oracle", "kind"): "voxel"})
    assert config.make_oracle(rc).homogenizer.n_nodes == rc.voxel_grid ** 2
    assert hom.VoxelHomogenizer(helpers.random_voxel_rve(3, 0.3, seed=0)).n_nodes == 27
    assert hom.VoxelHomogenizer(helpers.homogeneous_rve(3)).n_nodes == 1
    assert hom.VoxelHomogenizer(helpers.layered_rve(4, 0.5, axis=0)).n_nodes == 4


def _oracle_answers(monkeypatch, oracle, loads, chain):
    """P_bar of a cold solve per load and of a warm chain, and the Newton
    updates of every solve in turn."""
    updates, solve = [], oracle.homogenizer.solve

    def counted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        updates.append(sol.iterations)
        return sol

    monkeypatch.setattr(oracle.homogenizer, "solve", counted)
    P = [oracle.evaluate_path(F_bar) for F_bar in loads]
    return P + list(oracle.evaluate_path(chain)), updates


@pytest.mark.parametrize("rve", [hom.fiber_rve(4, 0.3, seed=2),
                                 hom.fiber_rve(8, 0.3, seed=0)],
                         ids=["fiber-4", "fiber-8"])
def test_the_extruded_cell_gives_the_answers_of_every_voxel(monkeypatch, rve):
    # the n^3 cell's Newton iterates stay constant along the fibers, so the
    # one-layer solve takes the same updates to the same P_bar up to rounding
    loads = [hom.uniaxial_case(2, 1.6).values, hom.uniaxial_case(2, 0.7).values,
             hom.uniaxial_case(0, 1.6).values, hom.shear_case(0, 2, 0.5).values,
             oracles.random_rotation(np.random.default_rng(4))
             @ np.diag([1.0, 1.0, 1.15])]
    chain = np.stack(_stretch_history())
    slab = mining.VoxelOracle(rve)
    monkeypatch.setattr(hom, "_voxel_topology", oracles.uncollapsed_voxel_topology)
    reference = mining.VoxelOracle(rve)
    assert (slab.homogenizer.n_nodes, reference.homogenizer.n_nodes) == (
        rve.n ** 2, rve.n ** 3)
    # voxels of one size, so each node's force is its force in the n^3 cell
    # and the force tolerance means the same
    assert slab.homogenizer.force_tol == reference.homogenizer.force_tol
    # one Gauss point through the slab's single layer, the full rule in the
    # n^3 cell, over voxels of one volume
    slab_wdet = slab.homogenizer.grid.wdet
    ref_wdet = reference.homogenizer.grid.wdet
    assert (slab_wdet.shape[1], ref_wdet.shape[1]) == (4, 8)
    np.testing.assert_allclose(slab_wdet.sum(axis=1),
                               ref_wdet.sum(axis=1)[0], rtol=1e-12)
    P, updates = _oracle_answers(monkeypatch, slab, loads, chain)
    P_ref, updates_ref = _oracle_answers(monkeypatch, reference, loads, chain)
    assert updates == updates_ref and min(updates) > 0
    for got, ref in zip(P, P_ref, strict=True):
        np.testing.assert_allclose(got, ref, rtol=0.0,
                                   atol=1e-12 * np.abs(ref).max())


# --- node numbering ------------------------------------------------------------

@pytest.mark.parametrize("rve", [helpers.layered_rve(3, 0.34),
                                 hom.fiber_rve(4, 0.3, seed=2),
                                 helpers.random_voxel_rve(4, 0.3, seed=1)],
                         ids=["layered-3", "fiber-4", "random-4"])
def test_node_numbering_leaves_the_cell_response_unchanged(monkeypatch, rve):
    F_1, _ = _stretch_history()
    sol = hom.VoxelHomogenizer(rve).solve(F_1)
    monkeypatch.setattr(hom, "_voxel_topology", oracles.permuted_voxel_topology)
    ref = hom.VoxelHomogenizer(rve).solve(F_1)
    assert sol.iterations > 0 and ref.iterations > 0
    np.testing.assert_allclose(sol.P_bar, ref.P_bar, rtol=0.0,
                               atol=1e-12 * np.abs(ref.P_bar).max())


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

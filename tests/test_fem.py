"""Element kernels of the hexahedral solvers against index-contraction references."""

import numpy as np
import pytest

import helpers
import oracles
from matmine import fem, homogenization as hom
from matmine import macro, materials, surrogate, tensors
from matmine.errors import NewtonDivergence

rng0 = np.random.default_rng


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _random_point_state(rng, shape):
    F = np.eye(3) + 0.2 * rng.normal(size=shape + (3, 3))
    T = tensors.sym(rng.normal(size=shape + (3, 3)))
    L = rng.normal(size=shape + (6, 6))
    return F, T, L + np.swapaxes(L, -1, -2)


def _cuboid():
    mesh = macro.cuboid_hole_problem(1).mesh
    return mesh.element_coords(), mesh.conn, mesh.n_nodes


def _voxel(n):
    # every voxel kept: the homogenizer solves a homogeneous cell of any n on
    # a single voxel
    coords, conn, phase = oracles.uncollapsed_voxel_topology(
        helpers.homogeneous_rve(n))
    return coords, conn, phase.size


@pytest.mark.parametrize("mesh", [_cuboid, lambda: _voxel(1), lambda: _voxel(3)],
                         ids=["cuboid", "voxel-1", "voxel-3"])
def test_element_kernels_match_einsum_references(mesh):
    coords, conn, n_nodes = mesh()
    dNdX, wdet = fem.element_gradients(coords)
    F, T, L = _random_point_state(rng0(10), wdet.shape)

    A = fem.nominal_stress_operator(F, T, L)
    A_ref = oracles.nominal_stress_operator_einsum(F, T, L)
    assert A.shape == A_ref.shape
    assert _rel(A, A_ref) <= 1e-13

    K = fem.tangent_matrix(A_ref, dNdX, wdet, fem.StiffnessPattern(conn, n_nodes))
    K_ref = oracles.tangent_matrix_einsum(A_ref, dNdX, wdet, conn, n_nodes)
    assert K.shape == K_ref.shape == (3 * n_nodes, 3 * n_nodes)
    np.testing.assert_array_equal(K.indptr, K_ref.indptr)
    np.testing.assert_array_equal(K.indices, K_ref.indices)
    # Entries where contributions cancel (all corners of the one-voxel cell
    # share a node) are measured against the sum of the contributions' sizes.
    scale = oracles.tangent_matrix_einsum(np.abs(A_ref), np.abs(dNdX), wdet,
                                          conn, n_nodes)
    assert np.abs(K - K_ref).max() <= 1e-13 * scale.max()


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _box():
    mesh = macro.box_mesh((2.0, 1.0, 1.0), (3, 2, 2))
    return mesh.element_coords(), mesh.conn, mesh.n_nodes


@pytest.mark.parametrize("mesh", [_box, _cuboid], ids=["box", "cuboid"])
def test_the_default_rule_is_the_full_gauss_rule_bitwise(mesh):
    coords, conn, n_nodes = mesh()
    # 2x2x2 points in CORNERS order, unit weights
    points = fem.CORNERS * (1.0 / np.sqrt(3.0))
    got_points, weights = fem.gauss_rule()
    np.testing.assert_array_equal(_bits(got_points), _bits(points))
    np.testing.assert_array_equal(_bits(weights), _bits(np.ones(8)))
    shape_grads = fem._shape_gradients_local(points)
    J = np.einsum("qai,eaj->eqij", shape_grads, coords)
    dNdX = np.einsum("qai,eqij->eqaj", shape_grads, np.linalg.inv(J))
    grid = fem.HexGrid(coords, conn, n_nodes)
    np.testing.assert_array_equal(_bits(grid.dNdX), _bits(dNdX))
    np.testing.assert_array_equal(_bits(grid.wdet),
                                  _bits(np.linalg.det(J) * np.ones(8)))


@pytest.mark.parametrize("order", [(1, 1, 1), (2, 1, 2), (2, 2, 1)])
def test_a_reduced_rule_has_a_point_per_order_two_combination(order):
    points, weights = fem.gauss_rule(order)
    assert len(points) == 2 ** order.count(2) == len(np.unique(points, axis=0))
    assert np.all(points[:, np.array(order) == 1] == 0.0)
    assert weights.sum() == 8.0


def _cell_response(coords, conn, phase, rve, gauss, F_bar, u_tilde):
    """f_int, P_bar and K of the cell at u = (F_bar - 1) X + u_tilde."""
    n_nodes = phase.size
    dNdX, wdet = fem.element_gradients(coords, gauss)
    u_elem = coords @ (F_bar - np.eye(3)).T + u_tilde[conn]
    F = fem.deformation_gradients(u_elem, dNdX)
    C = tensors.right_cauchy_green(F)
    phase_qp = np.repeat(phase.reshape(-1), wdet.shape[1]).reshape(wdet.shape)
    T, L = np.empty(C.shape), np.empty(C.shape[:-2] + (6, 6))
    for pid, params in enumerate(rve.phases):
        mask = phase_qp == pid
        T[mask], tangent = materials.ogden_law(C[mask], params)
        L[mask] = tangent()
    P = F @ T
    K = fem.tangent_matrix(fem.nominal_stress_operator(F, T, L), dNdX, wdet,
                           fem.StiffnessPattern(conn, n_nodes))
    return (wdet.shape[1], fem.internal_forces(P, dNdX, wdet, conn, n_nodes),
            fem.volume_average(P, wdet), K.toarray())


@pytest.mark.parametrize("rve, n_q", [(hom.fiber_rve(5, 0.4, seed=3), 4),
                                      (helpers.layered_rve(4, 0.5, axis=1), 2)],
                         ids=["fiber-slab", "layered-lattice"])
def test_one_point_along_wrapped_layers_integrates_the_cell_exactly(rve, n_q):
    # the fluctuation is constant through a layer wrapped onto itself, so F
    # and P are too, and the wrap-assembled integrands do not vary along it
    coords, conn, phase = hom._voxel_topology(rve)
    gauss = [1 if size == 1 else 2 for size in phase.shape]
    rng = rng0(16)
    F_bar = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
    u_tilde = 0.02 / rve.n * rng.normal(size=(phase.size, 3))
    n_reduced, *reduced = _cell_response(coords, conn, phase, rve, gauss,
                                         F_bar, u_tilde)
    n_full, *full = _cell_response(coords, conn, phase, rve, (2, 2, 2),
                                   F_bar, u_tilde)
    assert (n_reduced, n_full) == (n_q, 8)
    for got, want, tol in zip(reduced, full, (1e-13, 1e-13, 1e-9), strict=True):
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=tol * np.abs(want).max())


@pytest.mark.parametrize("n_elements, n_nodes", [(96, 40), (512, 125)])
def test_internal_forces_add_in_the_order_of_add_at(n_elements, n_nodes):
    # random ids repeat within and across elements; the wrapped lattice of a
    # periodic cell repeats them the way the homogenizer does
    rng = rng0(n_elements)
    n = round(n_elements ** (1 / 3))
    wrapped = np.ravel_multi_index(np.moveaxis(fem.grid_corners((n, n, n)), -1, 0),
                                   (n, n, n), mode="wrap")
    for conn in (rng.integers(0, n_nodes, (n_elements, 8)), wrapped):
        m = int(conn.max()) + 1
        P = rng.normal(size=(len(conn), 8, 3, 3))
        dNdX = rng.normal(size=(len(conn), 8, 8, 3))
        wdet = rng.random((len(conn), 8))
        f = fem.internal_forces(P, dNdX, wdet, conn, m)
        ref = oracles.internal_forces_add_at(P, dNdX, wdet, conn, m)
        assert f.shape == (m, 3)
        np.testing.assert_array_equal(_bits(f), _bits(ref))


def _box_with_dirichlet_sides():
    mesh = macro.box_mesh((1.0, 1.0, 1.0), (3, 2, 2))
    fixed = np.zeros((mesh.n_nodes, 3), dtype=bool)
    fixed[mesh.node_sets["x1min"]] = True
    fixed[mesh.node_sets["x1max"], 0] = True
    return fem.HexGrid(mesh.element_coords(), mesh.conn, mesh.n_nodes), ~fixed


def _periodic_cell():
    cell = hom.VoxelHomogenizer(helpers.layered_rve(3, 0.34))
    return cell.grid, cell.free.mask


@pytest.mark.parametrize("case", [_box_with_dirichlet_sides, _periodic_cell],
                         ids=["box", "periodic-cell"])
def test_free_dof_restriction_gives_the_bytes_of_two_slices(case):
    grid, mask = case()
    free = fem.FreeDofs(grid.pattern, mask)
    F, T, L = _random_point_state(rng0(14), grid.wdet.shape)
    A = fem.nominal_stress_operator(F, T, L)
    K = fem.tangent_matrix(A, grid.dNdX, grid.wdet, grid.pattern)
    K.data[::7] = 0.0   # explicit zeros stay entries in both
    mask = mask.reshape(-1)
    got, want = free.restrict(K), K[mask][:, mask].tocsc()
    assert got.format == "csc" and got.shape == want.shape
    np.testing.assert_array_equal(_bits(got.data), _bits(want.data))
    for name in ("indices", "indptr"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    # canonical, so spsolve's sum_duplicates never writes to shared arrays
    assert got.has_canonical_format


@pytest.mark.parametrize("columns", [(), (9,)], ids=["vector", "nine"])
@pytest.mark.parametrize("case", [_box_with_dirichlet_sides, _periodic_cell],
                         ids=["box", "periodic-cell"])
def test_free_dof_solve_is_the_two_slice_spsolve_in_zeros(case, columns):
    grid, mask = case()
    free = fem.FreeDofs(grid.pattern, mask)
    rng = rng0(15)
    F, T, L = _random_point_state(rng, grid.wdet.shape)
    # a positive definite material tangent keeps the restricted K regular
    L = L + 50.0 * np.eye(6)
    A = fem.nominal_stress_operator(F, T, L)
    K = fem.tangent_matrix(A, grid.dNdX, grid.wdet, grid.pattern)
    rhs = rng.normal(size=(K.shape[0],) + columns)
    mask = mask.reshape(-1)
    want = np.zeros(rhs.shape)
    want[mask] = fem.spla.spsolve(K[mask][:, mask].tocsc(), rhs[mask],
                                  "MMD_AT_PLUS_A")
    got = free.solve(K, rhs)
    assert got.shape == rhs.shape
    np.testing.assert_array_equal(_bits(got), _bits(want))
    assert np.all(got[~mask] == 0.0) and np.all(np.isfinite(got))


def test_nominal_stress_operator_single_point():
    F, T, L = _random_point_state(rng0(11), ())
    A = fem.nominal_stress_operator(F, T, L)
    assert A.shape == (3, 3, 3, 3)
    assert _rel(A, oracles.nominal_stress_operator_einsum(F, T, L)) <= 1e-13


def test_stiffness_is_the_derivative_of_internal_forces():
    mesh = macro.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    model, M = helpers.random_model(rng0(12), growth=True)

    def pointwise(F):
        C = tensors.right_cauchy_green(F)
        return (surrogate.model_stress(model, C, M)[0],
                surrogate.model_tangent(model, C, M))

    dNdX, wdet = fem.element_gradients(mesh.element_coords())
    pattern = fem.StiffnessPattern(mesh.conn, mesh.n_nodes)
    u0 = 0.05 * rng0(13).normal(size=(mesh.n_nodes, 3))

    def forces(u):
        F = fem.deformation_gradients(u[mesh.conn], dNdX)
        T, _ = pointwise(F)
        return fem.internal_forces(F @ T, dNdX, wdet, mesh.conn,
                                   mesh.n_nodes).reshape(-1)

    F = fem.deformation_gradients(u0[mesh.conn], dNdX)
    T, tang = pointwise(F)
    K = fem.tangent_matrix(fem.nominal_stress_operator(F, T, tang), dNdX, wdet,
                           pattern).toarray()
    h = 1e-6
    K_fd = np.empty_like(K)
    for d in range(K.shape[1]):
        du = np.zeros(K.shape[1])
        du[d] = h
        K_fd[:, d] = (forces(u0 + du.reshape(-1, 3))
                      - forces(u0 - du.reshape(-1, 3))) / (2.0 * h)
    assert _rel(K, K_fd) <= 1e-6
    assert _rel(K, K.T) <= 1e-12


def test_newton_raises_without_solving_an_update_it_cannot_check(monkeypatch):
    # a tangent 1000 times too stiff shrinks the residual by about 0.1% per
    # update, so three residuals never reach the tolerance
    mesh = macro.box_mesh((1.0, 1.0, 1.0), (2, 1, 1))
    grid = fem.HexGrid(mesh.element_coords(), mesh.conn, mesh.n_nodes)
    u = np.zeros((mesh.n_nodes, 3))
    u[mesh.node_sets["x1max"], 0] = 0.1
    free = np.ones((mesh.n_nodes, 3), dtype=bool)
    free[mesh.node_sets["x1min"]] = False
    free[mesh.node_sets["x1max"]] = False
    stiff = helpers.law(helpers.svk_stress, lambda C: 1e3 * helpers.svk_tangent(C))
    solves = []
    spsolve = fem.spla.spsolve
    monkeypatch.setattr(fem.spla, "spsolve",
                        lambda *a, **k: solves.append(1) or spsolve(*a, **k))
    with pytest.raises(NewtonDivergence, match="no convergence in 3 iterations"):
        grid.newton(u, stiff, fem.FreeDofs(grid.pattern, free), 1e-10, 3)
    assert len(solves) == 2


# --- load ramp ----------------------------------------------------------------

def _toy_ramp(n_steps, diverge=(), max_cutbacks=3, step=None,
              load=lambda t: np.array([t, 2.0 * t])):
    """``fem.ramp`` on a toy problem whose answer is u = g = load(t).

    The attempts listed in ``diverge`` (counted from 0) raise.  Returns the
    (t, g, u_start) of every attempt and a generator of the ramp's yields.
    """
    attempts = []

    def attempt(g, u_start):
        attempts.append((g[0], g, u_start))
        if len(attempts) - 1 in diverge:
            raise NewtonDivergence("injected")
        return (g.copy(), "out")

    return attempts, fem.ramp(attempt, load, np.zeros(2), n_steps, step,
                              max_cutbacks)


def _projection(g, g_last, dg):
    return np.vdot(g - g_last, dg) / np.vdot(dg, dg)


def test_the_ramp_predicts_each_start_along_the_increment_before():
    # a load that bends, so alpha is not the ratio of the increments
    attempts, ramp = _toy_ramp(4, load=lambda t: np.array([t, t * t]))
    yields = list(ramp)
    assert [t for t, _, _ in yields] == [0.25, 0.5, 0.75, 1.0]
    assert [out[1] for _, out, _ in yields] == ["out"] * 4
    # the first increment starts plain, every later one from the prediction
    assert [a[0] for a in attempts] == [0.25, 0.5, 0.75, 1.0]
    np.testing.assert_array_equal(attempts[0][2], 0.0)
    loads = [np.zeros(2)] + [a[1] for a in attempts]
    for k in range(1, 4):
        g, g_last, dg = loads[k + 1], loads[k], loads[k] - loads[k - 1]
        np.testing.assert_array_equal(yields[k - 1][2][0], dg)
        np.testing.assert_array_equal(
            attempts[k][2], g_last + _projection(g, g_last, dg) * dg)


def test_the_ramp_predicts_the_first_start_along_a_given_step():
    step = (np.array([1.0, 0.0]), np.array([2.0, 2.0]))
    attempts, ramp = _toy_ramp(2, step=step)
    next(ramp)
    # alpha = <(0.5, 1), (1, 0)> / <(1, 0), (1, 0)> = 0.5
    np.testing.assert_array_equal(attempts[0][2], [1.0, 1.0])


def test_a_diverged_prediction_reruns_from_the_converged_state():
    attempts, ramp = _toy_ramp(2, diverge={1})
    yields = list(ramp)
    assert [t for t, _, _ in yields] == [0.5, 1.0]
    assert [a[0] for a in attempts] == [0.5, 1.0, 1.0]
    assert attempts[2][2] is yields[0][1][0]
    np.testing.assert_array_equal(yields[1][2][1], yields[1][2][0])


def test_a_double_divergence_halves_the_rest_of_the_ramp():
    # attempts 1 and 2 are the predicted and the plain start of t = 0.5
    attempts, ramp = _toy_ramp(4, diverge={1, 2})
    assert [t for t, _, _ in ramp] == [0.25, 0.375, 0.5, 0.625, 0.75,
                                       0.875, 1.0]
    assert [a[0] for a in attempts[:4]] == [0.25, 0.5, 0.5, 0.375]
    # after the cutback the prediction is half the increment before
    g_last = attempts[0][1]
    assert _projection(attempts[3][1], g_last, g_last) == 0.5
    np.testing.assert_array_equal(attempts[3][2], 1.5 * g_last)


def test_the_cutback_budget_counts_over_the_whole_ramp():
    # t = 0.5 diverges twice (one cutback), then t = 0.5 again: attempts 4, 5
    attempts, ramp = _toy_ramp(4, diverge={1, 2, 4, 5}, max_cutbacks=1)
    done = []
    with pytest.raises(NewtonDivergence, match="t=0.5 diverged after 1 cutbacks"):
        for t, _, _ in ramp:
            done.append(t)
    assert done == [0.25, 0.375]
    assert [a[0] for a in attempts] == [0.25, 0.5, 0.5, 0.375, 0.5, 0.5]


@pytest.mark.parametrize("n_steps", [0, -2])
def test_a_ramp_needs_at_least_one_increment(n_steps):
    _, ramp = _toy_ramp(n_steps)
    with pytest.raises(ValueError, match="n_steps"):
        next(ramp)

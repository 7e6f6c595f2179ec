"""Element kernels of the hexahedral solvers against index-contraction references."""

import numpy as np
import pytest

import helpers
import oracles
from matmine import fem, homogenization as hom
from matmine import macro, surrogate, tensors
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
    cell = hom.VoxelHomogenizer(helpers.homogeneous_rve(n))
    return cell.grid.coords, cell.grid.conn, cell.n_nodes


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
        return (surrogate.model_stress(model, C, M),
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
    stiff = (helpers.svk_stress, lambda C: 1e3 * helpers.svk_tangent(C))
    solves = []
    spsolve = fem.spla.spsolve
    monkeypatch.setattr(fem.spla, "spsolve",
                        lambda *a, **k: solves.append(1) or spsolve(*a, **k))
    with pytest.raises(NewtonDivergence, match="no convergence in 3 iterations"):
        grid.newton(u, *stiff, free.reshape(-1), 1e-10, 3)
    assert len(solves) == 2

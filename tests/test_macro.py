"""Meshes, boundary conditions and the macroscopic Newton solver."""

import itertools

import numpy as np
import pytest

from matmine import fem, homogenization as hom
from matmine import macro, surrogate
from matmine.errors import FirstStepDivergence, NewtonDivergence, UnknownGeometry

import helpers
from helpers import SVK

# --- meshes ------------------------------------------------------------------

def test_box_mesh_counts_and_named_sets():
    mesh = macro.box_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    assert mesh.n_nodes == 27
    assert mesh.n_elements == 8
    for name in ("x1min", "x1max", "x2min", "x2max", "x3min", "x3max"):
        assert len(mesh.node_sets[name]) == 9
        assert len(mesh.face_sets[name]) == 4
    assert len(mesh.node_sets["boundary"]) == 26


def test_box_mesh_positive_volumes():
    mesh = macro.box_mesh((2.0, 1.0, 0.5), (4, 3, 2))
    _, wdet = fem.element_gradients(mesh.element_coords())
    np.testing.assert_allclose(wdet.sum(), 1.0)


def test_cuboid_hole_carves_center():
    prob = macro.builtin_geometry("cuboid-hole")
    centroids = prob.mesh.nodes[prob.mesh.conn].mean(axis=1)
    d = np.linalg.norm(centroids[:, :2] - 50.0, axis=1)
    assert np.all(d >= 30.0)
    assert 0 < prob.mesh.n_elements < 128
    assert prob.n_steps == 15
    np.testing.assert_array_equal(prob.fiber_axis, [1.0, 0.0, 0.0])


def test_torsion_and_cook_problems_build():
    tor = macro.builtin_geometry("torsion-bar")
    assert tor.mesh.n_elements > 0
    assert any(isinstance(bc, macro.RotationRamp) for bc in tor.bcs)
    cook = macro.builtin_geometry("cook-membrane")
    assert cook.n_steps == 25
    assert any(isinstance(bc, macro.TractionRamp) for bc in cook.bcs)
    np.testing.assert_allclose(np.linalg.norm(cook.fiber_axis), 1.0)
    # tapered interior: all Jacobians positive
    fem.element_gradients(cook.mesh.element_coords())


def test_unknown_geometry_raises():
    with pytest.raises(UnknownGeometry):
        macro.builtin_geometry("moebius-strip")


# --- boundary conditions -------------------------------------------------------

def test_rotation_ramp_is_rigid_on_the_face():
    prob = macro.builtin_geometry("torsion-bar")
    bc = next(b for b in prob.bcs if isinstance(b, macro.RotationRamp))
    nodes, values, mask = bc.constraints(1.0, prob.mesh)
    assert mask.all()
    X = prob.mesh.nodes[nodes]
    moved = X + values
    rel0 = X - np.asarray(bc.origin)
    rel1 = moved - np.asarray(bc.origin)
    np.testing.assert_allclose(np.linalg.norm(rel1, axis=1),
                               np.linalg.norm(rel0, axis=1), atol=1e-12)
    np.testing.assert_allclose(rel1[:, 0], rel0[:, 0], atol=1e-12)


def test_traction_loads_sum_to_resultant():
    prob = macro.builtin_geometry("cook-membrane")
    bc = next(b for b in prob.bcs if isinstance(b, macro.TractionRamp))
    f = bc.nodal_forces(1.0, prob.mesh)
    area = 16.0 * 10.0
    np.testing.assert_allclose(f.sum(axis=0), [0.0, 0.5 * area, 0.0],
                               rtol=1e-12, atol=1e-12)
    loaded = prob.mesh.node_sets["x1max"]
    others = np.setdiff1d(np.arange(prob.mesh.n_nodes), loaded)
    assert np.all(f[others] == 0.0)


# --- solver -------------------------------------------------------------------

def test_patch_test_affine_field_is_exact():
    mesh = macro.box_mesh((2.0, 1.0, 1.0), (3, 2, 2))
    H = np.array([[0.08, 0.03, 0.0],
                  [0.02, -0.05, 0.04],
                  [0.0, 0.01, 0.06]])
    bcs = (helpers.AffineRamp("boundary", tuple(H.reshape(-1))),)
    state = macro.solve_macro(mesh, bcs, SVK, n_steps=1, rel_tol=1e-13)
    F_expected = np.eye(3) + H
    err = np.abs(state.steps[-1].F_qp - F_expected).max()
    assert err < 1e-11


def test_zero_load_keeps_identity_when_reference_is_stress_free():
    mesh = macro.box_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    bcs = (macro.DisplacementRamp("x1min", (0.0, 0.0, 0.0)),
           macro.DisplacementRamp("x1max", (0.0, 0.0, 0.0)))
    state = macro.solve_macro(mesh, bcs, SVK, n_steps=2)
    assert state.completed
    for rec in state.steps:
        np.testing.assert_array_equal(rec.u, 0.0)
        np.testing.assert_array_equal(rec.F_qp,
                                      np.broadcast_to(np.eye(3), rec.F_qp.shape))


def _uniaxial_bar(stretch, n_steps):
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
    return macro.solve_macro(mesh, bcs, SVK, n_steps=n_steps)


def test_homogeneous_bar_matches_material_point_driver():
    stretch, n_steps = 1.25, 5
    state = _uniaxial_bar(stretch, n_steps)
    assert state.completed
    path = hom.drive_material_point(helpers.svk_nominal,
                                    hom.uniaxial_case(0, stretch),
                                    n_steps=n_steps,
                                    force_scale=helpers.LAME_MU)
    assert len(state.steps) == n_steps + 1
    for rec, k in zip(state.steps, range(n_steps + 1)):
        P_fe = rec.P_qp.reshape(-1, 3, 3)
        np.testing.assert_allclose(P_fe, np.broadcast_to(P_fe[0], P_fe.shape),
                                   atol=1e-6)  # homogeneous
        if k:
            assert rec.P_qp[0, 0, 0, 0] == pytest.approx(path.P[k][0, 0],
                                                         rel=1e-2)
            assert rec.F_qp[0, 0, 1, 1] == pytest.approx(path.F[k][1, 1],
                                                         rel=1e-2)


def test_newton_converges_quadratically_on_homogeneous_problem():
    # moderate single increment: small enough that the normalized quadratic
    # constant sits below 0.1, large enough for four Newton iterations
    state = _uniaxial_bar(1.015, 1)
    res = np.array(state.steps[-1].residuals)
    assert len(res) >= 3
    rho = res / res[0]
    assert rho[-1] <= 0.1 * rho[-2] ** 2


def test_first_step_divergence_and_partial_state():
    mesh = macro.box_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    bcs = (macro.DisplacementRamp("x1min", (0.0, 0.0, 0.0)),
           macro.DisplacementRamp("x1max", (0.4, 0.0, 0.0)))

    def broken_everywhere(C):
        return helpers.svk_stress(C) + 1e6

    with pytest.raises(FirstStepDivergence):
        macro.solve_macro(mesh, bcs, (broken_everywhere, helpers.svk_tangent),
                          n_steps=4, max_newton=4, max_cutbacks=2)

    def breaks_past_halfway(C):
        T = helpers.svk_stress(C)
        if np.max(np.abs(C - np.eye(3))) > 0.44:   # a stretch of 1.2
            T = T + 1e6
        return T

    state = macro.solve_macro(mesh, bcs,
                              (breaks_past_halfway, helpers.svk_tangent),
                              n_steps=4, max_newton=6, max_cutbacks=2)
    assert not state.completed
    assert 0.0 < state.t_end < 1.0


def _diverging_on(monkeypatch, attempts):
    """Make the listed Newton attempts of a solve (counted from 0) diverge."""
    newton = fem.HexGrid.newton
    count = itertools.count()

    def flaky(self, *args, **kwargs):
        if next(count) in attempts:
            raise NewtonDivergence("injected")
        return newton(self, *args, **kwargs)

    monkeypatch.setattr(fem.HexGrid, "newton", flaky)


def _stretch_box():
    mesh = macro.box_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    return mesh, (macro.DisplacementRamp("x1min", (0.0, 0.0, 0.0)),
                  macro.DisplacementRamp("x1max", (0.1, 0.0, 0.0)))


def test_a_cutback_halves_every_later_increment(monkeypatch):
    _diverging_on(monkeypatch, {1})
    state = macro.solve_macro(*_stretch_box(), SVK, n_steps=4, max_cutbacks=1)
    assert state.completed
    assert np.diff([rec.t for rec in state.steps]).tolist() == [0.25] + [0.125] * 6


def test_the_cutback_budget_covers_the_whole_solve(monkeypatch):
    # attempt 1 (t = 0.5) diverges and is retried at t = 0.375; attempt 3
    # (t = 0.5 again) is the second divergence of the solve
    _diverging_on(monkeypatch, {1, 3})
    state = macro.solve_macro(*_stretch_box(), SVK, n_steps=4, max_cutbacks=1)
    assert not state.completed
    assert [rec.t for rec in state.steps] == [0.0, 0.25, 0.375]


def test_macro_ordering_leaves_the_solution_unchanged(monkeypatch):
    mesh, bcs = _stretch_box()
    symmetric = macro.solve_macro(mesh, bcs, SVK, n_steps=2)
    calls = helpers.force_colamd(monkeypatch)
    colamd = macro.solve_macro(mesh, bcs, SVK, n_steps=2)
    assert len(calls) == sum(rec.iterations for rec in colamd.steps) > 0
    u_sym, u_col = symmetric.steps[-1].u, colamd.steps[-1].u
    np.testing.assert_allclose(u_sym, u_col, rtol=0.0,
                               atol=1e-10 * np.abs(u_col).max())


def test_surrogate_model_drives_the_solver():
    model = helpers.one_neuron_model()
    # by construction this network is exactly stress free at the identity
    np.testing.assert_array_equal(
        surrogate.model_stress(model, np.eye(3)), np.zeros((3, 3)))
    mesh = macro.box_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    bcs = (macro.DisplacementRamp("x1min", (0.0, 0.0, 0.0)),
           macro.DisplacementRamp("x1max", (0.05, 0.0, 0.0)))
    state = macro.solve_macro(mesh, bcs,
                              macro.surrogate_law(model, (0.0, 0.0, 1.0)),
                              n_steps=2, shear_scale=60.0)
    assert state.completed
    F = state.steps[-1].F_qp
    assert np.all(np.linalg.det(F) > 0)
    assert F[..., 0, 0].max() > 1.01


# --- capture and persistence ---------------------------------------------------

def test_collect_deformations_layout():
    state = _uniaxial_bar(1.1, 3)
    paths, times = macro.collect_deformations(state)
    assert paths.shape == (16 * 8, 4, 3, 3)
    np.testing.assert_array_equal(times, [0.0, 1 / 3, 2 / 3, 1.0])
    np.testing.assert_array_equal(paths[:, 0], np.broadcast_to(np.eye(3), (128, 3, 3)))
    # point p = element*8 + q matches the raw step arrays
    np.testing.assert_array_equal(paths[13, 2], state.steps[2].F_qp[1, 5])


def test_state_roundtrip_and_vtk_export(tmp_path):
    state = _uniaxial_bar(1.15, 2)
    mesh = macro.box_mesh((2.0, 1.0, 1.0), (4, 2, 2))
    out = tmp_path / "bar.npz"
    macro.save_state(state, mesh, out, meta={"geometry": "bar"})
    loaded, mesh2, meta = macro.load_state(out)
    assert meta == {"geometry": "bar"}
    assert loaded.t_end == state.t_end
    np.testing.assert_array_equal(mesh2.nodes, mesh.nodes)
    np.testing.assert_array_equal(loaded.steps[-1].F_qp, state.steps[-1].F_qp)
    vtk = tmp_path / "bar.vtk"
    macro.export_vtk(state, mesh, vtk)
    text = vtk.read_text()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert "VECTORS displacement double" in text
    assert "TENSORS nominal_stress double" in text

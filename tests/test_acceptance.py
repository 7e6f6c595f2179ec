"""Ten release gates, one test each, with stated tolerances and time budgets.

The heavyweight closed-loop runs are shared through module fixtures: the
cuboid experiment feeds the convergence, warm-start and determinism gates,
and two checks that are not gates (a restart from the converged base closes
at once, and the macro reaction matches a solve with the oracle's law).
"""

import functools
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from matmine import config, data, homogenization as hom
from matmine import macro, materials, mining, surrogate, tensors, training

import helpers
import oracles

FIBER_AXIS = np.array([0.0, 0.0, 1.0])

def _bounded_spd(rng):
    """Random symmetric tensor with eigenvalues uniform in [0.25, 4]."""
    Q = oracles.random_rotation(rng)
    lam = rng.uniform(0.25, 4.0, size=3)
    return (Q * lam) @ Q.T


# --- shared heavyweight runs ---------------------------------------------------


def _mining_rc(geometry):
    return config.load_config(None, overrides={
        ("geometry", "name"): geometry,
        ("training", "restarts"): 4,
        ("training", "max_iterations"): 1500,
        ("training", "seed"): 0,
        ("loop", "n_max"): 10,
    })


def _run_geometry(geometry, dataset, out_dir):
    rc = _mining_rc(geometry)
    problem = config.make_problem(rc)
    oracle = config.make_oracle(rc)
    if dataset is None:
        dataset = config.make_initial_dataset(rc, oracle)
    t0 = time.perf_counter()
    result = mining.run_loop(problem, oracle, dataset, rc.training, rc.loop,
                             out_dir=str(out_dir))
    return SimpleNamespace(result=result, problem=problem, oracle=oracle,
                           rc=rc, wall=time.perf_counter() - t0, out=out_dir)


@pytest.fixture(scope="module")
def cuboid_run(tmp_path_factory):
    return _run_geometry("cuboid-hole", None,
                         tmp_path_factory.mktemp("gate_cuboid"))


@pytest.fixture(scope="module")
def torsion_run(cuboid_run, tmp_path_factory):
    return _run_geometry("torsion-bar", cuboid_run.result.dataset,
                         tmp_path_factory.mktemp("gate_torsion"))


@pytest.fixture(scope="module")
def suite_dataset():
    rc = config.load_config(None)
    return config.make_initial_dataset(rc, config.make_oracle(rc))


# --- the gates ------------------------------------------------------------------


def test_01_derivatives_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    model, M = helpers.random_model(rng, "transverse", n_neurons=15)
    params = materials.MATRIX_RUBBER
    for _ in range(200):
        C = _bounded_spd(rng)

        T = surrogate.model_stress(model, C, M)[0]
        T_fd = 2.0 * oracles.fd_gradient(
            lambda X: surrogate.model_energy(model, X, M), C)
        assert np.abs(T - T_fd).max() <= 1e-5 * max(np.abs(T_fd).max(), 1e-3)

        A = surrogate.model_tangent(model, C, M)
        A_fd = 2.0 * oracles.fd_hessian_mandel(
            lambda X: surrogate.model_stress(model, X, M)[0], C)
        assert np.abs(A - A_fd).max() <= 1e-4 * max(np.abs(A_fd).max(), 1e-3)

        S = materials.ogden_law(C, params)[0]
        S_fd = 2.0 * oracles.fd_gradient(
            lambda X: helpers.ogden_energy_from_C(X, params), C)
        assert np.abs(S - S_fd).max() <= 1e-5 * max(np.abs(S_fd).max(), 1.0)
    wall = time.perf_counter() - t0
    assert wall < 10.0
    print(f"PASS 1: stress/tangent/reference-law derivatives vs central "
          f"differences, 200 states, {wall:.1f}s")


def test_02_energy_symmetries_and_invariant_rotation_map():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    model, M = helpers.random_model(rng, "transverse", n_neurons=15)
    Qs = np.stack([oracles.random_rotation(rng) for _ in range(1000)])
    theta = rng.uniform(0.0, 2.0 * np.pi, 1000)
    c, s = np.cos(theta), np.sin(theta)
    Qa = np.zeros((1000, 3, 3))
    Qa[:, 0, 0], Qa[:, 0, 1] = c, -s
    Qa[:, 1, 0], Qa[:, 1, 1] = s, c
    Qa[:, 2, 2] = 1.0  # rotations about the fiber axis

    for seed in range(3):
        F = oracles.random_defgrad(np.random.default_rng(100 + seed))
        C = tensors.right_cauchy_green(F)
        e0 = surrogate.model_energy(model, C, M)
        scale = max(abs(e0), 1.0)

        CQ = tensors.right_cauchy_green(np.einsum("qij,jk->qik", Qs, F))
        eQ = surrogate.model_energy(model, CQ, M)
        assert np.abs(eQ - e0).max() <= 1e-12 * scale

        C_sym = np.einsum("qji,jk,qkl->qil", Qa, C, Qa)
        e_sym = surrogate.model_energy(model, C_sym, M)
        assert np.abs(e_sym - e0).max() <= 1e-12 * scale

        I0 = tensors.invariants(C, M)
        C_rot = np.einsum("qij,jk,qlk->qil", Qs, C, Qs)
        for q in range(0, 1000, 100):
            M_rot = Qs[q] @ M @ Qs[q].T
            I_rot = tensors.invariants(C_rot[q], M_rot)
            np.testing.assert_allclose(I_rot, I0, rtol=1e-10, atol=1e-12)
    wall = time.perf_counter() - t0
    assert wall < 5.0
    print(f"PASS 2: objectivity and fiber-frame invariance at 1e-12 over "
          f"1000 rotations, invariant rotation map at 1e-10, {wall:.1f}s")


def test_03_trained_energy_is_normalized_and_grows(suite_dataset):
    t0 = time.perf_counter()
    cfg = config.load_config(None).training  # default schedule, seed 0
    constrained, rep_c = training.train(suite_dataset, cfg)
    unconstrained, rep_u = training.train(suite_dataset,
                                          replace(cfg, growth_mode=False))
    M = tensors.structural_tensor(FIBER_AXIS)

    assert surrogate.model_energy(constrained, np.eye(3), M) == 0.0
    T1 = surrogate.model_stress(constrained, np.eye(3), M)[0]
    G0 = materials.MATRIX_RUBBER.initial_shear_modulus
    assert np.linalg.norm(T1) <= 0.01 * G0

    assert surrogate.check_growth_condition(constrained).satisfied
    C_data = tensors.right_cauchy_green(suite_dataset.F)
    hull_max = surrogate.model_energy(constrained, C_data, M).max()
    for lam in (1e-2, 1e2):
        e_vol = surrogate.model_energy(constrained, lam ** 2 * np.eye(3), M)
        assert e_vol > hull_max

    assert rep_c.train_loss >= rep_u.train_loss
    wall = time.perf_counter() - t0
    assert wall < 300.0
    print(f"PASS 3: energy pinned at identity (|T|={np.linalg.norm(T1):.3g} "
          f"kPa), volumetric growth beyond the hull, constrained loss "
          f"{rep_c.train_loss:.4g} >= {rep_u.train_loss:.4g}, {wall:.0f}s")


def test_04_voxel_homogenization_reference_checks(monkeypatch):
    t0 = time.perf_counter()

    cell = helpers.homogeneous_rve(3)
    F_bar = np.array([[1.1, 0.05, 0.0],
                      [0.0, 0.95, 0.02],
                      [0.0, 0.0, 1.03]])
    P_ref = tensors.nominal_stress(
        F_bar, lambda C: materials.ogden_law(C, materials.MATRIX_RUBBER))
    # the solved cell is one node; the uncollapsed 3^3 cell runs a periodic
    # 3D Newton solve
    with monkeypatch.context() as patch:
        patch.setattr(hom, "_voxel_topology", oracles.uncollapsed_voxel_topology)
        uncollapsed = hom.VoxelHomogenizer(cell).solve(F_bar)
    for sol in (hom.VoxelHomogenizer(cell).solve(F_bar), uncollapsed):
        np.testing.assert_allclose(sol.P_bar, P_ref, rtol=1e-8, atol=1e-10)

    layered = helpers.layered_rve(4, 0.5, axis=0)
    lam_bar = 1.15
    sol = hom.VoxelHomogenizer(layered).solve(np.diag([lam_bar, 1.0, 1.0]),
                                              n_steps=2)
    _, _, p11 = oracles.laminate_uniaxial(
        lambda F: helpers.ogden_energy(F, materials.FIBER_STIFF),
        lambda F: helpers.ogden_energy(F, materials.MATRIX_RUBBER),
        0.5, lam_bar)
    assert sol.P_bar[0, 0] == pytest.approx(p11, rel=1e-3)

    two_phase = hom.fiber_rve(6, 0.3, seed=3)
    F_mix = np.eye(3)
    F_mix[2, 2] = 1.12
    F_mix[0, 2] = 0.04
    sols = helpers.cell_path(hom.VoxelHomogenizer(two_phase), F_mix,
                             n_steps=4)
    for prev, curr in zip(sols[:-1], sols[1:]):
        assert helpers.work_rate_mismatch(prev, curr) <= 1e-6

    assert hom.chi_squared([1.0, 3.0]) == 1.0
    samples = hom.apparent_stiffness_samples(8, 0.3, seeds=range(10),
                                             stretch=1.1)
    chi = hom.chi_squared(samples)
    assert np.isfinite(chi) and chi >= 0.0
    wall = time.perf_counter() - t0
    assert wall < 600.0
    print(f"PASS 4: homogeneous cell 1e-8, laminate 1e-3, micro/macro work "
          f"gap <=1e-6, scatter of 10 8^3 cells = {chi:.4g}, {wall:.0f}s")


def test_05_single_term_reference_law_uniaxial_limit():
    t0 = time.perf_counter()
    mu, lam = 80.0, 1.5
    p = materials.OgdenParameters(mu=(mu,), alpha=(2.0,),
                                  kappa=materials.bulk_from_shear(mu, 0.4995))

    def nominal(F):
        return tensors.nominal_stress(F, lambda C: materials.ogden_law(C, p))

    [path] = hom.drive_material_point(nominal, [hom.uniaxial_case(0, lam)],
                                      n_steps=6, force_scale=mu)
    P11 = path.P[-1][0, 0]
    closed = mu * (lam - lam ** -2)
    assert P11 == pytest.approx(closed, rel=0.01)
    wall = time.perf_counter() - t0
    assert wall < 10.0
    print(f"PASS 5: near-incompressible uniaxial stress {P11:.2f} vs closed "
          f"form {closed:.2f} kPa within 1%, {wall:.1f}s")


def test_06_closed_loop_converges_and_validates(cuboid_run):
    r = cuboid_run.result
    assert cuboid_run.problem.mesh.n_elements <= 1000
    assert r.converged
    assert len(r.iterations) <= 10
    assert r.iterations[-1].new_tuples == 0

    paths, times = macro.collect_deformations(r.final_state)
    val = mining.validate_coverage(r.model, r.dataset, paths, times,
                                   cuboid_run.oracle,
                                   cuboid_run.problem.fiber_axis,
                                   cuboid_run.rc.loop.rve_fiber_axis)
    assert val["rel_p95"] <= 0.05
    assert cuboid_run.wall < 1800.0
    print(f"PASS 6: cuboid loop closed in {len(r.iterations)} iterations "
          f"({len(r.dataset)} tuples), stress-error p95 "
          f"{val['rel_p95']:.4f} <= 0.05, {cuboid_run.wall:.0f}s")


def test_07_warm_started_geometries_close_quickly(torsion_run, tmp_path):
    torsion = torsion_run
    assert torsion.result.converged
    assert len(torsion.result.iterations) <= 3
    assert torsion.wall < 1800.0

    cook = _run_geometry("cook-membrane", torsion.result.dataset,
                         tmp_path / "cook")
    assert cook.result.converged
    assert len(cook.result.iterations) <= 3
    assert cook.wall < 1800.0
    print(f"PASS 7: torsion closed in {len(torsion.result.iterations)} and "
          f"membrane in {len(cook.result.iterations)} warm-started "
          f"iterations, {torsion.wall:.0f}s + {cook.wall:.0f}s")


def test_08_detection_and_filter_match_bruteforce():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)

    F_rows = np.stack([oracles.random_defgrad(rng, 0.3) for _ in range(60)])
    ds = data.DataSet(F_rows, np.zeros_like(F_rows), ["init"] * 60,
                      np.zeros(60, dtype=int), np.arange(60),
                      np.zeros(60, dtype=int), np.zeros(60))
    paths = np.empty((50, 6, 3, 3))
    for p in range(50):
        F = np.eye(3)
        paths[p, 0] = F
        for k in range(1, 6):
            F = (np.eye(3) + rng.uniform(-0.08, 0.08, (3, 3))) @ F
            paths[p, k] = F
    times = np.linspace(0.0, 1.0, 6)
    axis = np.array([1.0, 0.0, 0.0])

    detected = mining.detect_new_paths(ds, paths, times, axis, FIBER_AXIS,
                                       eps=0.05)
    known = ds.invariant_values(FIBER_AXIS)
    ranges = mining.coordinate_ranges(known)
    M = tensors.structural_tensor(axis)
    path_inv = [tensors.invariants(tensors.right_cauchy_green(p), M)
                for p in paths]
    want = oracles.detect_bruteforce(path_inv, list(known), ranges, 0.05)
    assert [(d.point_id, d.last_step) for d in detected] == want

    cand = rng.normal(size=(200, 6)) * np.array([3.0, 3.0, 1.0, 0.5, 2.0, 0.2])
    existing = rng.normal(size=(40, 6)) * np.array([3.0, 3.0, 1.0, 0.5, 2.0, 0.2])
    ranges = mining.coordinate_ranges(existing)
    for tol in (0.01, 0.05, 0.3):
        got = mining.filter_candidates(cand, existing, ranges, tol)
        assert got == oracles.filter_bruteforce(cand, existing, ranges, tol)
    wall = time.perf_counter() - t0
    assert wall < 10.0
    print(f"PASS 8: detection on 50 five-step paths and admission filter on "
          f"200 tuples match the quadratic references exactly, {wall:.1f}s")


def test_09_same_seed_reruns_are_bitwise_identical(cuboid_run, tmp_path):
    rerun = _run_geometry("cuboid-hole", None, tmp_path / "rerun")
    assert rerun.result.report_dict() == cuboid_run.result.report_dict()
    for name in ("model.json", "loop_report.json", "kbase.txt"):
        a = (cuboid_run.out / name).read_bytes()
        b = (tmp_path / "rerun" / name).read_bytes()
        assert a == b, f"{name} differs between same-seed runs"
    print("PASS 9: same-seed reruns give identical reports and "
          "byte-identical model, report and dataset files")


def test_restarting_from_the_converged_base_closes_at_once(cuboid_run,
                                                           tmp_path):
    """Not a gate: the loop restarted from the base it converged on finds
    nothing new in its first iteration."""
    restart = _run_geometry("cuboid-hole", cuboid_run.result.dataset, tmp_path)
    assert restart.result.converged
    assert [(r.detected_paths, r.new_tuples)
            for r in restart.result.iterations] == [(0, 0)]
    assert len(restart.result.dataset) == len(cuboid_run.result.dataset)


def _final_and_oracle_law_solves(run):
    """The loop's final macro solve, the same problem solved with the
    analytic oracle's own law, and the indices of their common steps, the
    last of which is t = 1."""
    problem = run.problem
    params = materials.OracleParameters(run.rc.matrix, problem.fiber_axis,
                                        run.rc.oracle.fiber_stiffness)
    ref = macro.solve_macro(problem.mesh, problem.bcs,
                            lambda C: materials.oracle_law(C, params), problem.n_steps)
    state = run.result.final_state
    assert ref.completed and state.completed
    t, k, k_ref = np.intersect1d([s.t for s in state.steps],
                                 [s.t for s in ref.steps], return_indices=True)
    assert t[-1] == 1.0
    return state, ref, k, k_ref


def test_macro_reaction_matches_a_solve_with_the_oracle_law(cuboid_run):
    """Not a gate: the paper's macro validation.  The loop's final solve,
    with its surrogate, against the same problem solved with the analytic
    oracle's own law, the exact reference.  The quantity is the x1 reaction
    on the x1max face per converged step, |R1 - R1_ref| over the largest
    |R1_ref| of the ramp; its bound is 1.2e-3, about twice the 5.7e-4 this
    run measures."""
    state, ref, k, k_ref = _final_and_oracle_law_solves(cuboid_run)
    mesh = cuboid_run.problem.mesh
    R1 = helpers.reaction(state, mesh, "x1max")[k, 0]
    R1_ref = helpers.reaction(ref, mesh, "x1max")[k_ref, 0]
    err = np.abs(R1 - R1_ref).max() / np.abs(R1_ref).max()
    assert err <= 1.2e-3
    print(f"macro x1 reaction error {err:.3g} against the oracle law over "
          f"{len(k) - 1} steps")


def test_macro_torsion_moment_matches_a_solve_with_the_oracle_law(torsion_run):
    """Not a gate: the macro validation of gate 07's warm-started torsion
    bar.  The quantity is the moment about the twist axis (x1, through the
    centre of the x1max face) of the internal forces on the twisted face,
    per converged step, each node's force times its deformed lever arm;
    |M1 - M1_ref| over the largest |M1_ref| of the ramp.  Its bound is
    1.5e-2, about twice the 7.2e-3 this run measures."""
    state, ref, k, k_ref = _final_and_oracle_law_solves(torsion_run)
    mesh = torsion_run.problem.mesh
    [twist] = [bc for bc in torsion_run.problem.bcs
               if isinstance(bc, macro.RotationRamp)]
    M1 = helpers.moment(state, mesh, twist.node_set, twist.origin)[k] @ twist.axis
    M1_ref = helpers.moment(ref, mesh, twist.node_set, twist.origin)[k_ref] @ twist.axis
    err = np.abs(M1 - M1_ref).max() / np.abs(M1_ref).max()
    assert err <= 1.5e-2
    print(f"macro x1 torsion moment error {err:.3g} against the oracle law "
          f"over {len(k) - 1} steps")


def test_10_macro_solver_reference_checks():
    mesh = macro.box_mesh((2.0, 1.0, 1.0), (3, 2, 2))
    H = np.array([[0.08, 0.03, 0.0],
                  [0.02, -0.05, 0.04],
                  [0.0, 0.01, 0.06]])
    state = macro.solve_macro(mesh, (helpers.AffineRamp("boundary",
                                                        tuple(H.reshape(-1))),),
                              helpers.SVK, n_steps=1, rel_tol=1e-13)
    patch_err = np.abs(state.steps[-1].F_qp - (np.eye(3) + H)).max()
    assert patch_err <= 1e-12

    stretch, n_steps = 1.25, 5
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
    state = macro.solve_macro(mesh, bcs, helpers.SVK, n_steps=n_steps)
    assert state.completed

    svk_nominal = functools.partial(tensors.nominal_stress, law=helpers.SVK)
    [path] = hom.drive_material_point(svk_nominal, [hom.uniaxial_case(0, stretch)],
                                      n_steps=n_steps,
                                      force_scale=helpers.LAME_MU)
    for k, rec in enumerate(state.steps):
        if k:
            assert rec.P_qp[0, 0, 0, 0] == pytest.approx(path.P[k][0, 0],
                                                         rel=0.01)
            assert rec.F_qp[0, 0, 1, 1] == pytest.approx(path.F[k][1, 1],
                                                         rel=0.01)

    # small single increment so the terminal iterations sit inside the
    # quadratic basin
    bcs_small = (bcs[0],
                 macro.DisplacementRamp("x1max", (0.015 * 2.0, 0.0, 0.0),
                                        components=(True, False, False)),
                 bcs[2], bcs[3])
    state = macro.solve_macro(mesh, bcs_small, helpers.SVK, n_steps=1)
    res = np.array(state.steps[-1].residuals)
    assert len(res) >= 3
    rho = res / res[0]
    assert rho[-1] <= 0.1 * rho[-2] ** 2
    print(f"PASS 10: affine patch error {patch_err:.2e} <= 1e-12, bar vs "
          f"point driver within 1%, terminal Newton contraction "
          f"{rho[-1]:.2e} <= 0.1 x {rho[-2]:.2e}^2")

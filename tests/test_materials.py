import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matmine import materials, tensors
from matmine.errors import InvalidMaterialParameters, NonPositiveJacobian

import helpers
import oracles

rng0 = np.random.default_rng


class TestParameters:
    def test_presets_match_published_composite(self):
        m = materials.MATRIX_RUBBER
        assert np.isclose(m.initial_shear_modulus, 100.0, rtol=1e-3)
        assert np.isclose(m.kappa, 800.0, rtol=1e-12)
        f = materials.FIBER_STIFF
        assert np.isclose(f.initial_shear_modulus, 1000.0)
        assert np.isclose(f.kappa, 14000.0 / 3.0, rtol=1e-12)

    def test_exponent_band_rejected(self):
        with pytest.raises(InvalidMaterialParameters):
            materials.OgdenParameters(mu=(1.0,), alpha=(1.5,), kappa=1.0)
        with pytest.raises(InvalidMaterialParameters):
            materials.OgdenParameters(mu=(1.0,), alpha=(-0.5,), kappa=1.0)
        # boundary alpha = 2 is allowed, alpha < -1 is allowed
        materials.OgdenParameters(mu=(1.0,), alpha=(2.0,), kappa=1.0)
        materials.OgdenParameters(mu=(-1.0,), alpha=(-2.0,), kappa=1.0)

    def test_sign_pairing_rejected(self):
        with pytest.raises(InvalidMaterialParameters):
            materials.OgdenParameters(mu=(-1.0,), alpha=(2.0,), kappa=1.0)
        with pytest.raises(InvalidMaterialParameters):
            materials.OgdenParameters(mu=(1.0, 1.0), alpha=(2.0,), kappa=1.0)
        with pytest.raises(InvalidMaterialParameters):
            materials.OgdenParameters(mu=(1.0,), alpha=(2.0,), kappa=0.0)

    def test_bulk_from_shear(self):
        assert np.isclose(materials.bulk_from_shear(100.0, 0.44), 800.0)


class TestOgden:
    def test_energy_and_stress_vanish_at_identity(self):
        for p in (materials.MATRIX_RUBBER, materials.FIBER_STIFF):
            assert helpers.ogden_energy(np.eye(3), p) == 0.0
            assert np.all(materials.ogden_law(np.eye(3), p)[0] == 0.0)

    def test_stress_is_energy_gradient(self):
        rng = rng0(10)
        p = materials.MATRIX_RUBBER
        for _ in range(10):
            C = oracles.random_spd(rng)
            T = materials.ogden_law(C, p)[0]
            ref = 2.0 * oracles.fd_gradient(
                lambda X: helpers.ogden_energy_from_C(X, p), C)
            assert np.allclose(T, ref, rtol=0.0, atol=1e-5 * max(1.0, np.abs(ref).max()))

    def test_clustered_and_batched_paths_agree(self):
        rng = rng0(11)
        p = materials.MATRIX_RUBBER
        cases = [oracles.random_defgrad(rng) for _ in range(6)]
        cases += [np.diag([2.0, 2.0, 0.5]), np.diag([1.3, 1.3, 1.3])]
        for F in cases:
            T_scalar = oracles.ogden_stress_principal(F, p)
            T_batch = materials.ogden_law(tensors.right_cauchy_green(F), p)[0]
            assert np.allclose(T_scalar, T_batch, rtol=1e-11, atol=1e-11)
        # near-degenerate pair: the pair's eigenvectors are ill-conditioned,
        # the stress is within O(gap * modulus) of the coalescent one
        gap = 1e-12
        F = np.eye(3) + gap * np.diag([1.0, 0.0, 0.0])
        T_scalar = oracles.ogden_stress_principal(F, p)
        T_batch = materials.ogden_law(tensors.right_cauchy_green(F), p)[0]
        assert np.allclose(T_scalar, T_batch, atol=100.0 * gap * 1e3)

    @pytest.mark.parametrize("params", [materials.MATRIX_RUBBER,
                                        materials.FIBER_STIFF],
                             ids=["matrix", "fiber"])
    def test_spectral_sum_is_bitwise_the_einsum(self, params):
        rng = rng0(13)
        F = np.stack([oracles.random_defgrad(rng) for _ in range(64)])
        Q = oracles.random_rotation(rng)
        double = np.diag([1.44, 1.44, 0.81])
        # a batch, one unbatched C, the identity and a double eigenvalue,
        # axis-aligned and turned
        cases = [tensors.right_cauchy_green(F), tensors.right_cauchy_green(F[0]),
                 np.eye(3), double, Q @ double @ Q.T]
        for C in cases:
            T = materials.ogden_law(C, params)[0]
            ref = oracles.ogden_stress_einsum(C, params)
            assert T.shape == ref.shape
            # equal bytes, signed zeros included
            assert np.array_equal(T, ref) and T.tobytes() == ref.tobytes()

    def test_pure_dilation_is_volumetric_only(self):
        p = materials.MATRIX_RUBBER
        lam = 1.2
        F = lam * np.eye(3)
        J = lam**3
        T = materials.ogden_law(tensors.right_cauchy_green(F), p)[0]
        expected = 0.5 * p.kappa * (J * J - 1.0) / lam**2 * np.eye(3)
        assert np.allclose(T, expected, rtol=1e-12)
        psi = helpers.ogden_energy(F, p)
        assert np.isclose(psi, 0.25 * p.kappa * (J**2 - 2 * np.log(J) - 1), rtol=1e-12)

    def test_small_strain_shear_modulus(self):
        gamma = 1e-6
        F = np.eye(3)
        F[0, 1] = gamma
        for p in (materials.MATRIX_RUBBER, materials.FIBER_STIFF):
            T = materials.ogden_law(tensors.right_cauchy_green(F), p)[0]
            assert np.isclose(T[0, 1], p.initial_shear_modulus * gamma, rtol=1e-4)

    def test_batched_evaluation_matches_loop(self):
        rng = rng0(12)
        p = materials.FIBER_STIFF
        C = np.stack([oracles.random_spd(rng) for _ in range(7)])
        batch = materials.ogden_law(C, p)[0]
        for i in range(7):
            assert np.allclose(batch[i], materials.ogden_law(C[i], p)[0])
        e_batch = helpers.ogden_energy_from_C(C, p)
        for i in range(7):
            assert np.isclose(e_batch[i], helpers.ogden_energy_from_C(C[i], p))

    def test_inverted_state_rejected(self):
        p = materials.FIBER_STIFF
        with pytest.raises(NonPositiveJacobian):
            helpers.ogden_energy(np.diag([1.0, -1.0, 1.0]), p)
        with pytest.raises(NonPositiveJacobian):
            materials.ogden_law(np.diag([1.0, 0.0, 1.0]), p)[0]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_isotropy(self, seed):
        rng = rng0(seed)
        F = oracles.random_defgrad(rng)
        Q = oracles.random_rotation(rng)
        p = materials.MATRIX_RUBBER
        # material frame rotation leaves an isotropic energy unchanged
        assert np.isclose(helpers.ogden_energy(F @ Q, p),
                          helpers.ogden_energy(F, p), rtol=1e-10)


class TestOracle:
    def test_parameter_validation(self):
        with pytest.raises(InvalidMaterialParameters):
            materials.OracleParameters(fiber_stiffness=-1.0)
        with pytest.raises(InvalidMaterialParameters):
            materials.OracleParameters(fiber_axis=(0.0, 0.0, 0.0))
        o = materials.OracleParameters(fiber_axis=(0.0, 0.0, 2.0))
        assert np.allclose(o.fiber_axis, (0.0, 0.0, 1.0))

    def test_law_stress_is_the_ogden_stress_plus_the_fiber_term(self):
        # bitwise, the fiber term added last, on a random batch and at C = I
        rng = rng0(17)
        o = materials.OracleParameters(fiber_axis=(0.3, -0.2, 0.9))
        M = o.structural_tensor
        for C in (np.stack([oracles.random_spd(rng) for _ in range(64)]), np.eye(3)):
            I4 = np.einsum("ij,...ij->...", M, C)
            fiber = 2.0 * o.fiber_stiffness * (I4 - 1.0)[..., None, None] * M
            ref = materials.ogden_law(C, o.matrix)[0] + fiber
            T = materials.oracle_law(C, o)[0]
            assert T.shape == ref.shape and T.tobytes() == ref.tobytes()

    def test_law_tangent_matches_differences_of_its_stress(self):
        C = _tangent_states(rng0(18))
        o = materials.OracleParameters(fiber_axis=(0.3, -0.2, 0.9))
        tang = materials.oracle_law(C, o)[1]()
        ref = materials.stress_tangent_fd(lambda X: materials.oracle_law(X, o)[0], C)
        assert tang.shape == ref.shape == (len(C), 6, 6)
        for t, r in zip(tang, ref):
            np.testing.assert_allclose(t, r, rtol=0.0, atol=1e-7 * np.abs(r).max())

    def test_stress_is_energy_gradient(self):
        rng = rng0(13)
        o = materials.OracleParameters()
        for _ in range(10):
            C = oracles.random_spd(rng)
            T = materials.oracle_law(C, o)[0]
            ref = 2.0 * oracles.fd_gradient(
                lambda X: helpers.oracle_energy_from_C(X, o), C)
            assert np.allclose(T, ref, rtol=0.0, atol=1e-5 * np.abs(ref).max())

    def test_reference_state_stress_free(self):
        o = materials.OracleParameters()
        assert helpers.oracle_energy(np.eye(3), o) == 0.0
        assert np.all(materials.oracle_law(np.eye(3), o)[0] == 0.0)
        assert np.all(materials.oracle_nominal_stress(np.eye(3), o) == 0.0)

    def test_fiber_direction_is_stiffer(self):
        o = materials.OracleParameters(fiber_axis=(0.0, 0.0, 1.0))
        lam = 1.3
        along = np.diag([1.0, 1.0, lam])
        across = np.diag([lam, 1.0, 1.0])
        assert helpers.oracle_energy(along, o) > helpers.oracle_energy(across, o)
        P_along = materials.oracle_nominal_stress(along, o)
        P_across = materials.oracle_nominal_stress(across, o)
        assert P_along[2, 2] > P_across[0, 0]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_transverse_symmetry_about_fiber_axis(self, seed):
        rng = rng0(seed)
        o = materials.OracleParameters(fiber_axis=(0.0, 0.0, 1.0))
        F = oracles.random_defgrad(rng)
        phi = rng.uniform(0.0, 2 * np.pi)
        c, s = np.cos(phi), np.sin(phi)
        Q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        assert np.isclose(helpers.oracle_energy(F @ Q, o),
                          helpers.oracle_energy(F, o), rtol=1e-10)

    def test_nominal_stress_is_work_pair(self):
        rng = rng0(14)
        o = materials.OracleParameters()
        F = oracles.random_defgrad(rng)
        P = materials.oracle_nominal_stress(F, o)
        # dpsi/dF by FD, unsymmetrized perturbations
        h = 1e-7
        ref = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                dF = np.zeros((3, 3))
                dF[i, j] = h
                ref[i, j] = (helpers.oracle_energy(F + dF, o)
                             - helpers.oracle_energy(F - dF, o)) / (2 * h)
        assert np.allclose(P, ref, atol=1e-4 * np.abs(ref).max())


class TestTangentFD:
    def test_matches_independent_fd_and_is_symmetric(self):
        rng = rng0(15)
        o = materials.OracleParameters()
        C = oracles.random_spd(rng)
        tang = materials.stress_tangent_fd(
            lambda X: materials.oracle_law(X, o)[0], C)
        ref = 2.0 * oracles.fd_hessian_mandel(
            lambda X: materials.oracle_law(X, o)[0], C)
        assert np.allclose(tang, ref, rtol=0.0, atol=1e-3 * np.abs(ref).max())
        assert np.allclose(tang, tang.T, atol=1e-6 * np.abs(tang).max())

    def test_batched(self):
        rng = rng0(16)
        p = materials.MATRIX_RUBBER
        C = np.stack([oracles.random_spd(rng) for _ in range(4)])
        tang = materials.stress_tangent_fd(
            lambda X: materials.ogden_law(X, p)[0], C)
        assert tang.shape == (4, 6, 6)
        for i in range(4):
            single = materials.stress_tangent_fd(
                lambda X: materials.ogden_law(X, p)[0], C[i])
            assert np.allclose(tang[i], single, rtol=1e-10, atol=1e-8)

    @pytest.mark.parametrize("law", ["ogden", "oracle", "principal"])
    @pytest.mark.parametrize("shape", [(), (4,), (2, 3)],
                             ids=["3x3", "4x3x3", "2x3x3x3"])
    def test_one_stacked_call_is_bitwise_the_column_loop(self, law, shape):
        # near-coalescent states: a triple within one step, C = I, a double
        # eigenvalue, and gaps of 0.5, 1 and 2 steps
        states = _tangent_states(rng0(19))
        pick = {(): [24], (4,): [16, 17, 18, 19], (2, 3): [0, 20, 21, 22, 23, 24]}[shape]
        C = states[pick].reshape(shape + (3, 3))
        stress = {
            "ogden": lambda X: materials.ogden_law(X, materials.MATRIX_RUBBER)[0],
            "oracle": lambda X: materials.oracle_law(X, materials.OracleParameters())[0],
            "principal": lambda X: materials._principal_stresses(X, materials.MATRIX_RUBBER),
        }[law]
        if law == "principal":
            C = np.linalg.eigvalsh(C)[..., :, None] * np.eye(3)
        calls = []
        tang = materials.stress_tangent_fd(
            lambda X: calls.append(X.shape) or stress(X), C)
        assert calls == [(12,) + C.shape]
        ref = oracles.stress_tangent_fd_columns(stress, C)
        assert tang.shape == ref.shape == shape + (6, 6)
        assert tang.tobytes() == ref.tobytes()


def _tangent_states(rng):
    """Random SPD states plus the coalescent cases near and at C = I."""
    Q = oracles.random_rotation(rng)
    noise = 1e-9 * rng.normal(size=(3, 3))
    states = [oracles.random_spd(rng) for _ in range(16)]
    states += [np.eye(3), 1.21 * np.eye(3),
               np.diag([1.3, 0.8, 0.8]), Q @ np.diag([1.3, 0.8, 0.8]) @ Q.T,
               np.eye(3) + noise + noise.T]
    # eigenvalue gaps of 0.5, 1 and 2 difference steps, where the shear
    # block switches to its coalescent limit, and a triple within one step;
    # the step is 1e-6 tr(C)/3, and tr(C)/3 = 1 for these four
    step = 1e-6
    states += [Q @ np.diag([1.2, 1.2 + k * step, 0.6]) @ Q.T for k in (0.5, 1.0, 2.0)]
    states += [Q @ np.diag([1.0, 1.0 + 0.5 * step, 1.0 - 0.5 * step]) @ Q.T]
    return np.stack(states)


class TestPrincipalFrameTangent:
    @pytest.mark.parametrize("params", [materials.MATRIX_RUBBER,
                                        materials.FIBER_STIFF],
                             ids=["matrix", "fiber"])
    def test_matches_the_lab_frame_fd(self, params):
        C = _tangent_states(rng0(21))
        tang = materials.ogden_law(C, params)[1]()
        ref = oracles.ogden_tangent_lab_fd(C, params)
        assert tang.shape == ref.shape == (len(C), 6, 6)
        for t, r in zip(tang, ref):
            np.testing.assert_allclose(t, r, rtol=0.0, atol=1e-7 * np.abs(r).max())

    def test_symmetric_and_batched_equals_single(self):
        C = _tangent_states(rng0(22))
        p = materials.MATRIX_RUBBER
        tang = materials.ogden_law(C, p)[1]()
        np.testing.assert_array_equal(tang, np.swapaxes(tang, -1, -2))
        for i in (0, 7, len(C) - 1):
            single = materials.ogden_law(C[i], p)[1]()
            assert single.shape == (6, 6)
            np.testing.assert_allclose(tang[i], single, rtol=0.0,
                                       atol=1e-12 * np.abs(single).max())

    def test_non_spd_state_rejected(self):
        C = np.stack([np.eye(3), np.diag([1.1, -0.2, 0.9])])
        with pytest.raises(NonPositiveJacobian):
            materials.ogden_law(C, materials.MATRIX_RUBBER)[1]()

    def test_a_perturbed_eigenvalue_at_or_below_zero_rejected(self):
        # the difference step 1e-6 tr(C)/3 exceeds the smallest eigenvalue
        C = np.stack([np.eye(3), np.diag([4e-7, 1.0, 1.0])])
        T, tangent = materials.ogden_law(C, materials.MATRIX_RUBBER)
        assert np.isfinite(T).all()
        with pytest.raises(NonPositiveJacobian):
            tangent()

    @pytest.mark.parametrize("params", [materials.MATRIX_RUBBER,
                                        materials.FIBER_STIFF],
                             ids=["matrix", "fiber"])
    def test_normal_and_shear_blocks_do_not_couple(self, params):
        # in C's principal frame: the normal block differenced, the shear
        # block diagonal, every entry between them exactly zero
        lam2 = np.linalg.eigvalsh(_tangent_states(rng0(24)))
        lam, J = materials._stretches(lam2)
        beta = materials._ogden_coefficients(lam2, lam, J, params)
        tang = materials._principal_frame_tangent(
            lam2, np.broadcast_to(np.eye(3), lam2.shape + (3,)), beta, params)
        np.testing.assert_array_equal(tang[:, :3, 3:], 0.0)
        np.testing.assert_array_equal(tang[:, 3:, :3], 0.0)
        shear = tang[:, 3:, 3:]
        np.testing.assert_array_equal(shear, shear * np.eye(3))


class TestOgdenLaw:
    @pytest.mark.parametrize("params", [materials.MATRIX_RUBBER,
                                        materials.FIBER_STIFF],
                             ids=["matrix", "fiber"])
    @pytest.mark.parametrize("state", ["random", "identity", "double"])
    def test_is_bitwise_the_stress_and_the_tangent(self, params, state):
        # the stress bitwise; the tangent against the lab-frame differences
        # at TestPrincipalFrameTangent's tolerance
        rng = rng0(25)
        Q = oracles.random_rotation(rng)
        C = {"random": np.stack([oracles.random_spd(rng) for _ in range(16)]),
             "identity": np.eye(3),
             "double": Q @ np.diag([1.3, 0.8, 0.8]) @ Q.T}[state]
        T, tangent = materials.ogden_law(C, params)
        np.testing.assert_array_equal(T, oracles.ogden_stress_einsum(C, params))
        tang, ref = tangent(), oracles.ogden_tangent_lab_fd(C, params)
        assert tang.shape == ref.shape
        for t, r in zip(tang.reshape(-1, 6, 6), ref.reshape(-1, 6, 6)):
            np.testing.assert_allclose(t, r, rtol=0.0, atol=1e-7 * np.abs(r).max())

    def test_decomposes_C_once(self, monkeypatch):
        eighs = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda C: eighs.append(1) or eigh(C))
        T, tangent = materials.ogden_law(_tangent_states(rng0(26)),
                                         materials.MATRIX_RUBBER)
        tangent()
        assert len(eighs) == 1

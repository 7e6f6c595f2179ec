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
            assert np.all(materials.ogden_stress_from_C(np.eye(3), p) == 0.0)

    def test_stress_is_energy_gradient(self):
        rng = rng0(10)
        p = materials.MATRIX_RUBBER
        for _ in range(10):
            C = oracles.random_spd(rng)
            T = materials.ogden_stress_from_C(C, p)
            ref = 2.0 * oracles.fd_gradient(
                lambda X: materials.ogden_energy_from_C(X, p), C)
            assert np.allclose(T, ref, rtol=0.0, atol=1e-5 * max(1.0, np.abs(ref).max()))

    def test_clustered_and_batched_paths_agree(self):
        rng = rng0(11)
        p = materials.MATRIX_RUBBER
        cases = [oracles.random_defgrad(rng) for _ in range(6)]
        cases += [np.diag([2.0, 2.0, 0.5]), np.diag([1.3, 1.3, 1.3])]
        for F in cases:
            T_scalar = oracles.ogden_stress_principal(F, p)
            T_batch = materials.ogden_stress_from_C(tensors.right_cauchy_green(F), p)
            assert np.allclose(T_scalar, T_batch, rtol=1e-11, atol=1e-11)
        # near-degenerate pair: the pair's eigenvectors are ill-conditioned,
        # the stress is within O(gap * modulus) of the coalescent one
        gap = 1e-12
        F = np.eye(3) + gap * np.diag([1.0, 0.0, 0.0])
        T_scalar = oracles.ogden_stress_principal(F, p)
        T_batch = materials.ogden_stress_from_C(tensors.right_cauchy_green(F), p)
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
            T = materials.ogden_stress_from_C(C, params)
            ref = oracles.ogden_stress_einsum(C, params)
            assert T.shape == ref.shape
            # equal bytes, signed zeros included
            assert np.array_equal(T, ref) and T.tobytes() == ref.tobytes()

    def test_pure_dilation_is_volumetric_only(self):
        p = materials.MATRIX_RUBBER
        lam = 1.2
        F = lam * np.eye(3)
        J = lam**3
        T = materials.ogden_stress_from_C(tensors.right_cauchy_green(F), p)
        expected = 0.5 * p.kappa * (J * J - 1.0) / lam**2 * np.eye(3)
        assert np.allclose(T, expected, rtol=1e-12)
        psi = helpers.ogden_energy(F, p)
        assert np.isclose(psi, 0.25 * p.kappa * (J**2 - 2 * np.log(J) - 1), rtol=1e-12)

    def test_small_strain_shear_modulus(self):
        gamma = 1e-6
        F = np.eye(3)
        F[0, 1] = gamma
        for p in (materials.MATRIX_RUBBER, materials.FIBER_STIFF):
            T = materials.ogden_stress_from_C(tensors.right_cauchy_green(F), p)
            assert np.isclose(T[0, 1], p.initial_shear_modulus * gamma, rtol=1e-4)

    def test_batched_evaluation_matches_loop(self):
        rng = rng0(12)
        p = materials.FIBER_STIFF
        C = np.stack([oracles.random_spd(rng) for _ in range(7)])
        batch = materials.ogden_stress_from_C(C, p)
        for i in range(7):
            assert np.allclose(batch[i], materials.ogden_stress_from_C(C[i], p))
        e_batch = materials.ogden_energy_from_C(C, p)
        for i in range(7):
            assert np.isclose(e_batch[i], materials.ogden_energy_from_C(C[i], p))

    def test_inverted_state_rejected(self):
        p = materials.FIBER_STIFF
        with pytest.raises(NonPositiveJacobian):
            helpers.ogden_energy(np.diag([1.0, -1.0, 1.0]), p)
        with pytest.raises(NonPositiveJacobian):
            materials.ogden_stress_from_C(np.diag([1.0, 0.0, 1.0]), p)

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

    def test_stress_is_energy_gradient(self):
        rng = rng0(13)
        o = materials.OracleParameters()
        for _ in range(10):
            C = oracles.random_spd(rng)
            T = materials.oracle_stress_from_C(C, o)
            ref = 2.0 * oracles.fd_gradient(
                lambda X: helpers.oracle_energy_from_C(X, o), C)
            assert np.allclose(T, ref, rtol=0.0, atol=1e-5 * np.abs(ref).max())

    def test_reference_state_stress_free(self):
        o = materials.OracleParameters()
        assert helpers.oracle_energy(np.eye(3), o) == 0.0
        assert np.all(helpers.oracle_stress(np.eye(3), o) == 0.0)
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
            lambda X: materials.oracle_stress_from_C(X, o), C)
        ref = 2.0 * oracles.fd_hessian_mandel(
            lambda X: materials.oracle_stress_from_C(X, o), C)
        assert np.allclose(tang, ref, rtol=0.0, atol=1e-3 * np.abs(ref).max())
        assert np.allclose(tang, tang.T, atol=1e-6 * np.abs(tang).max())

    def test_batched(self):
        rng = rng0(16)
        p = materials.MATRIX_RUBBER
        C = np.stack([oracles.random_spd(rng) for _ in range(4)])
        tang = materials.stress_tangent_fd(
            lambda X: materials.ogden_stress_from_C(X, p), C)
        assert tang.shape == (4, 6, 6)
        for i in range(4):
            single = materials.stress_tangent_fd(
                lambda X: materials.ogden_stress_from_C(X, p), C[i])
            assert np.allclose(tang[i], single, rtol=1e-10, atol=1e-8)


def _tangent_states(rng):
    """Random SPD states plus the coalescent cases near and at C = I."""
    Q = oracles.random_rotation(rng)
    noise = 1e-9 * rng.normal(size=(3, 3))
    states = [oracles.random_spd(rng) for _ in range(16)]
    states += [np.eye(3), 1.21 * np.eye(3),
               np.diag([1.3, 0.8, 0.8]), Q @ np.diag([1.3, 0.8, 0.8]) @ Q.T,
               np.eye(3) + noise + noise.T]
    return np.stack(states)


class TestPrincipalFrameTangent:
    @pytest.mark.parametrize("params", [materials.MATRIX_RUBBER,
                                        materials.FIBER_STIFF],
                             ids=["matrix", "fiber"])
    def test_matches_the_lab_frame_fd(self, params):
        C = _tangent_states(rng0(21))
        tang = materials.ogden_tangent_fd(C, params)
        ref = oracles.ogden_tangent_lab_fd(C, params)
        assert tang.shape == ref.shape == (len(C), 6, 6)
        for t, r in zip(tang, ref):
            np.testing.assert_allclose(t, r, rtol=0.0, atol=1e-7 * np.abs(r).max())

    def test_symmetric_and_batched_equals_single(self):
        C = _tangent_states(rng0(22))
        p = materials.MATRIX_RUBBER
        tang = materials.ogden_tangent_fd(C, p)
        np.testing.assert_array_equal(tang, np.swapaxes(tang, -1, -2))
        for i in (0, 7, len(C) - 1):
            single = materials.ogden_tangent_fd(C[i], p)
            assert single.shape == (6, 6)
            np.testing.assert_allclose(tang[i], single, rtol=0.0,
                                       atol=1e-12 * np.abs(single).max())

    def test_non_spd_state_rejected(self):
        C = np.stack([np.eye(3), np.diag([1.1, -0.2, 0.9])])
        with pytest.raises(NonPositiveJacobian):
            materials.ogden_tangent_fd(C, materials.MATRIX_RUBBER)


class TestJacobiEigen:
    def _check_against_eigh(self, C):
        lam2, V, lam, J = materials._jacobi_principal_stretches(C)
        ref = np.linalg.eigh(C)[0]
        np.testing.assert_allclose(np.sort(lam2, axis=-1), ref, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(np.einsum("...ib,...b,...jb->...ij", V, lam2, V),
                                   C, rtol=0.0, atol=1e-14 * np.abs(C).max())
        np.testing.assert_allclose(lam * lam, lam2, rtol=1e-15)
        np.testing.assert_allclose(J * J, np.linalg.det(C), rtol=1e-13)
        return lam2, V

    def test_diagonal_input_takes_no_rotation(self):
        C = np.stack([np.diag([1.3, 0.7, 1.1]), np.eye(3), np.diag([0.9, 0.9, 2.0])])
        lam2, V = self._check_against_eigh(C)
        np.testing.assert_array_equal(lam2, C[:, [0, 1, 2], [0, 1, 2]])
        np.testing.assert_array_equal(V, np.broadcast_to(np.eye(3), C.shape))

    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
    def test_one_pair_input_turns_only_its_plane(self, pair):
        p, q = pair
        r = 3 - p - q
        rng = rng0(23)
        C = np.zeros((8, 3, 3))
        C[:, [0, 1, 2], [0, 1, 2]] = rng.uniform(0.5, 2.0, size=(8, 3))
        C[0, p, p] = C[0, q, q]  # an equal diagonal pair, a 45 degree turn
        C[:, p, q] = C[:, q, p] = 1e-6 * rng.normal(size=8)
        C[1, p, q] = C[1, q, p] = 0.0
        lam2, V = self._check_against_eigh(C)
        np.testing.assert_array_equal(lam2[:, r], C[:, r, r])
        np.testing.assert_array_equal(V[:, r, r], 1.0)
        np.testing.assert_array_equal(V[:, r, [p, q]], 0.0)
        np.testing.assert_array_equal(V[:, [p, q], r], 0.0)
        np.testing.assert_array_equal(V[1], np.eye(3))

    def test_tangent_hands_it_at_most_one_pair_per_matrix(self, monkeypatch):
        # the one-rotation solver is exact only on what ogden_tangent_fd
        # gives it: matrices with at most one nonzero off-diagonal pair
        batches = []
        jacobi = materials._jacobi_principal_stretches

        def recorded(C):
            batches.append(np.array(C))
            return jacobi(C)

        monkeypatch.setattr(materials, "_jacobi_principal_stretches", recorded)
        materials.ogden_tangent_fd(_tangent_states(rng0(24)),
                                   materials.MATRIX_RUBBER)
        monkeypatch.undo()
        assert len(batches) == 12
        for C in batches:
            pairs = np.count_nonzero(C[:, [0, 0, 1], [1, 2, 2]], axis=-1)
            assert pairs.max() <= 1
            self._check_against_eigh(C)

    def test_non_positive_eigenvalue_rejected(self):
        with pytest.raises(NonPositiveJacobian):
            materials._jacobi_principal_stretches(
                np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matmine import tensors
from matmine.errors import (DegenerateDirection, NonPositiveJacobian,
                            NotPositiveDefinite)

import oracles

rng0 = np.random.default_rng


def test_right_cauchy_green_simple_shear():
    gamma = 0.5
    F = np.eye(3)
    F[0, 1] = gamma
    C = tensors.right_cauchy_green(F)
    assert np.allclose(C, [[1.0, 0.5, 0.0], [0.5, 1.25, 0.0], [0.0, 0.0, 1.0]],
                       rtol=0.0, atol=1e-15)


def test_jacobian_raises_on_inverted_state():
    F = np.diag([1.0, 1.0, -0.5])
    with pytest.raises(NonPositiveJacobian):
        tensors.jacobian(F)
    assert tensors.jacobian(np.eye(3)) == 1.0


def test_mandel_roundtrip_and_contraction():
    rng = rng0(0)
    A = oracles.random_spd(rng)
    v = tensors.sym_to_mandel(A)
    assert np.allclose(tensors.mandel_to_sym(v), A, atol=1e-15)
    B = oracles.random_spd(rng)
    # double contraction is the plain dot product in this basis
    assert np.isclose(np.tensordot(A, B), tensors.sym_to_mandel(A) @ tensors.sym_to_mandel(B))

    # minor-symmetric fourth-order tensor: matrix-vector product matches
    T = rng.normal(size=(3, 3, 3, 3))
    T = 0.25 * (T + T.transpose(1, 0, 2, 3) + T.transpose(0, 1, 3, 2)
                + T.transpose(1, 0, 3, 2))
    Tm = oracles.tensor4_to_mandel(T)
    assert np.allclose(oracles.mandel_to_tensor4(Tm), T, atol=1e-13)
    lhs = tensors.sym_to_mandel(np.einsum("ijkl,kl->ij", T, B))
    assert np.allclose(Tm @ tensors.sym_to_mandel(B), lhs, atol=1e-12)


def test_mandel_batched_shapes():
    rng = rng0(1)
    A = np.stack([oracles.random_spd(rng) for _ in range(5)]).reshape(5, 3, 3)
    v = tensors.sym_to_mandel(A)
    assert v.shape == (5, 6)
    assert np.allclose(tensors.mandel_to_sym(v), A)


def test_invariants_identity_and_dilation():
    eye = np.eye(3)
    M = tensors.structural_tensor([0.0, 0.0, 1.0])
    assert np.allclose(tensors.invariants(eye, M), [3, 3, 1, 1, 1, 1], atol=0.0)
    assert np.allclose(tensors.invariants(eye), [3, 3, 1, 1], atol=0.0)
    # pure dilation, stretch 2 in every direction
    C = 4.0 * np.eye(3)
    A = oracles.random_unit(rng0(2))
    vals = tensors.invariants(C, tensors.structural_tensor(A))
    assert np.allclose(vals, [12.0, 48.0, 64.0, 4.0, 16.0, 1.0 / 64.0], rtol=1e-14)


def test_invariants_match_textbook_definitions():
    rng = rng0(3)
    for _ in range(20):
        C = oracles.random_spd(rng)
        M = tensors.structural_tensor(oracles.random_unit(rng))
        assert np.allclose(tensors.invariants(C, M),
                           oracles.invariants_bruteforce(C, M), rtol=1e-12)


def test_invariants_reject_nonpositive():
    with pytest.raises(NotPositiveDefinite):
        tensors.invariants(np.diag([1.0, 1.0, -1.0]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_invariants_frame_indifferent_and_isotropic(seed):
    rng = rng0(seed)
    F = oracles.random_defgrad(rng)
    Q = oracles.random_rotation(rng)
    A = oracles.random_unit(rng)
    M = tensors.structural_tensor(A)
    C = tensors.right_cauchy_green(F)
    # observer change F -> QF leaves C (hence the invariants) untouched
    CQ = tensors.right_cauchy_green(Q @ F)
    base = tensors.invariants(C, M)
    assert np.allclose(tensors.invariants(CQ, M), base, rtol=1e-12, atol=1e-13)
    # simultaneous rotation of C and M is a symmetry of the invariant map
    rot = tensors.invariants(Q @ C @ Q.T, Q @ M @ Q.T)
    assert np.allclose(rot, base, rtol=1e-12, atol=1e-13)


def test_invariant_gradients_against_fd():
    rng = rng0(4)
    for _ in range(10):
        C = oracles.random_spd(rng)
        M = tensors.structural_tensor(oracles.random_unit(rng))
        G = tensors.invariant_gradients(C, M)
        for k in range(6):
            ref = oracles.fd_gradient(
                lambda X, k=k: tensors.invariants(X, M)[k], C)
            scale = max(np.abs(ref).max(), 1e-8)
            assert np.allclose(G[k], ref, atol=2e-5 * scale), f"slot {k}"


def test_invariant_hessians_against_fd():
    rng = rng0(5)
    for _ in range(6):
        C = oracles.random_spd(rng)
        M = tensors.structural_tensor(oracles.random_unit(rng))
        H = tensors.invariant_hessians(C, M)
        G = lambda X, k: tensors.invariant_gradients(X, M)[k]
        for k in range(6):
            ref = oracles.fd_hessian_mandel(lambda X, k=k: G(X, k), C)
            scale = max(np.abs(ref).max(), 1e-8)
            assert np.allclose(H[k], ref, atol=1e-4 * scale), f"slot {k}"
            assert np.allclose(H[k], H[k].T, atol=1e-10 * scale)


def test_invariant_isotropic_slots_align():
    rng = rng0(6)
    C = oracles.random_spd(rng)
    M = tensors.structural_tensor([1.0, 0.0, 0.0])
    full = tensors.invariants(C, M)
    iso = tensors.invariants(C)
    assert np.allclose(iso, full[[0, 1, 2, 5]], rtol=0.0, atol=0.0)
    Gf = tensors.invariant_gradients(C, M)
    Gi = tensors.invariant_gradients(C)
    assert np.allclose(Gi, Gf[[0, 1, 2, 5]], atol=0.0)
    Hf = tensors.invariant_hessians(C, M)
    Hi = tensors.invariant_hessians(C)
    assert np.allclose(Hi, Hf[[0, 1, 2, 5]], atol=0.0)


def test_rotation_aligning_quarter_turn():
    Q = tensors.rotation_aligning([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    # quarter turn about -e2
    ref = tensors.cross_matrix([0.0, -1.0, 0.0])
    ref = np.outer([0, -1, 0], [0, -1, 0]) + np.cos(np.pi / 2) * (np.eye(3) - np.outer([0, -1, 0], [0, -1, 0])) + np.sin(np.pi / 2) * ref
    assert np.allclose(Q, ref, atol=1e-15)
    assert np.allclose(Q @ [1, 0, 0], [0, 0, 1], atol=1e-15)
    assert np.allclose(Q.T @ [0, 0, 1], [1, 0, 0], atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_rotation_aligning_properties(seed):
    rng = rng0(seed)
    a = oracles.random_unit(rng)
    b = oracles.random_unit(rng)
    Q = tensors.rotation_aligning(a, b)
    assert np.allclose(Q @ Q.T, np.eye(3), atol=1e-13)
    assert np.isclose(np.linalg.det(Q), 1.0, atol=1e-13)
    assert np.allclose(Q @ a, b, atol=1e-12)


def test_rotation_aligning_degenerate_cases():
    a = np.array([0.3, -0.4, 0.5])
    a /= np.linalg.norm(a)
    assert np.allclose(tensors.rotation_aligning(a, a), np.eye(3), atol=0.0)
    Q = tensors.rotation_aligning(a, -a)
    assert np.allclose(Q @ a, -a, atol=1e-12)
    assert np.isclose(np.linalg.det(Q), 1.0, atol=1e-12)
    with pytest.raises(DegenerateDirection):
        tensors.rotation_aligning([0.0, 0.0, 0.0], a)


def test_structural_tensor_normalizes():
    M = tensors.structural_tensor([0.0, 0.0, 2.0])
    assert np.allclose(M, np.diag([0.0, 0.0, 1.0]), atol=0.0)
    assert np.isclose(np.trace(M), 1.0)
    # projector property M M = M
    assert np.allclose(M @ M, M, atol=0.0)


@pytest.mark.parametrize("transverse", [False, True], ids=["isotropic", "transverse"])
def test_invariant_hessians_match_fourth_order_reference(transverse):
    rng = rng0(7)
    M = tensors.structural_tensor(oracles.random_unit(rng)) if transverse else None
    C = np.stack([oracles.random_spd(rng) for _ in range(12)]).reshape(3, 4, 3, 3)
    for sample in (C[1, 2], C):
        H = tensors.invariant_hessians(sample, M)
        ref = oracles.invariant_hessians_tensor4(sample, M)
        assert H.shape == ref.shape == sample.shape[:-2] + (6 if transverse else 4, 6, 6)
        np.testing.assert_allclose(H, ref, rtol=0.0, atol=1e-14 * np.abs(ref).max())


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["rotation", "reflection"])
def test_mandel_rotation_rotates_vectors_and_tangents(sign):
    rng = rng0(31)
    Q = sign * np.stack([oracles.random_rotation(rng) for _ in range(4)])
    assert np.all(np.sign(np.linalg.det(Q)) == sign)
    Q6 = tensors.mandel_rotation(Q)
    assert Q6.shape == (4, 6, 6)
    np.testing.assert_allclose(Q6 @ np.swapaxes(Q6, -1, -2),
                               np.broadcast_to(np.eye(6), Q6.shape), rtol=0.0, atol=1e-14)
    A = np.stack([oracles.random_spd(rng) for _ in range(4)])
    np.testing.assert_allclose(
        np.einsum("...ab,...b->...a", Q6, tensors.sym_to_mandel(A)),
        tensors.sym_to_mandel(Q @ A @ np.swapaxes(Q, -1, -2)), rtol=0.0, atol=1e-14)
    # a major- and minor-symmetric tangent rotates as its fourth-order tensor
    M = rng.normal(size=(6, 6))
    M = M + M.T
    T4 = oracles.mandel_to_tensor4(M)
    rotated = oracles.tensor4_to_mandel(
        np.einsum("...ia,...jb,...kc,...ld,abcd->...ijkl", Q, Q, Q, Q, T4))
    np.testing.assert_allclose(Q6 @ M @ np.swapaxes(Q6, -1, -2), rotated,
                               rtol=0.0, atol=1e-13 * np.abs(M).max())
    np.testing.assert_array_equal(tensors.mandel_rotation(Q[0]), Q6[0])

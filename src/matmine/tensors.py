"""Finite-strain tensor kinematics and invariant algebra.

All operations accept batched input: a "tensor" argument may have shape
``(3, 3)`` or ``(..., 3, 3)`` with arbitrary leading dimensions, and scalar
results then have the leading shape ``(...)``.

Fourth-order tensors with minor symmetries travel as 6x6 matrices in the
orthonormal symmetric (Mandel) basis

    E_a in { e1 x e1, e2 x e2, e3 x e3,
             (e2 x e3 + e3 x e2)/sqrt(2),
             (e1 x e3 + e3 x e1)/sqrt(2),
             (e1 x e2 + e2 x e1)/sqrt(2) },

so that double contractions become plain matrix-vector products and major
symmetry of a fourth-order tensor is symmetry of its 6x6 matrix.  Component
order is (11, 22, 33, 23, 13, 12) with sqrt(2) weights on the shear slots.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDirection, NonPositiveJacobian, NotPositiveDefinite

SQRT2 = np.sqrt(2.0)

# Mandel slot -> (row, col) of the symmetric 3x3 tensor, plus basis weights.
MANDEL_ROWS = np.array([0, 1, 2, 1, 0, 0])
MANDEL_COLS = np.array([0, 1, 2, 2, 2, 1])
MANDEL_WEIGHTS = np.array([1.0, 1.0, 1.0, SQRT2, SQRT2, SQRT2])

# Orthonormal basis tensors E_a, shape (6, 3, 3).
MANDEL_BASIS = np.zeros((6, 3, 3))
for _a, (_i, _j) in enumerate(zip(MANDEL_ROWS, MANDEL_COLS)):
    if _i == _j:
        MANDEL_BASIS[_a, _i, _j] = 1.0
    else:
        MANDEL_BASIS[_a, _i, _j] = MANDEL_BASIS[_a, _j, _i] = 1.0 / SQRT2

IDENTITY = np.eye(3)


def sym(A):
    """Symmetric part (A + A^T)/2, batched."""
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def sym_to_mandel(A):
    """Map a symmetric (...,3,3) tensor to its (...,6) Mandel vector."""
    A = np.asarray(A, dtype=float)
    return A[..., MANDEL_ROWS, MANDEL_COLS] * MANDEL_WEIGHTS


def mandel_to_sym(v):
    """Inverse of :func:`sym_to_mandel`."""
    v = np.asarray(v, dtype=float)
    return np.einsum("...a,aij->...ij", v, MANDEL_BASIS)


def jacobian(F):
    """det F, raising :class:`NonPositiveJacobian` when any det <= 0."""
    J = np.linalg.det(np.asarray(F, dtype=float))
    if np.any(J <= 0.0):
        raise NonPositiveJacobian(f"min det F = {np.min(J):g}")
    return J


def right_cauchy_green(F):
    """C = F^T F, batched."""
    F = np.asarray(F, dtype=float)
    return np.einsum("...ki,...kj->...ij", F, F)


def structural_tensor(a):
    """Rank-one structural tensor M = a x a for a (unit-normalized) direction."""
    a = np.asarray(a, dtype=float)
    n = np.linalg.norm(a)
    if n < 1e-12:
        raise DegenerateDirection("direction has (near-)zero length")
    a = a / n
    return np.outer(a, a)


def _check_spdish(C, I3):
    # Cheap admissibility guard for hot paths: SPD implies positive trace
    # and determinant.  Full eigenvalue checks live in the test suite.
    tr = np.trace(np.asarray(C), axis1=-2, axis2=-1)
    if np.any(I3 <= 0.0) or np.any(tr <= 0.0):
        raise NotPositiveDefinite("C fails the positive trace/determinant guard")


def invariants(C, M=None):
    """Invariant coordinates of C (and a structural tensor M, if given).

    Parameters
    ----------
    C : (...,3,3) right Cauchy-Green tensor(s).
    M : (3,3) or (...,3,3) structural tensor, or None for the isotropic set.

    Returns
    -------
    (...,6) array ordered (I1, I2, I3, I4, I5, 1/I3) when M is given,
    (...,4) array ordered (I1, I2, I3, 1/I3) otherwise, where

        I1 = tr C,  I2 = (tr^2 C - tr C^2)/2,  I3 = det C,
        I4 = M : C, I5 = M : C^2.

    The reciprocal 1/I3 is carried as an explicit extra coordinate: it
    steers compression response and is treated as independent downstream.
    A C with non-positive trace or determinant raises
    :class:`NotPositiveDefinite`.
    """
    C = np.asarray(C, dtype=float)
    I1 = np.trace(C, axis1=-2, axis2=-1)
    trC2 = np.einsum("...ij,...ji->...", C, C)
    I2 = 0.5 * (I1 * I1 - trC2)
    I3 = np.linalg.det(C)
    _check_spdish(C, I3)
    if M is None:
        return np.stack([I1, I2, I3, 1.0 / I3], axis=-1)
    M = np.asarray(M, dtype=float)
    I4 = np.einsum("...ij,...ij->...", M, C)
    Csq = np.einsum("...ik,...kj->...ij", C, C)
    I5 = np.einsum("...ij,...ij->...", M, Csq)
    return np.stack([I1, I2, I3, I4, I5, 1.0 / I3], axis=-1)


def invariant_gradients(C, M=None):
    """d I_k / d C for the invariant set of :func:`invariants`.

    Returns shape (..., k, 3, 3) with k = 6 (transverse) or 4 (isotropic),
    slots aligned with the output of :func:`invariants`.  All gradients are
    symmetric second-order tensors.
    """
    C = np.asarray(C, dtype=float)
    I3 = np.linalg.det(C)
    Cinv = np.linalg.inv(C)
    eye = np.broadcast_to(IDENTITY, C.shape)
    I1 = np.trace(C, axis1=-2, axis2=-1)

    G1 = eye
    G2 = I1[..., None, None] * eye - C
    G3 = I3[..., None, None] * Cinv
    G3r = -Cinv / I3[..., None, None]
    if M is None:
        return np.stack([np.ascontiguousarray(G1), G2, G3, G3r], axis=-3)
    M = np.broadcast_to(np.asarray(M, dtype=float), C.shape)
    G4 = M
    MC = np.einsum("...ik,...kj->...ij", M, C)
    G5 = MC + np.swapaxes(MC, -1, -2)
    return np.stack([np.ascontiguousarray(G1), G2, G3,
                     np.ascontiguousarray(G4), G5, G3r], axis=-3)


# Index grids of a (6,6) Mandel matrix: slot a <-> (i, j), slot b <-> (k, l).
_I = MANDEL_ROWS[:, None]
_J = MANDEL_COLS[:, None]
_K = MANDEL_ROWS[None, :]
_L = MANDEL_COLS[None, :]
_WEIGHTS66 = MANDEL_WEIGHTS[:, None] * MANDEL_WEIGHTS[None, :]


def _dyad66(A, B):
    """A_ij B_kl on the Mandel slots, before the basis weights."""
    return A[..., _I, _J] * B[..., _K, _L]


def _symdyad66(A, B):
    """(A_ik B_jl + A_il B_jk)/2 on the Mandel slots, before the weights."""
    return 0.5 * (A[..., _I, _K] * B[..., _J, _L] + A[..., _I, _L] * B[..., _J, _K])


def mandel_rotation(Q):
    """6x6 Mandel matrix Q6 of A -> Q A Q^T for orthogonal Q, batched.

    ``Q6 @ sym_to_mandel(A) == sym_to_mandel(Q A Q^T)``, and Q6 is
    orthogonal, so a Mandel tangent rotates as ``Q6 @ tang @ Q6.T``.  Holds
    for reflections (det Q = -1) as well.
    """
    Q = np.asarray(Q, dtype=float)
    return _symdyad66(Q, Q) * _WEIGHTS66


# d^2 I2/dCdC = 1 x 1 - sym(1 x 1), the same for every C
_H2 = (_dyad66(IDENTITY, IDENTITY) - _symdyad66(IDENTITY, IDENTITY)) * _WEIGHTS66


def _fiber_hessian(M):
    """d^2 I5/dCdC = (M_ik d_jl + M_il d_jk + d_ik M_jl + d_il M_jk)/2."""
    d = IDENTITY
    return 0.5 * (M[..., _I, _K] * d[_J, _L] + M[..., _I, _L] * d[_J, _K]
                  + d[_I, _K] * M[..., _J, _L] + d[_I, _L] * M[..., _J, _K]) * _WEIGHTS66


def invariant_hessians(C, M=None):
    """d^2 I_k / dC dC in the Mandel basis, shape (..., k, 6, 6).

    Slots align with :func:`invariants`; every matrix is symmetric (major
    symmetry of the underlying fourth-order tensor).  I1 and I4 are linear
    in C and I2 and I5 quadratic, so only the determinant slots depend on C.
    """
    C = np.asarray(C, dtype=float)
    I3 = np.linalg.det(C)[..., None, None]
    Cinv = np.linalg.inv(C)
    batch = C.shape[:-2] + (6, 6)

    inv_dyad = _dyad66(Cinv, Cinv)
    inv_sym = _symdyad66(Cinv, Cinv)
    H3 = (I3 * (inv_dyad - inv_sym)) * _WEIGHTS66
    H3r = ((inv_dyad + inv_sym) / I3) * _WEIGHTS66
    zero = np.zeros(batch)
    H2 = np.broadcast_to(_H2, batch)
    if M is None:
        return np.stack([zero, H2, H3, H3r], axis=-3)
    H5 = np.broadcast_to(_fiber_hessian(np.asarray(M, dtype=float)), batch)
    return np.stack([zero, H2, H3, zero, H5, H3r], axis=-3)


def cross_matrix(n):
    """Skew matrix [n]_x with [n]_x v = n x v."""
    n = np.asarray(n, dtype=float)
    return np.array([[0.0, -n[2], n[1]],
                     [n[2], 0.0, -n[0]],
                     [-n[1], n[0], 0.0]])


def rotation_aligning(a, b):
    """Proper rotation Q with Q a = b for unit directions a, b (Rodrigues).

    Degenerate cases: when the angle between a and b is below 1e-10 the
    identity is returned; when it is within 1e-10 of pi (antiparallel
    directions) the rotation is 180 degrees about the coordinate axis most
    orthogonal to b, projected into b's orthogonal plane.
    """
    tol = 1e-10
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        raise DegenerateDirection("cannot align a zero-length direction")
    a = a / na
    b = b / nb
    c = np.cross(a, b)
    s = np.linalg.norm(c)
    angle = np.arctan2(s, np.dot(a, b))
    if angle < tol:
        return np.eye(3)
    if np.pi - angle < tol:
        k = int(np.argmin(np.abs(b)))
        n = np.zeros(3)
        n[k] = 1.0
        n -= np.dot(n, b) * b
        n /= np.linalg.norm(n)
        return 2.0 * np.outer(n, n) - np.eye(3)
    n = c / s
    nn = np.outer(n, n)
    return nn + np.cos(angle) * (np.eye(3) - nn) + np.sin(angle) * cross_matrix(n)


def rotation_about(axis, angle):
    """Proper rotation by ``angle`` (radians) about the ``axis`` direction."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        raise DegenerateDirection("cannot rotate about a zero-length axis")
    n = axis / norm
    nn = np.outer(n, n)
    return nn + np.cos(angle) * (np.eye(3) - nn) + np.sin(angle) * cross_matrix(n)

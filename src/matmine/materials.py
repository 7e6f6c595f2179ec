"""Hyperelastic constitutive models: compressible Ogden phases and the
analytic fiber-reinforced oracle used as the default microscale stand-in.

Stress measure throughout is the second Piola-Kirchhoff tensor T = 2 dpsi/dC;
the nominal (first Piola-Kirchhoff) stress follows as P = F T with the first
index spatial.  Energies and stresses are functions of C, batched over
leading dimensions; only the oracle's nominal stress takes F.  Units:
stresses and moduli in kPa, lengths dimensionless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensors
from .errors import InvalidMaterialParameters, NonPositiveJacobian


def bulk_from_shear(shear_modulus, poisson_ratio):
    """Bulk-like penalty modulus kappa = 2 G (1 + nu) / (3 (1 - 2 nu))."""
    return 2.0 * shear_modulus * (1.0 + poisson_ratio) / (3.0 * (1.0 - 2.0 * poisson_ratio))


@dataclass(frozen=True)
class OgdenParameters:
    """Parameters of a compressible Ogden model.

    Each term must satisfy (alpha_p < -1 or alpha_p >= 2) and
    mu_p * alpha_p > 0, which together make the initial shear modulus
    G = sum(mu_p alpha_p) / 2 positive and keep the model polyconvex on the
    isochoric part; kappa > 0 scales the volumetric penalty
    kappa/4 (J^2 - 2 ln J - 1).
    """

    mu: tuple
    alpha: tuple
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "mu", tuple(float(m) for m in self.mu))
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "kappa", float(self.kappa))
        if len(self.mu) == 0 or len(self.mu) != len(self.alpha):
            raise InvalidMaterialParameters("mu and alpha must be equally sized, non-empty")
        for m, a in zip(self.mu, self.alpha):
            if not (a < -1.0 or a >= 2.0):
                raise InvalidMaterialParameters(f"exponent {a} in the excluded band (-1, 2)")
            if m * a <= 0.0:
                raise InvalidMaterialParameters(f"term mu={m}, alpha={a} has mu*alpha <= 0")
        if self.kappa <= 0.0:
            raise InvalidMaterialParameters("kappa must be positive")

    @property
    def initial_shear_modulus(self):
        return 0.5 * sum(m * a for m, a in zip(self.mu, self.alpha))


# Phase presets for the fiber-reinforced rubber composite benchmark.
# Matrix: three-term Ogden, G = 100 kPa, nu = 0.44.
MATRIX_RUBBER = OgdenParameters(mu=(-26.62, 29.04, 0.0098),
                                alpha=(-5.0, 2.3, 12.0),
                                kappa=bulk_from_shear(100.0, 0.44))
# Fibers: one-term Ogden (neo-Hookean), G = 1000 kPa, nu = 0.40.
FIBER_STIFF = OgdenParameters(mu=(1000.0,), alpha=(2.0,),
                              kappa=bulk_from_shear(1000.0, 0.40))


def _principal_stretches(C):
    """Squared principal stretches, principal directions, stretches and J.

    One ``eigh`` of C, batched; a non-positive eigenvalue raises.
    """
    lam2, vecs = np.linalg.eigh(np.asarray(C, dtype=float))
    return _stretches(lam2, vecs)


def _stretches(lam2, vecs):
    """Complete an eigen-decomposition of C to (lam2, vecs, lam, J)."""
    if np.any(lam2 <= 0.0):
        raise NonPositiveJacobian("C has a non-positive eigenvalue")
    lam = np.sqrt(lam2)
    J = lam[..., 0] * lam[..., 1] * lam[..., 2]
    return lam2, vecs, lam, J


def _jacobi_principal_stretches(C):
    """:func:`_principal_stretches` by plane rotations, for near-diagonal C.

    Every matrix of the batch must be diagonal or have one nonzero
    off-diagonal pair, which one Jacobi rotation in that pair's plane
    zeroes exactly; a C with more pairs comes back wrong.  A plane whose
    entry is zero in every matrix is skipped, so a diagonal C returns its
    diagonal and the identity untouched.  That is at most one rotation per
    plane, where LAPACK's per-matrix ``eigh`` costs far more on large
    batches.  The eigenvalues come unsorted.
    """
    A = np.array(C, dtype=float)
    V = np.zeros_like(A)
    V[..., [0, 1, 2], [0, 1, 2]] = 1.0
    for p, q in ((0, 1), (0, 2), (1, 2)):
        apq = A[..., p, q].copy()
        if not np.any(apq):
            continue
        r = 3 - p - q
        # t = tan of the angle that zeroes A_pq, the smaller root
        diff = A[..., q, q] - A[..., p, p]
        den = np.abs(diff) + np.hypot(diff, 2.0 * apq)
        t = (2.0 * apq * np.where(diff < 0.0, -1.0, 1.0)
             / np.where(den == 0.0, 1.0, den))
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        A[..., p, p] -= t * apq
        A[..., q, q] += t * apq
        A[..., p, q] = A[..., q, p] = 0.0
        arp, arq = A[..., r, p].copy(), A[..., r, q].copy()
        A[..., r, p] = A[..., p, r] = c * arp - s * arq
        A[..., r, q] = A[..., q, r] = s * arp + c * arq
        vp, vq = V[..., :, p].copy(), V[..., :, q].copy()
        V[..., :, p] = c[..., None] * vp - s[..., None] * vq
        V[..., :, q] = s[..., None] * vp + c[..., None] * vq
    return _stretches(A[..., [0, 1, 2], [0, 1, 2]], V)


def ogden_energy_from_C(C, params: OgdenParameters):
    """Strain energy density as a function of C, batched over leading dims."""
    _, _, lam, J = _principal_stretches(C)
    lam_iso = lam * J[..., None] ** (-1.0 / 3.0)
    dev = 0.0
    for m, a in zip(params.mu, params.alpha):
        dev = dev + (m / a) * (np.sum(lam_iso**a, axis=-1) - 3.0)
    vol = 0.25 * params.kappa * (J * J - 2.0 * np.log(J) - 1.0)
    return dev + vol


def _ogden_coefficients(lam2, lam, J, params):
    """Per-eigenvalue stress coefficients of the principal-stretch form.

    Every eigenvalue is treated as simple, which stays exact at coalescent
    stretches: equal stretches receive equal coefficients, and their dyads
    sum to the eigenprojector however the eigenvectors are picked.
    """
    lam_iso = lam * J[..., None] ** (-1.0 / 3.0)
    coeff = np.zeros_like(lam)
    for m, a in zip(params.mu, params.alpha):
        pw = lam_iso**a
        coeff = coeff + m * (pw - np.sum(pw, axis=-1, keepdims=True) / 3.0)
    coeff = coeff + 0.5 * params.kappa * (J * J - 1.0)[..., None]
    return coeff / lam2


def ogden_stress_from_C(C, params: OgdenParameters):
    """Second Piola-Kirchhoff stress T(C), batched over leading dims."""
    return _spectral_stress(*_principal_stretches(C), params)


def _spectral_stress(lam2, vecs, lam, J, params):
    """T from the output of :func:`_principal_stretches`."""
    coeff = _ogden_coefficients(lam2, lam, J, params)
    # sum_b coeff_b v_b v_b^T, accumulated from zero in the order and with
    # the products the three-operand einsum forms, so its result is
    # bitwise the einsum's at a third of the cost
    T = 0.0
    for b in range(3):
        v = vecs[..., b]
        T = T + (coeff[..., b, None, None] * v[..., :, None]) * v[..., None, :]
    return T


def ogden_tangent_fd(C, params: OgdenParameters):
    """Mandel tangent 2 dT/dC of an Ogden phase, differenced in C's principal frame.

    Holds for isotropic laws only: with C = Q D Q^T from one ``eigh``,
    isotropy gives T(Q X Q^T) = Q T(X) Q^T for every orthogonal Q, so the
    tangent at C is the tangent at D = diag(lam^2) rotated by
    :func:`tensors.mandel_rotation` (Miehe, Comput. Struct. 1998).  At D,
    :func:`stress_tangent_fd` keeps its step and tr/3 scale, and every
    perturbed D is diagonal or has one off-diagonal pair, which
    :func:`_jacobi_principal_stretches` diagonalises with one plane
    rotation.  The oracle law's
    fiber term is not isotropic and must not come through here.
    """
    lam2, Q, _, _ = _principal_stretches(C)
    D = lam2[..., :, None] * np.eye(3)
    tang = stress_tangent_fd(
        lambda X: _spectral_stress(*_jacobi_principal_stretches(X), params), D)
    Q6 = tensors.mandel_rotation(Q)
    tang = Q6 @ tang @ np.swapaxes(Q6, -1, -2)
    return 0.5 * (tang + np.swapaxes(tang, -1, -2))


@dataclass(frozen=True)
class OracleParameters:
    """Analytic stand-in for a homogenized fiber-reinforced microstructure.

    An Ogden matrix augmented with a quadratic fiber-stretch penalty
    0.5 * fiber_stiffness * (I4 - 1)^2 along ``fiber_axis`` (the microscale
    frame's preferred direction).
    """

    matrix: OgdenParameters = MATRIX_RUBBER
    fiber_axis: tuple = (0.0, 0.0, 1.0)
    fiber_stiffness: float = 450.0

    def __post_init__(self):
        if self.fiber_stiffness <= 0.0:
            raise InvalidMaterialParameters("fiber_stiffness must be positive")
        axis = np.asarray(self.fiber_axis, dtype=float)
        n = np.linalg.norm(axis)
        if n < 1e-12:
            raise InvalidMaterialParameters("fiber_axis must have nonzero length")
        object.__setattr__(self, "fiber_axis", tuple(axis / n))

    @property
    def structural_tensor(self):
        return tensors.structural_tensor(self.fiber_axis)


def oracle_stress_from_C(C, oracle: OracleParameters):
    """T = 2 dpsi/dC of the oracle: Ogden part plus 2 c (I4 - 1) M."""
    M = oracle.structural_tensor
    I4 = np.einsum("ij,...ij->...", M, np.asarray(C, dtype=float))
    fiber = 2.0 * oracle.fiber_stiffness * (I4 - 1.0)[..., None, None] * M
    return ogden_stress_from_C(C, oracle.matrix) + fiber


def oracle_nominal_stress(F, oracle: OracleParameters):
    """P = F T, the work pair of F, batched."""
    F = np.asarray(F, dtype=float)
    tensors.jacobian(F)
    T = oracle_stress_from_C(tensors.right_cauchy_green(F), oracle)
    return np.einsum("...ik,...kj->...ij", F, T)


def stress_tangent_fd(stress_from_C, C):
    """Mandel tangent 2 dT/dC of a stress routine by central differences.

    ``stress_from_C`` maps (...,3,3) -> (...,3,3).  The step is the fixed
    relative 1e-6 times tr(C)/3 per sample; the result is symmetrized, which a thermodynamically
    consistent stress guarantees up to the FD error.  Generic in the stress
    routine; the voxel cell's Ogden phases reach it through
    :func:`ogden_tangent_fd`, which takes the differences in the principal
    frame of C.
    """
    C = np.asarray(C, dtype=float)
    scale = 1e-6 * np.trace(C, axis1=-2, axis2=-1)[..., None, None] / 3.0
    cols = []
    for a in range(6):
        dC = scale * tensors.mandel_to_sym(np.eye(6)[a])
        Tp = tensors.sym_to_mandel(stress_from_C(C + dC))
        Tm = tensors.sym_to_mandel(stress_from_C(C - dC))
        cols.append((Tp - Tm) / (2.0 * scale[..., 0, 0][..., None]))
    dT_dC = np.stack(cols, axis=-1)
    # tangent C = 4 d^2 psi/dCdC = 2 dT/dC, symmetrized
    tang = 2.0 * dT_dC
    return 0.5 * (tang + np.swapaxes(tang, -1, -2))

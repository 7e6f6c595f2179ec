"""Hyperelastic constitutive models: compressible Ogden phases and the
analytic fiber-reinforced oracle used as the default microscale stand-in.

Stress measure throughout is the second Piola-Kirchhoff tensor T = 2 dpsi/dC;
the nominal (first Piola-Kirchhoff) stress follows as P = F T with the first
index spatial.  Each material is one law C -> (T, tangent), batched over
leading dimensions, in the form :meth:`fem.HexGrid.newton` iterates with;
:func:`tensors.nominal_stress` turns a law into P(F).  Units: stresses and
moduli in kPa, lengths dimensionless.
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
        if not np.isfinite(self.mu + self.alpha + (self.kappa,)).all():
            raise InvalidMaterialParameters("mu, alpha and kappa must be finite")
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


# central-difference step of :func:`stress_tangent_fd` relative to tr(C)/3,
# and the eigenvalue gap below which the shear block takes its coalescent limit
_FD_STEP = 1e-6


def _stretches(lam2):
    """Stretches and J from C's eigenvalues; a non-positive eigenvalue raises."""
    if np.any(lam2 <= 0.0):
        raise NonPositiveJacobian("C has a non-positive eigenvalue")
    lam = np.sqrt(lam2)
    return lam, lam[..., 0] * lam[..., 1] * lam[..., 2]


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


def ogden_law(C, params: OgdenParameters):
    """T(C) and its Mandel tangent from one ``eigh``, batched.

    Returns ``(T, tangent)``: ``T`` is the second Piola-Kirchhoff stress,
    and ``tangent()`` the Mandel tangent 2 dT/dC at the same C, which
    :func:`_principal_frame_tangent` forms from the stress's eigenvalues,
    eigenvectors and principal stresses: a differenced normal block and a
    closed-form shear block.
    """
    lam2, Q = np.linalg.eigh(np.asarray(C, dtype=float))
    lam, J = _stretches(lam2)
    beta = _ogden_coefficients(lam2, lam, J, params)
    return (_spectral_sum(beta, Q),
            lambda: _principal_frame_tangent(lam2, Q, beta, params))


def _spectral_sum(coeff, vecs):
    """sum_b coeff_b v_b v_b^T over the eigenvectors ``vecs[..., :, b]``."""
    # accumulated from zero in the order and with the products the
    # three-operand einsum forms, so its result is bitwise the einsum's at a
    # third of the cost
    T = 0.0
    for b in range(3):
        v = vecs[..., b]
        T = T + (coeff[..., b, None, None] * v[..., :, None]) * v[..., None, :]
    return T


def _principal_stresses(X, params):
    """diag(beta) at the eigenvalues diag(X); reads only X's diagonal, and a
    non-positive entry raises :class:`NonPositiveJacobian`."""
    lam2 = X[..., [0, 1, 2], [0, 1, 2]]
    return _ogden_coefficients(lam2, *_stretches(lam2), params)[..., :, None] * np.eye(3)


def _principal_frame_tangent(lam2, Q, beta, params):
    """Mandel tangent 2 dT/dC of an Ogden phase, formed in C's principal frame.

    C = Q diag(lam2) Q^T and T = Q diag(beta) Q^T.  For an isotropic law the
    principal-frame tangent has two uncoupled blocks (Miehe, Comput. Struct.
    1998), rotated to the lab by :func:`tensors.mandel_rotation`: the normal
    block 2 dbeta/dlam2, :func:`stress_tangent_fd` of
    :func:`_principal_stresses`, whose shear columns difference to exactly
    zero; and one shear entry 2 (beta_p - beta_q) / (lam2_p - lam2_q) per
    pair, which takes the coalescent limit (C_pp + C_qq)/2 - C_pq of the
    normal block, error O(gap^2), where the gap is within the difference step
    ``_FD_STEP`` tr(C)/3.  The oracle's fiber term is not isotropic.
    """
    tang = stress_tangent_fd(lambda X: _principal_stresses(X, params),
                             lam2[..., :, None] * np.eye(3))
    # shear slots 3, 4, 5 <-> pairs (1, 2), (0, 2), (0, 1)
    p, q = tensors.MANDEL_ROWS[3:], tensors.MANDEL_COLS[3:]
    gap = lam2[..., p] - lam2[..., q]
    near = np.abs(gap) <= _FD_STEP * np.sum(lam2, axis=-1, keepdims=True) / 3.0
    limit = 0.5 * (tang[..., p, p] + tang[..., q, q]) - tang[..., p, q]
    divided = 2.0 * (beta[..., p] - beta[..., q]) / np.where(near, 1.0, gap)
    tang[..., [3, 4, 5], [3, 4, 5]] = np.where(near, limit, divided)
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
        if not 0.0 < self.fiber_stiffness < np.inf:
            raise InvalidMaterialParameters("fiber_stiffness must be positive and finite")
        axis = np.asarray(self.fiber_axis, dtype=float)
        if axis.shape != (3,):
            raise InvalidMaterialParameters("fiber_axis needs three components")
        n = np.linalg.norm(axis)
        if not 1e-12 <= n < np.inf:
            raise InvalidMaterialParameters("fiber_axis must have finite, nonzero length")
        object.__setattr__(self, "fiber_axis", tuple(axis / n))

    @property
    def structural_tensor(self):
        return tensors.structural_tensor(self.fiber_axis)


def oracle_law(C, oracle: OracleParameters):
    """T(C) and its Mandel tangent of the oracle, in :func:`ogden_law`'s form.

    T is the Ogden part plus the fiber term 2 c (I4 - 1) M, added last; the
    fiber's tangent 4 c m m^T, m the Mandel vector of M, joins the Ogden
    tangent.
    """
    M = oracle.structural_tensor
    I4 = np.einsum("ij,...ij->...", M, np.asarray(C, dtype=float))
    fiber = 2.0 * oracle.fiber_stiffness * (I4 - 1.0)[..., None, None] * M
    T, ogden_tangent = ogden_law(C, oracle.matrix)
    m = tensors.sym_to_mandel(M)
    fiber_tangent = 4.0 * oracle.fiber_stiffness * np.outer(m, m)
    return T + fiber, lambda: ogden_tangent() + fiber_tangent


def oracle_nominal_stress(F, oracle: OracleParameters):
    """P = F T, the work pair of F, batched."""
    return tensors.nominal_stress(F, lambda C: oracle_law(C, oracle))


def stress_tangent_fd(stress_from_C, C):
    """Mandel tangent 2 dT/dC of a stress routine by central differences.

    ``stress_from_C`` is called once, on one (12,...,3,3) stack: C plus
    each of the six Mandel basis steps, then C minus each.  It must be
    batched over leading axes and act per sample, so that a sample's stress
    does not depend on the rest of the stack.  The step is the fixed
    relative ``_FD_STEP`` times tr(C)/3 per sample; the result is symmetrized,
    which a thermodynamically consistent stress guarantees up to the FD
    error.  Generic in the stress routine; the voxel cell's Ogden phases
    reach it through :func:`ogden_law`, which differences only their
    principal stresses, in the principal frame of C.
    """
    C = np.asarray(C, dtype=float)
    scale = _FD_STEP * np.trace(C, axis1=-2, axis2=-1)[..., None, None] / 3.0
    dC = scale * tensors.MANDEL_BASIS.reshape((6,) + (1,) * (C.ndim - 2) + (3, 3))
    T = tensors.sym_to_mandel(stress_from_C(np.concatenate([C + dC, C - dC])))
    # column a of dT/dC, moved from the leading axis to the last
    dT_dC = np.moveaxis((T[:6] - T[6:]) / (2.0 * scale[..., 0, 0][..., None]), 0, -1)
    # tangent C = 4 d^2 psi/dCdC = 2 dT/dC, symmetrized
    tang = 2.0 * dT_dC
    return 0.5 * (tang + np.swapaxes(tang, -1, -2))

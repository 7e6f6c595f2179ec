"""Physics-constrained neural material model in invariant space.

The energy is a single softplus layer over normalized invariant coordinates,

    psi(C) = B + sum_a W_a * softplus( sum_k w_ak * n_k(C) + b_a ),

where n_k are the invariants of C (and of a structural tensor for the
transversely isotropic mode), each affinely normalized into [-1, 1] over the
training data's bounds.  The reciprocal of the determinant invariant is
carried as an independent extra coordinate so compression states can steer
the energy growth.  Stress and tangent follow from the chain rule through
the invariant gradients and hessians, which keeps the model objective and
materially symmetric by construction; both share one first-derivative pass,
and :func:`sigmoid` is the one logistic function training uses as well.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import data, tensors
from .errors import FormatVersionMismatch

FORMAT_VERSION = "surrogate-v1"

ANISOTROPY_MODES = ("isotropic", "transverse")

# Column index of the determinant invariant in the base slots (I1, I2, I3, ...).
DET_SLOT = 2


def softplus(x):
    return np.logaddexp(0.0, x)


def sigmoid(x):
    """Logistic function, the derivative of softplus, as 0.5 + 0.5 tanh(x/2)."""
    out = np.multiply(x, 0.5)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


@dataclass(frozen=True)
class NormalizationBounds:
    """Per-invariant affine normalization onto [-1, 1].

    ``lower``/``upper`` have one entry per invariant coordinate, the
    reciprocal-determinant slot last.  Degenerate spans (upper == lower) are
    widened to a unit span around the midpoint so the map stays invertible.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float)).copy()
        up = np.atleast_1d(np.asarray(self.upper, dtype=float)).copy()
        if lo.shape != up.shape or lo.ndim != 1:
            raise ValueError("bounds must be equally sized vectors")
        if np.any(up < lo):
            raise ValueError("upper bound below lower bound")
        degenerate = (up - lo) <= 1e-12 * np.maximum(1.0, np.abs(up))
        mid = 0.5 * (up + lo)
        lo[degenerate] = mid[degenerate] - 0.5
        up[degenerate] = mid[degenerate] + 0.5
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @classmethod
    def from_invariants(cls, values):
        values = np.asarray(values, dtype=float)
        return cls(values.min(axis=0), values.max(axis=0))

    @property
    def size(self):
        return self.lower.shape[0]

    @property
    def center(self):
        return 0.5 * (self.upper + self.lower)

    @property
    def slope(self):
        """d(normalized)/d(raw) per coordinate."""
        return 2.0 / (self.upper - self.lower)

    def normalize(self, values):
        return (np.asarray(values, dtype=float) - self.center) * self.slope


@dataclass(frozen=True)
class SurrogateModel:
    """Trained invariant-space energy network.

    ``gate_weights`` (N,) scale the neuron outputs, ``input_weights``
    (N, n_base) act on the base invariants, ``reciprocal_weights`` (N,) on
    the reciprocal-determinant coordinate, ``biases`` (N,) shift the neuron
    inputs and ``energy_offset`` pins the undeformed energy to zero.
    """

    anisotropy: str
    gate_weights: np.ndarray
    input_weights: np.ndarray
    reciprocal_weights: np.ndarray
    biases: np.ndarray
    energy_offset: float
    bounds: NormalizationBounds
    growth_mode: bool = True

    def __post_init__(self):
        if self.anisotropy not in ANISOTROPY_MODES:
            raise ValueError(f"unknown anisotropy mode {self.anisotropy!r}")
        for name in ("gate_weights", "reciprocal_weights", "biases"):
            object.__setattr__(self, name,
                               np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(self, "input_weights",
                           np.atleast_2d(np.asarray(self.input_weights, dtype=float)))
        n = self.gate_weights.shape[0]
        n_base = 5 if self.anisotropy == "transverse" else 3
        if self.input_weights.shape != (n, n_base):
            raise ValueError(f"input_weights must have shape {(n, n_base)}")
        if self.reciprocal_weights.shape != (n,) or self.biases.shape != (n,):
            raise ValueError("weight vector sizes disagree")
        if self.bounds.size != n_base + 1:
            raise ValueError("bounds size must be n_base + 1")

    @property
    def n_neurons(self):
        return self.gate_weights.shape[0]

    @property
    def n_base(self):
        return self.input_weights.shape[1]

    @property
    def stacked_weights(self):
        """(N, n_base+1) input weights with the reciprocal column last."""
        return np.concatenate([self.input_weights,
                               self.reciprocal_weights[:, None]], axis=1)


def invariant_inputs(C, model, M=None):
    """Raw invariant coordinates the model's neurons read."""
    if model.anisotropy == "transverse":
        if M is None:
            raise ValueError("transverse mode needs a structural tensor")
        return tensors.invariants(C, M)
    return tensors.invariants(C)


def _neuron_state(model, C, M):
    """Neuron inputs z (..., N) at right Cauchy-Green tensors C."""
    normalized = model.bounds.normalize(invariant_inputs(C, model, M))
    return np.einsum("...k,ak->...a", normalized, model.stacked_weights) + model.biases


def _first_derivatives(model, C, M):
    """(sig, wraw, g1, G, M_arg): neuron activations, weights on the raw
    invariants (normalization slope folded in), dpsi/dI_k, dI_k/dC and the
    structural tensor the invariants take."""
    sig = sigmoid(_neuron_state(model, C, M))
    wraw = model.stacked_weights * model.bounds.slope
    g1 = (model.gate_weights * sig) @ wraw
    M_arg = M if model.anisotropy == "transverse" else None
    G = tensors.invariant_gradients(C, M_arg)
    return sig, wraw, g1, G, M_arg


def model_energy(model: SurrogateModel, C, M=None):
    """Predicted strain energy density, batched over leading dims of C."""
    z = _neuron_state(model, C, M)
    return model.energy_offset + np.einsum("a,...a->...", model.gate_weights,
                                           softplus(z))


def model_stress(model: SurrogateModel, C, M=None):
    """Second Piola-Kirchhoff stress T = 2 dpsi/dC, batched."""
    _, _, g1, G, _ = _first_derivatives(model, C, M)
    return 2.0 * np.einsum("...k,...kij->...ij", g1, G)


def model_tangent(model: SurrogateModel, C, M=None):
    """Material tangent 4 d^2psi/dCdC as (...,6,6) Mandel matrices."""
    sig, wraw, g1, G, M_arg = _first_derivatives(model, C, M)
    Gm = tensors.sym_to_mandel(G)
    H = tensors.invariant_hessians(C, M_arg)
    # per-neuron Mandel gradient of the neuron input: V_a = sum_k w_ak G_k
    V = np.einsum("ak,...kb->...ab", wraw, Gm, optimize=True)
    curv = np.swapaxes(V, -1, -2) @ (
        (model.gate_weights * sig * (1.0 - sig))[..., None] * V)
    spread = np.einsum("...k,...kab->...ab", g1, H, optimize=True)
    return 4.0 * (curv + spread)


def model_nominal_stress(model: SurrogateModel, F, M=None):
    """P = F T from the deformation gradient, batched."""
    F = np.asarray(F, dtype=float)
    tensors.jacobian(F)
    T = model_stress(model, tensors.right_cauchy_green(F), M)
    return np.einsum("...ik,...kj->...ij", F, T)


def fix_energy_offset(model: SurrogateModel, M=None):
    """Return a copy whose predicted energy vanishes exactly when C = 1.

    The offset is the negated raw network output at the identity state,
    evaluated through the very code path of :func:`model_energy` (same
    contraction order), so the cancellation is bitwise exact for the
    structural tensor ``M`` used here (defaults to the x3 axis).
    """
    if model.anisotropy == "transverse" and M is None:
        M = tensors.structural_tensor((0.0, 0.0, 1.0))
    base = replace(model, energy_offset=0.0)
    raw = model_energy(base, np.eye(3), M)
    return replace(model, energy_offset=-float(raw))


@dataclass(frozen=True)
class GrowthCheck:
    """Outcome of the volumetric-growth weight conditions.

    The three gates guarantee the energy grows without bound as the volume
    ratio goes to zero or infinity: positive output weights, at least one
    positive weight on the determinant invariant, and at least one positive
    weight on its reciprocal.
    """

    all_gates_positive: bool
    has_positive_det_weight: bool
    has_positive_reciprocal_weight: bool
    det_margin: float
    reciprocal_margin: float

    @property
    def satisfied(self):
        return (self.all_gates_positive and self.has_positive_det_weight
                and self.has_positive_reciprocal_weight)


def check_growth_condition(model: SurrogateModel):
    W = model.gate_weights
    w_det = model.input_weights[:, DET_SLOT]
    w_rec = model.reciprocal_weights
    det_margin = float(np.sum(W * w_det * (w_det > 0.0)))
    rec_margin = float(np.sum(W * w_rec * (w_rec > 0.0)))
    return GrowthCheck(
        all_gates_positive=bool(np.all(W > 0.0)),
        has_positive_det_weight=bool(np.any(w_det > 0.0)),
        has_positive_reciprocal_weight=bool(np.any(w_rec > 0.0)),
        det_margin=det_margin,
        reciprocal_margin=rec_margin,
    )


def save_model(model: SurrogateModel, path):
    doc = {
        "format_version": FORMAT_VERSION,
        "anisotropy": model.anisotropy,
        "n_neurons": model.n_neurons,
        "growth_mode": model.growth_mode,
        "gate_weights": model.gate_weights.tolist(),
        "input_weights": model.input_weights.tolist(),
        "reciprocal_weights": model.reciprocal_weights.tolist(),
        "biases": model.biases.tolist(),
        "energy_offset": model.energy_offset,
        "bounds_lower": model.bounds.lower.tolist(),
        "bounds_upper": model.bounds.upper.tolist(),
    }
    with data.atomic_write(path) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path):
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"expected {FORMAT_VERSION!r}, found {version!r} in {path}")
    return SurrogateModel(
        anisotropy=doc["anisotropy"],
        gate_weights=np.array(doc["gate_weights"], dtype=float),
        input_weights=np.array(doc["input_weights"], dtype=float),
        reciprocal_weights=np.array(doc["reciprocal_weights"], dtype=float),
        biases=np.array(doc["biases"], dtype=float),
        energy_offset=float(doc["energy_offset"]),
        bounds=NormalizationBounds(np.array(doc["bounds_lower"], dtype=float),
                                   np.array(doc["bounds_upper"], dtype=float)),
        growth_mode=bool(doc["growth_mode"]),
    )

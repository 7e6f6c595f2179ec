"""Physics-constrained neural material model in invariant space.

The energy is a single softplus layer over normalized invariant coordinates,

    psi(C) = B + sum_a W_a * softplus( sum_k w_ak * n_k(C) + b_a ),

where n_k are the invariants of C (and of a structural tensor for the
transversely isotropic mode), each affinely normalized into [-1, 1] over the
training data's bounds.  The reciprocal of the determinant invariant is
carried as an independent extra coordinate so compression states can steer
the energy growth.  Stress and tangent follow from the chain rule through
the invariant gradients and hessians, which keeps the model objective and
materially symmetric by construction.  Both start from one first-derivative
pass: ``model_stress`` is the law a Newton solve calls, returning T with a
callable that forms the tangent at the same C from that pass, so an update
forms det C and C^-1 once.  :func:`sigmoid` is the one logistic function
training uses as well.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import data, tensors
from .errors import CorruptRecord, FormatVersionMismatch

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


def invariant_inputs(C, model, M=None, I3=None):
    """Raw invariant coordinates the model's neurons read (``I3`` = det C,
    when the caller has it)."""
    if model.anisotropy == "transverse":
        if M is None:
            raise ValueError("transverse mode needs a structural tensor")
        return tensors.invariants(C, M, I3)
    return tensors.invariants(C, I3=I3)


def _neuron_state(model, C, M, I3=None):
    """Neuron inputs z (..., N) at right Cauchy-Green tensors C."""
    normalized = model.bounds.normalize(invariant_inputs(C, model, M, I3))
    return np.einsum("...k,ak->...a", normalized, model.stacked_weights) + model.biases


class FirstPass(NamedTuple):
    """The first-derivative pass of a model at one array of C.

    Neuron activations ``sig``, the weights on the raw invariants ``wraw``
    (normalization slope folded in), dpsi/dI_k ``g1``, dI_k/dC ``G``, det C
    ``I3``, C^-1 ``Cinv`` and the structural tensor the invariants take,
    ``M_arg`` (None in isotropic mode).  Stress and tangent both start from
    it, and each of its arrays is formed once.
    """

    sig: np.ndarray
    wraw: np.ndarray
    g1: np.ndarray
    G: np.ndarray
    I3: np.ndarray
    Cinv: np.ndarray
    M_arg: np.ndarray


def _first_derivatives(model, C, M):
    """The :class:`FirstPass` of ``model`` at C."""
    C = np.asarray(C, dtype=float)
    I3 = np.linalg.det(C)
    sig = sigmoid(_neuron_state(model, C, M, I3))
    Cinv = np.linalg.inv(C)   # after the invariants' positivity guard
    wraw = model.stacked_weights * model.bounds.slope
    g1 = (model.gate_weights * sig) @ wraw
    M_arg = M if model.anisotropy == "transverse" else None
    G = tensors.invariant_gradients(C, M_arg, I3, Cinv)
    return FirstPass(sig, wraw, g1, G, I3, Cinv, M_arg)


def model_energy(model: SurrogateModel, C, M=None):
    """Predicted strain energy density, batched over leading dims of C."""
    z = _neuron_state(model, C, M)
    return model.energy_offset + np.einsum("a,...a->...", model.gate_weights,
                                           softplus(z))


def model_stress(model: SurrogateModel, C, M=None):
    """Second Piola-Kirchhoff stress T = 2 dpsi/dC and its tangent, batched.

    Returns ``(T, tangent)``: ``tangent()`` is :func:`model_tangent` at this
    C from this call's first-derivative pass, bitwise what a separate call
    gives.
    """
    first = _first_derivatives(model, C, M)
    return (2.0 * np.einsum("...k,...kij->...ij", first.g1, first.G),
            lambda: model_tangent(model, C, M, first))


def model_tangent(model: SurrogateModel, C, M=None, first=None):
    """Material tangent 4 d^2psi/dCdC as (...,6,6) Mandel matrices.

    ``first`` is the :class:`FirstPass` at this very C, or None to form it
    here; the tangent is bitwise the same either way.
    """
    if first is None:
        first = _first_derivatives(model, C, M)
    sig, wraw, g1, G, I3, Cinv, M_arg = first
    Gm = tensors.sym_to_mandel(G)
    H = tensors.invariant_hessians(C, M_arg, I3, Cinv)
    # per-neuron Mandel gradient of the neuron input: V_a = sum_k w_ak G_k
    V = np.einsum("ak,...kb->...ab", wraw, Gm, optimize=True)
    curv = np.swapaxes(V, -1, -2) @ (
        (model.gate_weights * sig * (1.0 - sig))[..., None] * V)
    spread = np.einsum("...k,...kab->...ab", g1, H, optimize=True)
    return 4.0 * (curv + spread)


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
    data.write_json(path, {
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
    })


def load_model(path):
    """Inverse of :func:`save_model`.

    Raises :class:`FormatVersionMismatch` for a file that is not a model of
    this format and :class:`CorruptRecord` for one with missing or
    malformed fields, a weight, bias, offset or bound that is not finite, a
    ``growth_mode`` that is not a JSON boolean and an ``n_neurons`` that
    disagrees with the gate weights among them.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatVersionMismatch(f"{path} is not a JSON model: {exc}") from None
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"expected {FORMAT_VERSION!r}, found {version!r} in {path}")
    try:
        fields = {key: np.array(doc[key], dtype=float) for key in (
            "gate_weights", "input_weights", "reciprocal_weights", "biases",
            "energy_offset", "bounds_lower", "bounds_upper")}
        for key, value in fields.items():
            if not np.isfinite(value).all():
                raise CorruptRecord(f"{key} is not finite", path=path)
        if not isinstance(doc["growth_mode"], bool):
            raise CorruptRecord("growth_mode is not a JSON boolean", path=path)
        del fields["energy_offset"]
        model = SurrogateModel(
            doc["anisotropy"], energy_offset=float(doc["energy_offset"]),
            bounds=NormalizationBounds(fields.pop("bounds_lower"),
                                       fields.pop("bounds_upper")),
            growth_mode=doc["growth_mode"], **fields)
        if doc["n_neurons"] != model.n_neurons:
            raise CorruptRecord(f"n_neurons is {doc['n_neurons']!r}, but there are "
                                f"{model.n_neurons} gate weights", path=path)
        return model
    except KeyError as exc:
        raise CorruptRecord(f"{path} has no field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CorruptRecord(f"{path}: {exc}") from None

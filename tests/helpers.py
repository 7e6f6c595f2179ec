"""Shared test factories (kept apart from the independent oracles)."""

import numpy as np
import scipy.sparse.linalg

from matmine import materials, surrogate, tensors

import oracles

LAME_LAMBDA, LAME_MU = 60.0, 40.0
_M1 = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
_SVK_TANGENT = LAME_LAMBDA * np.outer(_M1, _M1) + 2.0 * LAME_MU * np.eye(6)


def svk_stress(C):
    """Quadratic reference material: T = lambda tr(E) 1 + 2 mu E."""
    E = 0.5 * (C - np.eye(3))
    trE = np.trace(E, axis1=-2, axis2=-1)
    return LAME_LAMBDA * trE[..., None, None] * np.eye(3) + 2.0 * LAME_MU * E


def svk_tangent(C):
    return np.broadcast_to(_SVK_TANGENT, np.shape(C)[:-2] + (6, 6))


# the (stress, tangent) pair the hexahedral solvers take
SVK = (svk_stress, svk_tangent)


def svk_nominal(F):
    return F @ svk_stress(tensors.right_cauchy_green(F))


def ogden_energy(F, params):
    """Ogden strain energy density from the deformation gradient (det F > 0)."""
    tensors.jacobian(F)
    return materials.ogden_energy_from_C(tensors.right_cauchy_green(F), params)


def oracle_energy(F, oracle):
    tensors.jacobian(F)
    return materials.oracle_energy_from_C(tensors.right_cauchy_green(F), oracle)


def oracle_stress(F, oracle):
    tensors.jacobian(F)
    return materials.oracle_stress_from_C(tensors.right_cauchy_green(F), oracle)


def random_model(rng, mode="transverse", n_neurons=5, growth=False):
    """Random surrogate with bounds taken from a cloud of random states."""
    n_base = 5 if mode == "transverse" else 3
    samples = np.stack([oracles.random_spd(rng, 0.4) for _ in range(60)])
    M = tensors.structural_tensor([0.0, 0.0, 1.0])
    values = tensors.invariants(samples, M if mode == "transverse" else None)
    bounds = surrogate.NormalizationBounds.from_invariants(values)
    W = np.abs(rng.normal(0.5, 0.3, n_neurons)) + 0.05 if growth \
        else rng.normal(0.0, 0.6, n_neurons)
    model = surrogate.SurrogateModel(
        anisotropy=mode,
        gate_weights=W,
        input_weights=rng.normal(0.0, 0.7, (n_neurons, n_base)),
        reciprocal_weights=rng.normal(0.0, 0.7, n_neurons),
        biases=rng.normal(0.0, 0.5, n_neurons),
        energy_offset=0.0,
        bounds=bounds,
        growth_mode=growth,
    )
    return surrogate.fix_energy_offset(model), M


def one_neuron_model(growth_mode=False):
    """Isotropic one-neuron network, stress free at the identity by construction."""
    bounds = surrogate.NormalizationBounds((2.0, 2.0, 0.0, 0.0),
                                           (4.0, 4.0, 2.0, 2.0))
    model = surrogate.SurrogateModel(
        anisotropy="isotropic", gate_weights=[120.0],
        input_weights=[[1.0, 1.0, 1.0]], reciprocal_weights=[4.0],
        biases=[0.0], energy_offset=0.0, bounds=bounds, growth_mode=growth_mode)
    return surrogate.fix_energy_offset(model)


def force_colamd(monkeypatch):
    """Make every ``spsolve`` through the module use SuperLU's COLAMD ordering.

    Returns the list the wrapper appends one entry to per call.
    """
    calls = []
    spsolve = scipy.sparse.linalg.spsolve

    def colamd(A, b, *args, **kwargs):
        calls.append(1)
        return spsolve(A, b, permc_spec="COLAMD")

    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", colamd)
    return calls

"""Stress-matching training of the invariant-space surrogate.

The objective is a sum over samples of the Euclidean norm of the stress
residual on the six independent components of the second Piola-Kirchhoff
tensor; energies never enter, the model learns the potential purely from its
gradient.  Optimization is quasi-Newton (L-BFGS-B) with an analytic gradient,
restarted from multiple seeded initializations; the best feasible restart by
training loss wins.

The volumetric-growth constraint (positive gate weights, at least one
positive weight on the determinant invariant and on its reciprocal) is
enforced by softplus reparameterization of the constrained entries, so every
restart is structurally feasible.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from . import tensors
from .data import DataSet, atomic_write
from .errors import AsymmetricStressTarget, EmptyDataSet, NoFeasibleRestart
from .surrogate import (DET_SLOT, NormalizationBounds, SurrogateModel,
                        check_growth_condition, fix_energy_offset, softplus)

# plain (unweighted) component order (11, 22, 33, 23, 13, 12)
_ROWS = tensors.MANDEL_ROWS
_COLS = tensors.MANDEL_COLS


@dataclass
class TrainingConfig:
    n_neurons: int = 15
    restarts: int = 25
    seed: int = 0
    growth_mode: bool = True
    anisotropy: str = "transverse"
    train_fraction: float = 0.8
    max_iterations: int = 4000
    symmetry_tolerance: float = 1e-8


@dataclass
class RestartRecord:
    index: int
    train_loss: float
    test_loss: float
    n_iterations: int
    converged: bool
    feasible: bool


@dataclass
class TrainingReport:
    n_data: int
    n_train: int
    n_test: int
    config: dict
    restarts: list
    selected_restart: int
    train_loss: float
    test_loss: float
    growth: dict
    wall_seconds: float

    def to_dict(self):
        return asdict(self)

    def save(self, path):
        with atomic_write(path) as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")


def second_pk_targets(dataset: DataSet, tol=1e-8):
    """T = F^-1 P for every tuple, asymmetry-checked and symmetrized.

    An asymmetry above ``tol`` (relative to the largest stress magnitude)
    means the (F, P) pair cannot come from a balanced microscale state and
    is a data error.
    """
    Finv = np.linalg.inv(dataset.F)
    T = np.einsum("mik,mkj->mij", Finv, dataset.P)
    skew = np.abs(T - np.swapaxes(T, -1, -2)).max()
    scale = max(np.abs(T).max(), 1.0)
    if skew > tol * scale:
        raise AsymmetricStressTarget(
            f"max |T - T^T| = {skew:g} exceeds {tol:g} * {scale:g}")
    return tensors.sym(T)


def split_dataset(n, seed, train_fraction=0.8):
    """Seeded permutation split; returns (train_idx, test_idx)."""
    perm = np.random.default_rng(seed).permutation(n)
    n_train = max(1, int(round(train_fraction * n)))
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


@dataclass
class _Features:
    inputs: np.ndarray    # (m, k) normalized invariants
    grads: np.ndarray     # (m, k, 6) component gradients scaled by 2*slope
    targets: np.ndarray   # (m, 6) stress components


def _build_features(C, M, raw, bounds, targets):
    """Features of right Cauchy-Green tensors C with raw invariants ``raw``."""
    G = tensors.invariant_gradients(C, M)
    Gc = G[..., _ROWS, _COLS]                      # (m, k, 6)
    Gs = 2.0 * bounds.slope[None, :, None] * Gc
    Tc = targets[..., _ROWS, _COLS]
    return _Features(bounds.normalize(raw), Gs, Tc)


def _decode(theta, n, k_base, growth):
    """Unpack the flat parameter vector -> natural weights + chain multipliers."""
    W = theta[:n].copy()
    w = theta[n:n + n * k_base].reshape(n, k_base).copy()
    wrec = theta[n + n * k_base:n + n * k_base + n].copy()
    b = theta[-n:].copy()
    mW = np.ones(n)
    mw = np.ones((n, k_base))
    mrec = np.ones(n)
    if growth:
        mW = expit(W)
        W = softplus(W)
        mw[0, DET_SLOT] = expit(w[0, DET_SLOT])
        w[0, DET_SLOT] = softplus(w[0, DET_SLOT])
        mrec[0] = expit(wrec[0])
        wrec[0] = softplus(wrec[0])
    return W, w, wrec, b, mW, mw, mrec


def stress_loss(theta, feats: _Features, n, k_base, growth, need_grad=True):
    """Sum over samples of ||T_model - T_target|| plus its gradient."""
    W, w, wrec, b, mW, mw, mrec = _decode(np.asarray(theta, dtype=float),
                                          n, k_base, growth)
    wt = np.concatenate([w, wrec[:, None]], axis=1)      # (n, k)
    z = feats.inputs @ wt.T + b                          # (m, n)
    sig = expit(z)
    g1 = (sig * W) @ wt                                  # (m, k)
    model_T = np.einsum("mk,mkc->mc", g1, feats.grads)
    r = model_T - feats.targets
    norms = np.sqrt(np.sum(r * r, axis=1))
    loss = float(np.sum(norms))
    if not need_grad:
        return loss
    q = np.divide(r, norms[:, None], out=np.zeros_like(r), where=norms[:, None] > 0.0)
    a = np.einsum("mc,mkc->mk", q, feats.grads)          # dL/dg1
    h = a @ wt.T                                         # (m, n)
    dW = np.sum(sig * h, axis=0)
    sigp = sig * (1.0 - sig)
    dwt = W[:, None] * (np.einsum("ma,ma,mk->ak", sigp, h, feats.inputs)
                        + sig.T @ a)
    db = W * np.sum(sigp * h, axis=0)
    grad = np.concatenate([
        dW * mW,
        (dwt[:, :k_base] * mw).ravel(),
        dwt[:, k_base] * mrec,
        db,
    ])
    return loss, grad


def _softplus_inverse(y):
    y = np.asarray(y, dtype=float)
    return np.where(y > 30.0, y, np.log(np.expm1(np.minimum(y, 30.0))))


def _initial_theta(rng, n, k_base, growth, stress_scale):
    gates = rng.uniform(0.3, 1.2, n) * stress_scale / n
    w = rng.normal(0.0, 0.8, (n, k_base))
    wrec = rng.normal(0.0, 0.8, n)
    b = rng.normal(0.0, 0.5, n)
    if growth:
        gates = _softplus_inverse(gates)
        w[0, DET_SLOT] = _softplus_inverse(rng.uniform(0.1, 0.8))
        wrec[0] = _softplus_inverse(rng.uniform(0.1, 0.8))
    return np.concatenate([gates, w.ravel(), wrec, b])


def _model_from_theta(theta, n, k_base, config, bounds, M):
    W, w, wrec, b, *_ = _decode(theta, n, k_base, config.growth_mode)
    model = SurrogateModel(
        anisotropy=config.anisotropy,
        gate_weights=W, input_weights=w, reciprocal_weights=wrec, biases=b,
        energy_offset=0.0, bounds=bounds, growth_mode=config.growth_mode)
    return fix_energy_offset(model, M)


def train(dataset: DataSet, config: TrainingConfig, fiber_axis=(0.0, 0.0, 1.0)):
    """Fit a surrogate to the dataset; returns (model, report).

    ``fiber_axis`` is the preferred direction in the frame the data tuples
    live in (ignored in isotropic mode).  Restarts run sequentially from
    seeds spawned off ``config.seed``, so results are reproducible bit for
    bit for a fixed configuration.
    """
    t0 = time.perf_counter()
    m = len(dataset)
    if m == 0:
        raise EmptyDataSet("cannot train on an empty dataset")
    targets = second_pk_targets(dataset, tol=config.symmetry_tolerance)

    C = tensors.right_cauchy_green(dataset.F)
    M = tensors.structural_tensor(fiber_axis) if config.anisotropy == "transverse" else None
    raw = tensors.invariants(C, M)
    bounds = NormalizationBounds.from_invariants(raw)

    feats = _build_features(C, M, raw, bounds, targets)
    train_idx, test_idx = split_dataset(m, config.seed, config.train_fraction)
    f_train = _Features(feats.inputs[train_idx], feats.grads[train_idx],
                        feats.targets[train_idx])
    f_test = _Features(feats.inputs[test_idx], feats.grads[test_idx],
                       feats.targets[test_idx]) if len(test_idx) else None

    n = config.n_neurons
    k_base = 5 if config.anisotropy == "transverse" else 3
    stress_scale = float(np.median(np.linalg.norm(feats.targets, axis=1)))
    if not np.isfinite(stress_scale) or stress_scale <= 0.0:
        stress_scale = 1.0

    records = []
    thetas = []
    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    for i, seq in enumerate(seeds):
        rng = np.random.default_rng(seq)
        theta0 = _initial_theta(rng, n, k_base, config.growth_mode, stress_scale)
        res = minimize(stress_loss, theta0, jac=True, method="L-BFGS-B",
                       args=(f_train, n, k_base, config.growth_mode),
                       options={"maxiter": config.max_iterations,
                                "maxfun": 4 * config.max_iterations,
                                "ftol": 1e-14, "gtol": 1e-10})
        train_loss = float(res.fun)
        model = _model_from_theta(res.x, n, k_base, config, bounds, M)
        feasible = np.isfinite(train_loss) and (
            not config.growth_mode or check_growth_condition(model).satisfied)
        test_loss = (stress_loss(res.x, f_test, n, k_base, config.growth_mode,
                                 need_grad=False)
                     if f_test is not None else float("nan"))
        records.append(RestartRecord(i, train_loss, float(test_loss),
                                     int(res.nit), bool(res.success), bool(feasible)))
        thetas.append(res.x)

    feasible_ids = [r.index for r in records if r.feasible]
    if not feasible_ids:
        raise NoFeasibleRestart(f"all {config.restarts} restarts infeasible")
    best = min(feasible_ids, key=lambda i: records[i].train_loss)

    model = _model_from_theta(thetas[best], n, k_base, config, bounds, M)
    report = TrainingReport(
        n_data=m, n_train=len(train_idx), n_test=len(test_idx),
        config=asdict(config),
        restarts=[asdict(r) for r in records],
        selected_restart=best,
        train_loss=records[best].train_loss,
        test_loss=records[best].test_loss,
        growth=asdict(check_growth_condition(model)),
        wall_seconds=time.perf_counter() - t0,
    )
    return model, report

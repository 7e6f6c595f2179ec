"""Stress-matching training of the invariant-space surrogate.

The objective is a sum over samples of the Euclidean norm of the stress
residual on the six independent components of the second Piola-Kirchhoff
tensor; energies never enter, the model learns the potential purely from its
gradient.  Every restart starts from its own seeded initialization, and one
numpy L-BFGS with an analytic gradient steps all of them in lockstep through
one stacked loss, freezing each restart once it converges or its line search
fails; the best feasible restart by training loss wins.

The volumetric-growth constraint (positive gate weights, at least one
positive weight on the determinant invariant and on its reciprocal) is
enforced by softplus reparameterization of the constrained entries, so every
restart is structurally feasible.  ``softplus`` and ``sigmoid`` are the
surrogate's own, so the fit and the deployed model share their arithmetic."""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import tensors
from .data import DataSet, atomic_write
from .errors import AsymmetricStressTarget, EmptyDataSet, NoFeasibleRestart
from .surrogate import (DET_SLOT, NormalizationBounds, SurrogateModel,
                        check_growth_condition, fix_energy_offset, sigmoid,
                        softplus)

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
    """Training samples, laid out with the sample axis last."""

    inputs: np.ndarray    # (m, k + 1) normalized invariants and a column of ones
    grads: np.ndarray     # (k, 6, m) component gradients scaled by 2*slope
    targets: np.ndarray   # (6, m) stress components

    def subset(self, idx):
        return _Features(self.inputs[idx],
                         np.ascontiguousarray(self.grads[..., idx]),
                         np.ascontiguousarray(self.targets[:, idx]))


def _build_features(C, M, raw, bounds, targets):
    """Features of right Cauchy-Green tensors C with raw invariants ``raw``."""
    G = tensors.invariant_gradients(C, M)
    Gc = G[..., _ROWS, _COLS]                      # (m, k, 6)
    Gs = 2.0 * bounds.slope[None, :, None] * Gc
    Tc = targets[..., _ROWS, _COLS]
    x = bounds.normalize(raw)
    inputs = np.concatenate([x, np.ones((len(x), 1))], axis=1)
    return _Features(inputs, np.ascontiguousarray(np.moveaxis(Gs, 0, -1)),
                     np.ascontiguousarray(Tc.T))


@functools.lru_cache(maxsize=None)
def _layout(n, k_base):
    """Index maps between theta and the gates plus weight matrix [w | wrec | b].

    theta is [W (n), w (n*k_base), wrec (n), b (n)]; the matrix has one row
    per neuron.  Returns the theta indices that fill the raveled matrix, the
    indices into [W, raveled matrix] that give theta back, and the theta
    indices the growth reparameterization constrains (W, w[0, DET_SLOT] and
    wrec[0]).
    """
    nw = n * k_base
    rows = np.concatenate([np.arange(nw).reshape(n, k_base),
                           nw + np.arange(n)[:, None],
                           nw + n + np.arange(n)[:, None]], axis=1).ravel()
    to_matrix = n + rows
    to_theta = np.concatenate([np.arange(n), n + np.argsort(rows)])
    constrained = np.concatenate([np.arange(n), [n + DET_SLOT, n + nw]])
    for index in (to_matrix, to_theta, constrained):
        index.flags.writeable = False
    return to_matrix, to_theta, constrained


def _decode(theta, n, k_base, growth):
    """Natural weights of an (R, p) parameter stack.

    Returns the gates W (R, n), the weight matrix A (R, n, k_base + 2) whose
    columns are the input weights, the reciprocal weight and the bias, and
    the chain-rule multipliers of the growth reparameterization, one per
    constrained theta entry (None without it).  W is a view of theta when
    ``growth`` is off; A is the one gathered copy.
    """
    to_matrix, _, constrained = _layout(n, k_base)
    A = theta[:, to_matrix].reshape(len(theta), n, k_base + 2)
    if not growth:
        return theta[:, :n], A, None
    raw = theta[:, constrained]
    natural = softplus(raw)
    A[:, 0, DET_SLOT] = natural[:, n]
    A[:, 0, k_base] = natural[:, n + 1]
    return natural[:, :n], A, sigmoid(raw)


def stress_loss(theta, feats: _Features, n, k_base, growth, need_grad=True):
    """Sum over samples of ||T_model - T_target|| plus its gradient.

    ``theta`` is an (R, p) stack of parameter vectors, one per restart;
    the call gives (R,) losses and an (R, p) gradient whose row r equals
    the call on the one-row stack ``theta[r:r + 1]``.
    """
    # Every matmul below is batched over the leading restart axis (one BLAS
    # call per restart), every einsum and sum reduces over an invariant,
    # component, neuron or sample axis only, so row r of the result is
    # computed the same way whatever else is in the stack.
    W, A, chain = _decode(theta, n, k_base, growth)
    k = k_base + 1
    wt = A[:, :, :k]                                     # (R, n, k)
    sig = sigmoid(A @ feats.inputs.T)                   # (R, n, m)
    g1 = np.swapaxes(wt, 1, 2) @ (sig * W[:, :, None])   # (R, k, m)
    r = np.einsum("rkm,kcm->rcm", g1, feats.grads) - feats.targets
    norms = np.sqrt(np.einsum("rcm,rcm->rm", r, r))      # (R, m)
    loss = norms.sum(axis=1)
    if not need_grad:
        return loss
    q = r * (1.0 / np.where(norms > 0.0, norms, np.inf))[:, None, :]
    a = np.einsum("rcm,kcm->rkm", q, feats.grads)        # (R, k, m) dL/dg1
    sh = sig * (wt @ a)                                  # (R, n, m)
    dA = (sh - sig * sh) @ feats.inputs                  # (R, n, k + 1)
    dA[:, :, :k] += sig @ np.swapaxes(a, 1, 2)
    dA *= W[:, :, None]
    _, to_theta, constrained = _layout(n, k_base)
    grad = np.concatenate([sh.sum(axis=2), dA.reshape(len(theta), -1)],
                          axis=1)[:, to_theta]
    if chain is not None:
        grad[:, constrained] *= chain
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


class _History:
    """The last ``size`` L-BFGS pairs of every restart, in compact form.

    Pairs are kept oldest first, zero-padded at the front until ``size``
    have been stored; ``pairs[:, i]`` holds (s_i, y_i).  Besides the pairs
    it keeps, stacked as ``gram[:, 0]`` and ``gram[:, 1]``, the inverse of
    the upper triangle R of S^T Y and Y^T Y.  A new pair extends R by one
    column, so the inverse-Hessian product of Byrd, Nocedal and Schnabel
    needs only small matrix products; padded slots carry a unit diagonal in
    R and drop out.  Methods take ``sel``, the restarts to act on: an index
    array, or a full slice, in which case they work on views in place.
    """

    def __init__(self, R, p, size):
        self.size = size
        self.pairs = np.zeros((R, size, 2, p))
        self.gram = np.zeros((R, 2, size, size))
        self.gram[:, 0] = np.eye(size)
        self.gamma = np.ones(R)
        self.empty = np.ones(R, dtype=bool)

    def reset(self, rows):
        self.pairs[rows] = 0.0
        self.gram[rows] = 0.0
        self.gram[rows, 0] = np.eye(self.size)
        self.gamma[rows] = 1.0
        self.empty[rows] = True

    def apply(self, sel, g):
        """H g for the restarts ``sel``."""
        B = self.pairs[sel].reshape(len(g), -1, g.shape[1])   # s_0, y_0, s_1, ...
        Rinv, YY = self.gram[sel, 0], self.gram[sel, 1]
        gam = self.gamma[sel, None]
        uv = (B @ g[:, :, None])[:, :, 0]
        w = (Rinv @ uv[:, 0::2, None])[:, :, 0]
        # diag(R) = 1 / diag(Rinv); padded slots have w = 0
        rhs = (w / np.diagonal(Rinv, axis1=1, axis2=2)
               + gam * ((YY @ w[:, :, None])[:, :, 0] - uv[:, 1::2]))
        coef = np.empty((len(g), 1, 2 * self.size))
        coef[:, 0, 0::2] = (np.swapaxes(Rinv, 1, 2) @ rhs[:, :, None])[:, :, 0]
        coef[:, 0, 1::2] = -gam * w
        return gam * g + (coef @ B)[:, 0, :]

    def push(self, sel, s, y):
        """Append the pair (s, y) to each restart of ``sel``, skipping those
        whose curvature s.y is not positive."""
        sy = np.einsum("ap,ap->a", s, y)
        yy = np.einsum("ap,ap->a", y, y)
        ok = sy > _EPS * yy
        if not ok.all():
            sel = np.arange(len(self.gamma))[sel][ok]
            s, y, sy, yy = s[ok], y[ok], sy[ok], yy[ok]
            if not len(s):
                return
        pairs, gram = self.pairs[sel], self.gram[sel]
        pairs[:, :-1] = pairs[:, 1:]
        pairs[:, -1, 0], pairs[:, -1, 1] = s, y
        By = (pairs.reshape(len(s), -1, s.shape[1]) @ y[:, :, None])[:, :, 0]
        gram[:, :, :-1, :-1] = gram[:, :, 1:, 1:]
        Rinv, YY = gram[:, 0], gram[:, 1]
        Rinv[:, -1, :-1] = 0.0
        Rinv[:, :-1, -1] = (Rinv[:, :-1, :-1] @ By[:, 0:-2:2, None])[:, :, 0] \
            * (-1.0 / sy[:, None])
        Rinv[:, -1, -1] = 1.0 / sy
        YY[:, -1, :] = YY[:, :, -1] = By[:, 1::2]
        if not isinstance(sel, slice):
            self.pairs[sel], self.gram[sel] = pairs, gram
        self.gamma[sel] = sy / yy
        self.empty[sel] = False


_EPS = np.finfo(float).eps
_HISTORY = 10
_ARMIJO = 1e-4
_MAX_TRIALS = 20
# stopping tests, as L-BFGS-B's pgtol and factr * machine epsilon
_GTOL = 1e-10
_FTOL = 1e-14


def _shrink(a, f0, s0, f1, s1):
    """Next backtracking step from the values f and slopes s along the
    search direction at 0 and at the rejected step ``a``: the minimizer of
    the interpolating cubic (of the quadratic through f0, s0, f1 where the
    cubic has none, a tenth of ``a`` where neither is finite), clipped to
    [0.1 a, 0.5 a]."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        d1 = s0 + s1 - 3.0 * (f1 - f0) / a
        d2 = np.sqrt(d1 * d1 - s0 * s1)
        cubic = a - a * (s1 + d2 - d1) / (s1 - s0 + 2.0 * d2)
        quad = -s0 * a * a / (2.0 * (f1 - f0 - a * s0))
    step = np.where(np.isfinite(cubic), cubic,
                    np.where(np.isfinite(quad), quad, 0.1 * a))
    return np.clip(step, 0.1 * a, 0.5 * a)


def _line_search(fun, x, f, d, slope, alpha):
    """Backtracking Armijo search from each row of x along the row of d.

    Only the rows still searching are evaluated again.  Returns the accepted
    points, their values and gradients, and a mask of the rows that found
    none within ``_MAX_TRIALS`` trial points.
    """
    trial = x + alpha[:, None] * d
    ft, gt = fun(trial)
    ok = (ft <= f + _ARMIJO * alpha * slope) & np.isfinite(gt).all(axis=1)
    if ok.all():
        return trial, ft, gt, ~ok
    x_new, f_new, g_new = trial, ft, gt
    searching = np.flatnonzero(~ok)
    for _ in range(_MAX_TRIALS - 1):
        a, f0, s0 = alpha[searching], f[searching], slope[searching]
        s1 = np.einsum("ap,ap->a", gt[~ok], d[searching])
        alpha[searching] = _shrink(a, f0, s0, ft[~ok], s1)
        trial = x[searching] + alpha[searching, None] * d[searching]
        ft, gt = fun(trial)
        ok = ((ft <= f0 + _ARMIJO * alpha[searching] * s0)
              & np.isfinite(gt).all(axis=1))
        done = searching[ok]
        x_new[done], f_new[done], g_new[done] = trial[ok], ft[ok], gt[ok]
        searching = searching[~ok]
        if not len(searching):
            break
    failed = np.zeros(len(x), dtype=bool)
    failed[searching] = True
    return x_new, f_new, g_new, failed


def lbfgs(fun, x0, max_iterations):
    """Minimize R independent functions in lockstep with L-BFGS.

    ``fun(X)`` takes an (A, p) stack of points, one row per restart still
    running, and returns their (A,) values and (A, p) gradients; row i of
    the result must depend on row i of ``X`` alone.  ``x0`` is (R, p).

    Every iteration steps each running restart along its own L-BFGS
    direction (from its last ``_HISTORY`` pairs) with a backtracking Armijo
    line search: a trial point whose value is non-finite or too high
    shrinks that restart's step by cubic interpolation (``_shrink``).  A
    restart stops, converged, once its largest gradient component is at
    most ``_GTOL`` or a step lowers its value by at most ``_FTOL`` times
    max(|f|, |f_new|, 1); it stops unconverged after ``max_iterations``
    steps, when its line search fails, or when its accepted step leaves x
    unchanged.  A stopped restart is never evaluated again.  Each restart's
    arithmetic is the same whichever others run beside it provided ``fun``
    returns C-ordered gradients: numpy sums the rows of a Fortran-ordered
    stack in another order than those of a row subset, which is C-ordered.

    Returns ``(x, f, n_iterations, converged)`` with one row or entry per
    restart.
    """
    x = np.array(x0, dtype=float)
    R = len(x)
    f, g = fun(x)
    f, g = np.array(f, dtype=float), np.array(g, dtype=float)
    finite = np.isfinite(f) & np.isfinite(g).all(axis=1)
    converged = finite & (np.abs(g).max(axis=1) <= _GTOL)
    running = finite & ~converged & (max_iterations > 0)
    nit = np.zeros(R, dtype=int)
    hist = _History(R, x.shape[1], _HISTORY)

    while running.any():
        rows = np.flatnonzero(running)
        sel = slice(None) if len(rows) == R else rows
        xs, fs, gs = x[sel], f[sel], g[sel]
        d = hist.apply(sel, gs)
        np.negative(d, out=d)
        gd = np.einsum("ap,ap->a", gs, d)
        uphill = ~(gd < 0.0)
        if uphill.any():
            hist.reset(rows[uphill])
            d[uphill] = -gs[uphill]
            gd[uphill] = -np.einsum("ap,ap->a", gs[uphill], gs[uphill])
        alpha = np.ones(len(rows))
        fresh = hist.empty[sel]
        if fresh.any():
            alpha[fresh] = np.minimum(1.0, 1.0 / np.linalg.norm(gs[fresh], axis=1))

        x_new, f_new, g_new, failed = _line_search(fun, xs, fs, d, gd, alpha)
        if failed.any():
            running[rows[failed]] = False
            keep = ~failed
            if not keep.any():
                continue
            sel = rows = rows[keep]
            xs, fs, gs = xs[keep], fs[keep], gs[keep]
            x_new, f_new, g_new = x_new[keep], f_new[keep], g_new[keep]
        hist.push(sel, x_new - xs, g_new - gs)
        done = ((np.abs(g_new).max(axis=1) <= _GTOL)
                | (fs - f_new <= _FTOL * np.maximum(
                    np.maximum(np.abs(fs), np.abs(f_new)), 1.0)))
        # a step shrunk below x's resolution passes the Armijo test with equality
        stuck = (x_new == xs).all(axis=1)
        x[sel], f[sel], g[sel] = x_new, f_new, g_new
        nit[sel] += 1
        converged[sel] = done & ~stuck
        running[sel] = ~(done | stuck) & (nit[sel] < max_iterations)
    return x, f, nit, converged


def _model_from_theta(theta, n, k_base, config, bounds, M):
    W, A, _ = _decode(theta[None], n, k_base, config.growth_mode)
    model = SurrogateModel(
        anisotropy=config.anisotropy, gate_weights=W[0].copy(),
        input_weights=A[0, :, :k_base].copy(),
        reciprocal_weights=A[0, :, k_base].copy(), biases=A[0, :, -1].copy(),
        energy_offset=0.0, bounds=bounds, growth_mode=config.growth_mode)
    return fix_energy_offset(model, M)


def train(dataset: DataSet, config: TrainingConfig, fiber_axis=(0.0, 0.0, 1.0)):
    """Fit a surrogate to the dataset; returns (model, report).

    ``fiber_axis`` is the preferred direction in the frame the data tuples
    live in (ignored in isotropic mode).  Every restart starts from its own
    seed spawned off ``config.seed``, and :func:`lbfgs` steps them all in
    lockstep through one stacked loss.  Results are reproducible bit for
    bit for a fixed configuration.  The first R >= 2 restarts match those of
    a run with more restarts while every restart runs to ``max_iterations``;
    otherwise they can differ in the last bits, because :func:`stress_loss`
    returns its gradient in Fortran order (see :func:`lbfgs`).
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
    f_train = feats.subset(train_idx)
    f_test = feats.subset(test_idx) if len(test_idx) else None

    n = config.n_neurons
    k_base = 5 if config.anisotropy == "transverse" else 3
    stress_scale = float(np.median(np.linalg.norm(feats.targets, axis=0)))
    if not np.isfinite(stress_scale) or stress_scale <= 0.0:
        stress_scale = 1.0

    growth = config.growth_mode
    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    theta0 = np.stack([_initial_theta(np.random.default_rng(seq), n, k_base,
                                      growth, stress_scale) for seq in seeds])
    thetas, train_losses, n_iterations, converged = lbfgs(
        lambda theta: stress_loss(theta, f_train, n, k_base, growth),
        theta0, config.max_iterations)
    test_losses = (stress_loss(thetas, f_test, n, k_base, growth, need_grad=False)
                   if f_test is not None else np.full(len(thetas), np.nan))

    records = []
    for i, theta in enumerate(thetas):
        train_loss = float(train_losses[i])
        model = _model_from_theta(theta, n, k_base, config, bounds, M)
        feasible = np.isfinite(train_loss) and (
            not growth or check_growth_condition(model).satisfied)
        records.append(RestartRecord(i, train_loss, float(test_losses[i]),
                                     int(n_iterations[i]), bool(converged[i]),
                                     bool(feasible)))

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

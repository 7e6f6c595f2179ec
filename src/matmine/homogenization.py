"""Microscale models: controlled load paths and voxel RVE homogenization.

Two levels of fidelity share this module.  For constitutive sampling we drive
a single material point along mixed-control load paths (some deformation
gradient entries prescribed, the rest found so the conjugate nominal stress
components vanish); ``initial_load_suite`` lists the seed paths that
``mining.initial_dataset`` drives through an oracle's pointwise stress.  The
voxel oracle solves a periodic first-order homogenization problem on a
voxelized representative volume, and the scatter of apparent properties
across random realizations sizes that volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem, materials
from .errors import MatmineError, NewtonDivergence, ZeroMean

AXIS_NAMES = ("x1", "x2", "x3")


# ---------------------------------------------------------------------------
# mixed-control material point driver

@dataclass(frozen=True)
class LoadCase:
    """Mixed control at a material point.

    ``values`` holds the fully ramped deformation gradient entries where
    ``prescribed`` is True; on the remaining entries the nominal stress is
    required to vanish and the deformation is free.
    """

    name: str
    values: np.ndarray
    prescribed: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "prescribed",
                           np.asarray(self.prescribed, dtype=bool))
        if self.values.shape != (3, 3) or self.prescribed.shape != (3, 3):
            raise ValueError("load case needs 3x3 values and mask")


def uniaxial_case(axis, stretch):
    mask = np.ones((3, 3), dtype=bool)
    mask[np.arange(3) != axis, np.arange(3) != axis] = False
    values = np.eye(3)
    values[axis, axis] = stretch
    kind = "tension" if stretch >= 1.0 else "compression"
    return LoadCase(f"uniaxial-{kind}-{AXIS_NAMES[axis]}", values, mask)


def equibiaxial_case(axis_a, axis_b, stretch):
    free = 3 - axis_a - axis_b
    mask = np.ones((3, 3), dtype=bool)
    mask[free, free] = False
    values = np.eye(3)
    values[axis_a, axis_a] = stretch
    values[axis_b, axis_b] = stretch
    kind = "tension" if stretch >= 1.0 else "compression"
    return LoadCase(
        f"equibiaxial-{kind}-{AXIS_NAMES[axis_a]}{AXIS_NAMES[axis_b]}",
        values, mask)


def shear_case(row, col, amount):
    values = np.eye(3)
    values[row, col] = amount
    return LoadCase(f"simple-shear-{AXIS_NAMES[row]}{AXIS_NAMES[col]}",
                    values, np.ones((3, 3), dtype=bool))


def initial_load_suite():
    """The 18 seed paths: 4 axial families over all axes plus 6 shears."""
    cases = []
    for k in range(3):
        cases.append(uniaxial_case(k, 1.6))
    for a, b in ((0, 1), (0, 2), (1, 2)):
        cases.append(equibiaxial_case(a, b, 1.3))
    for k in range(3):
        cases.append(uniaxial_case(k, 0.7))
    for a, b in ((0, 1), (0, 2), (1, 2)):
        cases.append(equibiaxial_case(a, b, 0.85))
    for r, c in ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)):
        cases.append(shear_case(r, c, 0.5))
    return cases


@dataclass
class MaterialPath:
    """Deformation/stress history of one driven material point."""

    name: str
    t: np.ndarray
    F: np.ndarray
    P: np.ndarray


def drive_material_point(stress, case: LoadCase, n_steps=12,
                         force_scale=None):
    """Follow a mixed-control path with Newton iteration on the free entries.

    ``stress`` maps a deformation gradient to the nominal stress.  The path
    ramps the prescribed entries linearly from the identity in ``n_steps``
    increments (the returned history includes the undeformed state).  Free
    entries warm start from the previous converged step and converge once
    their stresses are within 1e-9 ``force_scale``, in at most 40 updates.
    """
    if force_scale is None:
        force_scale = materials.MATRIX_RUBBER.initial_shear_modulus
    tol = 1e-9 * force_scale
    free = ~case.prescribed
    free_idx = np.argwhere(free)

    t_hist = np.linspace(0.0, 1.0, n_steps + 1)
    F_hist = np.empty((n_steps + 1, 3, 3))
    P_hist = np.empty((n_steps + 1, 3, 3))
    F = np.eye(3)
    for k, t in enumerate(t_hist):
        F = F.copy()
        F[case.prescribed] = (np.eye(3) + t * (case.values - np.eye(3)))[case.prescribed]
        if free_idx.size:
            F, P = _solve_free_entries(stress, F, free_idx, tol, case.name, t)
        else:
            P = stress(F)
        F_hist[k] = F
        P_hist[k] = P
    return MaterialPath(case.name, t_hist, F_hist, P_hist)


def _solve_free_entries(stress, F, free_idx, tol, name, t):
    """Free entries of F that zero their stresses: (F, stress(F))."""
    rows, cols = free_idx[:, 0], free_idx[:, 1]
    F = F.copy()

    def residual(Fc):
        return stress(Fc)[rows, cols]

    P = stress(F)
    r = P[rows, cols]
    for _ in range(40):
        if np.max(np.abs(r)) <= tol:
            return F, P
        J = np.empty((len(rows), len(rows)))
        for j, (i, jj) in enumerate(free_idx):
            h = 1e-7 * max(1.0, abs(F[i, jj]))
            Fp = F.copy(); Fp[i, jj] += h
            Fm = F.copy(); Fm[i, jj] -= h
            J[:, j] = (residual(Fp) - residual(Fm)) / (2.0 * h)
        try:
            dx = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergence(
                f"singular Jacobian on path {name} at t={t:g}") from exc
        norm0 = np.linalg.norm(r)
        alpha = 1.0
        while True:
            Ftry = F.copy()
            Ftry[rows, cols] += alpha * dx
            try:
                P_try = stress(Ftry)
            except (MatmineError, FloatingPointError):
                P_try = None
            if (P_try is not None
                    and np.linalg.norm(P_try[rows, cols]) < norm0):
                F, P, r = Ftry, P_try, P_try[rows, cols]
                break
            alpha *= 0.5
            if alpha < 2.0 ** -10:
                raise NewtonDivergence(
                    f"line search stalled on path {name} at t={t:g}")
    if np.max(np.abs(r)) <= tol:
        return F, P
    raise NewtonDivergence(
        f"no convergence in 40 iterations on path {name} "
        f"at t={t:g} (|r|={np.max(np.abs(r)):.3e}, tol={tol:.3e})")


# ---------------------------------------------------------------------------
# voxel RVE with periodic fluctuations

@dataclass
class VoxelRVE:
    """Cubic voxel grid of two-phase hyperelastic material.

    ``phase`` is an (n, n, n) integer array selecting into ``phases`` per
    voxel of the unit cube, so each voxel has edge 1/n.  Node fluctuations
    are periodic, so opposite faces share nodes and the grid has n**3
    distinct nodes for n**3 elements.
    """

    phase: np.ndarray
    phases: tuple

    def __post_init__(self):
        self.phase = np.asarray(self.phase, dtype=int)
        n = self.phase.shape[0]
        if self.phase.shape != (n, n, n):
            raise ValueError("phase array must be a cube")
        if self.phase.min() < 0 or self.phase.max() >= len(self.phases):
            raise ValueError("phase index out of range")

    @property
    def n(self):
        return self.phase.shape[0]


def fiber_rve(n, volume_fraction, seed, phases=None):
    """Random stiff columns along x3.

    Each of the n*n columns is stiff with probability ``volume_fraction``
    independently, so the realized fraction fluctuates and the fluctuation
    shrinks as the cell grows.
    """
    if phases is None:
        phases = (materials.MATRIX_RUBBER, materials.FIBER_STIFF)
    rng = np.random.default_rng(seed)
    picks = rng.random(n * n) < volume_fraction
    phase = np.zeros((n, n, n), dtype=int)
    phase.reshape(n * n, n)[picks, :] = 1
    return VoxelRVE(phase, phases)


def _voxel_topology(rve: VoxelRVE):
    """Node coordinates (unwrapped, per element) and wrapped connectivity."""
    n = rve.n
    corners = fem.grid_corners((n, n, n))
    conn = np.ravel_multi_index(np.moveaxis(corners, -1, 0), (n, n, n), mode="wrap")
    return (corners * (1.0 / n)).astype(float), conn


@dataclass
class VoxelSolution:
    """Converged periodic cell problem at one macroscopic deformation.

    ``F_step`` (3x3) and ``u_step`` (n_nodes x 3) are the last increment's
    (dg, du) of :func:`fem.ramp`, the step a solve started from this one
    predicts along.  ``iterations`` counts the Newton updates of the solve
    that produced it, those of diverged attempts included.
    """

    F_bar: np.ndarray
    P_bar: np.ndarray
    F_qp: np.ndarray
    P_qp: np.ndarray
    wdet: np.ndarray
    u_tilde: np.ndarray
    iterations: int
    F_step: np.ndarray
    u_step: np.ndarray


class VoxelHomogenizer:
    """Periodic finite element cell solver on a voxel grid.

    The total deformation is the macroscopic affine map plus a periodic
    fluctuation; sharing wrapped node ids enforces periodicity exactly and
    one node is pinned to remove the rigid translation.  The cell is a
    :func:`fem.grid_corners` lattice with its node ids wrapped, and its
    :class:`fem.HexGrid` factorises the reduced stiffness with the same
    symmetric ordering as the macro solve; its free-dof restriction is built
    here, once, so every update restricts the stiffness by one gather.
    Newton converges once every free nodal force is within 1e-9 G_max h^2
    (G_max the stiffest phase's shear modulus, h = 1/n the voxel edge), in at
    most 25 updates.  A solve only reads the homogenizer, so concurrent
    solves may share one.
    """

    def __init__(self, rve: VoxelRVE):
        self.rve = rve
        coords, conn = _voxel_topology(rve)
        self.n_nodes = rve.n ** 3
        self.grid = fem.HexGrid(coords, conn, self.n_nodes)
        phase_qp = np.repeat(rve.phase.reshape(-1), 8).reshape(-1, 8)
        self.phase_masks = [(params, phase_qp == pid)
                            for pid, params in enumerate(rve.phases)
                            if np.any(phase_qp == pid)]
        h = 1.0 / rve.n
        scale = max(p.initial_shear_modulus for p in rve.phases)
        self.force_tol = 1e-9 * scale * h * h
        free = np.ones(3 * self.n_nodes, dtype=bool)
        free[:3] = False
        self.free = fem.FreeDofs(self.grid.pattern, free)

    def _per_phase(self, law, C, shape):
        """``law(C, params)`` of each phase at its quadrature points."""
        out = np.empty(C.shape[:-2] + shape)
        for params, mask in self.phase_masks:
            out[mask] = law(C[mask], params)
        return out

    def _newton(self, F_bar, u_tilde, updates):
        """Equilibrated fluctuation at F_bar: (u_tilde, F, P, residuals).

        Appends to the list ``updates`` once per Newton update, also for the
        updates of a solve that raises.
        """
        def law(C):
            def tangent():
                updates.append(None)
                return self._per_phase(materials.ogden_tangent_fd, C, (6, 6))
            T = self._per_phase(materials.ogden_stress_from_C, C, (3, 3))
            return T, tangent

        return self.grid.newton(
            u_tilde, law, self.free, self.force_tol, 25,
            u_affine=self.grid.coords @ (F_bar - np.eye(3)).T)

    def _package(self, F_bar, u_tilde, F, P, iterations, F_step, u_step):
        wdet = self.grid.wdet
        return VoxelSolution(
            F_bar=F_bar, P_bar=fem.volume_average(P, wdet), F_qp=F, P_qp=P,
            wdet=wdet, u_tilde=u_tilde, iterations=iterations,
            F_step=F_step, u_step=u_step)

    def solve(self, F_bar, n_steps=1, start=None):
        """Equilibrate the cell at F_bar in ``n_steps`` >= 1 increments.

        :func:`fem.ramp`, with its default cutback budget, ramps the
        macroscopic deformation linearly from ``start``, a converged
        :class:`VoxelSolution`, or from the undeformed cell when it is None;
        the last increment is F_bar itself.  The first increment's secant
        prediction runs along ``start``'s own last increment (none from the
        undeformed cell).  ``iterations`` counts the Newton updates of every
        attempt, diverged ones included.
        """
        F_bar = np.asarray(F_bar, dtype=float)
        if start is None:
            F_0, u_tilde, step = np.eye(3), np.zeros((self.n_nodes, 3)), None
        else:
            F_0, u_tilde = start.F_bar, start.u_tilde
            step = (start.F_step, start.u_step)
        updates = []
        # the solution is the last increment's
        *_, (_, (u_tilde, F, P, _), (F_step, u_step)) = fem.ramp(
            lambda F_k, u: self._newton(F_k, u, updates),
            lambda t: F_bar if t >= 1.0 else F_0 + t * (F_bar - F_0),
            u_tilde, n_steps, step)
        return self._package(F_bar, u_tilde, F, P, len(updates), F_step, u_step)

# ---------------------------------------------------------------------------
# scatter of apparent properties

def chi_squared(values):
    """Scatter statistic sum((a_i - mean)^2) / mean over realizations."""
    values = np.asarray(values, dtype=float)
    mean = values.mean()
    if abs(mean) < 1e-300:
        raise ZeroMean("scatter statistic undefined for zero-mean samples")
    return float(np.sum((values - mean) ** 2) / mean)


def apparent_stiffness_samples(n, volume_fraction, seeds, stretch):
    """Axial apparent stress of random fiber cells, one per seed.

    Every realization is stretched uniaxially along the fibers (x3, fully
    prescribed diagonal) and the conjugate component of the averaged
    nominal stress is recorded.
    """
    F_bar = np.eye(3)
    F_bar[2, 2] = stretch
    out = []
    for seed in seeds:
        hom = VoxelHomogenizer(fiber_rve(n, volume_fraction, seed))
        sol = hom.solve(F_bar, n_steps=2)
        out.append(sol.P_bar[2, 2])
    return np.array(out)


def rve_size_study(sizes, volume_fraction, n_realizations, stretch, seed=0):
    """Chi-squared of the apparent axial stress versus voxel cell size."""
    root = np.random.default_rng(seed)
    out = {}
    for n in sizes:
        seeds = root.integers(0, 2 ** 31, size=n_realizations)
        out[int(n)] = chi_squared(
            apparent_stiffness_samples(n, volume_fraction, seeds, stretch))
    return out

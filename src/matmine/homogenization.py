"""Microscale models: controlled load paths and voxel RVE homogenization.

Two levels of fidelity share this module.  For constitutive sampling we drive
material points along mixed-control load paths (some deformation gradient
entries prescribed, the rest found so the conjugate nominal stress components
vanish); ``mining.initial_dataset`` drives the ``initial_load_suite`` paths in
lockstep through an oracle's pointwise stress.  The voxel oracle solves a
periodic first-order homogenization problem on a voxelized representative
volume, on one voxel layer along every axis the microstructure does not vary
along (a fiber cell is solved as its cross-section slab, with one Gauss
point through its thickness), and the scatter of apparent properties across
random realizations sizes that volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem, materials
from .errors import MatmineError, NewtonDivergence, ZeroMean

AXIS_NAMES = ("x1", "x2", "x3")


# ---------------------------------------------------------------------------
# mixed-control material point driver

@dataclass(frozen=True, eq=False)
class LoadCase:
    """Mixed control at a material point.

    ``values`` holds the fully ramped deformation gradient entries where
    ``prescribed`` is True; on the remaining entries the nominal stress is
    required to vanish and the deformation is free.  Cases compare by
    identity, as the array fields give no single truth value.
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


def drive_material_point(stress, cases, n_steps=12, force_scale=None):
    """Follow mixed-control paths, all load cases in lockstep.

    ``stress`` maps a (..., 3, 3) stack of deformation gradients to nominal
    stresses row by row.  Each case ramps its prescribed entries linearly
    from the identity in ``n_steps`` >= 1 increments (each history includes
    the undeformed state).  Free entries warm start from the previous step
    and take Newton updates, with central-difference Jacobians and a halving
    line search, until their stresses are within 1e-9 ``force_scale``, in at
    most 40 updates.  A step's residual, its probes and each line-search
    round are one stacked ``stress`` call over the open cases; a stacked
    trial that raises is evaluated row by row, and a row that raises fails.
    Returns one :class:`MaterialPath` per case, in order.
    """
    if n_steps < 1:
        raise ValueError(f"a driven path needs n_steps >= 1, got {n_steps}")
    if force_scale is None:
        force_scale = materials.MATRIX_RUBBER.initial_shear_modulus
    tol = 1e-9 * force_scale
    prescribed = np.array([case.prescribed for case in cases])
    values = np.array([case.values for case in cases])
    free = [np.nonzero(~mask) for mask in prescribed]
    t_hist = np.linspace(0.0, 1.0, n_steps + 1)
    F_hist = np.empty((n_steps + 1, len(cases), 3, 3))
    P_hist = np.empty_like(F_hist)
    for k, t in enumerate(t_hist):
        F, P = F_hist[k], P_hist[k]
        F[:] = F_hist[k - 1] if k else np.eye(3)
        F[prescribed] = (np.eye(3) + t * (values - np.eye(3)))[prescribed]
        P[:] = stress(F)
        open_ = [c for c in range(len(cases)) if free[c][0].size]
        for updates in range(41):
            open_ = [c for c in open_ if not np.max(np.abs(P[c][free[c]])) <= tol]
            if not open_:
                break
            if updates == 40:
                c = open_[0]
                raise NewtonDivergence(
                    f"no convergence in 40 iterations on path {cases[c].name} at "
                    f"t={t:g} (|r|={np.max(np.abs(P[c][free[c]])):.3e}, tol={tol:.3e})")
            # a probe pair per free entry of each open case, in column order
            owner, rows, cols = np.nonzero(~prescribed[open_])
            owner = np.array(open_)[owner]
            h = 1e-7 * np.maximum(1.0, np.abs(F[owner, rows, cols]))
            probes = np.stack([F[owner], F[owner]])
            probes[0, np.arange(owner.size), rows, cols] += h
            probes[1, np.arange(owner.size), rows, cols] -= h
            P_probe = stress(probes)
            dP = (P_probe[0] - P_probe[1]) / (2.0 * h[:, None, None])
            searching = []
            for c in open_:
                r = P[c][free[c]]
                J = dP[owner == c][:, free[c][0], free[c][1]].T
                try:
                    dx = np.linalg.solve(J, -r)
                except np.linalg.LinAlgError as exc:
                    raise NewtonDivergence(f"singular Jacobian on path "
                                           f"{cases[c].name} at t={t:g}") from exc
                searching.append((c, dx, np.linalg.norm(r)))
            alpha = 1.0
            while searching:
                F_try = F[[c for c, _, _ in searching]]
                for F_c, (c, dx, _) in zip(F_try, searching):
                    F_c[free[c]] += alpha * dx
                try:
                    P_try = list(stress(F_try))
                except (MatmineError, FloatingPointError):
                    P_try = [_stress_or_none(stress, F_c) for F_c in F_try]
                failed = []
                for F_c, P_c, (c, dx, norm0) in zip(F_try, P_try, searching):
                    if P_c is not None and np.linalg.norm(P_c[free[c]]) < norm0:
                        F[c], P[c] = F_c, P_c
                    else:
                        failed.append((c, dx, norm0))
                searching = failed
                alpha *= 0.5
                if searching and alpha < 2.0 ** -10:
                    raise NewtonDivergence(f"line search stalled on path "
                                           f"{cases[searching[0][0]].name} at t={t:g}")
    return [MaterialPath(case.name, t_hist, F_hist[:, c], P_hist[:, c])
            for c, case in enumerate(cases)]


def _stress_or_none(stress, F):
    try:
        return stress(F)
    except (MatmineError, FloatingPointError):
        return None


# ---------------------------------------------------------------------------
# voxel RVE with periodic fluctuations

@dataclass
class VoxelRVE:
    """Cubic voxel grid of two-phase hyperelastic material.

    ``phase`` is an (n, n, n) integer array selecting into ``phases`` per
    voxel of the unit cube, so each voxel has edge 1/n.  Node fluctuations
    are periodic, so opposite faces share nodes.  The solved cell keeps one
    voxel layer along every axis where ``phase`` is constant
    (:func:`_voxel_topology`), so it has as many distinct nodes as voxels:
    n**3 for a cell that varies along all three axes, n**2 for a
    :func:`fiber_rve`.
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
    """The solved cell: node coordinates (unwrapped, per element), wrapped
    connectivity and the phase of each of its voxels.

    Along every axis where ``rve.phase`` is constant, the periodic
    fluctuation is constant too, so the cell keeps one voxel layer there and
    its two faces wrap onto one node layer; a ``fiber_rve`` is solved as an
    n x n x 1 slab.  The voxels stay cubes of edge 1/n, so each node's force
    is its force in the n^3 cell and the reduction is exact for the discrete
    problem.  Node ids are the wrapped lattice points'
    ``np.ravel_multi_index`` ids in the solved cell's shape.
    """
    phase = rve.phase
    for axis in range(3):
        if np.all(phase == phase.take([0], axis)):
            phase = phase.take([0], axis)
    corners = fem.grid_corners(phase.shape)
    conn = np.ravel_multi_index(np.moveaxis(corners, -1, 0), phase.shape,
                                mode="wrap")
    return (corners * (1.0 / rve.n)).astype(float), conn, phase


@dataclass
class VoxelSolution:
    """Converged periodic cell problem at one macroscopic deformation.

    ``F_qp``, ``P_qp`` and ``wdet`` (per element and quadrature point of
    the cell's Gauss rule, (E, n_q, ...)) and ``u_tilde`` (n_nodes x 3) cover
    the solved cell of :class:`VoxelHomogenizer`, whose volume averages are
    those of the whole unit cube.  ``F_step`` (3x3) and ``u_step``
    (n_nodes x 3) are the last increment's (dg, du) of :func:`fem.ramp`, the
    step a solve started from this one predicts along.  ``iterations``
    counts the Newton updates of the solve that produced it, those of
    diverged attempts included.
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
    :func:`fem.grid_corners` lattice with its node ids wrapped in lattice
    order, one voxel layer thick along every axis where the phase is
    constant (:func:`_voxel_topology`); ``n_nodes`` counts its nodes, and a
    cell that varies along all three axes keeps all n**3.  The grid takes
    one Gauss point along each such single-layer axis and two along the
    others, so a fiber slab has 4 points per voxel and a fully varying cell
    8.  That is exact: the layer's two faces are one node layer, so the
    fluctuation, F and P do not vary through it, and the wrap-assembled
    internal forces, stiffness and P_bar have integrands constant along it,
    which any Gauss rule integrates exactly.  Its
    :class:`fem.FreeDofs` is built here, once, as the macro solve builds
    its own; its ``solve`` takes every update and the condensation below.
    Newton converges once every free nodal force is within 1e-9 G_max h^2
    (G_max the stiffest phase's shear modulus, h = 1/n the voxel edge), in at
    most 25 updates.  Each iterate makes one :func:`materials.ogden_law` call
    per phase, so its stress and tangent share one eigen-decomposition.

    Construction also condenses the undeformed cell (Miehe, CMAME 2003):
    ``linear_response`` (n_nodes, 3, 9) is the fluctuation U = -K0^-1 f that
    equilibrates, to first order at the undeformed cell, each of the nine
    unit macroscopic displacement gradients, flattened row by row.  That
    costs one phase tangent per phase at C = I, one stiffness assembly and
    one sparse factorisation with nine right-hand sides.  A solve only reads
    the homogenizer, so concurrent solves may share one.
    """

    def __init__(self, rve: VoxelRVE):
        self.rve = rve
        coords, conn, phase = _voxel_topology(rve)
        self.n_nodes = phase.size
        gauss = [1 if size == 1 else 2 for size in phase.shape]
        self.grid = fem.HexGrid(coords, conn, self.n_nodes, gauss)
        n_q = self.grid.wdet.shape[1]
        phase_qp = np.repeat(phase.reshape(-1), n_q).reshape(-1, n_q)
        self.phase_masks = [(params, phase_qp == pid)
                            for pid, params in enumerate(rve.phases)
                            if np.any(phase_qp == pid)]
        h = 1.0 / rve.n
        scale = max(p.initial_shear_modulus for p in rve.phases)
        self.force_tol = 1e-9 * scale * h * h
        free = np.ones(3 * self.n_nodes, dtype=bool)
        free[:3] = False
        self.free = fem.FreeDofs(self.grid.pattern, free)
        self.linear_response = self._linear_response()

    def _linear_response(self):
        """U (n_nodes, 3, 9): the undeformed cell's fluctuation per unit
        macroscopic displacement gradient."""
        grid, eye = self.grid, np.eye(3)
        A0 = np.empty(grid.wdet.shape + (3, 3, 3, 3))
        for params, mask in self.phase_masks:
            T, tangent = materials.ogden_law(eye, params)
            A0[mask] = fem.nominal_stress_operator(eye, T, tangent())
        K0 = fem.tangent_matrix(A0, grid.dNdX, grid.wdet, grid.pattern)
        # nodal forces of the nine unit gradients H = e_k e_l, P = A0 : H
        f = np.stack([fem.internal_forces(A0[..., k, l], grid.dNdX, grid.wdet,
                                          grid.conn, self.n_nodes).reshape(-1)
                      for k in range(3) for l in range(3)], axis=-1)
        return self.free.solve(K0, -f).reshape(self.n_nodes, 3, 9)

    def _newton(self, F_bar, u_tilde, updates):
        """Equilibrated fluctuation at F_bar: (u_tilde, F, P, residuals).

        Appends to the list ``updates`` once per Newton update, also for the
        updates of a solve that raises.
        """
        def law(C):
            T = np.empty(C.shape)
            tangents = []
            for params, mask in self.phase_masks:
                T[mask], phase_tangent = materials.ogden_law(C[mask], params)
                tangents.append((mask, phase_tangent))

            def tangent():
                updates.append(None)
                out = np.empty(C.shape[:-2] + (6, 6))
                for mask, phase_tangent in tangents:
                    out[mask] = phase_tangent()
                return out
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
        prediction runs along ``start``'s own last increment.  A ramp from
        the undeformed cell (F = I and zero fluctuation, with no nonzero
        last increment; ``start`` None is one) predicts along its linear
        response instead: its first increment, a macroscopic step dF, starts
        from the fluctuation ``linear_response`` : dF.  If a predicted start
        diverges, the increment reruns from the converged one.  ``iterations`` counts the
        Newton updates of every attempt, diverged ones included.
        """
        F_bar = np.asarray(F_bar, dtype=float)
        if start is None:
            F_0, u_tilde, step = np.eye(3), np.zeros((self.n_nodes, 3)), None
        else:
            F_0, u_tilde = start.F_bar, start.u_tilde
            step = (start.F_step, start.u_step)
        if (np.array_equal(F_0, np.eye(3)) and not np.any(u_tilde)
                and (step is None or not np.any(step[0]))):
            dF = F_bar - F_0
            step = (dF, self.linear_response @ dF.reshape(-1))
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

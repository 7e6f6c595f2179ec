"""Shared trilinear hexahedron machinery for the total-Lagrangian solvers.

Element type is the 8-node brick with a tensor-product Gauss rule of order 1
or 2 per axis, 2x2x2 by default (:func:`gauss_rule`).  All routines are
vectorized over elements and quadrature points and gather and scatter
through a connectivity array of global node ids (E, 8); repeated ids
accumulate, which is how the voxel homogenizer wraps its cell periodically.
:class:`HexGrid` holds one mesh and runs the Newton iteration both solvers
use, and :func:`ramp` is the pseudo-time loop around it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import tensors
from .errors import NewtonDivergence

# local corner coordinates, VTK hexahedron ordering
CORNERS = np.array([
    [-1.0, -1.0, -1.0], [1.0, -1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0],
])


def gauss_rule(order=(2, 2, 2)):
    """Tensor-product Gauss points (n_q, 3) and weights (n_q,) on [-1, 1]^3.

    Order 1 along an axis is the point 0 with weight 2, order 2 the points
    +-1/sqrt(3) with weight 1.  Order 2 is the brick's full rule; order 1
    is exact along an axis where the integrand is at most linear, as the
    voxel cell's assembled integrands are constant through a layer wrapped
    onto itself.  The points keep :data:`CORNERS` order, so the default rule
    is the eight corners scaled by 1/sqrt(3) with unit weights.
    """
    order = np.asarray(order)
    keep = np.all((CORNERS < 0.0) | (order == 2), axis=1)
    points = (CORNERS * np.where(order == 2, 1.0 / np.sqrt(3.0), 0.0))[keep]
    return points, np.full(len(points), 8.0 / len(points))


def _shape_gradients_local(points):
    """dN/dxi at the given local points, shape (n_pts, 8, 3)."""
    pts = np.asarray(points, dtype=float)
    grads = np.empty((len(pts), 8, 3))
    for q, xi in enumerate(pts):
        for a, c in enumerate(CORNERS):
            f = 1.0 + xi * c
            grads[q, a] = 0.125 * np.array([
                c[0] * f[1] * f[2],
                f[0] * c[1] * f[2],
                f[0] * f[1] * c[2],
            ])
    return grads


def grid_corners(divisions):
    """Integer lattice corners (E, 8, 3) of a structured brick grid.

    Elements run over (i, j, k) with k fastest, corners in :data:`CORNERS`
    order; callers number the lattice points with ``np.ravel_multi_index``,
    the periodic cell in its ``"wrap"`` mode.
    """
    nx, ny, nz = divisions
    base = np.stack(np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                                indexing="ij"), axis=-1).reshape(-1, 3)
    return base[:, None, :] + ((CORNERS + 1.0) / 2.0).astype(int)


def element_gradients(coords, gauss=(2, 2, 2)):
    """Reference shape gradients and weighted volumes per quadrature point.

    Parameters
    ----------
    coords : (E, 8, 3) reference node coordinates per element.
    gauss : Gauss order (1 or 2) along each local axis, see :func:`gauss_rule`.

    Returns
    -------
    dNdX : (E, n_q, 8, 3) gradients (element, gauss point, node, direction).
    wdet : (E, n_q) quadrature weight times Jacobian determinant.
    """
    coords = np.asarray(coords, dtype=float)
    points, weights = gauss_rule(gauss)
    grads = _shape_gradients_local(points)
    # J[e,q,i,j] = d X_j / d xi_i
    J = np.einsum("qai,eaj->eqij", grads, coords)
    detJ = np.linalg.det(J)
    if np.any(detJ <= 0.0):
        raise ValueError("element with non-positive Jacobian (check node order)")
    Jinv = np.linalg.inv(J)
    dNdX = np.einsum("qai,eqij->eqaj", grads, Jinv)
    return dNdX, detJ * weights


def deformation_gradients(u_elem, dNdX):
    """F = 1 + du/dX per quadrature point from element displacements.

    ``u_elem`` has shape (E, 8, 3) (element-gathered displacements).
    """
    F = np.einsum("eai,eqaj->eqij", u_elem, dNdX)
    F += np.eye(3)
    return F


def internal_forces(P, dNdX, wdet, conn, n_nodes):
    """Assemble nodal internal forces from nominal stresses.

    ``conn`` holds global node ids (E, 8); repeated ids accumulate in
    element order, which is what periodic wrapping relies on.  Returns
    (n_nodes, 3).
    """
    f_elem = np.einsum("eq,eqij,eqaj->eai", wdet, P, dNdX)
    dofs = 3 * np.asarray(conn)[:, :, None] + np.arange(3)
    f = np.bincount(dofs.reshape(-1), weights=f_elem.reshape(-1),
                    minlength=3 * n_nodes)
    return f.reshape(n_nodes, 3)


def volume_average(field, wdet):
    """Volume average of a per-quadrature-point field (E, q, ...)."""
    vol = wdet.sum()
    return np.einsum("eq,eq...->...", wdet, field) / vol


def nominal_stress_operator(F, T, tangent_mandel):
    """Two-point tangent A_iJkL = dP_iJ/dF_kL from T and the material tangent.

    ``tangent_mandel`` is 4 d^2psi/dCdC as (...,6,6); the geometric term
    delta_ik T_JL is included.  With G_a = F E_a flattened to 9 entries per
    Mandel basis tensor E_a, the material part is the 9x9 product G^T C G.
    """
    F = np.asarray(F, dtype=float)
    G = (F[..., None, :, :] @ tensors.MANDEL_BASIS).reshape(F.shape[:-2] + (6, 9))
    A = np.swapaxes(G, -1, -2) @ (tangent_mandel @ G)
    A = A.reshape(F.shape[:-2] + (3, 3, 3, 3))
    for i in range(3):
        A[..., i, :, i, :] += T
    return A


class StiffnessPattern:
    """CSR layout of the global stiffness of one mesh.

    ``conn`` holds global node ids (E, 8); repeated ids (periodic wrapping)
    sum into one entry.  Two nodes that share an element couple through a
    3x3 block, so the layout is found on node pairs and expanded to dofs:
    dof row 3n+i holds the blocks of n's neighbours m in ascending order,
    3 columns each.  ``slot`` maps every entry of the element blocks, in the
    (E, 3, 8, 3, 8) layout :func:`tangent_matrix` forms, to its position in
    the CSR data array, so assembly is a single ``np.bincount``.
    """

    def __init__(self, conn, n_nodes):
        conn = np.asarray(conn)
        E = conn.shape[0]
        pairs = (conn[:, :, None] * n_nodes + conn[:, None, :]).reshape(-1)
        unique, pair_slot = np.unique(pairs, return_inverse=True)
        node_ptr = np.searchsorted(unique // n_nodes, np.arange(n_nodes + 1))
        node_ptr = node_ptr.astype(np.int32)
        degree = np.diff(node_ptr)
        # neighbour rank of b among the neighbours of a, per element
        rank = pair_slot.reshape(E, 8, 8).astype(np.int32) - node_ptr[conn][:, :, None]
        base = 9 * node_ptr[conn]     # first CSR entry of node a's three rows
        width = 3 * degree[conn]      # entries per dof row of node a
        i = np.arange(3, dtype=np.int32)
        # slot[e, i, a, k, b] = base + i * width + 3 * rank + k
        slot = (base[:, None, :, None, None]
                + i[:, None, None, None] * width[:, None, :, None, None]
                + 3 * rank[:, None, :, None, :] + i[:, None])
        self.slot = slot.reshape(-1)
        self.indptr = np.append(
            9 * node_ptr[:-1, None] + 3 * degree[:, None] * i, 9 * node_ptr[-1])
        self.indices = np.empty(9 * node_ptr[-1], dtype=np.int32)
        col = 3 * conn.astype(np.int32)[:, None, None, None, :] + i[:, None]
        self.indices[self.slot] = np.broadcast_to(col, slot.shape).reshape(-1)
        self.shape = (3 * n_nodes, 3 * n_nodes)


class FreeDofs:
    """The free-dof restriction ``K[free][:, free]`` of one stiffness layout.

    ``mask`` marks the free dofs.  ``indices``, ``indptr`` and ``shape`` are
    the CSC layout scipy gives ``K[free][:, free].tocsc()`` for a CSR K of
    ``pattern``, and ``take`` is the position in K's data of each of its
    entries, found once by restricting a K whose data are those positions.
    :meth:`restrict` then gathers a stiffness's data into that layout, so
    SuperLU gets the bytes the two slices would give.  :meth:`solve` is the
    package's one sparse solve.  Only read after construction, so
    concurrent solves may share one.
    """

    def __init__(self, pattern: StiffnessPattern, mask):
        self.mask = np.asarray(mask, dtype=bool).reshape(-1)
        # positions counted from 1: a zero could be dropped as an explicit zero
        position = np.arange(1.0, len(pattern.indices) + 1.0)
        probe = sp.csr_matrix((position, pattern.indices, pattern.indptr),
                              shape=pattern.shape)
        sub = probe[self.mask][:, self.mask].tocsc()
        self.take = sub.data.astype(np.intp) - 1
        self.indices, self.indptr, self.shape = sub.indices, sub.indptr, sub.shape

    def restrict(self, K):
        """``K[free][:, free]`` as CSC, for a CSR K of this layout."""
        return sp.csc_matrix((K.data[self.take], self.indices, self.indptr),
                             shape=self.shape)

    def solve(self, K, rhs):
        """x with K[free][:, free] x[free] = rhs[free] and zeros elsewhere.

        ``rhs`` is (n_dofs,) or (n_dofs, m) with m > 1.  Every stiffness of
        a :class:`HexGrid` is structurally symmetric, so SuperLU orders the
        columns of the macro meshes and of the lattice-numbered voxel cell
        alike by the symmetric ``"MMD_AT_PLUS_A"`` (minimum degree on
        K^T + K).  ``spsolve`` is looked up on ``scipy.sparse.linalg`` at
        each call, so a wrapper installed there sees every solve.
        """
        x = np.zeros(rhs.shape)
        x[self.mask] = spla.spsolve(self.restrict(K), rhs[self.mask],
                                    "MMD_AT_PLUS_A")
        return x


def tangent_matrix(A, dNdX, wdet, pattern: StiffnessPattern):
    """Assemble the global stiffness as CSR from per-point tangents A.

    K_(ia)(kb) = sum_q w dN_a/dX_j A_ijkl dN_b/dX_l per element over the
    n_q points of ``A`` (E, n_q, 3, 3, 3, 3), formed one quadrature point at
    a time as two batched matmuls: A (27x3) times the 8 shape gradients,
    then the weighted shape gradients against the j slot.
    """
    E, n_q = A.shape[:2]
    wdN = wdet[:, :, None, None] * dNdX
    dNdX_T = np.swapaxes(dNdX, -1, -2)
    Ke = np.zeros((E, 3, 8, 24))
    for q in range(n_q):
        # X[e, i, j, (k, b)] = A_ijkl dN_b/dX_l
        X = (A[:, q].reshape(E, 27, 3) @ dNdX_T[:, q]).reshape(E, 3, 3, 24)
        Ke += wdN[:, q, None] @ X
    data = np.bincount(pattern.slot, weights=Ke.reshape(-1),
                       minlength=len(pattern.indices))
    return sp.csr_matrix((data, pattern.indices, pattern.indptr),
                         shape=pattern.shape)


class HexGrid:
    """One hexahedral mesh: shape gradients, weights and stiffness layout.

    ``coords`` holds the reference node coordinates per element (E, 8, 3)
    and ``conn`` the global node ids (E, 8).  ``gauss`` is the per-axis
    Gauss order of :func:`element_gradients`; ``wdet`` is (E, n_q).
    """

    def __init__(self, coords, conn, n_nodes, gauss=(2, 2, 2)):
        self.coords = np.asarray(coords, dtype=float)
        self.conn = np.asarray(conn)
        self.n_nodes = n_nodes
        self.dNdX, self.wdet = element_gradients(self.coords, gauss)
        self.pattern = StiffnessPattern(self.conn, n_nodes)

    def newton(self, u, law, free: FreeDofs, tol, max_iterations,
               f_ext=0.0, u_affine=None):
        """Newton-Raphson equilibrium iteration on the dofs of ``free``.

        ``law(C)`` maps right Cauchy-Green tensors C to ``(T, tangent)``: the
        second Piola-Kirchhoff stress and a callable that returns the Mandel
        material tangent at that same C.  Every iteration calls ``law`` once
        and calls ``tangent()`` only when an update follows, so a law may
        defer or share the tangent's work (:func:`macro.surrogate_law` does).
        ``free`` is a :class:`FreeDofs` of this grid's pattern, built once per
        free mask by the caller; every update is one :meth:`FreeDofs.solve`.
        ``u_affine`` adds an element-gathered displacement (E, 8, 3) to
        ``u``.  Converged once the largest free residual entry of f_int -
        f_ext is at most ``tol``; returns (u, F, P, residuals): the
        displacement, the deformation gradient and nominal stress per
        quadrature point (E, n_q, 3, 3) and the residual of every iteration.
        Inverted elements, a non-finite update or ``max_iterations``
        residuals above ``tol`` raise :class:`NewtonDivergence`.
        """
        mask = free.mask
        residuals = []
        for _ in range(max_iterations):
            u_elem = u[self.conn] if u_affine is None else u_affine + u[self.conn]
            F = deformation_gradients(u_elem, self.dNdX)
            det = np.linalg.det(F)
            if np.any(det <= 0.0) or not np.all(np.isfinite(det)):
                raise NewtonDivergence("element inversion")
            C = tensors.right_cauchy_green(F)
            T, tangent = law(C)
            P = F @ T
            f_int = internal_forces(P, self.dNdX, self.wdet, self.conn,
                                    self.n_nodes)
            r = (f_int - f_ext).reshape(-1)
            res = np.linalg.norm(r[mask], ord=np.inf) if mask.any() else 0.0
            residuals.append(res)
            if res <= tol:
                return u, F, P, residuals
            if len(residuals) == max_iterations:
                break  # an update now would go unchecked
            A = nominal_stress_operator(F, T, tangent())
            K = tangent_matrix(A, self.dNdX, self.wdet, self.pattern)
            du = free.solve(K, -r)
            if not np.all(np.isfinite(du)):
                raise NewtonDivergence("linear solve produced a non-finite update")
            u = u + du.reshape(-1, 3)
        raise NewtonDivergence(
            f"no convergence in {max_iterations} iterations "
            f"(|r|={res:.3e}, tol={tol:.3e})")


def ramp(attempt, load, u, n_steps, step=None, max_cutbacks=3):
    """The pseudo-time loop of an incremental Newton solve, t from 0 to 1.

    ``load(t)`` is the load array at t; ``attempt(g, u_start)`` is one Newton
    attempt at load g that returns a tuple starting with the converged u or
    raises :class:`NewtonDivergence`.  Increment k of ``n_steps`` >= 1 ends at
    t = k / n_steps.  It first starts from u + alpha du along the increment
    before, (dg, du), or along ``step`` before the first one, with alpha =
    <g - g_last, dg> / <dg, dg> (no prediction for a zero alpha or step), and
    reruns from u if that diverges.  If u diverges too, this increment and
    every later one are halved; the divergence past ``max_cutbacks`` halvings
    of the whole ramp raises.  Yields (t, out, (dg, du)) per converged
    increment, ``out`` the attempt's tuple.
    """
    if n_steps < 1:
        raise ValueError(f"a ramp needs n_steps >= 1, got {n_steps}")
    g_last, (dg, du) = load(0.0), step or (0.0, 0.0)
    k, n, cutbacks = 0, n_steps, 0  # the next increment ends at t = (k + 1) / n
    while k < n:
        t = (k + 1) / n
        g = load(t)
        norm2 = np.vdot(dg, dg)
        alpha = np.vdot(g - g_last, dg) / norm2 if norm2 > 0.0 else 0.0
        for u_start in [u + alpha * du, u] if alpha != 0.0 else [u]:
            try:
                out = attempt(g, u_start)
                break
            except NewtonDivergence as exc:
                error = exc
        else:
            cutbacks += 1
            if cutbacks > max_cutbacks:
                raise NewtonDivergence(f"the increment to t={t:g} diverged after "
                                       f"{max_cutbacks} cutbacks") from error
            k, n = 2 * k, 2 * n
            continue
        dg, du = g - g_last, out[0] - u
        g_last, u, k = g, out[0], k + 1
        yield t, out, (dg, du)

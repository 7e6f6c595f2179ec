"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's own differentiation and
search code paths: gradients come from central differences, set operations
from quadratic-cost scans, and the laminate reference from a scalar Newton
iteration written directly against the energy functions.
"""

import numpy as np
import scipy.sparse as sp

from matmine import data, fem, materials, tensors
# the cell's own topology, kept under its own name so that a test which
# patches ``homogenization._voxel_topology`` can still renumber it
from matmine.homogenization import _voxel_topology

SQRT2 = np.sqrt(2.0)


def random_rotation(rng):
    """Uniform random proper rotation via QR of a Gaussian matrix."""
    A = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(A)
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def random_defgrad(rng, spread=0.3):
    """Random deformation gradient with det F > 0, moderately distorted."""
    while True:
        F = np.eye(3) + spread * rng.normal(size=(3, 3))
        if np.linalg.det(F) > 0.2:
            return F


def random_spd(rng, spread=0.3):
    F = random_defgrad(rng, spread)
    return F.T @ F


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def fd_gradient(f, C, h=1e-6):
    """Central-difference dI/dC of a scalar function of a symmetric tensor.

    Uses symmetric perturbations (C_ij and C_ji moved together), matching the
    convention dI = G : dC for symmetric increments dC.
    """
    G = np.zeros((3, 3))
    for i in range(3):
        for j in range(i, 3):
            dC = np.zeros((3, 3))
            dC[i, j] = dC[j, i] = h
            diff = (f(C + dC) - f(C - dC)) / (2.0 * h)
            if i == j:
                G[i, i] = diff
            else:
                G[i, j] = G[j, i] = diff / 2.0
    return G


def mandel_to_sym(v):
    """Inverse of ``tensors.sym_to_mandel``: the (...,3,3) tensor of a
    (...,6) Mandel vector."""
    v = np.asarray(v, dtype=float)
    return np.einsum("...a,aij->...ij", v, tensors.MANDEL_BASIS)


def fd_hessian_mandel(grad, C, h=1e-6):
    """Central-difference Mandel matrix of d(grad)/dC.

    ``grad`` maps a symmetric 3x3 tensor to a symmetric 3x3 tensor; the
    columns of the result are finite differences along the orthonormal
    Mandel basis directions, which is exactly the 6x6 matrix convention.
    """
    H = np.zeros((6, 6))
    for a in range(6):
        dC = h * mandel_to_sym(np.eye(6)[a])
        gp = tensors.sym_to_mandel(grad(C + dC))
        gm = tensors.sym_to_mandel(grad(C - dC))
        H[:, a] = (gp - gm) / (2.0 * h)
    return H


def tensor4_to_mandel(T):
    """Map a minor-symmetric (...,3,3,3,3) tensor to its (...,6,6) matrix."""
    T = np.asarray(T, dtype=float)
    rows, cols = tensors.MANDEL_ROWS, tensors.MANDEL_COLS
    w = tensors.MANDEL_WEIGHTS
    M = T[..., rows[:, None], cols[:, None], rows[None, :], cols[None, :]]
    return M * (w[:, None] * w[None, :])


def mandel_to_tensor4(M):
    """Inverse of :func:`tensor4_to_mandel` (minor symmetries restored)."""
    M = np.asarray(M, dtype=float)
    B = tensors.MANDEL_BASIS
    return np.einsum("...ab,aij,bkl->...ijkl", M, B, B)


def ogden_stress_principal(F, params):
    """Ogden second Piola-Kirchhoff stress of one F, stretch by stretch.

    T = sum_b (1/lam_b) dpsi/dlam_b N_b x N_b with the derivative of the
    isochoric and volumetric parts written out per principal stretch.
    """
    lam2, N = np.linalg.eigh(F.T @ F)
    lam = np.sqrt(lam2)
    J = lam[0] * lam[1] * lam[2]
    T = np.zeros((3, 3))
    for b in range(3):
        lam_dpsi = 0.5 * params.kappa * (J * J - 1.0)   # lam_b dpsi/dlam_b
        for mu, alpha in zip(params.mu, params.alpha):
            bar = [(lam[a] * J ** (-1.0 / 3.0)) ** alpha for a in range(3)]
            lam_dpsi += mu * (bar[b] - sum(bar) / 3.0)
        T += lam_dpsi / lam2[b] * np.outer(N[:, b], N[:, b])
    return T


def ogden_stress_einsum(C, params):
    """Ogden T(C) with its spectral sum as one three-operand einsum.

    ``materials.ogden_law`` forms the sum term by term; this is
    the form its result must equal bit for bit.
    """
    lam2, vecs = np.linalg.eigh(np.asarray(C, dtype=float))
    lam = np.sqrt(lam2)
    J = lam[..., 0] * lam[..., 1] * lam[..., 2]
    coeff = materials._ogden_coefficients(lam2, lam, J, params)
    return np.einsum("...b,...ib,...jb->...ij", coeff, vecs, vecs)


def ogden_tangent_lab_fd(C, params):
    """Ogden Mandel tangent by central differences in the lab frame.

    The reference for the tangent of ``materials.ogden_law``, which takes
    the same differences in the principal frame of C.
    """
    return materials.stress_tangent_fd(
        lambda X: materials.ogden_law(X, params)[0], C)


def stress_tangent_fd_columns(stress_from_C, C):
    """``materials.stress_tangent_fd`` one Mandel column at a time.

    Two stress calls per column, on the plus and the minus step; the
    package's single stacked call must equal this bit for bit.
    """
    C = np.asarray(C, dtype=float)
    scale = materials._FD_STEP * np.trace(C, axis1=-2, axis2=-1)[..., None, None] / 3.0
    cols = []
    for a in range(6):
        dC = scale * mandel_to_sym(np.eye(6)[a])
        Tp = tensors.sym_to_mandel(stress_from_C(C + dC))
        Tm = tensors.sym_to_mandel(stress_from_C(C - dC))
        cols.append((Tp - Tm) / (2.0 * scale[..., 0, 0][..., None]))
    tang = 2.0 * np.stack(cols, axis=-1)
    return 0.5 * (tang + np.swapaxes(tang, -1, -2))


def _dyad44(A, B):
    return np.einsum("...ij,...kl->...ijkl", A, B)


def _symdyad44(A, B):
    return 0.5 * (np.einsum("...ik,...jl->...ijkl", A, B)
                  + np.einsum("...il,...jk->...ijkl", A, B))


def invariant_hessians_tensor4(C, M=None):
    """Invariant Hessians as full fourth-order tensors mapped to Mandel form.

    Reference for the Mandel-direct implementation: every slot is built as a
    (...,3,3,3,3) tensor and converted with ``tensor4_to_mandel``.
    """
    C = np.asarray(C, dtype=float)
    I3 = np.linalg.det(C)[..., None, None, None, None]
    Cinv = np.linalg.inv(C)
    eye = np.broadcast_to(np.eye(3), C.shape)
    H1 = np.zeros(C.shape + (3, 3))
    H2 = _dyad44(eye, eye) - _symdyad44(eye, eye)
    inv_dyad = _dyad44(Cinv, Cinv)
    inv_sym = _symdyad44(Cinv, Cinv)
    H3 = I3 * (inv_dyad - inv_sym)
    H3r = (inv_dyad + inv_sym) / I3
    if M is None:
        stack = np.stack([H1, H2, H3, H3r], axis=-5)
    else:
        M = np.broadcast_to(np.asarray(M, dtype=float), C.shape)
        I = np.eye(3)
        H5 = 0.5 * (np.einsum("...ik,jl->...ijkl", M, I)
                    + np.einsum("...il,jk->...ijkl", M, I)
                    + np.einsum("ik,...jl->...ijkl", I, M)
                    + np.einsum("il,...jk->...ijkl", I, M))
        stack = np.stack([H1, H2, H3, H1, H5, H3r], axis=-5)
    return tensor4_to_mandel(stack)


def nominal_stress_operator_einsum(F, T, tangent_mandel):
    """A_iJkL = F_iM F_kN C_MJNL + delta_ik T_JL by index contraction."""
    Cfull = mandel_to_tensor4(tangent_mandel)
    A = np.einsum("...im,...kn,...mjnl->...ijkl", F, F, Cfull, optimize=True)
    A += np.einsum("ik,...jl->...ijkl", np.eye(3), T)
    return A


def tangent_matrix_einsum(A, dNdX, wdet, conn, n_nodes):
    """Element stiffness by one index contraction, assembled through COO."""
    Ke = np.einsum("eq,eqaj,eqijkl,eqbl->eaibk", wdet, dNdX, A, dNdX,
                   optimize=True)
    E = conn.shape[0]
    dofs = (3 * conn[:, :, None] + np.arange(3)[None, None, :]).reshape(E, 24)
    rows = np.repeat(dofs, 24, axis=1).reshape(-1)
    cols = np.tile(dofs, (1, 24)).reshape(-1)
    K = sp.coo_matrix((Ke.reshape(E, 24, 24).reshape(-1), (rows, cols)),
                      shape=(3 * n_nodes, 3 * n_nodes))
    return K.tocsr()


def internal_forces_add_at(P, dNdX, wdet, conn, n_nodes):
    """Nodal internal forces scattered row by row with ``np.add.at``."""
    f_elem = np.einsum("eq,eqij,eqaj->eai", wdet, P, dNdX)
    f = np.zeros((n_nodes, 3))
    np.add.at(f, conn.reshape(-1), f_elem.reshape(-1, 3))
    return f


def invariants_bruteforce(C, M=None):
    """Invariants from their textbook definitions (cofactor form for I2)."""
    C = np.asarray(C, dtype=float)
    cof = np.linalg.det(C) * np.linalg.inv(C).T
    out = [np.trace(C), np.trace(cof), np.linalg.det(C)]
    if M is not None:
        out += [np.tensordot(M, C), np.tensordot(M, C @ C)]
    out.append(1.0 / np.linalg.det(C))
    return np.array(out)


def chebyshev_distinct_bruteforce(candidate, existing, ranges, tol):
    """True when the candidate is distinct from every row of ``existing``.

    Range-normalized Chebyshev metric; zero ranges fall back to an absolute
    difference.  Distinct means every distance exceeds ``tol`` strictly; a
    NaN distance (from a NaN coordinate, or inf - inf) never does.
    Quadratic-cost reference for the vectorized implementation.
    """
    ranges = np.where(np.asarray(ranges) > 0.0, ranges, 1.0)
    for row in np.atleast_2d(existing):
        if not np.max(np.abs(candidate - row) / ranges) > tol:
            return False
    return True


def detect_bruteforce(path_invariants, known, ranges, tol):
    """Reference novel-state detector.

    ``path_invariants`` is a list of (n_steps+1, k) arrays (step 0 is the
    undeformed state).  Scans each path from its last step downward and emits
    the largest step index whose image is distinct from everything known,
    including states of paths emitted earlier in the same sweep; returns a
    list of (path_index, last_step) pairs.
    """
    known = [np.asarray(row) for row in known]
    out = []
    for p, path in enumerate(path_invariants):
        path = np.asarray(path)
        for n in range(len(path) - 1, 0, -1):
            if chebyshev_distinct_bruteforce(path[n], np.array(known), ranges, tol):
                out.append((p, n))
                known.extend(path[1:n + 1])
                break
    return out


def filter_bruteforce(candidates, existing, ranges, tol):
    """Reference admission filter: greedy scan in index order."""
    kept = []
    pool = [np.asarray(row) for row in existing]
    for idx, cand in enumerate(candidates):
        if not pool or chebyshev_distinct_bruteforce(cand, np.array(pool), ranges, tol):
            kept.append(idx)
            pool.append(np.asarray(cand))
    return kept


def save_kbase_reference(dataset, path):
    """Knowledge-base writer that formats every number afresh.

    Writes what ``data.save_kbase`` writes for a set built in memory: each
    record's 19 numbers as ``repr`` literals, whatever text they were loaded
    from, and its source with every whitespace character as ``_`` and a
    leading ``#`` as ``_#``.
    """
    numbers = np.concatenate([dataset.t[:, None], dataset.F.reshape(-1, 9),
                              dataset.P.reshape(-1, 9)], axis=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {data.KBASE_VERSION}\n")
        fh.write("# source iteration path step t F(9 row-major) P(9 row-major)\n")
        for src, it, pid, stp, row in zip(
                dataset.source, dataset.iteration.tolist(),
                dataset.path_id.tolist(), dataset.step.tolist(), numbers.tolist()):
            src = "".join("_" if c.isspace() else c for c in str(src)) or "unknown"
            if src[0] == "#":
                src = "_" + src
            fh.write(f"{src} {it} {pid} {stp} {' '.join(map(repr, row))}\n")


def laminate_uniaxial(energy1, energy2, fraction1, lam_bar, lam0=None):
    """Two-layer laminate under prescribed stretch normal to the layers.

    Layers are stacked along x1 with tangential deformation blocked
    (F = diag(lam_k, 1, 1) in each layer).  Volume-averaged stretch equals
    ``lam_bar`` and the nominal traction P11 is continuous across layers.
    Solves for lam1 with a damped scalar Newton on FD derivatives of the
    per-layer energies, independent of any package solver.

    Returns (lam1, lam2, P11).
    """
    f1, f2 = fraction1, 1.0 - fraction1

    def p11(energy, lam, h=1e-7):
        Fp = np.diag([lam + h, 1.0, 1.0])
        Fm = np.diag([lam - h, 1.0, 1.0])
        return (energy(Fp) - energy(Fm)) / (2.0 * h)

    lam1 = lam_bar if lam0 is None else lam0
    for _ in range(200):
        lam2 = (lam_bar - f1 * lam1) / f2
        r = p11(energy1, lam1) - p11(energy2, lam2)
        if abs(r) < 1e-10 * (1.0 + abs(p11(energy1, lam1))):
            break
        h = 1e-6
        lam2p = (lam_bar - f1 * (lam1 + h)) / f2
        lam2m = (lam_bar - f1 * (lam1 - h)) / f2
        drdl = (p11(energy1, lam1 + h) - p11(energy2, lam2p)
                - p11(energy1, lam1 - h) + p11(energy2, lam2m)) / (2.0 * h)
        step = r / drdl
        while abs(step) > 0.2:
            step *= 0.5
        lam1 -= step
    lam2 = (lam_bar - f1 * lam1) / f2
    return lam1, lam2, p11(energy1, lam1)


def lbfgs_two_loop(g, S, Y):
    """Inverse-Hessian product H g by the L-BFGS two-loop recursion.

    S and Y list the stored pairs oldest first; the initial matrix is the
    usual s.y / y.y scaling of the newest pair (identity without pairs).
    """
    q = np.array(g, dtype=float)
    alphas = []
    for s, y in reversed(list(zip(S, Y))):
        alpha = (s @ q) / (s @ y)
        alphas.append(alpha)
        q = q - alpha * y
    r = q * ((S[-1] @ Y[-1]) / (Y[-1] @ Y[-1]) if len(S) else 1.0)
    for (s, y), alpha in zip(zip(S, Y), reversed(alphas)):
        r = r + s * (alpha - (y @ r) / (s @ y))
    return r


def permuted_voxel_topology(rve):
    """The voxel cell the homogenizer solves, with its nodes relabelled by a
    fixed random permutation: a numbering the cell's answer must not
    depend on."""
    coords, conn, phase = _voxel_topology(rve)
    relabel = np.random.default_rng(0).permutation(conn.max() + 1)
    return coords, relabel[conn], phase


def uncollapsed_voxel_topology(rve):
    """A voxel cell with all n^3 voxels kept, numbered in lattice order,
    the reference for the homogenizer's one-layer solve of an axis along
    which the phase is constant."""
    n = rve.n
    corners = fem.grid_corners((n, n, n))
    conn = np.ravel_multi_index(np.moveaxis(corners, -1, 0), (n, n, n),
                                mode="wrap")
    return (corners * (1.0 / n)).astype(float), conn, rve.phase

"""Shared test factories (kept apart from the independent oracles)."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from matmine import fem, homogenization, macro, materials, surrogate, tensors

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


def law(stress, tangent):
    """The law ``fem.HexGrid.newton`` takes, from stress and tangent of C."""
    return lambda C: (stress(C), lambda: tangent(C))


SVK = law(svk_stress, svk_tangent)


def _nodal_reactions(state, mesh, node_set):
    """``fem.internal_forces`` on each node of ``node_set`` per step of a
    macro ``state``, (steps, set nodes, 3): the forces the boundary
    condition there holds against the body."""
    grid = fem.HexGrid(mesh.element_coords(), mesh.conn, mesh.n_nodes)
    nodes = mesh.node_sets[node_set]
    return np.stack([fem.internal_forces(rec.P_qp, grid.dNdX, grid.wdet, mesh.conn,
                                         mesh.n_nodes)[nodes]
                     for rec in state.steps])


def reaction(state, mesh, node_set):
    """Net internal force on ``node_set`` per step of a macro ``state``, (steps, 3)."""
    return _nodal_reactions(state, mesh, node_set).sum(axis=1)


def lever_arm(state, mesh, node_set, origin):
    """Each node of ``node_set`` in its deformed place, relative to
    ``origin``, per step of a macro ``state``, (steps, set nodes, 3)."""
    nodes = mesh.node_sets[node_set]
    return np.stack([mesh.nodes[nodes] + rec.u[nodes] for rec in state.steps]) - origin


def moment(state, mesh, node_set, origin):
    """Net moment about ``origin`` of the internal forces on ``node_set``,
    per step of a macro ``state``, (steps, 3): the sum over the set's nodes
    of lever arm times force."""
    return np.cross(lever_arm(state, mesh, node_set, origin),
                    _nodal_reactions(state, mesh, node_set)).sum(axis=1)


def ogden_energy_from_C(C, params):
    """Ogden strain energy density as a function of C, batched over leading
    dims: the potential of ``materials.ogden_law``'s stress."""
    lam, J = materials._stretches(np.linalg.eigh(np.asarray(C, dtype=float))[0])
    lam_iso = lam * J[..., None] ** (-1.0 / 3.0)
    dev = 0.0
    for m, a in zip(params.mu, params.alpha):
        dev = dev + (m / a) * (np.sum(lam_iso**a, axis=-1) - 3.0)
    vol = 0.25 * params.kappa * (J * J - 2.0 * np.log(J) - 1.0)
    return dev + vol


def ogden_energy(F, params):
    """Ogden strain energy density from the deformation gradient (det F > 0)."""
    tensors.jacobian(F)
    return ogden_energy_from_C(tensors.right_cauchy_green(F), params)


def oracle_energy_from_C(C, oracle):
    """Energy of the analytic oracle: Ogden matrix plus 0.5 c (I4 - 1)^2."""
    I4 = np.einsum("ij,...ij->...", oracle.structural_tensor,
                   np.asarray(C, dtype=float))
    fiber = 0.5 * oracle.fiber_stiffness * (I4 - 1.0) ** 2
    return ogden_energy_from_C(C, oracle.matrix) + fiber


def oracle_energy(F, oracle):
    tensors.jacobian(F)
    return oracle_energy_from_C(tensors.right_cauchy_green(F), oracle)


def model_law(model, M=None):
    """The law of ``macro.surrogate_law`` for a structural tensor ``M``."""
    return lambda C: surrogate.model_stress(model, C, M)


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


class ModelOracle:
    """A trained surrogate posing as the oracle (synthetic ground truth)."""

    name = "model"

    def __init__(self, model, fiber_axis=(0.0, 0.0, 1.0)):
        self.model = model
        self.law = macro.surrogate_law(model, fiber_axis)

    def evaluate_path(self, F, warm_start=True):
        del warm_start  # pointwise
        return tensors.nominal_stress(F, self.law)


@dataclass(frozen=True)
class AffineRamp:
    """Prescribes the affine field u = t * H X on a node set (all components)."""

    node_set: str
    gradient: tuple

    def constraints(self, t, mesh):
        nodes = mesh.node_sets[self.node_set]
        H = np.asarray(self.gradient, dtype=float).reshape(3, 3)
        values = mesh.nodes[nodes] @ (t * H).T
        mask = np.ones((len(nodes), 3), dtype=bool)
        return nodes, values, mask


# --- voxel cells and the averaging audits ---------------------------------------

def homogeneous_rve(n):
    """Matrix rubber throughout."""
    return homogenization.VoxelRVE(np.zeros((n, n, n), dtype=int),
                                   (materials.MATRIX_RUBBER,))


def layered_rve(n, fraction, axis=2):
    """Rubber-fiber laminate: the first round(fraction*n) slabs are fiber."""
    phase = np.zeros((n, n, n), dtype=int)
    n1 = int(round(fraction * n))
    sl = [slice(None)] * 3
    sl[axis] = slice(0, n1)
    phase[tuple(sl)] = 1
    return homogenization.VoxelRVE(
        phase, (materials.MATRIX_RUBBER, materials.FIBER_STIFF))


def random_voxel_rve(n, fraction, seed):
    """Rubber-fiber cell whose voxels are each fiber with probability
    ``fraction``, so its phase varies along every axis."""
    phase = (np.random.default_rng(seed).random((n, n, n)) < fraction).astype(int)
    return homogenization.VoxelRVE(
        phase, (materials.MATRIX_RUBBER, materials.FIBER_STIFF))


def cell_path(solver, F_bar, n_steps):
    """Cell solutions at F_k = I + (k/n)(F_bar - I), k = 0..n, in turn.

    Each is one increment of ``solver.solve`` from the one before, so its
    Newton starts from the secant prediction along the step before.
    """
    F_bar = np.asarray(F_bar, dtype=float)
    out, sol = [], None
    for k in range(n_steps + 1):
        F_k = np.eye(3) + (k / n_steps) * (F_bar - np.eye(3))
        sol = solver.solve(F_k, 1, start=sol)
        out.append(sol)
    return out


def work_rate_mismatch(prev, curr):
    """Relative gap between macro and averaged micro incremental work.

    With rates replaced by increments between two converged states, the
    average-work identity says P_bar : dF_bar matches the volume average of
    P : dF.  Returns |gap| / |macro work increment|.
    """
    dF_bar = curr.F_bar - prev.F_bar
    macro = np.tensordot(curr.P_bar, dF_bar, axes=2)
    micro = float(fem.volume_average(
        np.einsum("eqij,eqij->eq", curr.P_qp, curr.F_qp - prev.F_qp),
        curr.wdet))
    return abs(macro - micro) / max(abs(macro), 1e-300)


def cell_energy(solver, sol):
    """Volume-averaged Ogden energy density of a converged cell state."""
    C = tensors.right_cauchy_green(sol.F_qp)
    psi = np.empty(C.shape[:-2])
    for params, mask in solver.phase_masks:
        psi[mask] = ogden_energy_from_C(C[mask], params)
    return float(fem.volume_average(psi, sol.wdet))


def path_energy_mismatch(solver, solutions):
    """Relative gap between the averaged energy and the work integral.

    Trapezoid-integrates P_bar : dF_bar along a list of converged states of
    ``solver`` and compares with the change of the averaged energy density.
    """
    work = 0.0
    for a, b in zip(solutions[:-1], solutions[1:]):
        dF = b.F_bar - a.F_bar
        work += 0.5 * (np.tensordot(a.P_bar, dF, axes=2)
                       + np.tensordot(b.P_bar, dF, axes=2))
    dpsi = cell_energy(solver, solutions[-1]) - cell_energy(solver, solutions[0])
    return abs(work - dpsi) / max(abs(dpsi), 1e-300)

"""Macroscopic boundary value problems on coarse hexahedral meshes.

The solver ramps the load program and runs the total-Lagrangian Newton
iteration of :class:`fem.HexGrid` per increment, with a law, normally the
trained surrogate, supplying stress and tangent at every quadrature point.
Besides the solver itself this module ships three built-in benchmark
geometries (a perforated plate under tension, a perforated bar under torsion
and a tapered cantilever under dead load), simple structured mesh generation
with voxel carving for the holes, and the deformation capture the mining
loop feeds on.
"""

from __future__ import annotations

import json
import logging
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import data, fem, surrogate, tensors
from .errors import (CorruptRecord, FirstStepDivergence,
                     FormatVersionMismatch, NewtonDivergence, UnknownGeometry)

log = logging.getLogger(__name__)

GEOMETRY_NAMES = ("cuboid-hole", "torsion-bar", "cook-membrane")

# local node quadruples of the six hex faces (VTK corner ordering)
_HEX_FACES = np.array([
    [0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 5, 4],
    [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7],
])

_QUAD_CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
_QUAD_GAUSS = _QUAD_CORNERS / np.sqrt(3.0)


# ---------------------------------------------------------------------------
# meshes

@dataclass
class MacroMesh:
    """Hex8 mesh with named node and face sets."""

    nodes: np.ndarray
    conn: np.ndarray
    node_sets: dict = field(default_factory=dict)
    face_sets: dict = field(default_factory=dict)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float).reshape(-1, 3)
        self.conn = np.asarray(self.conn, dtype=int).reshape(-1, 8)

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_elements(self):
        return len(self.conn)

    def element_coords(self):
        return self.nodes[self.conn]


def boundary_faces(conn):
    """Element faces that occur exactly once, with original node order."""
    quads = conn[:, _HEX_FACES].reshape(-1, 4)
    keys = np.sort(quads, axis=1)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True,
                                   return_counts=True)
    return quads[counts[inverse] == 1]


def _box_node_sets(mesh: MacroMesh):
    """Nodes and boundary faces within 1e-9 of each bounding-box side."""
    tol = 1e-9
    x = mesh.nodes
    lo, hi = x.min(axis=0), x.max(axis=0)
    sets = {}
    for axis, name in enumerate(("x1", "x2", "x3")):
        sets[f"{name}min"] = np.where(np.abs(x[:, axis] - lo[axis]) < tol)[0]
        sets[f"{name}max"] = np.where(np.abs(x[:, axis] - hi[axis]) < tol)[0]
    faces = boundary_faces(mesh.conn)
    sets["boundary"] = np.unique(faces)
    mesh.node_sets.update(sets)
    for axis, name in enumerate(("x1", "x2", "x3")):
        for side, val in (("min", lo[axis]), ("max", hi[axis])):
            on = np.abs(x[faces, axis] - val).max(axis=1) < tol
            mesh.face_sets[f"{name}{side}"] = faces[on]
    return mesh


def box_mesh(lengths, divisions, carve=None, warp=None):
    """Structured box mesh, optionally warped and with elements carved away.

    ``carve`` maps element centroids (E, 3) to a boolean keep-mask; ``warp``
    maps the unit-cube node grid (N, 3 in [0,1]) to physical coordinates.
    Unused nodes are dropped and renumbered.
    """
    nx, ny, nz = divisions
    grid = np.stack(np.meshgrid(
        np.linspace(0.0, 1.0, nx + 1),
        np.linspace(0.0, 1.0, ny + 1),
        np.linspace(0.0, 1.0, nz + 1), indexing="ij"), axis=-1).reshape(-1, 3)
    nodes = warp(grid) if warp is not None else grid * np.asarray(lengths)
    conn = np.ravel_multi_index(np.moveaxis(fem.grid_corners(divisions), -1, 0),
                                (nx + 1, ny + 1, nz + 1))
    if carve is not None:
        centroids = nodes[conn].mean(axis=1)
        conn = conn[carve(centroids)]
    used, renumbered = np.unique(conn, return_inverse=True)
    mesh = MacroMesh(nodes[used], renumbered.reshape(-1, 8))
    return _box_node_sets(mesh)


# ---------------------------------------------------------------------------
# boundary conditions

@dataclass(frozen=True)
class DisplacementRamp:
    """Linear-in-time prescribed displacement on a named node set.

    ``components`` masks which displacement components are prescribed; free
    components stay unknowns of the solve.
    """

    node_set: str
    target: tuple
    components: tuple = (True, True, True)

    def constraints(self, t, mesh: MacroMesh):
        nodes = mesh.node_sets[self.node_set]
        values = np.tile(t * np.asarray(self.target, dtype=float), (len(nodes), 1))
        mask = np.tile(np.asarray(self.components, dtype=bool), (len(nodes), 1))
        return nodes, values, mask


@dataclass(frozen=True)
class RotationRamp:
    """Rigid rotation of a node set about an axis line, ramped linearly.

    Prescribes u = (R(t*angle) - 1)(X - p) on all components, with the axis
    through point ``origin`` along ``axis``.
    """

    node_set: str
    axis: tuple
    origin: tuple
    angle: float

    def constraints(self, t, mesh: MacroMesh):
        nodes = mesh.node_sets[self.node_set]
        R = tensors.rotation_about(self.axis, t * self.angle)
        rel = mesh.nodes[nodes] - np.asarray(self.origin, dtype=float)
        values = rel @ (R - np.eye(3)).T
        mask = np.ones((len(nodes), 3), dtype=bool)
        return nodes, values, mask


@dataclass(frozen=True)
class TractionRamp:
    """Dead-load nominal traction on a named face set, ramped linearly.

    The traction vector keeps direction and reference area (first
    Piola-Kirchhoff sense); ``nodal_forces`` assembles the consistent nodal
    loads anew on every call and scales them by ``t``.
    """

    face_set: str
    traction: tuple

    def nodal_forces(self, t, mesh: MacroMesh):
        return t * consistent_face_loads(
            mesh.nodes, mesh.face_sets[self.face_set],
            np.asarray(self.traction, dtype=float))


def consistent_face_loads(nodes, faces, traction):
    """Consistent nodal forces for a constant traction on bilinear quads."""
    f = np.zeros_like(nodes)
    if len(faces) == 0:
        return f
    X = nodes[faces]
    contrib = np.zeros((len(faces), 4))
    for gp in _QUAD_GAUSS:
        xi, eta = gp
        N = 0.25 * (1.0 + xi * _QUAD_CORNERS[:, 0]) * (1.0 + eta * _QUAD_CORNERS[:, 1])
        dN = np.stack([0.25 * _QUAD_CORNERS[:, 0] * (1.0 + eta * _QUAD_CORNERS[:, 1]),
                       0.25 * _QUAD_CORNERS[:, 1] * (1.0 + xi * _QUAD_CORNERS[:, 0])],
                      axis=1)
        tang = np.einsum("fad,ai->fid", X, dN)
        dA = np.linalg.norm(np.cross(tang[:, 0], tang[:, 1]), axis=1)
        contrib += dA[:, None] * N[None, :]
    np.add.at(f, faces.reshape(-1),
              (contrib[..., None] * traction).reshape(-1, 3))
    return f


def _load(bcs, t, mesh):
    """The prescribed displacements, their mask (1 where prescribed) and the
    external nodal forces at pseudo-time t, stacked as (3, n_nodes, 3)."""
    g = np.zeros((3, mesh.n_nodes, 3))
    values, mask, forces = g
    for bc in bcs:
        if hasattr(bc, "constraints"):
            nodes, vals, m = bc.constraints(t, mesh)
            values[nodes] = np.where(m, vals, values[nodes])
            mask[nodes] = np.maximum(mask[nodes], m)
        if hasattr(bc, "nodal_forces"):
            forces += bc.nodal_forces(t, mesh)
    return g


# ---------------------------------------------------------------------------
# built-in geometries

@dataclass(frozen=True)
class MacroProblem:
    """Mesh, load program and fiber direction of a built-in benchmark."""

    name: str
    mesh: MacroMesh
    bcs: tuple
    fiber_axis: np.ndarray
    n_steps: int


def _cylinder_carve(center, axes, radius):
    c = np.asarray(center, dtype=float)

    def keep(centroids):
        d = centroids[:, axes] - c
        return np.einsum("ed,ed->e", d, d) >= radius ** 2

    return keep


def cuboid_hole_problem(resolution=1):
    """Perforated plate, stretched along x1 by 40% of its length."""
    lengths = (100.0, 100.0, 25.0)
    divisions = (8 * resolution, 8 * resolution, 2 * resolution)
    mesh = box_mesh(lengths, divisions,
                    carve=_cylinder_carve((50.0, 50.0), [0, 1], 30.0))
    bcs = (DisplacementRamp("x1min", (0.0, 0.0, 0.0)),
           DisplacementRamp("x1max", (0.4 * lengths[0], 0.0, 0.0)))
    return MacroProblem("cuboid-hole", mesh, bcs,
                        np.array([1.0, 0.0, 0.0]), n_steps=15)


def torsion_bar_problem(resolution=1):
    """Perforated square bar, end face twisted 45 degrees about x1."""
    lengths = (200.0, 100.0, 100.0)
    divisions = (12 * resolution, 6 * resolution, 6 * resolution)
    mesh = box_mesh(lengths, divisions,
                    carve=_cylinder_carve((100.0, 50.0), [0, 1], 40.0))
    bcs = (DisplacementRamp("x1min", (0.0, 0.0, 0.0)),
           RotationRamp("x1max", axis=(1.0, 0.0, 0.0),
                        origin=(lengths[0], 50.0, 50.0),
                        angle=np.deg2rad(45.0)))
    return MacroProblem("torsion-bar", mesh, bcs,
                        np.array([0.0, 1.0, 0.0]), n_steps=15)


def cook_membrane_problem(resolution=1):
    """Tapered cantilever, clamped left, dead surface load on the right face.

    The midsurface quadrilateral has corners (0,0), (48,44), (48,60), (0,44)
    in the x1-x2 plane, extruded 10 thick along x3; the load is 0.5 kPa
    upward on the reference area of the right face.
    """
    divisions = (6 * resolution, 6 * resolution, 2 * resolution)

    def warp(grid):
        xi, eta, zeta = grid.T
        return np.stack([48.0 * xi,
                         44.0 * xi + eta * (44.0 - 28.0 * xi),
                         10.0 * zeta], axis=1)

    mesh = box_mesh(None, divisions, warp=warp)
    bcs = (DisplacementRamp("x1min", (0.0, 0.0, 0.0)),
           TractionRamp("x1max", (0.0, 0.5, 0.0)))
    axis = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    return MacroProblem("cook-membrane", mesh, bcs, axis, n_steps=25)


def builtin_geometry(name, resolution=1):
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    try:
        builder = {"cuboid-hole": cuboid_hole_problem,
                   "torsion-bar": torsion_bar_problem,
                   "cook-membrane": cook_membrane_problem}[name]
    except KeyError:
        raise UnknownGeometry(
            f"unknown geometry {name!r}, expected one of {GEOMETRY_NAMES}") from None
    return builder(resolution)


# ---------------------------------------------------------------------------
# solver

@dataclass
class StepRecord:
    """One converged load increment."""

    t: float
    u: np.ndarray
    F_qp: np.ndarray
    P_qp: np.ndarray
    iterations: int
    residuals: list


@dataclass
class MacroState:
    """History of a macroscopic solve; partial when t_end < t_goal."""

    steps: list
    t_goal: float = 1.0

    @property
    def t_end(self):
        return self.steps[-1].t

    @property
    def completed(self):
        return self.t_end >= self.t_goal - 1e-12


def surrogate_law(model, fiber_axis):
    """The surrogate with fibers along ``fiber_axis`` as a Newton law.

    ``law(C)`` returns the second Piola-Kirchhoff stress and a callable for
    the Mandel material tangent at that C, as :meth:`fem.HexGrid.newton`
    expects; the tangent reuses the stress call's first-derivative pass and
    is bitwise that of a separate :func:`surrogate.model_tangent` call.
    """
    M = tensors.structural_tensor(fiber_axis)
    return lambda C: surrogate.model_stress(model, C, M)


def solve_macro(mesh: MacroMesh, bcs, law, n_steps=10, rel_tol=1e-8,
                shear_scale=100.0, max_newton=20, max_cutbacks=3):
    """Incremental Newton solve of the macroscopic problem.

    ``law`` is the constitutive law :meth:`fem.HexGrid.newton` takes,
    normally :func:`surrogate_law`.  :func:`fem.ramp` ramps the load program
    in ``n_steps`` increments, with its start, rerun and ``max_cutbacks``
    policy.  When the ramp diverges before any increment converged this
    raises :class:`FirstStepDivergence`; later it logs a warning and returns
    the partial history reached so far.  The returned state stores per-point
    deformation gradients per converged step (the mining loop's raw
    material) starting with the undeformed step at t = 0.  No boundary
    condition changes its prescribed components with t, so the free dofs
    are found once per solve.
    """
    grid = fem.HexGrid(mesh.element_coords(), mesh.conn, mesh.n_nodes)
    area_scale = float(np.mean(grid.wdet.sum(axis=1)) ** (2.0 / 3.0))
    force_tol = rel_tol * shear_scale * area_scale

    E = mesh.n_elements
    identity_F = np.broadcast_to(np.eye(3), (E, 8, 3, 3)).copy()
    T0, _ = law(np.eye(3).reshape(1, 1, 3, 3))
    P0 = np.broadcast_to(T0.reshape(3, 3), (E, 8, 3, 3)).copy()
    steps = [StepRecord(0.0, np.zeros((mesh.n_nodes, 3)), identity_F, P0, 0, [])]

    free = fem.FreeDofs(grid.pattern, _load(bcs, 0.0, mesh)[1] == 0.0)

    def attempt(g, u_start):
        values, mask, f_ext = g[0], g[1] > 0.0, g[2]
        return grid.newton(np.where(mask, values, u_start), law, free,
                           force_tol, max_newton, f_ext=f_ext)

    try:
        for t, (u, F, P, residuals), _ in fem.ramp(
                attempt, lambda t: _load(bcs, t, mesh), steps[0].u, n_steps,
                max_cutbacks=max_cutbacks):
            steps.append(StepRecord(t, u, F, P, len(residuals) - 1, residuals))
    except NewtonDivergence as exc:
        if len(steps) == 1:
            raise FirstStepDivergence(
                "macro solve diverged before completing any increment") from exc
        log.warning("macro solve stopped at t_end=%g: %s", steps[-1].t, exc)
    return MacroState(steps)


def collect_deformations(state: MacroState):
    """Per-quadrature-point deformation paths, shape (n_points, n_steps, 3, 3).

    Point p = element * 8 + local quadrature index; paths are time ordered
    and start at the undeformed step.
    """
    F = np.stack([s.F_qp for s in state.steps])
    n_steps, E = F.shape[0], F.shape[1]
    paths = F.transpose(1, 2, 0, 3, 4).reshape(E * 8, n_steps, 3, 3)
    times = np.array([s.t for s in state.steps])
    return paths, times


# ---------------------------------------------------------------------------
# result persistence

STATE_VERSION = "macro-state-v1"


def save_state(state: MacroState, mesh: MacroMesh, path, meta=None):
    """Bundle mesh and step history into a single npz archive at ``path``."""
    payload = {
        "version": np.array(STATE_VERSION),
        "nodes": mesh.nodes,
        "conn": mesh.conn,
        "t": np.array([s.t for s in state.steps]),
        "u": np.stack([s.u for s in state.steps]),
        "F": np.stack([s.F_qp for s in state.steps]),
        "P": np.stack([s.P_qp for s in state.steps]),
        "iterations": np.array([s.iterations for s in state.steps]),
        "t_goal": np.array(state.t_goal),
        "meta": np.array(json.dumps(meta or {})),
    }
    with data.atomic_write(path, "wb") as fh:
        np.savez_compressed(fh, **payload)


def load_state(path):
    """Inverse of :func:`save_state`; returns (state, mesh, meta).

    Raises :class:`FormatVersionMismatch` for a file that is not a state
    archive of this version and :class:`CorruptRecord` for one with missing
    or malformed entries, an inf or NaN in ``t``, ``u``, ``F`` or ``P`` or
    an F with det F <= 0 among them.
    """
    try:
        z = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        z = None
    if not isinstance(z, np.lib.npyio.NpzFile):
        raise FormatVersionMismatch(f"{path} is not an npz state archive")
    with z:
        try:
            version = str(z["version"]) if "version" in z.files else None
            if version != STATE_VERSION:
                raise FormatVersionMismatch(
                    f"unsupported state file version {version!r} in {path}")
            mesh = MacroMesh(z["nodes"], z["conn"])
            _box_node_sets(mesh)
            t, u, F, P = (np.asarray(z[key], dtype=float)
                          for key in ("t", "u", "F", "P"))
            if (not all(np.isfinite(x).all() for x in (t, u, F, P))
                    or np.any(np.linalg.det(F) <= 0.0)):
                raise CorruptRecord("an inf or NaN in t, u, F or P, or a det F <= 0",
                                    path=path)
            iterations = z["iterations"]
            steps = [StepRecord(float(t[k]), u[k], F[k], P[k],
                                int(iterations[k]), []) for k in range(len(t))]
            meta = json.loads(str(z["meta"]))
            if not isinstance(meta, dict):
                raise CorruptRecord("meta is not a JSON object", path=path)
            return MacroState(steps, float(z["t_goal"])), mesh, meta
        except KeyError as exc:
            raise CorruptRecord(f"{path} has no entry {exc}") from None
        except (ValueError, IndexError, zipfile.BadZipFile) as exc:
            raise CorruptRecord(f"{path}: {exc}") from None


def export_vtk(state: MacroState, mesh: MacroMesh, path, step=-1):
    """Legacy ASCII VTK snapshot of one step (displacements and stresses)."""
    rec = state.steps[step]
    F_cell = rec.F_qp.mean(axis=1)
    P_cell = rec.P_qp.mean(axis=1)
    lines = ["# vtk DataFile Version 3.0",
             f"macro solve step t={rec.t:g}", "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.n_nodes} double"]
    for x in mesh.nodes:
        lines.append(" ".join(repr(float(v)) for v in x))
    lines.append(f"CELLS {mesh.n_elements} {9 * mesh.n_elements}")
    for c in mesh.conn:
        lines.append("8 " + " ".join(str(int(i)) for i in c))
    lines.append(f"CELL_TYPES {mesh.n_elements}")
    lines.extend(["12"] * mesh.n_elements)
    lines.append(f"POINT_DATA {mesh.n_nodes}")
    lines.append("VECTORS displacement double")
    for v in rec.u:
        lines.append(" ".join(repr(float(x)) for x in v))
    lines.append(f"CELL_DATA {mesh.n_elements}")
    for name, tensor in (("defgrad", F_cell), ("nominal_stress", P_cell)):
        lines.append(f"TENSORS {name} double")
        for m in tensor:
            for row in m:
                lines.append(" ".join(repr(float(x)) for x in row))
            lines.append("")
    with data.atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")

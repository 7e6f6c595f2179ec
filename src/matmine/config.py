"""Run configuration: one documented INI file covering every pipeline knob.

:data:`SPEC` lists every key with its default, read from the objects the
key configures (phase presets, oracle, training and loop dataclasses) or,
for ``grid``, ``volume_fraction``, ``placement_seed``, ``substeps``,
``initial_steps``, ``kind``, ``name``, ``resolution`` and ``n_steps``,
written there as a literal.  This module renders SPEC into a commented INI
skeleton and parses user files back onto those objects.  Unknown
sections or keys are rejected rather than ignored, and so are counts below
one (cell grid, substeps, mesh resolution, network width, restarts,
iteration cap, initial-suite steps, threads), a negative step count or
seed, a volume fraction outside [0, 1], a training fraction outside (0, 1],
a symmetry tolerance that is negative or not finite, and material values
the material classes refuse, among them any that is not finite.

``python3 -m matmine.config`` prints the annotated default file.
"""

from __future__ import annotations

import configparser
import functools
import io
from dataclasses import dataclass, replace

import numpy as np

from . import homogenization, macro, materials, mining, training
from .errors import InvalidConfig, InvalidMaterialParameters


def _fmt(value):
    if isinstance(value, (tuple, list, np.ndarray)):
        return " ".join(_fmt(v) for v in value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


_MATRIX = materials.MATRIX_RUBBER
_FIBER = materials.FIBER_STIFF
_ORACLE = materials.OracleParameters()
_TRAIN = training.TrainingConfig()
_LOOP = mining.LoopConfig()

# section -> list of (key, default string, comment)
SPEC = {
    "material": [
        ("mu", _fmt(_MATRIX.mu), "Ogden shear coefficients of the soft phase [kPa]"),
        ("alpha", _fmt(_MATRIX.alpha), "Ogden exponents of the soft phase"),
        ("kappa", _fmt(_MATRIX.kappa), "bulk modulus of the soft phase [kPa]"),
        ("fiber_mu", _fmt(_FIBER.mu), "Ogden shear coefficients of the stiff phase [kPa]"),
        ("fiber_alpha", _fmt(_FIBER.alpha), "Ogden exponents of the stiff phase"),
        ("fiber_kappa", _fmt(_FIBER.kappa), "bulk modulus of the stiff phase [kPa]"),
    ],
    "oracle": [
        ("kind", "analytic", "microscale oracle backend: analytic | voxel"),
        ("fiber_stiffness", _fmt(_ORACLE.fiber_stiffness),
         "fiber-stretch penalty of the analytic oracle [kPa]"),
        ("fiber_axis", _fmt(_ORACLE.fiber_axis),
         "microscale fiber direction (frame mined tuples are stored in)"),
        ("grid", "8", "voxel cells per edge (voxel kind)"),
        ("volume_fraction", "0.3", "stiff-column probability (voxel kind)"),
        ("placement_seed", "0", "fiber placement seed (voxel kind)"),
        ("substeps", "2", "load substeps per oracle evaluation (voxel kind)"),
    ],
    "network": [
        ("n_neurons", _fmt(_TRAIN.n_neurons), "hidden-layer width"),
        ("anisotropy", _TRAIN.anisotropy, "material symmetry: transverse | isotropic"),
        ("growth_mode", _fmt(_TRAIN.growth_mode),
         "constrain signs so energy grows toward extreme volume changes"),
    ],
    "training": [
        ("restarts", _fmt(_TRAIN.restarts), "independent fits; the best one wins"),
        ("seed", _fmt(_TRAIN.seed), "base seed for splits and restarts"),
        ("train_fraction", _fmt(_TRAIN.train_fraction),
         "share of tuples used for fitting, rest is held out"),
        ("max_iterations", _fmt(_TRAIN.max_iterations),
         "L-BFGS iteration cap per restart; a restart that converges stops sooner"),
        ("symmetry_tolerance", _fmt(_TRAIN.symmetry_tolerance),
         "max |P - P^T F^-T F^T| accepted when converting targets"),
    ],
    "loop": [
        ("eps_detect", _fmt(_LOOP.eps_detect),
         "invariant-space tolerance flagging unknown states"),
        ("eps_filter", _fmt(_LOOP.eps_filter),
         "tighter tolerance deduplicating admitted states"),
        ("n_max", _fmt(_LOOP.n_max), "outer iteration budget"),
        ("inner_repeats", _fmt(_LOOP.inner_repeats),
         "retrain attempts per iteration when the solve dies undetected"),
        ("threads", _fmt(_LOOP.threads), "parallel oracle path evaluations"),
        ("initial_steps", "12", "increments per initial-suite load case"),
    ],
    "geometry": [
        ("name", "cuboid-hole",
         "macro problem: cuboid-hole | torsion-bar | cook-membrane"),
        ("resolution", "1", "mesh refinement multiplier"),
        ("n_steps", "0", "load increments; 0 keeps the geometry's builtin count"),
    ],
}


def default_text():
    """The annotated default configuration file as a string."""
    out = io.StringIO()
    out.write("# matmine run configuration: every key with its default.\n")
    out.write("# Command-line flags override these values.\n")
    for section, entries in SPEC.items():
        out.write(f"\n[{section}]\n")
        for key, value, comment in entries:
            out.write(f"# {comment}\n{key} = {value}\n")
    return out.getvalue()


def _parser_with_defaults():
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict({s: {k: v for k, v, _ in entries}
                      for s, entries in SPEC.items()})
    return parser


def _check_known(parser):
    for section in parser.sections():
        if section not in SPEC:
            raise InvalidConfig(f"unknown section [{section}]")
        known = {k for k, _, _ in SPEC[section]}
        for key in parser[section]:
            if key not in known:
                raise InvalidConfig(f"unknown key '{key}' in [{section}]")


def _floats(text):
    try:
        return tuple(float(v) for v in text.split())
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from None


@dataclass
class RunConfig:
    """Everything the CLI needs, parsed and cross-validated."""

    matrix: materials.OgdenParameters
    fiber: materials.OgdenParameters
    oracle_kind: str
    oracle: materials.OracleParameters
    voxel_grid: int
    volume_fraction: float
    placement_seed: int
    substeps: int
    training: training.TrainingConfig
    loop: mining.LoopConfig
    initial_steps: int
    geometry: str
    resolution: int
    n_steps: int


def load_config(path=None, overrides=None):
    """Parse an INI file (or just the defaults) into a :class:`RunConfig`.

    ``overrides`` maps ``(section, key)`` to replacement string values and is
    applied after the file, which is how command-line flags win.
    """
    parser = _parser_with_defaults()
    if path is not None:
        with open(path) as fh:
            try:
                parser.read_file(fh)
            except configparser.Error as exc:
                raise InvalidConfig(str(exc)) from None
    _check_known(parser)
    for (section, key), value in (overrides or {}).items():
        parser[section][key] = _fmt(value)

    try:
        matrix = materials.OgdenParameters(
            mu=_floats(parser["material"]["mu"]),
            alpha=_floats(parser["material"]["alpha"]),
            kappa=parser["material"].getfloat("kappa"))
        fiber = materials.OgdenParameters(
            mu=_floats(parser["material"]["fiber_mu"]),
            alpha=_floats(parser["material"]["fiber_alpha"]),
            kappa=parser["material"].getfloat("fiber_kappa"))
        kind = parser["oracle"]["kind"]
        if kind not in ("analytic", "voxel"):
            raise InvalidConfig(f"oracle kind must be analytic or voxel, got {kind!r}")
        axis = _floats(parser["oracle"]["fiber_axis"])
        if len(axis) != 3:
            raise InvalidConfig("fiber_axis needs three components")
        oracle = materials.OracleParameters(
            matrix=matrix, fiber_axis=axis,
            fiber_stiffness=parser["oracle"].getfloat("fiber_stiffness"))
        if kind == "voxel" and not np.allclose(oracle.fiber_axis, (0.0, 0.0, 1.0)):
            raise InvalidConfig(
                "the voxel oracle grows fibers along 0 0 1; rotate the macro "
                "problem instead of the cell")
        for section, key in (("oracle", "substeps"), ("oracle", "grid"),
                             ("network", "n_neurons"),
                             ("training", "restarts"),
                             ("training", "max_iterations"),
                             ("loop", "initial_steps"), ("loop", "threads"),
                             ("geometry", "resolution")):
            if parser[section].getint(key) < 1:
                raise InvalidConfig(f"{key} must be at least 1")
        for section, key in (("training", "seed"), ("oracle", "placement_seed")):
            if parser[section].getint(key) < 0:
                raise InvalidConfig(f"{key} must be at least 0")
        if parser["geometry"].getint("n_steps") < 0:
            raise InvalidConfig("n_steps must be at least 0 (0 keeps the "
                                "geometry's builtin count)")
        if not 0.0 <= parser["oracle"].getfloat("volume_fraction") <= 1.0:
            raise InvalidConfig("volume_fraction must lie in [0, 1]")
        if not 0.0 < parser["training"].getfloat("train_fraction") <= 1.0:
            raise InvalidConfig("train_fraction must lie in (0, 1]")
        if not 0.0 <= parser["training"].getfloat("symmetry_tolerance") < np.inf:
            raise InvalidConfig("symmetry_tolerance must be a finite number at least 0")
        train_cfg = training.TrainingConfig(
            n_neurons=parser["network"].getint("n_neurons"),
            restarts=parser["training"].getint("restarts"),
            seed=parser["training"].getint("seed"),
            growth_mode=parser["network"].getboolean("growth_mode"),
            anisotropy=parser["network"]["anisotropy"],
            train_fraction=parser["training"].getfloat("train_fraction"),
            max_iterations=parser["training"].getint("max_iterations"),
            symmetry_tolerance=parser["training"].getfloat("symmetry_tolerance"))
        if train_cfg.anisotropy not in ("transverse", "isotropic"):
            raise InvalidConfig("anisotropy must be transverse or isotropic")
        loop_cfg = mining.LoopConfig(
            eps_detect=parser["loop"].getfloat("eps_detect"),
            eps_filter=parser["loop"].getfloat("eps_filter"),
            n_max=parser["loop"].getint("n_max"),
            inner_repeats=parser["loop"].getint("inner_repeats"),
            rve_fiber_axis=oracle.fiber_axis,
            threads=parser["loop"].getint("threads"))
        geometry = parser["geometry"]["name"]
        if geometry not in macro.GEOMETRY_NAMES:
            raise InvalidConfig(
                f"geometry must be one of {macro.GEOMETRY_NAMES}, got {geometry!r}")
        return RunConfig(
            matrix=matrix, fiber=fiber, oracle_kind=kind, oracle=oracle,
            voxel_grid=parser["oracle"].getint("grid"),
            volume_fraction=parser["oracle"].getfloat("volume_fraction"),
            placement_seed=parser["oracle"].getint("placement_seed"),
            substeps=parser["oracle"].getint("substeps"),
            training=train_cfg, loop=loop_cfg,
            initial_steps=parser["loop"].getint("initial_steps"),
            geometry=geometry,
            resolution=parser["geometry"].getint("resolution"),
            n_steps=parser["geometry"].getint("n_steps"))
    except (ValueError, KeyError, InvalidMaterialParameters) as exc:
        raise InvalidConfig(f"bad configuration value: {exc}") from None


def make_oracle(rc: RunConfig):
    """The configured microscale oracle backend."""
    if rc.oracle_kind == "analytic":
        return mining.AnalyticOracle(rc.oracle)
    rve = homogenization.fiber_rve(rc.voxel_grid, rc.volume_fraction,
                                   rc.placement_seed,
                                   phases=(rc.matrix, rc.fiber))
    return mining.VoxelOracle(rve, substeps=rc.substeps)


def make_initial_dataset(rc: RunConfig, oracle):
    """The filtered initial load suite, every stress answered by ``oracle``.

    Pass the oracle object the loop gets, so the suite and the mined tuples
    come from the same microscale model.  The driver's force tolerance
    scales with the configured matrix's initial shear modulus.
    """
    return mining.initial_dataset(eps_filter=rc.loop.eps_filter,
                                  n_steps=rc.initial_steps,
                                  rve_fiber_axis=rc.loop.rve_fiber_axis,
                                  force_scale=rc.matrix.initial_shear_modulus,
                                  stress=functools.partial(
                                      oracle.evaluate_path, warm_start=False))


def make_initial_stress(rc: RunConfig):
    """Pointwise stress map of a fresh configured oracle.

    This is ``make_oracle(rc).evaluate_path`` with ``warm_start=False``;
    prefer :func:`make_initial_dataset` with the loop's own oracle.
    """
    return functools.partial(make_oracle(rc).evaluate_path, warm_start=False)


def make_problem(rc: RunConfig):
    """The configured macroscopic problem, with the step-count override."""
    problem = macro.builtin_geometry(rc.geometry, rc.resolution)
    if rc.n_steps > 0:
        problem = replace(problem, n_steps=rc.n_steps)
    return problem


if __name__ == "__main__":
    print(default_text(), end="")

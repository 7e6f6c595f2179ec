"""Run configuration: one documented INI file covering every pipeline knob.

:data:`SPEC` is the one declaration of every run setting: each key with its
default value and comment.  A default is read from the object the key
configures (phase presets, oracle, training and loop dataclasses) or, for the
settings :class:`RunConfig` holds itself, written there as a literal.  This
module renders SPEC into a commented INI skeleton and parses user files, read
as UTF-8, back onto those objects, each value as its default's type.  Unknown
sections or keys are rejected rather than ignored.  Every range is checked by
the object the setting configures, so a count below one, a negative seed, a
fraction outside its interval or a material value the material classes
refuse fails the same way whether it comes from a file, a flag or a caller
building the object directly.

``python3 -m matmine.config`` prints the annotated default file.
"""

from __future__ import annotations

import configparser
import functools
import io
import textwrap
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


def _parse(section, key, text):
    """``text`` read as a value of the type of ``[section] key``'s default."""
    default = SPEC[section][key][0]
    try:
        if isinstance(default, bool):
            return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
        if isinstance(default, tuple):
            return tuple(float(v) for v in text.split())
        return type(default)(text)
    except (KeyError, ValueError):
        what = {bool: "not a boolean", tuple: "invalid float"}.get(
            type(default), f"invalid {type(default).__name__}")
        raise InvalidConfig(f"[{section}] {key}: {what} {text!r}") from None


_MATRIX = materials.MATRIX_RUBBER
_FIBER = materials.FIBER_STIFF
_ORACLE = materials.OracleParameters()
_TRAIN = training.TrainingConfig()
_LOOP = mining.LoopConfig()

# section -> key -> (default, comment)
SPEC = {
    "material": {
        "mu": (_MATRIX.mu, "Ogden shear coefficients of the soft phase [kPa]"),
        "alpha": (_MATRIX.alpha, "Ogden exponents of the soft phase"),
        "kappa": (_MATRIX.kappa, "bulk modulus of the soft phase [kPa]"),
        "fiber_mu": (_FIBER.mu, "Ogden shear coefficients of the stiff phase [kPa]"),
        "fiber_alpha": (_FIBER.alpha, "Ogden exponents of the stiff phase"),
        "fiber_kappa": (_FIBER.kappa, "bulk modulus of the stiff phase [kPa]"),
    },
    "oracle": {
        "kind": ("analytic", "microscale oracle backend: analytic | voxel"),
        "fiber_stiffness": (_ORACLE.fiber_stiffness,
                            "fiber-stretch penalty of the analytic oracle [kPa]"),
        "fiber_axis": (_ORACLE.fiber_axis,
                       "microscale fiber direction (frame mined tuples are stored in)"),
        "grid": (8, "voxel cells per edge (voxel kind); the fibers run along "
                    "z, so the cell is solved on its grid x grid x 1 slab"),
        "volume_fraction": (0.3, "stiff-column probability (voxel kind)"),
        "placement_seed": (0, "fiber placement seed (voxel kind)"),
        "substeps": (1, "load increments per voxel cell solve (voxel kind). One "
                        "suffices from the predicted start, and fem.ramp cuts "
                        "back an increment that diverges; but a cold 12^3 cell "
                        "(placement seed 1) stretched 1.6 along x3 takes 13 "
                        "Newton updates in one increment against 8 in two"),
    },
    "network": {
        "n_neurons": (_TRAIN.n_neurons, "hidden-layer width"),
        "anisotropy": (_TRAIN.anisotropy, "material symmetry: transverse | isotropic"),
        "growth_mode": (_TRAIN.growth_mode,
                        "constrain signs so energy grows toward extreme volume changes"),
    },
    "training": {
        "restarts": (_TRAIN.restarts, "independent fits; the best one wins"),
        "seed": (_TRAIN.seed, "base seed for splits and restarts"),
        "train_fraction": (_TRAIN.train_fraction,
                           "share of tuples used for fitting, rest is held out"),
        "max_iterations": (_TRAIN.max_iterations,
                           "L-BFGS iteration cap per restart; a restart that "
                           "converges stops sooner"),
        "symmetry_tolerance": (_TRAIN.symmetry_tolerance,
                               "max |P - P^T F^-T F^T| accepted when converting targets"),
    },
    "loop": {
        "eps_detect": (_LOOP.eps_detect,
                       "invariant-space tolerance flagging unknown states"),
        "eps_filter": (_LOOP.eps_filter,
                       "tighter tolerance deduplicating admitted states"),
        "n_max": (_LOOP.n_max, "outer iteration budget"),
        "inner_repeats": (_LOOP.inner_repeats,
                          "retrain attempts per iteration when the solve dies undetected"),
        "threads": (_LOOP.threads, "parallel oracle path evaluations"),
        "initial_steps": (12, "increments per initial-suite load case"),
    },
    "geometry": {
        "name": ("cuboid-hole",
                 "macro problem: cuboid-hole | torsion-bar | cook-membrane"),
        "resolution": (1, "mesh refinement multiplier"),
        "n_steps": (0, "load increments; 0 keeps the geometry's builtin count"),
    },
}


def default_text():
    """The annotated default configuration file as a string."""
    out = io.StringIO()
    out.write("# matmine run configuration: every key with its default.\n")
    out.write("# Command-line flags override these values.\n")
    for section, entries in SPEC.items():
        out.write(f"\n[{section}]\n")
        for key, (value, comment) in entries.items():
            for line in textwrap.wrap(comment, 76):
                out.write(f"# {line}\n")
            out.write(f"{key} = {_fmt(value)}\n")
    return out.getvalue()


@dataclass
class RunConfig:
    """Everything the CLI needs, checked on construction.

    The objects it holds check their own settings; this class checks the
    rest and that the voxel oracle, which grows its fibers along z, is
    asked for that axis.
    """

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

    def __post_init__(self):
        if self.oracle_kind not in ("analytic", "voxel"):
            raise InvalidConfig(
                f"oracle kind must be analytic or voxel, got {self.oracle_kind!r}")
        for name in ("voxel_grid", "substeps", "initial_steps", "resolution"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be at least 1")
        for name in ("placement_seed", "n_steps"):
            if getattr(self, name) < 0:
                raise InvalidConfig(f"{name} must be at least 0")
        if not 0.0 <= self.volume_fraction <= 1.0:
            raise InvalidConfig("volume_fraction must lie in [0, 1]")
        if self.geometry not in macro.GEOMETRY_NAMES:
            raise InvalidConfig(f"geometry must be one of {macro.GEOMETRY_NAMES}, "
                                f"got {self.geometry!r}")
        if (self.oracle_kind == "voxel"
                and not np.allclose(self.oracle.fiber_axis, (0.0, 0.0, 1.0))):
            raise InvalidConfig(
                "the voxel oracle grows fibers along 0 0 1; rotate the macro "
                "problem instead of the cell")


def load_config(path=None, overrides=None):
    """Parse a UTF-8 INI file (or just the defaults) into a :class:`RunConfig`.

    ``overrides`` maps ``(section, key)`` to replacement values and is
    applied after the file, which is how command-line flags win.  Every
    value is read as its SPEC default's type; a malformed or out-of-range
    one raises :class:`InvalidConfig`.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(dict.fromkeys(SPEC, {}))
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except UnicodeDecodeError as exc:
            raise InvalidConfig(f"{path} is not UTF-8: {exc}") from None
        except configparser.Error as exc:
            # configparser's message spans lines; it names the file and line
            raise InvalidConfig(" ".join(str(exc).split())) from None
    values = {section: {key: default for key, (default, _) in entries.items()}
              for section, entries in SPEC.items()}
    try:
        for (section, key), value in (overrides or {}).items():
            parser[section][key] = _fmt(value)
        for section in parser.sections():
            if section not in SPEC:
                raise InvalidConfig(f"unknown section [{section}]")
            for key, text in parser.items(section):
                if key not in SPEC[section]:
                    raise InvalidConfig(f"unknown key '{key}' in [{section}]")
                values[section][key] = _parse(section, key, text)

        # the matrix's mu, alpha and kappa, then the fiber's
        material = list(values["material"].values())
        oracle, loop, geometry = values["oracle"], values["loop"], values["geometry"]
        initial_steps = loop.pop("initial_steps")
        matrix = materials.OgdenParameters(*material[:3])
        params = materials.OracleParameters(matrix, oracle["fiber_axis"],
                                            oracle["fiber_stiffness"])
        return RunConfig(
            matrix=matrix, fiber=materials.OgdenParameters(*material[3:]),
            oracle_kind=oracle["kind"], oracle=params,
            voxel_grid=oracle["grid"], volume_fraction=oracle["volume_fraction"],
            placement_seed=oracle["placement_seed"], substeps=oracle["substeps"],
            training=training.TrainingConfig(**values["network"],
                                             **values["training"]),
            loop=mining.LoopConfig(rve_fiber_axis=params.fiber_axis, **loop),
            initial_steps=initial_steps, geometry=geometry["name"],
            resolution=geometry["resolution"], n_steps=geometry["n_steps"])
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

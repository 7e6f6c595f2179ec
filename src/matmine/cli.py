"""Command-line front end for the data-mining pipeline.

Every subcommand but ``convert`` reads the same INI configuration (defaults
apply when ``--config`` is omitted) and a handful of override flags, and each
declares only the file flags it opens.  Exit codes:
0 success (including a converged loop), 2 iteration budget exhausted,
3 macro solver dead on the first load step, 4 unreadable or malformed files
and command-line usage errors, 1 anything else the pipeline can name.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import config, data, macro, mining, surrogate, training
from .errors import (CorruptRecord, EmptyDataSet, FirstStepDivergence,
                     FormatVersionMismatch, InvalidConfig, MatmineError,
                     MaxIterationsExceeded)

log = logging.getLogger("matmine")

# override flag (``--n-max`` for ``n_max``) -> the config.SPEC row it overrides
_OVERRIDE_FLAGS = {
    "seed": ("training", "seed"),
    "geometry": ("geometry", "name"),
    "oracle": ("oracle", "kind"),
    "eps_detect": ("loop", "eps_detect"),
    "eps_filter": ("loop", "eps_filter"),
    "n_max": ("loop", "n_max"),
    "threads": ("loop", "threads"),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 4, as malformed input; argparse's 2 means a spent
    iteration budget here.  Subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"error: {message}\n")


_FILE_FLAGS = {
    "dataset": "knowledge-base file",
    "model": "surrogate model JSON",
    "state": "macro state archive",
    "paths": "detect output file to enrich from",
}


def _add_common(p, *files):
    """The required file flags ``files``, ``--config`` and the override flags."""
    for name in files:
        p.add_argument(f"--{name}", metavar="FILE", required=True,
                       help=_FILE_FLAGS[name])
    p.add_argument("--config", metavar="FILE",
                   help="INI run configuration; defaults apply when omitted")
    for name, (section, key) in _OVERRIDE_FLAGS.items():
        default, comment = config.SPEC[section][key]
        p.add_argument("--" + name.replace("_", "-"), type=type(default),
                       help=f"{comment} (overrides [{section}] {key})")


def _run_config(args):
    overrides = {target: getattr(args, name)
                 for name, target in _OVERRIDE_FLAGS.items()
                 if getattr(args, name) is not None}
    return config.load_config(args.config, overrides)


def _load_state(path, rc):
    """The state archive at ``path``, if solved on the configured geometry."""
    state, _, meta = macro.load_state(path)
    solved = meta.get("geometry")
    if solved != rc.geometry:
        raise InvalidConfig(f"{path} was solved on geometry {solved!r}, "
                            f"the configuration names {rc.geometry!r}")
    return state


def _load_dataset(path):
    ds = data.load_kbase(path)
    log.info("loaded %d tuples from %s", len(ds), path)
    return ds


# --- subcommands ----------------------------------------------------------------


def cmd_init_data(args):
    rc = _run_config(args)
    ds = config.make_initial_dataset(rc, config.make_oracle(rc))
    data.save_kbase(ds, args.out)
    print(f"initial suite: {len(ds)} tuples after filtering -> {args.out}")


def cmd_train(args):
    rc = _run_config(args)
    ds = _load_dataset(args.dataset)
    model, report = training.train(ds, rc.training,
                                   fiber_axis=rc.loop.rve_fiber_axis)
    surrogate.save_model(model, args.out)
    report_path = os.path.splitext(args.out)[0] + "_report.json"
    report.save(report_path)
    print(f"trained on {report.n_train}/{report.n_data} tuples, "
          f"train loss {report.train_loss:.6g}, holdout loss "
          f"{report.test_loss:.6g} -> {args.out}")


def cmd_solve(args):
    rc = _run_config(args)
    model = surrogate.load_model(args.model)
    problem = config.make_problem(rc)
    state = macro.solve_macro(problem.mesh, problem.bcs,
                              macro.surrogate_law(model, problem.fiber_axis),
                              problem.n_steps)
    macro.save_state(state, problem.mesh, args.out,
                     meta={"geometry": problem.name,
                           "completed": bool(state.completed)})
    print(f"{problem.name}: reached t = {state.t_end:.4g} of 1 in "
          f"{len(state.steps) - 1} steps -> {args.out}")


def cmd_detect(args):
    rc = _run_config(args)
    ds = _load_dataset(args.dataset)
    state = _load_state(args.state, rc)
    problem = config.make_problem(rc)
    paths, times = macro.collect_deformations(state)
    detected = mining.detect_new_paths(ds, paths, times, problem.fiber_axis,
                                       rc.loop.rve_fiber_axis,
                                       rc.loop.eps_detect)
    records = []
    source = f"detected:{problem.name}"
    for d in detected:
        for k in range(1, d.last_step + 1):
            records.append((d.F[k], np.zeros((3, 3)), source, 0,
                            d.point_id, k, d.t[k]))
    data.save_kbase(data.from_records(records), args.out)
    print(f"{len(detected)} paths with unknown states, "
          f"{len(records)} candidate states -> {args.out}")


def _paths_from_records(ds):
    """Regroup a detect-output file into per-path state series."""
    detected = []
    for pid in sorted(set(ds.path_id.tolist())):
        rows = np.flatnonzero(ds.path_id == pid)
        rows = rows[np.argsort(ds.step[rows])]
        t = np.concatenate([[0.0], ds.t[rows]])
        F = np.concatenate([np.eye(3)[None], ds.F[rows]])
        detected.append(mining.DetectedPath(int(pid), len(rows), t, F))
    return detected


def cmd_enrich(args):
    rc = _run_config(args)
    ds = _load_dataset(args.dataset)
    if len(ds) == 0:
        raise EmptyDataSet(f"{args.dataset} holds no tuples to enrich")
    detected = _paths_from_records(_load_dataset(args.paths))
    problem = config.make_problem(rc)
    oracle = config.make_oracle(rc)
    new, n_cand = mining.enrich(ds, detected, oracle, problem.fiber_axis,
                                rc.loop.rve_fiber_axis, rc.loop.eps_filter,
                                iteration=int(ds.iteration.max()) + 1,
                                source=f"mined:{problem.name}",
                                threads=rc.loop.threads)
    data.save_kbase(ds.merged_with(new), args.out)
    print(f"admitted {len(new)} of {n_cand} candidate states "
          f"-> {args.out} ({len(ds) + len(new)} tuples)")


def cmd_run(args):
    rc = _run_config(args)
    problem = config.make_problem(rc)
    oracle = config.make_oracle(rc)
    if args.dataset is not None:
        initial = _load_dataset(args.dataset)
    else:
        log.info("no --dataset given, driving the initial load suite")
        initial = config.make_initial_dataset(rc, oracle)
    os.makedirs(args.out, exist_ok=True)
    try:
        result = mining.run_loop(problem, oracle, initial, rc.training,
                                 rc.loop, out_dir=args.out)
    except MaxIterationsExceeded as exc:
        if getattr(exc, "result", None) is not None:
            _finish_run(exc.result, problem, args.out)
            print(f"not converged: {exc} (artifacts in {args.out})")
        raise
    _finish_run(result, problem, args.out)
    print(f"converged in {len(result.iterations)} iterations, "
          f"{len(result.dataset)} tuples -> {args.out}")


def _finish_run(result, problem, out_dir):
    """Save the last solve's state next to the loop's artifacts, print the table."""
    state = result.final_state
    if state is not None:
        macro.save_state(state, problem.mesh, os.path.join(out_dir, "state.npz"),
                         meta={"geometry": problem.name,
                               "completed": bool(state.completed)})
    print("iter  tuples  detected  admitted  t_end  repeats")
    for r in result.iterations:
        print(f"{r.iteration:4d}  {r.dataset_size:6d}  {r.detected_paths:8d}  "
              f"{r.new_tuples:8d}  {r.t_end:5.3f}  {r.repeats:7d}")


def cmd_validate(args):
    if not 0.0 <= args.tol < np.inf:
        raise InvalidConfig(f"--tol must be a finite number at least 0, got {args.tol}")
    rc = _run_config(args)
    model = surrogate.load_model(args.model)
    ds = _load_dataset(args.dataset)
    state = _load_state(args.state, rc)
    problem = config.make_problem(rc)
    oracle = config.make_oracle(rc)
    paths, times = macro.collect_deformations(state)
    out = mining.validate_coverage(model, ds, paths, times, oracle,
                                   problem.fiber_axis,
                                   rc.loop.rve_fiber_axis, tol=args.tol)
    scatter = out.pop("scatter")
    scatter_path = os.path.splitext(args.out)[0] + "_scatter.txt"
    with data.atomic_write(scatter_path) as fh:
        np.savetxt(fh, scatter, fmt="%.17g",
                   header="oracle_norm model_norm rel_error")
    data.write_json(args.out, out, sort_keys=True)
    print(f"{out['n_uncovered']} of {out['n_states']} states uncovered; "
          f"relative stress error p95 = {out['rel_p95']:.4g}, "
          f"max = {out['rel_max']:.4g} -> {args.out}")


def cmd_convert(args):
    state, mesh, _ = macro.load_state(args.state)
    if not -len(state.steps) <= args.step < len(state.steps):
        raise InvalidConfig(f"--step {args.step} is outside the archive's "
                            f"{len(state.steps)} steps")
    macro.export_vtk(state, mesh, args.out, step=args.step)
    print(f"wrote {args.out}")


def _build_parser():
    parser = _Parser(
        prog="matmine",
        description="autonomous mining of microscale data for a neural "
                    "hyperelastic surrogate")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-data", help="drive the initial load suite")
    p.add_argument("--out", default="kbase.txt", help="output dataset file")
    _add_common(p)
    p.set_defaults(func=cmd_init_data)

    p = sub.add_parser("train", help="fit the surrogate to a dataset")
    p.add_argument("--out", default="model.json", help="output model file")
    _add_common(p, "dataset")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("solve", help="run the macro problem with a model")
    p.add_argument("--out", default="state.npz", help="output state archive")
    _add_common(p, "model")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("detect", help="find states a dataset does not cover")
    p.add_argument("--out", default="detected.txt",
                   help="output file of candidate states (stress columns zero)")
    _add_common(p, "dataset", "state")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("enrich", help="evaluate the oracle on detected states")
    p.add_argument("--out", default="kbase_enriched.txt",
                   help="output dataset file (input plus admitted tuples)")
    _add_common(p, "dataset", "paths")
    p.set_defaults(func=cmd_enrich)

    p = sub.add_parser("run", help="full mine-train-solve loop")
    p.add_argument("--out", default="run_out", help="artifact directory")
    p.add_argument("--dataset", metavar="FILE",
                   help="knowledge-base file to start from (default: drive "
                        "the initial load suite)")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("validate",
                       help="score the surrogate against the oracle on "
                            "states outside the dataset's coverage (all "
                            "states when coverage is complete)")
    p.add_argument("--tol", type=float, default=0.05,
                   help="coverage tolerance in deformation-tensor space")
    p.add_argument("--out", default="validation.json", help="summary file")
    _add_common(p, "model", "dataset", "state")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert", help="export a state archive to legacy VTK")
    p.add_argument("--state", metavar="FILE", required=True,
                   help="macro state archive")
    p.add_argument("--step", type=int, default=-1,
                   help="step index to export (default: last)")
    p.add_argument("--out", default="state.vtk", help="output VTK file")
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args.func(args)
        return 0
    except MaxIterationsExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FirstStepDivergence as exc:
        print(f"error: first load step failed: {exc}", file=sys.stderr)
        return 3
    except (FormatVersionMismatch, CorruptRecord, InvalidConfig,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MatmineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

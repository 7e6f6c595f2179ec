"""matmine benchmark: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload cuboid-cold --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/`` and the brute-force references from ``tests/``.  Set-up runs
several times and its median is reported.  Then measured units of the
workload run back to back while the next one is expected to end within
``--seconds`` (at least one runs).  With ``--trace 1`` the units alternate
between untraced and traced, at least one of each, and the run reports the
per-layer metrics of the traced units and their overhead against the
untraced ones.  Times are reported at a reference machine speed (see
``Calibration``).  Everything printed before the last line is for people; the
last line is one JSON object with the result.  Scratch files go to
``.perfbench_work/`` in the checkout.
"""

import os

# BLAS/OpenMP pools would compete with the oracle threads for the cores
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse      # noqa: E402
import hashlib       # noqa: E402
import json          # noqa: E402
import logging       # noqa: E402
import platform      # noqa: E402
import resource      # noqa: E402
import shutil        # noqa: E402
import signal        # noqa: E402
import statistics    # noqa: E402
import sys           # noqa: E402
import tempfile      # noqa: E402
import time          # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3
# Seconds a calibration pass takes on the machine the benchmark was defined on.
# That host is shared: neighbours slow every kernel on it by up to half for
# minutes at a time, so each timing is scaled by the calibration pass times
# taken around and during it, i.e. reported at this reference speed.
CALIB_REF_S = 0.075
CALIB_REPEATS = 5
PROBE_PERIOD_S = 2.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import matmine from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    needed = [os.path.join(src, "matmine", "__init__.py"),
              os.path.join(ROOT, "tests", "oracles.py")]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        sys.exit(f"perfbench: not a matmine source checkout, missing {missing}")
    sys.path[:0] = [src, os.path.join(ROOT, "tests")]
    import matmine
    if os.path.dirname(os.path.dirname(matmine.__file__)) != src:
        sys.exit(f"perfbench: imported matmine from {matmine.__file__}")


def machine_info():
    import numpy
    import scipy
    l3 = "unknown"
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        try:
            with open(f"{base}/level") as fh:
                if fh.read().strip() == "3":
                    with open(f"{base}/size") as fh3:
                        l3 = fh3.read().strip()
        except OSError:
            break
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "l3": l3, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


class MiningLog(logging.Handler):
    """Counts the failures matmine.mining reports only as warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.skipped_histories = 0
        self.first_step_divergences = 0

    def emit(self, record):
        if record.msg.startswith("oracle failed"):
            self.skipped_histories += 1
        elif record.msg.startswith("macro solve diverged"):
            self.first_step_divergences += 1


def layer_metrics(totals, setup_totals, n_units, threads, outcomes):
    """Per-layer metrics, per traced unit (set-up layers per set-up)."""
    def per(value):
        return value / n_units

    def ratio(num, den):
        return num / den if den else 0.0

    t = totals
    return {
        "fem.tangent_matrix.s": per(t.seconds("fem.tangent_matrix")),
        "fem.tangent_matrix.calls": per(t.calls("fem.tangent_matrix")),
        "fem.tangent_matrix.qp": per(t.info("fem.tangent_matrix", "qp")),
        "fem.nominal_stress_operator.s": per(t.seconds("fem.nominal_stress_operator")),
        "fem.internal_forces.s": per(t.seconds("fem.internal_forces")),
        "surrogate.model_tangent.s": per(t.seconds("surrogate.model_tangent")),
        "surrogate.model_stress.s": per(t.seconds("surrogate.model_stress")),
        "surrogate.points": per(t.info("surrogate.model_stress", "points")),
        "tensors.invariant_hessians.s": per(t.seconds("tensors.invariant_hessians")),
        "macro.solve_macro.self_s": per(t.self_seconds("macro.solve_macro")),
        "macro.spsolve.s": per(t.seconds("macro.spsolve")),
        "macro.spsolve.calls": per(t.calls("macro.spsolve")),
        "macro.dof": t.info_max("macro.solve_macro", "dof"),
        "training.train.s": per(t.seconds("training.train")),
        "training.stress_loss.calls": per(t.calls("training.stress_loss")),
        "training.stress_loss.s": per(t.seconds("training.stress_loss")),
        "training.lbfgs_iters": per(t.info("training.train", "lbfgs_iters")),
        "training.feasible_ratio": ratio(t.info("training.train", "feasible"),
                                         t.info("training.train", "restarts")),
        "mining.detect_new_paths.s": per(t.seconds("mining.detect_new_paths")),
        "mining.distinct_mask.calls": per(t.calls("mining.distinct_mask")),
        "mining.distinct_mask.s": per(t.seconds("mining.distinct_mask")),
        "mining.filter_candidates.s": per(t.seconds("mining.filter_candidates")),
        "mining.detect.hit_ratio": ratio(t.info("mining.detect_new_paths", "hits"),
                                         t.info("mining.detect_new_paths", "paths")),
        "mining.filter.admit_ratio": ratio(
            t.info("mining.filter_candidates", "admitted"),
            t.info("mining.filter_candidates", "candidates")),
        "mining.enrich.self_s": per(t.self_seconds("mining.enrich")),
        "oracle.evaluate_path.calls": per(t.calls("oracle.evaluate_path")),
        "oracle.evaluate_path.s": per(t.seconds("oracle.evaluate_path")),
        "oracle.evaluate_path.failed": per(t.info("oracle.evaluate_path", "failed")),
        "oracle.states": per(t.info("oracle.evaluate_path", "states")),
        "oracle.parallel_efficiency": ratio(t.seconds("oracle.evaluate_path"),
                                            threads * t.seconds("mining.enrich")),
        "homogenization.solve.calls": per(t.calls("homogenization.solve")),
        "homogenization.solve.s": per(t.seconds("homogenization.solve")),
        "homogenization.cell_newton_iters": per(t.info("homogenization.solve",
                                                       "iterations")),
        "homogenization.spsolve.s": per(t.seconds("homogenization.spsolve")),
        "homogenization.dof": t.info_max("homogenization.solve", "dof"),
        "materials.stress_tangent_fd.s": per(t.seconds("materials.stress_tangent_fd")),
        "homogenization.drive_material_point.s":
            setup_totals.seconds("homogenization.drive_material_point") / SETUP_REPEATS,
        "data.load_kbase.s": per(t.seconds("data.load_kbase")),
        "data.save_kbase.s": per(t.seconds("data.save_kbase")),
        "data.kbase_bytes": per(t.info("data.save_kbase", "bytes")),
        "mining.write_artifacts.s": per(t.seconds("mining.write_artifacts")),
        "loop.iterations": per(sum(o.rounds for o in outcomes)),
        "loop.tuples_mined": per(sum(o.tuples_mined for o in outcomes)),
        "loop.val_rel_p95": per(sum(o.extra.get("val_rel_p95", 0.0) for o in outcomes)),
    }


def code_digest():
    """Hash of the program's and the benchmark's sources in this checkout."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src", "matmine"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for fname in sorted(filenames):
                if fname.endswith(".py"):
                    path = os.path.join(dirpath, fname)
                    h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def repeat_check(name, seed, digest, fingerprints):
    """Outputs must repeat across the units of this run and earlier runs of
    the same code; a change to the program may change their rounding."""
    failures = []
    if len(set(fingerprints)) > 1:
        failures.append(f"units of one seed disagree: {fingerprints}")
    with open(os.path.join(HERE, "digests.json")) as fh:
        recorded = json.load(fh).get(name, {}).get(str(seed))
    if recorded is not None and recorded != digest:
        failures.append(f"input digest {digest} differs from recorded {recorded}")
    records = os.path.join(WORK, "records")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(records, f"{name}-seed{seed}-code{code_digest()}.json")
    mine = {"digest": digest, "fingerprint": fingerprints[0]}
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        if earlier != mine:
            failures.append(f"outputs differ from an earlier run of the same "
                            f"code: {earlier} vs {mine}")
    else:
        with open(path, "w") as fh:
            json.dump(mine, fh)
    return failures


class Calibration:
    """How fast the host runs now, from a fixed numpy kernel mix.

    A pass is a streaming reduction like the mining distance scans and an
    element tensor contraction like the finite element kernels.  Neither calls
    matmine, so a change to the program moves the scaled timings exactly as
    much as the raw ones.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.rows, self.probe = rng.random((10_000, 6)), rng.random((16, 1, 6))
        self.grads = rng.random((48, 8, 8, 3))
        self.tangent = rng.random((48, 8, 3, 3, 3, 3))

    def one_pass(self):
        """Seconds one pass takes."""
        np = self.np
        t0 = time.perf_counter()
        for _ in range(2):
            (np.abs(self.probe - self.rows) / 1.5).max(axis=2).min(axis=1)
        np.einsum("eqaj,eqijkl,eqbl->eaibk", self.grads, self.tangent,
                  self.grads, optimize=True)
        return time.perf_counter() - t0

    def measure(self):
        """Median seconds of a pass."""
        return statistics.median(self.one_pass() for _ in range(CALIB_REPEATS))


class Probe:
    """Passes sampled while a single-threaded unit runs.

    Every PROBE_PERIOD_S of wall time a SIGALRM handler runs one pass on the
    main thread, between two bytecodes of the unit, so the host's speed is
    sampled all through the unit and never alongside it.  ``spent`` is the
    handler's own time, which the unit's wall time leaves out.
    """

    def __init__(self, calibration, enabled):
        self.calibration = calibration
        self.enabled = enabled
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.calibration.one_pass())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        if self.enabled:
            self.previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self.previous)


def at_ref_speed(seconds, calib):
    return seconds * CALIB_REF_S / calib


@dataclass
class Unit:
    traced: bool
    wall: float         # probe passes left out
    calib: float        # median pass time around and during the unit
    outcome: object
    phase: str

    @property
    def ref_wall(self):
        return at_ref_speed(self.wall, self.calib)


def run_setups(wl, seed, run_dir, tracer, traced):
    """Set the workload up several times; returns the last inputs and walls."""
    walls = []
    for k in range(SETUP_REPEATS):
        tracer.phase = f"setup{k}"
        if traced:
            tracer.install(fine=True)
        t0 = time.perf_counter()
        inp = wl.setup(seed, run_dir)
        walls.append(time.perf_counter() - t0)
        tracer.remove()
    return inp, walls


def run_units(wl, inp, run_dir, tracer, seconds, trace, calibration, calib):
    """Measured units, back to back, while the next should end in time.

    ``calib`` is a calibration time taken just before the first unit.
    Units of single-threaded workloads are probed while they run; a probe
    pass next to the oracle threads would slow them and be slowed by them.
    """
    import tracing
    import workloads

    units = []
    t_measure = time.perf_counter()
    while True:
        traced = bool(trace) and len(units) % 2 == 1
        phase = f"unit{len(units)}"
        unit_dir = os.path.join(run_dir, phase)
        os.makedirs(unit_dir)
        tracer.phase = phase
        tracer.install(fine=traced)
        with Probe(calibration, wl.threads == 1) as probe:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result, error = wl.run_unit(inp, unit_dir), None
            except Exception as exc:    # noqa: BLE001 - a raise fails the unit
                result, error = None, exc
            wall = time.perf_counter() - t0 - probe.spent
            cpu = time.process_time() - c0 - probe.spent
        tracer.remove()
        calib_after = calibration.measure()
        if error is None:
            outcome = wl.check_unit(inp, result, unit_dir)
        else:
            outcome = workloads.Outcome(rounds=1, tuples_mined=0,
                                        failures=[f"unit raised {error!r}"])
        outcome.extra["states"] = wl.states(tracing.Totals(tracer.in_phases([phase])))
        unit = Unit(traced, wall,
                    statistics.median(probe.samples + [calib, calib_after]),
                    outcome, phase)
        calib = calib_after
        units.append(unit)
        print(f"unit {len(units)} {'traced' if traced else 'untraced'}: "
              f"{wall:.3f} s, cpu {cpu:.3f} s, calibration {unit.calib:.4f} s "
              f"({len(probe.samples)} probes), "
              f"{unit.ref_wall:.3f} s at reference speed, {outcome.rounds} rounds, "
              f"{outcome.tuples_mined} tuples mined, "
              f"{json.dumps(outcome.extra, sort_keys=True)}, "
              f"outputs {outcome.fingerprint}, failures {outcome.failures}",
              flush=True)
        both = {u.traced for u in units} == {False, True}
        elapsed = time.perf_counter() - t_measure
        if (both or not trace) and elapsed + wall > seconds:
            return units


def count_operations(units, tracer, mining_log):
    """(attempted, failed) operations, counted from outside the program."""
    import tracing

    coarse = tracing.Totals(tracer.in_phases([u.phase for u in units]))
    restarts = coarse.info("training.train", "restarts")
    infeasible = restarts - coarse.info("training.train", "feasible")
    oracle_raised = coarse.info("oracle.evaluate_path", "failed")
    attempted = (len(units) + restarts + coarse.calls("macro.solve_macro")
                 + coarse.calls("oracle.evaluate_path"))
    failed_units = sum(1 for u in units if u.outcome.failures)
    # each history enrich skips is one raising evaluate_path call; a raise it
    # does not catch also fails its unit
    failed_oracle = max(oracle_raised, mining_log.skipped_histories)
    failed = (failed_units + infeasible + failed_oracle
              + mining_log.first_step_divergences)
    print(f"operations {attempted}, failed {failed}: units {failed_units}, "
          f"infeasible restarts {infeasible}, oracle calls raised "
          f"{oracle_raised} (skipped histories {mining_log.skipped_histories}), "
          f"first-step divergences {mining_log.first_step_divergences}")
    return attempted, failed


def traced_metrics(wl, units, tracer, failed_share, failures):
    """Per-layer metrics of the traced units, plus the tracing overhead."""
    import tracing

    traced = [u for u in units if u.traced]
    spans = tracer.in_phases([u.phase for u in traced])
    totals = tracing.Totals(spans)
    setup_totals = tracing.Totals(
        tracer.in_phases([f"setup{k}" for k in range(SETUP_REPEATS)]))
    metrics = layer_metrics(totals, setup_totals, len(traced), wl.threads,
                            [u.outcome for u in traced])
    traced_wall = statistics.median(u.ref_wall for u in traced)
    plain_wall = statistics.median(u.ref_wall for u in units if not u.traced)
    metrics["trace.overhead_share"] = traced_wall / plain_wall - 1.0
    metrics["trace.spans"] = len(spans) / len(traced)
    metrics["run.failed_share"] = failed_share
    metrics["run.calibration_s"] = statistics.median(u.calib for u in units)
    print(f"tracing overhead: traced {traced_wall:.3f} s against untraced "
          f"{plain_wall:.3f} s per unit "
          f"({100.0 * metrics['trace.overhead_share']:+.2f}%), {len(spans)} spans")
    for layer in wl.layers:
        if totals.calls(layer) == 0:
            failures.append(f"layer {layer} recorded no calls")
    for layer in wl.setup_layers:
        if setup_totals.calls(layer) == 0:
            failures.append(f"set-up layer {layer} recorded no calls")
    return metrics


def write_spans(tracer, name, seed):
    traces = os.path.join(WORK, "traces")
    os.makedirs(traces, exist_ok=True)
    with open(os.path.join(traces, f"{name}-seed{seed}.jsonl"), "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.as_dict()) + "\n")


def main(argv=None):
    t_start = time.perf_counter()
    args = parse_args(argv)
    import_program()
    import tracing
    import workloads
    import_s = time.perf_counter() - t_start

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}, expected one "
                 f"of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    print("machine", json.dumps(machine_info(), sort_keys=True))

    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK)
    mining_log = MiningLog()
    logging.getLogger("matmine.mining").addHandler(mining_log)
    tracer = tracing.Tracer()
    try:
        calibration = Calibration()
        calib_start = calibration.measure()
        inp, setup_walls = run_setups(wl, args.seed, run_dir, tracer, args.trace)
        calib_setup = calibration.measure()
        setup_s = at_ref_speed(import_s + statistics.median(setup_walls),
                               0.5 * (calib_start + calib_setup))
        digest = wl.digest(inp, args.seed)
        print(f"workload {wl.name} seed {args.seed} input digest {digest}")
        print("setup walls", " ".join(f"{w:.3f}" for w in setup_walls),
              f"s, imports {import_s:.3f} s, calibration {calib_start:.4f} s "
              f"and {calib_setup:.4f} s")
        units = run_units(wl, inp, run_dir, tracer, args.seconds, args.trace,
                          calibration, calib_setup)

        failures = [f for u in units for f in u.outcome.failures]
        failures += wl.check_run(inp)
        failures += repeat_check(wl.name, args.seed, digest,
                                 [u.outcome.fingerprint for u in units])
        attempted, failed = count_operations(units, tracer, mining_log)

        plain = [u for u in units if not u.traced]
        outcomes = [u.outcome for u in plain]
        summary = {
            "failed_share": (failed / attempted, "ratio"),
            "loop_iterations": (statistics.median(o.rounds for o in outcomes),
                                "count"),
            "tuples_mined": (statistics.median(o.tuples_mined for o in outcomes),
                             "count"),
        }
        if "val_rel_p95" in outcomes[0].extra:
            summary["val_rel_p95"] = (
                max(o.extra["val_rel_p95"] for o in outcomes), "ratio")
        for name, (value, unit) in summary.items():
            print(f"summary {name} {value:.6g} {unit}")

        if args.trace:
            metrics = traced_metrics(wl, units, tracer, failed / attempted, failures)
            write_spans(tracer, wl.name, args.seed)
            wanted = spec["per_layer"]
        else:
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(u.ref_wall for u in plain),
                "states_per_s": (sum(o.extra["states"] for o in outcomes)
                                 / sum(u.ref_wall for u in plain)),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            wanted = spec["end_to_end"]

        result = {}
        for entry in wanted:
            value = float(metrics[entry["name"]])
            result[entry["name"]] = {"value": value, "unit": entry["unit"]}
            print(f"metric {entry['name']} {value:.6g} {entry['unit']}")
        for failure in failures:
            print("CHECK FAILED:", failure)
        print(json.dumps({"correct": not failures, "attempted": attempted,
                          "failed": failed, "metrics": result}))
    finally:
        tracer.remove()
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    main()

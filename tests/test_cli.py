"""Configuration parsing and the command-line pipeline, end to end."""

import inspect
import json
import pathlib
import re
import shlex

import numpy as np
import pytest

from matmine import (cli, config, data, macro, materials, mining, surrogate,
                     training)
from matmine.errors import (FirstStepDivergence, InvalidConfig,
                            InvalidMaterialParameters, MaxIterationsExceeded)

import oracles

# deliberately crude settings so the whole chain runs in seconds
TINY = """\
[network]
n_neurons = 3
anisotropy = isotropic

[training]
restarts = 1
max_iterations = 200

[loop]
initial_steps = 5

[geometry]
name = cuboid-hole
n_steps = 3
"""


class TestConfig:
    def test_defaults_match_dataclasses(self):
        rc = config.load_config(None)
        assert rc.training == training.TrainingConfig()
        assert rc.loop == mining.LoopConfig()
        assert rc.oracle_kind == "analytic"
        assert rc.geometry == "cuboid-hole"
        assert rc.n_steps == 0

    def test_voxel_oracle_takes_the_configured_default_substeps(self):
        # the keyword default is declared apart from SPEC; the two must agree
        keyword = inspect.signature(mining.VoxelOracle).parameters["substeps"]
        assert keyword.default == config.SPEC["oracle"]["substeps"][0]
        assert config.load_config(None).substeps == keyword.default

    def test_default_text_parses_back_to_defaults(self, tmp_path):
        p = tmp_path / "all.ini"
        p.write_text(config.default_text())
        assert config.load_config(p) == config.load_config(None)

    def test_file_values_and_overrides(self, tmp_path):
        p = tmp_path / "tiny.ini"
        p.write_text(TINY)
        rc = config.load_config(p, overrides={("training", "seed"): 7,
                                              ("loop", "eps_detect"): 0.1})
        assert rc.training.seed == 7
        assert rc.loop.eps_detect == 0.1
        assert rc.training.restarts == 1
        assert rc.training.anisotropy == "isotropic"
        assert rc.n_steps == 3

    def test_loop_frame_follows_oracle_axis(self, tmp_path):
        p = tmp_path / "axis.ini"
        p.write_text("[oracle]\nfiber_axis = 0 1 0\n")
        rc = config.load_config(p)
        assert rc.loop.rve_fiber_axis == rc.oracle.fiber_axis
        assert rc.oracle.fiber_axis == (0.0, 1.0, 0.0)

    def test_initial_dataset_matches_the_stress_map_route(self):
        rc = config.load_config(None)
        ours = config.make_initial_dataset(rc, config.make_oracle(rc))
        stress_map = mining.initial_dataset(
            eps_filter=rc.loop.eps_filter, n_steps=rc.initial_steps,
            rve_fiber_axis=rc.loop.rve_fiber_axis,
            stress=config.make_initial_stress(rc))
        for name in ("F", "P", "iteration", "path_id", "step", "t"):
            np.testing.assert_array_equal(getattr(ours, name),
                                          getattr(stress_map, name))
        assert list(ours.source) == list(stress_map.source)

    @pytest.mark.parametrize("s", [1e6, 1e-6])
    def test_initial_dataset_scales_with_the_moduli(self, s):
        # every modulus times s scales the stress by s and leaves the
        # deformations, so the driver's tolerance must scale with it too
        rc = config.load_config(None)
        ref = config.make_initial_dataset(rc, config.make_oracle(rc))
        rc = config.load_config(None, overrides={
            ("material", "mu"): [s * m for m in rc.matrix.mu],
            ("material", "kappa"): s * rc.matrix.kappa,
            ("material", "fiber_mu"): [s * m for m in rc.fiber.mu],
            ("material", "fiber_kappa"): s * rc.fiber.kappa,
            ("oracle", "fiber_stiffness"): s * rc.oracle.fiber_stiffness})
        got = config.make_initial_dataset(rc, config.make_oracle(rc))
        for name in ("iteration", "path_id", "step", "t"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))
        assert list(got.source) == list(ref.source)
        np.testing.assert_allclose(got.F, ref.F, rtol=0.0,
                                   atol=1e-12 * np.abs(ref.F).max())
        np.testing.assert_allclose(got.P / s, ref.P, rtol=0.0,
                                   atol=1e-12 * np.abs(ref.P).max())

    @pytest.mark.parametrize("text", [
        "[nosuch]\nx = 1\n",
        "[loop]\nepsilon = 3\n",
        "[oracle]\nkind = magic\n",
        "[oracle]\nfiber_axis = 1 0\n",
        "[geometry]\nname = sphere\n",
        "[training]\nseed = abc\n",
        "[network]\nanisotropy = cubic\n",
        "[oracle]\nkind = voxel\nfiber_axis = 1 0 0\n",
        "[oracle]\nsubsteps = 0\n",
        "[geometry]\nresolution = 0\n",
        "[oracle]\nkind = voxel\ngrid = 0\n",
        "[network]\nn_neurons = 0\n",
        "[training]\nrestarts = 0\n",
        "[training]\nmax_iterations = 0\n",
        "[training]\ntrain_fraction = 0\n",
        "[training]\ntrain_fraction = 1.5\n",
        "[loop]\ninitial_steps = 0\n",
        "[geometry]\nn_steps = -1\n",
        "[training]\nseed = -2\n",
        "[oracle]\nkind = voxel\nplacement_seed = -1\n",
        "[loop]\nthreads = 0\n",
        "[oracle]\nvolume_fraction = 1.7\n",
        "[material]\nkappa = -1\n",
        "[material]\nalpha = 1.5\n",
        "[oracle]\nfiber_stiffness = 0\n",
        "[material]\nkappa = nan\n",
        "[material]\nkappa = inf\n",
        "[material]\nmu = nan 29.04 0.0098\n",
        "[oracle]\nfiber_stiffness = nan\n",
        "[oracle]\nfiber_axis = nan 0 1\n",
        "[training]\nsymmetry_tolerance = -1\n",
        "[training]\nsymmetry_tolerance = nan\n",
        "[DEFAULT]\nseed = 3\n[training]\n",
    ])
    def test_bad_files_rejected(self, tmp_path, text):
        p = tmp_path / "bad.ini"
        p.write_text(text)
        with pytest.raises(InvalidConfig):
            config.load_config(p)

    @pytest.mark.parametrize("build, error", [
        (lambda: training.TrainingConfig(restarts=0), ValueError),
        (lambda: training.TrainingConfig(n_neurons=0), ValueError),
        (lambda: mining.LoopConfig(threads=0), ValueError),
        (lambda: materials.OracleParameters(fiber_axis=(1.0, 0.0)),
         InvalidMaterialParameters),
    ], ids=["restarts-0", "n_neurons-0", "threads-0", "two-component-axis"])
    def test_objects_refuse_out_of_range_values(self, build, error):
        with pytest.raises(error):
            build()

    def test_utf8_comment_loads_under_any_locale(self, tmp_path):
        p = tmp_path / "utf8.ini"
        p.write_bytes("[network]\n# Gr\u00f6\u00dfe der Schicht\nn_neurons = 3\n"
                      .encode("utf-8"))
        assert config.load_config(p).training.n_neurons == 3

    def test_non_utf8_file_is_one_error_line(self, tmp_path, capsys):
        p = tmp_path / "latin1.ini"
        p.write_bytes(b"[network]\n# \xff\nn_neurons = 3\n")
        capsys.readouterr()
        assert cli.main(["init-data", "--config", str(p),
                         "--out", str(tmp_path / "kb.txt")]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p} ")
        assert "Traceback" not in err
        assert [line for line in err.splitlines()
                if line.startswith("error:")] == [err.strip()]
        assert not (tmp_path / "kb.txt").exists()


@pytest.fixture(scope="module")
def art(tmp_path_factory):
    """Artifacts of one init-data / train / solve chain, shared read-only."""
    d = tmp_path_factory.mktemp("cliart")
    ini = d / "tiny.ini"
    ini.write_text(TINY)
    base = ["--config", str(ini)]
    assert cli.main(["init-data", *base, "--out", str(d / "kb.txt")]) == 0
    assert cli.main(["train", *base, "--dataset", str(d / "kb.txt"),
                     "--out", str(d / "model.json")]) == 0
    assert cli.main(["solve", *base, "--model", str(d / "model.json"),
                     "--out", str(d / "state.npz")]) == 0
    return d


class TestPipeline:
    def test_initial_dataset(self, art):
        ds = data.load_kbase(art / "kb.txt")
        assert len(ds) > 20
        assert all(s.startswith("init:") for s in ds.source)
        identical = np.all(np.abs(ds.F - np.eye(3)) < 1e-14, axis=(1, 2))
        assert identical.sum() == 1

    def test_model_and_report_files(self, art):
        model = surrogate.load_model(art / "model.json")
        psi = surrogate.model_energy(model, np.eye(3)[None])
        assert np.isfinite(psi).all()
        report = json.loads((art / "model_report.json").read_text())
        assert report["n_data"] == len(data.load_kbase(art / "kb.txt"))
        assert report["selected_restart"] == 0

    def test_state_archive(self, art):
        state, mesh, meta = macro.load_state(art / "state.npz")
        assert meta["geometry"] == "cuboid-hole"
        assert state.steps[0].t == 0.0
        assert mesh.n_elements > 0

    def test_detect_then_enrich_grows_dataset(self, art):
        ini = str(art / "tiny.ini")
        assert cli.main(["detect", "--config", ini,
                         "--dataset", str(art / "kb.txt"),
                         "--state", str(art / "state.npz"),
                         "--out", str(art / "det.txt")]) == 0
        det = data.load_kbase(art / "det.txt")
        assert len(det) > 0
        assert np.all(det.P == 0.0)
        assert set(det.source) == {"detected:cuboid-hole"}
        assert det.step.min() >= 1

        assert cli.main(["enrich", "--config", ini,
                         "--dataset", str(art / "kb.txt"),
                         "--paths", str(art / "det.txt"),
                         "--out", str(art / "kb2.txt")]) == 0
        before = data.load_kbase(art / "kb.txt")
        after = data.load_kbase(art / "kb2.txt")
        assert len(after) > len(before)
        mined = after.subset(np.array([s == "mined:cuboid-hole"
                                       for s in after.source]))
        assert len(mined) == len(after) - len(before)
        assert set(mined.iteration.tolist()) == {1}
        assert np.any(mined.P != 0.0)

    def test_enrich_output_starts_with_the_input_records(self, art, tmp_path):
        ini = str(art / "tiny.ini")
        # a hand-edited input: one record's pseudo-time spelled out longhand
        lines = (art / "kb.txt").read_bytes().splitlines(keepends=True)
        parts = lines[2].split(b" ")
        parts[4] = b"%.17e" % float(parts[4])
        lines[2] = b" ".join(parts)
        base = tmp_path / "kb.txt"
        base.write_bytes(b"".join(lines))
        assert cli.main(["detect", "--config", ini, "--dataset", str(base),
                         "--state", str(art / "state.npz"),
                         "--out", str(tmp_path / "det.txt")]) == 0
        assert cli.main(["enrich", "--config", ini, "--dataset", str(base),
                         "--paths", str(tmp_path / "det.txt"),
                         "--out", str(tmp_path / "out.txt")]) == 0
        out = (tmp_path / "out.txt").read_bytes().splitlines(keepends=True)
        assert out[:len(lines)] == lines
        admitted = data.load_kbase(tmp_path / "out.txt").subset(
            np.arange(len(lines) - 2, len(out) - 2))
        assert len(admitted) > 0
        assert set(admitted.source) == {"mined:cuboid-hole"}
        oracles.save_kbase_reference(admitted, tmp_path / "admitted.txt")
        assert out[len(lines):] == \
            (tmp_path / "admitted.txt").read_bytes().splitlines(keepends=True)[2:]

    def test_validate_writes_summary_and_scatter(self, art):
        assert cli.main(["validate", "--config", str(art / "tiny.ini"),
                         "--model", str(art / "model.json"),
                         "--dataset", str(art / "kb2.txt"),
                         "--state", str(art / "state.npz"),
                         "--out", str(art / "val.json")]) == 0
        out = json.loads((art / "val.json").read_text())
        for key in ("n_states", "n_uncovered", "coverage_complete",
                    "n_compared", "rel_mean", "rel_p95", "rel_max"):
            assert key in out
        scatter = np.loadtxt(art / "val_scatter.txt")
        assert scatter.reshape(-1, 3).shape[0] == out["n_compared"]

    def test_convert_writes_vtk(self, art):
        assert cli.main(["convert", "--state", str(art / "state.npz"),
                         "--out", str(art / "state.vtk")]) == 0
        lines = (art / "state.vtk").read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert "POINTS" in lines[4]


def _npz_without_version(path, art):
    with open(path, "wb") as fh:
        np.savez(fh, t=np.zeros(2))


def _model_with_a_nan_weight(path, art):
    doc = json.loads((art / "model.json").read_text())
    doc["gate_weights"][0] = float("nan")
    path.write_text(json.dumps(doc))  # Python's json writes the NaN


def _model_with(key, value):
    def write(path, art):
        doc = json.loads((art / "model.json").read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
    return write


def _kbase_with_F(F):
    """kb.txt with the first record's F replaced."""
    def write(path, art):
        lines = (art / "kb.txt").read_bytes().splitlines(keepends=True)
        k = next(i for i, line in enumerate(lines) if not line.startswith(b"#"))
        fields = lines[k].split()
        fields[5:14] = [b"%r" % float(x) for x in np.ravel(F)]
        lines[k] = b" ".join(fields) + b"\n"
        path.write_bytes(b"".join(lines))
    return write


def _state_with_a_reflected_F(path, art):
    with np.load(art / "state.npz") as z:
        entries = dict(z)
    entries["F"][-1, 0, 0, 2] *= -1.0   # one quadrature point's third row
    with open(path, "wb") as fh:
        np.savez(fh, **entries)


def _state_with(key, value):
    def write(path, art):
        with np.load(art / "state.npz") as z:
            entries = dict(z)
        entries[key].flat[-1] = value
        with open(path, "wb") as fh:
            np.savez(fh, **entries)
    return write


class TestExitCodes:
    def test_unreadable_dataset(self, art):
        assert cli.main(["train", "--config", str(art / "tiny.ini"),
                         "--dataset", str(art / "nope.txt")]) == 4

    def test_wrong_format_dataset(self, art, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a kbase\n")
        assert cli.main(["train", "--config", str(art / "tiny.ini"),
                         "--dataset", str(bad)]) == 4

    def test_bad_config_file(self, art, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[loop]\nwarp = 9\n")
        assert cli.main(["init-data", "--config", str(bad),
                         "--out", str(tmp_path / "kb.txt")]) == 4

    def test_out_of_range_config_value(self, art, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[geometry]\nresolution = 0\n")
        assert cli.main(["solve", "--config", str(bad),
                         "--model", str(art / "model.json")]) == 4

    @pytest.mark.parametrize("flags, text, message", [
        (["--seed", "-1"], TINY, "seed"),
        ([], TINY + "\n[material]\nkappa = -1\n", "kappa"),
        ([], TINY.replace("restarts = 1", "seed = 1.5"),
         "[training] seed: invalid int '1.5'"),
        ([], TINY.replace("n_neurons = 3", "growth_mode = maybe"),
         "[network] growth_mode: not a boolean 'maybe'"),
        ([], "no header\n" + TINY, "'{ini}', line: 1"),
    ], ids=["negative-seed", "negative-kappa", "float-seed", "bad-boolean",
            "no-section-header"])
    def test_bad_value_is_one_error_line(self, art, tmp_path, capsys, flags,
                                         text, message):
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        capsys.readouterr()
        assert cli.main(["train", "--config", str(ini),
                         "--dataset", str(art / "kb.txt"), *flags,
                         "--out", str(tmp_path / "model.json")]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines()
                if line.startswith("error:")] == [err.strip()]
        assert message.format(ini=ini) in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("write, argv", [
        (lambda p, art: p.write_text('{"format_version": "surrogate-v1"}'),
         ["solve", "--model", "{bad}"]),
        (lambda p, art: p.write_text("[1, 2]"), ["solve", "--model", "{bad}"]),
        (_model_with_a_nan_weight, ["solve", "--model", "{bad}"]),
        (None, ["solve", "--model", "{art}/state.npz"]),
        (None, ["train", "--dataset", "{art}/state.npz"]),
        (None, ["detect", "--dataset", "{art}/kb.txt", "--state", "{art}/kb.txt"]),
        (_npz_without_version, ["convert", "--state", "{bad}"]),
        (None, ["convert", "--state", "{art}/state.npz", "--step", "99"]),
        (None, ["validate", "--model", "{art}/model.json", "--dataset",
                "{art}/kb.txt", "--state", "{art}/state.npz", "--tol", "nan"]),
        (_state_with("F", np.nan),
         ["detect", "--dataset", "{art}/kb.txt", "--state", "{bad}"]),
        (_state_with("P", np.inf),
         ["detect", "--dataset", "{art}/kb.txt", "--state", "{bad}"]),
        (_state_with("F", np.nan), ["validate", "--model", "{art}/model.json",
                                    "--dataset", "{art}/kb.txt", "--state", "{bad}"]),
        (None, ["detect", "--dataset", "{art}/kb.txt", "--state",
                "{art}/state.npz", "--geometry", "torsion-bar"]),
        (_state_with("meta", "[1, 2]"),
         ["validate", "--model", "{art}/model.json", "--dataset", "{art}/kb.txt",
          "--state", "{bad}"]),
        (_model_with("growth_mode", "false"), ["solve", "--model", "{bad}"]),
        (_model_with("n_neurons", 15), ["solve", "--model", "{bad}"]),
        (_kbase_with_F(np.diag([1.0, 1.0, 0.0])), ["train", "--dataset", "{bad}"]),
        (_kbase_with_F(np.diag([1.0, 1.0, -1.0])), ["train", "--dataset", "{bad}"]),
        (_state_with_a_reflected_F,
         ["detect", "--dataset", "{art}/kb.txt", "--state", "{bad}"]),
        (_state_with_a_reflected_F,
         ["validate", "--model", "{art}/model.json", "--dataset", "{art}/kb.txt",
          "--state", "{bad}"]),
    ], ids=["model-without-fields", "model-not-an-object", "model-nan-weight",
            "npz-as-model", "npz-as-dataset", "kbase-as-state",
            "npz-without-version", "step-out-of-range", "validate-tol-nan",
            "state-nan-F-detect", "state-inf-P-detect", "state-nan-F-validate",
            "state-of-another-geometry", "state-meta-not-an-object",
            "model-growth-mode-a-string", "model-n-neurons-disagrees",
            "kbase-singular-F", "kbase-reflected-F", "state-reflected-F-detect",
            "state-reflected-F-validate"])
    def test_malformed_input_is_one_error_line(self, art, tmp_path, capsys,
                                               write, argv):
        bad = tmp_path / "bad"
        if write is not None:
            write(bad, art)
        argv = [a.format(art=art, bad=bad) for a in argv]
        if argv[0] != "convert":
            argv += ["--config", str(art / "tiny.ini")]
        capsys.readouterr()
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines()
                if line.startswith("error:")] == [err.strip()]
        assert not (tmp_path / "out").exists()

    def test_a_state_of_another_geometry_names_both(self, art, tmp_path, capsys):
        capsys.readouterr()
        assert cli.main(["validate", "--config", str(art / "tiny.ini"),
                         "--geometry", "torsion-bar",
                         "--model", str(art / "model.json"),
                         "--dataset", str(art / "kb.txt"),
                         "--state", str(art / "state.npz"),
                         "--out", str(tmp_path / "val.json")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'cuboid-hole'" in err and "'torsion-bar'" in err
        assert not (tmp_path / "val.json").exists()

    def test_a_bad_enrich_input_is_named(self, art, tmp_path, capsys):
        bad = tmp_path / "paths.txt"
        bad.write_bytes(b"\xff not text\n")
        capsys.readouterr()
        assert cli.main(["enrich", "--config", str(art / "tiny.ini"),
                         "--dataset", str(art / "kb.txt"), "--paths", str(bad),
                         "--out", str(tmp_path / "out.txt")]) == 4
        assert capsys.readouterr().err.startswith(f"error: {bad}: line 1: ")
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("argv, code", [
        (["run", "--threads", "abc"], 4),
        (["run", "--bogus"], 4),
        (["run", "--help"], 0),
        (["train"], 4),
        (["init-data", "--dataset", "x"], 4),
    ])
    def test_usage(self, capsys, argv, code):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code
        assert ("error:" in capsys.readouterr().err) == (code != 0)

    def test_budget_exhaustion(self, art, tmp_path, monkeypatch):
        def explode(*a, **k):
            raise MaxIterationsExceeded("no convergence within 1 iterations")
        monkeypatch.setattr(mining, "run_loop", explode)
        code = cli.main(["run", "--config", str(art / "tiny.ini"),
                         "--dataset", str(art / "kb.txt"),
                         "--out", str(tmp_path / "runout")])
        assert code == 2

    def test_exhausted_run_still_writes_a_valid_state(self, art, tmp_path):
        out = tmp_path / "runout"
        ini = str(art / "tiny.ini")
        assert cli.main(["run", "--config", ini, "--dataset", str(art / "kb.txt"),
                         "--n-max", "1", "--out", str(out)]) == 2
        _, _, meta = macro.load_state(out / "state.npz")
        report = json.loads((out / "loop_report.json").read_text())
        assert meta["completed"] == report["iterations"][-1]["completed"]
        assert cli.main(["validate", "--config", ini,
                         "--model", str(out / "model.json"),
                         "--dataset", str(out / "kbase.txt"),
                         "--state", str(out / "state.npz"),
                         "--out", str(tmp_path / "val.json")]) == 0

    @pytest.mark.parametrize("command", ["enrich", "validate"])
    def test_empty_dataset(self, art, tmp_path, capsys, command):
        empty = tmp_path / "empty.txt"
        data.save_kbase(data.DataSet(), empty)
        files = {"enrich": ["--paths", str(empty)],
                 "validate": ["--model", str(art / "model.json"),
                              "--state", str(art / "state.npz")]}[command]
        capsys.readouterr()
        assert cli.main([command, "--config", str(art / "tiny.ini"),
                         "--dataset", str(empty), *files,
                         "--out", str(tmp_path / "out.txt")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines()
                if line.startswith("error:")] == [err.strip()]
        assert not (tmp_path / "out.txt").exists()

    def test_first_step_death(self, art, monkeypatch):
        def explode(*a, **k):
            raise FirstStepDivergence("newton dead at t=0.333")
        monkeypatch.setattr(macro, "solve_macro", explode)
        assert cli.main(["solve", "--config", str(art / "tiny.ini"),
                         "--model", str(art / "model.json")]) == 3


def test_readme_commands_parse():
    """Every ``matmine`` line of README's shell blocks matches the CLI."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("matmine ")]
    assert len(lines) >= 10
    parser = cli._build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])

import numpy as np
import pytest

from matmine import data, surrogate, tensors, training
from matmine.errors import AsymmetricStressTarget, EmptyDataSet

import helpers
import oracles

rng0 = np.random.default_rng


def make_dataset(F, P, source="test"):
    m = len(F)
    return data.DataSet(F, P, [source] * m, np.zeros(m, dtype=int),
                        np.arange(m), np.zeros(m, dtype=int), np.zeros(m))


def teacher_dataset(rng, teacher, M, m=120, spread=0.35):
    F = np.stack([oracles.random_defgrad(rng, spread) for _ in range(m)])
    P = surrogate.model_nominal_stress(teacher, F, M)
    return make_dataset(F, P)


class TestTargets:
    def test_recovers_second_pk(self):
        rng = rng0(20)
        T_true = []
        F = []
        for _ in range(8):
            Fi = oracles.random_defgrad(rng)
            Ti = tensors.sym(oracles.random_spd(rng))
            F.append(Fi)
            T_true.append(Ti)
        F = np.stack(F)
        T_true = np.stack(T_true)
        P = np.einsum("mik,mkj->mij", F, T_true)
        ds = make_dataset(F, P)
        T = training.second_pk_targets(ds)
        assert np.allclose(T, T_true, rtol=1e-10)

    def test_asymmetric_pair_rejected(self):
        rng = rng0(21)
        F = oracles.random_defgrad(rng)
        P = F @ (oracles.random_spd(rng) + np.array([[0.0, 0.1, 0.0],
                                                     [-0.1, 0.0, 0.0],
                                                     [0.0, 0.0, 0.0]]))
        ds = make_dataset(F[None], P[None])
        with pytest.raises(AsymmetricStressTarget):
            training.second_pk_targets(ds)


class TestSplit:
    def test_sizes_and_determinism(self):
        tr, te = training.split_dataset(100, seed=3)
        assert len(tr) == 80 and len(te) == 20
        assert len(np.intersect1d(tr, te)) == 0
        tr2, te2 = training.split_dataset(100, seed=3)
        assert np.all(tr == tr2) and np.all(te == te2)
        tr3, _ = training.split_dataset(100, seed=4)
        assert not np.all(tr == tr3)

    def test_tiny_dataset_keeps_a_training_sample(self):
        tr, te = training.split_dataset(1, seed=0)
        assert len(tr) == 1 and len(te) == 0


def _features(ds, bounds, M, targets):
    C = tensors.right_cauchy_green(ds.F)
    return training._build_features(C, M, tensors.invariants(C, M), bounds,
                                    targets)


class TestLoss:
    def _features_for(self, model, M, F):
        ds = make_dataset(F, surrogate.model_nominal_stress(model, F, M))
        targets = training.second_pk_targets(ds)
        return ds, _features(ds, model.bounds, M, targets)

    def test_zero_for_perfect_model(self):
        rng = rng0(22)
        model, M = helpers.random_model(rng)
        F = np.stack([oracles.random_defgrad(rng) for _ in range(10)])
        _, feats = self._features_for(model, M, F)
        theta = np.concatenate([model.gate_weights, model.input_weights.ravel(),
                                model.reciprocal_weights, model.biases])
        loss = training.stress_loss(theta, feats, model.n_neurons, model.n_base,
                                    False, need_grad=False)
        assert loss < 1e-9

    def test_matches_independent_stress_path(self):
        # loss evaluated through the training feature pipeline equals the sum
        # of residual norms computed via the public stress evaluator
        rng = rng0(23)
        model, M = helpers.random_model(rng)
        other, _ = helpers.random_model(rng0(99))
        F = np.stack([oracles.random_defgrad(rng) for _ in range(12)])
        ds, _ = self._features_for(model, M, F)
        targets = training.second_pk_targets(ds)
        feats = _features(ds, other.bounds, M, targets)
        theta = np.concatenate([other.gate_weights, other.input_weights.ravel(),
                                other.reciprocal_weights, other.biases])
        loss = training.stress_loss(theta, feats, other.n_neurons, other.n_base,
                                    False, need_grad=False)
        C = tensors.right_cauchy_green(F)
        T_pred = surrogate.model_stress(other, C, M)
        diff = (T_pred - targets)[:, tensors.MANDEL_ROWS, tensors.MANDEL_COLS]
        ref = np.sum(np.linalg.norm(diff, axis=1))
        assert np.isclose(loss, ref, rtol=1e-12)

    @pytest.mark.parametrize("growth", [False, True])
    def test_gradient_against_fd(self, growth):
        rng = rng0(24)
        model, M = helpers.random_model(rng)
        F = np.stack([oracles.random_defgrad(rng) for _ in range(15)])
        _, feats = self._features_for(model, M, F)
        n, k_base = 3, 5
        theta = rng.normal(0.0, 0.7, n + n * k_base + n + n)
        loss, grad = training.stress_loss(theta, feats, n, k_base, growth)
        assert np.isfinite(loss)
        fd = np.zeros_like(theta)
        h = 1e-6
        for j in range(len(theta)):
            dp = theta.copy()
            dm = theta.copy()
            dp[j] += h
            dm[j] -= h
            fd[j] = (training.stress_loss(dp, feats, n, k_base, growth, need_grad=False)
                     - training.stress_loss(dm, feats, n, k_base, growth,
                                            need_grad=False)) / (2 * h)
        assert np.allclose(grad, fd, atol=1e-4 * max(1.0, np.abs(fd).max()))


class TestTrain:
    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDataSet):
            training.train(data.DataSet(), training.TrainingConfig())

    def test_recovers_teacher_predictions(self):
        rng = rng0(25)
        teacher, M = helpers.random_model(rng, n_neurons=3)
        ds = teacher_dataset(rng, teacher, M, m=150)
        cfg = training.TrainingConfig(n_neurons=6, restarts=6, seed=1,
                                      growth_mode=False, max_iterations=3000)
        student, report = training.train(ds, cfg)
        F_fresh = np.stack([oracles.random_defgrad(rng0(26), 0.3) for _ in range(40)])
        C = tensors.right_cauchy_green(F_fresh)
        T_t = surrogate.model_stress(teacher, C, M)
        T_s = surrogate.model_stress(student, C, M)
        scale = np.linalg.norm(T_t.reshape(40, -1), axis=1).max()
        err = np.linalg.norm((T_s - T_t).reshape(40, -1), axis=1) / scale
        assert np.percentile(err, 95) < 0.02
        assert report.selected_restart in range(6)
        assert report.n_train + report.n_test == 150
        # energy pinned at the identity by construction
        assert surrogate.model_energy(student, np.eye(3), M) == 0.0

    def test_growth_mode_yields_feasible_model(self):
        rng = rng0(27)
        teacher, M = helpers.random_model(rng, n_neurons=3)
        ds = teacher_dataset(rng, teacher, M, m=100)
        cfg = training.TrainingConfig(n_neurons=5, restarts=4, seed=2,
                                      growth_mode=True, max_iterations=2000)
        model, report = training.train(ds, cfg)
        chk = surrogate.check_growth_condition(model)
        assert chk.satisfied
        assert report.growth["all_gates_positive"]
        assert all(r["feasible"] for r in report.restarts)

    def test_deterministic_given_seed(self, tmp_path):
        rng = rng0(28)
        teacher, M = helpers.random_model(rng, n_neurons=2)
        ds = teacher_dataset(rng, teacher, M, m=60)
        cfg = training.TrainingConfig(n_neurons=3, restarts=3, seed=7,
                                      max_iterations=800)
        m1, r1 = training.train(ds, cfg)
        m2, r2 = training.train(ds, cfg)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        surrogate.save_model(m1, p1)
        surrogate.save_model(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert r1.train_loss == r2.train_loss
        assert [x["train_loss"] for x in r1.restarts] == \
               [x["train_loss"] for x in r2.restarts]

    def test_report_roundtrips_to_json(self, tmp_path):
        rng = rng0(29)
        teacher, M = helpers.random_model(rng, n_neurons=2)
        ds = teacher_dataset(rng, teacher, M, m=40)
        cfg = training.TrainingConfig(n_neurons=2, restarts=2, seed=0,
                                      max_iterations=300)
        _, report = training.train(ds, cfg)
        path = tmp_path / "report.json"
        report.save(path)
        import json
        doc = json.loads(path.read_text())
        assert doc["n_data"] == 40
        assert len(doc["restarts"]) == 2

from dataclasses import replace

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
        loss = training.stress_loss(theta[None], feats, model.n_neurons,
                                    model.n_base, False, need_grad=False)[0]
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
        loss = training.stress_loss(theta[None], feats, other.n_neurons,
                                    other.n_base, False, need_grad=False)[0]
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
        losses, grads = training.stress_loss(theta[None], feats, n, k_base,
                                             growth)
        loss, grad = losses[0], grads[0]
        assert np.isfinite(loss)
        fd = np.zeros_like(theta)
        h = 1e-6
        for j in range(len(theta)):
            dp = theta.copy()
            dm = theta.copy()
            dp[j] += h
            dm[j] -= h
            fd[j] = (training.stress_loss(dp[None], feats, n, k_base, growth,
                                          need_grad=False)[0]
                     - training.stress_loss(dm[None], feats, n, k_base, growth,
                                            need_grad=False)[0]) / (2 * h)
        assert np.allclose(grad, fd, atol=1e-4 * max(1.0, np.abs(fd).max()))

        # an (R, p) stack gives, row for row, the one-row stack of that row
        # alone, bit for bit, and so does any sub-stack
        thetas = np.stack([theta, *rng.normal(0.0, 0.7, (3, len(theta)))])
        losses, grads = training.stress_loss(thetas, feats, n, k_base, growth)
        assert losses.shape == (4,) and grads.shape == thetas.shape
        plain = training.stress_loss(thetas, feats, n, k_base, growth,
                                     need_grad=False)
        np.testing.assert_array_equal(plain, losses)
        for i, row in enumerate(thetas):
            row_loss, row_grad = training.stress_loss(row[None], feats, n,
                                                      k_base, growth)
            assert row_loss[0] == losses[i]
            np.testing.assert_array_equal(row_grad[0], grads[i])
        sub_losses, sub_grads = training.stress_loss(thetas[[3, 1]], feats, n,
                                                     k_base, growth)
        np.testing.assert_array_equal(sub_losses, losses[[3, 1]])
        np.testing.assert_array_equal(sub_grads, grads[[3, 1]])


def _separable_quadratics(rng, R, p):
    # restart r minimizes sum_j c[r, j] (x_j - x*[r, j])^2 / 2; the last
    # coordinate carries the restart's index and has zero gradient, so the
    # optimizer's calls show which restarts it evaluated
    c = np.exp(rng.uniform(0.0, 1.0, (R, p)) * np.log([1.0, 1e2, 1e4])[:R, None])
    x_star = rng.normal(0.0, 1.0, (R, p))
    calls = []

    def fun(X):
        calls.append(X.copy())
        r = X[:, -1].astype(int)
        diff = X[:, :-1] - x_star[r]
        f = 0.5 * np.sum(c[r] * diff * diff, axis=1)
        return f, np.concatenate([c[r] * diff, np.zeros((len(X), 1))], axis=1)

    x0 = np.concatenate([rng.normal(0.0, 3.0, (R, p)),
                         np.arange(R, dtype=float)[:, None]], axis=1)
    return fun, x0, x_star, calls


class TestLockstepLBFGS:
    def test_each_restart_reaches_its_own_minimizer(self):
        fun, x0, x_star, calls = _separable_quadratics(rng0(40), 3, 8)
        x, f, nit, converged = training.lbfgs(fun, x0, max_iterations=500)
        assert converged.all()
        np.testing.assert_allclose(x[:, :-1], x_star, atol=1e-6)
        np.testing.assert_array_equal(x[:, -1], [0, 1, 2])
        assert np.all(f < 1e-12)
        # conditioning 1, 1e2, 1e4: each restart stops at its own count
        assert nit[0] < nit[1] < nit[2]
        # a converged restart is not evaluated again: its last evaluated
        # point is where it stopped, while the others went on
        for r in range(3):
            points = [X[X[:, -1] == r] for X in calls]
            last = max(i for i, P in enumerate(points) if len(P))
            np.testing.assert_array_equal(points[last][0], x[r])
            assert (last < len(calls) - 1) == (r < 2)

    def test_restarts_do_not_see_each_other(self):
        # the stack gives each restart exactly the iterates it gets alone
        fun, x0, _, calls = _separable_quadratics(rng0(41), 3, 8)
        x, f, nit, converged = training.lbfgs(fun, x0, max_iterations=500)
        stacked = [np.concatenate([X[X[:, -1] == r] for X in calls])
                   for r in range(3)]
        for r in range(3):
            del calls[:]
            xa, fa, na, ca = training.lbfgs(fun, x0[r:r + 1], max_iterations=500)
            np.testing.assert_array_equal(xa[0], x[r])
            assert fa[0] == f[r] and na[0] == nit[r] and ca[0] == converged[r]
            np.testing.assert_array_equal(np.concatenate(calls), stacked[r])

    def test_non_finite_trial_backtracks_without_moving_others(self):
        base, x0, _, _ = _separable_quadratics(rng0(42), 3, 8)
        hits = []

        def fun(X):
            f, g = base(X)
            # restart 1 overflows beyond a wall it must cross from its start
            wall = (X[:, -1] == 1) & (np.abs(X[:, 0] - x0[1, 0]) > 0.1)
            hits.append(wall.sum())
            f[wall] = np.inf
            g[wall] = np.nan
            return f, g

        x, f, nit, converged = training.lbfgs(fun, x0, max_iterations=200)
        assert sum(hits) > 0 and np.isfinite(f).all()
        assert abs(x[1, 0] - x0[1, 0]) <= 0.1
        for r in (0, 2):
            xa, fa, na, _ = training.lbfgs(fun, x0[r:r + 1], max_iterations=200)
            np.testing.assert_array_equal(xa[0], x[r])
            assert fa[0] == f[r] and na[0] == nit[r]
            assert converged[r]

    def test_compact_product_matches_two_loop_recursion(self):
        # the history keeps the last 4 of 7 pairs of a convex quadratic for
        # restart 0 and none for restart 1, whose product stays g itself
        rng = rng0(44)
        p, size = 8, 4
        Q = rng.normal(size=(p, p))
        H = Q @ Q.T + np.eye(p)
        hist = training._History(2, p, size)
        S, Y = [], []
        for _ in range(7):
            s = rng.normal(size=p)
            hist.push(np.array([0]), s[None], (H @ s)[None])
            S, Y = (S + [s])[-size:], (Y + [H @ s])[-size:]
            g = rng.normal(size=(2, p))
            Hg = hist.apply(slice(None), g)
            np.testing.assert_allclose(Hg[0], oracles.lbfgs_two_loop(g[0], S, Y),
                                       rtol=1e-12, atol=1e-12 * np.abs(Hg[0]).max())
            np.testing.assert_array_equal(Hg[1], g[1])

    def test_lone_restart_whose_search_fails_stops_where_it_started(self):
        # every trial point is non-finite; only the start is evaluated finite
        base, x0, _, calls = _separable_quadratics(rng0(45), 1, 8)

        def fun(X):
            f, g = base(X)
            if len(calls) > 1:
                f[:], g[:] = np.inf, np.nan
            return f, g

        x, f, nit, converged = training.lbfgs(fun, x0, max_iterations=10)
        assert not converged[0] and nit[0] == 0
        np.testing.assert_array_equal(x, x0)
        assert f[0] == base(x0)[0][0]

    def test_lone_restart_whose_step_cannot_move_is_not_converged(self):
        # finite only at the start: the search shrinks its step until the
        # trial point is the start itself, which passes the Armijo test
        base, x0, _, _ = _separable_quadratics(rng0(46), 1, 8)

        def fun(X):
            f, g = base(X)
            away = ~(X == x0).all(axis=1)
            f[away], g[away] = np.inf, np.nan
            return f, g

        x, f, nit, converged = training.lbfgs(fun, x0, max_iterations=10)
        assert not converged[0] and nit[0] == 1
        np.testing.assert_array_equal(x, x0)

    def test_iteration_cap_and_initial_convergence(self):
        fun, x0, x_star, _ = _separable_quadratics(rng0(43), 3, 8)
        x, f, nit, converged = training.lbfgs(fun, x0, max_iterations=1)
        np.testing.assert_array_equal(nit, [1, 1, 1])
        assert not converged.any()
        at_min = np.concatenate([x_star, x0[:, -1:]], axis=1)
        x, f, nit, converged = training.lbfgs(fun, at_min, max_iterations=10)
        assert converged.all() and not nit.any()
        np.testing.assert_array_equal(x, at_min)


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

    def test_first_restarts_do_not_depend_on_how_many_run(self):
        rng = rng0(30)
        teacher, M = helpers.random_model(rng, n_neurons=2)
        ds = teacher_dataset(rng, teacher, M, m=50)
        cfg = training.TrainingConfig(n_neurons=3, restarts=4, seed=5,
                                      max_iterations=400)
        _, four = training.train(ds, cfg)
        _, two = training.train(ds, replace(cfg, restarts=2))
        assert two.restarts == four.restarts[:2]

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

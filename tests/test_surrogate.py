import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matmine import surrogate, tensors
from matmine.errors import FormatVersionMismatch

import helpers
import oracles

rng0 = np.random.default_rng


class TestNormalization:
    def test_affine_map_endpoints(self):
        b = surrogate.NormalizationBounds([1.0], [3.0])
        assert b.normalize([3.0]) == 1.0
        assert b.normalize([1.0]) == -1.0
        assert b.normalize([2.0]) == 0.0

    def test_degenerate_span_widened(self):
        b = surrogate.NormalizationBounds([2.0, 1.0], [2.0, 4.0])
        assert b.upper[0] - b.lower[0] == 1.0
        assert b.normalize([2.0, 1.0])[0] == 0.0

    def test_from_invariants(self):
        vals = np.array([[1.0, 5.0], [3.0, 4.0], [2.0, 6.0]])
        b = surrogate.NormalizationBounds.from_invariants(vals)
        assert np.all(b.lower == [1.0, 4.0])
        assert np.all(b.upper == [3.0, 6.0])


class TestEnergyAndStress:
    def test_single_neuron_bias_only(self):
        # all input weights zero: energy is constant, stress vanishes
        bounds = surrogate.NormalizationBounds(np.zeros(6), np.ones(6))
        model = surrogate.SurrogateModel(
            anisotropy="transverse", gate_weights=[2.0],
            input_weights=np.zeros((1, 5)), reciprocal_weights=[0.0],
            biases=[0.3], energy_offset=1.0, bounds=bounds)
        M = tensors.structural_tensor([1.0, 0.0, 0.0])
        C = oracles.random_spd(rng0(0))
        assert np.isclose(surrogate.model_energy(model, C, M),
                          1.0 + 2.0 * np.log1p(np.exp(0.3)))
        assert np.allclose(surrogate.model_stress(model, C, M)[0], 0.0, atol=0.0)

    def test_single_neuron_closed_form(self):
        # one neuron reading only the first invariant
        lo = np.array([2.5, 2.0, 0.5, 0.8, 0.7, 0.4])
        hi = np.array([4.0, 6.0, 2.0, 1.8, 2.5, 2.1])
        bounds = surrogate.NormalizationBounds(lo, hi)
        w1, b1, W1 = 0.8, -0.2, 1.7
        model = surrogate.SurrogateModel(
            anisotropy="transverse", gate_weights=[W1],
            input_weights=np.array([[w1, 0.0, 0.0, 0.0, 0.0]]),
            reciprocal_weights=[0.0], biases=[b1], energy_offset=0.0,
            bounds=bounds)
        M = tensors.structural_tensor([0.0, 0.0, 1.0])
        rng = rng0(1)
        C = oracles.random_spd(rng)
        s1 = 2.0 / (hi[0] - lo[0])
        z = w1 * (np.trace(C) - 0.5 * (hi[0] + lo[0])) * s1 + b1
        psi = W1 * np.log1p(np.exp(z))
        sig = 1.0 / (1.0 + np.exp(-z))
        T = 2.0 * W1 * sig * w1 * s1 * np.eye(3)
        assert np.isclose(surrogate.model_energy(model, C, M), psi, rtol=1e-12)
        assert np.allclose(surrogate.model_stress(model, C, M)[0], T, rtol=1e-12)

    @pytest.mark.parametrize("mode", ["transverse", "isotropic"])
    def test_stress_is_energy_gradient(self, mode):
        rng = rng0(2)
        model, M = helpers.random_model(rng, mode)
        for _ in range(6):
            C = oracles.random_spd(rng)
            T = surrogate.model_stress(model, C, M)[0]
            ref = 2.0 * oracles.fd_gradient(
                lambda X: surrogate.model_energy(model, X, M), C)
            assert np.allclose(T, ref, atol=2e-6 * max(1.0, np.abs(ref).max()))

    @pytest.mark.parametrize("mode", ["transverse", "isotropic"])
    def test_tangent_is_stress_derivative(self, mode):
        rng = rng0(3)
        model, M = helpers.random_model(rng, mode)
        for _ in range(4):
            C = oracles.random_spd(rng)
            tang = surrogate.model_tangent(model, C, M)
            ref = 2.0 * oracles.fd_hessian_mandel(
                lambda X: surrogate.model_stress(model, X, M)[0], C)
            assert np.allclose(tang, ref, atol=1e-5 * max(1.0, np.abs(ref).max()))
            assert np.allclose(tang, tang.T, atol=1e-10 * max(1.0, np.abs(tang).max()))

    def test_batched_matches_loop(self):
        rng = rng0(4)
        model, M = helpers.random_model(rng)
        C = np.stack([oracles.random_spd(rng) for _ in range(5)])
        e = surrogate.model_energy(model, C, M)
        T = surrogate.model_stress(model, C, M)[0]
        tang = surrogate.model_tangent(model, C, M)
        assert e.shape == (5,) and T.shape == (5, 3, 3) and tang.shape == (5, 6, 6)
        for i in range(5):
            assert np.isclose(e[i], surrogate.model_energy(model, C[i], M))
            assert np.allclose(T[i], surrogate.model_stress(model, C[i], M)[0])
            assert np.allclose(tang[i], surrogate.model_tangent(model, C[i], M))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_objectivity_and_material_symmetry(self, seed):
        rng = rng0(seed)
        model, _ = helpers.random_model(rng)
        A = oracles.random_unit(rng)
        M = tensors.structural_tensor(A)
        C = oracles.random_spd(rng)
        Q = oracles.random_rotation(rng)
        base = surrogate.model_energy(model, C, M)
        rotated = surrogate.model_energy(model, Q @ C @ Q.T, Q @ M @ Q.T)
        assert np.isclose(rotated, base, rtol=1e-10)
        T_base = surrogate.model_stress(model, C, M)[0]
        T_rot = surrogate.model_stress(model, Q @ C @ Q.T, Q @ M @ Q.T)[0]
        assert np.allclose(T_rot, Q @ T_base @ Q.T,
                           atol=1e-10 * max(1.0, np.abs(T_base).max()))

    def test_nominal_stress_work_pair(self):
        rng = rng0(5)
        model, M = helpers.random_model(rng)
        F = oracles.random_defgrad(rng)
        P = tensors.nominal_stress(F, helpers.model_law(model, M))
        h = 1e-7
        ref = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                dF = np.zeros((3, 3))
                dF[i, j] = h
                ref[i, j] = (surrogate.model_energy(model, tensors.right_cauchy_green(F + dF), M)
                             - surrogate.model_energy(model, tensors.right_cauchy_green(F - dF), M)) / (2 * h)
        assert np.allclose(P, ref, atol=1e-5 * max(1.0, np.abs(ref).max()))


class TestOffsetAndGrowth:
    def test_energy_offset_pins_identity_exactly(self):
        rng = rng0(6)
        for mode in ("transverse", "isotropic"):
            model, M = helpers.random_model(rng, mode)
            val = surrogate.model_energy(model, np.eye(3), M)
            assert val == 0.0  # exact, by construction

    def test_growth_condition_gates(self):
        rng = rng0(7)
        model, _ = helpers.random_model(rng, growth=True)
        w = model.input_weights.copy()
        w[:, surrogate.DET_SLOT] = np.abs(w[:, surrogate.DET_SLOT])
        ok = surrogate.SurrogateModel(
            anisotropy=model.anisotropy, gate_weights=model.gate_weights,
            input_weights=w, reciprocal_weights=np.abs(model.reciprocal_weights),
            biases=model.biases, energy_offset=model.energy_offset,
            bounds=model.bounds, growth_mode=True)
        chk = surrogate.check_growth_condition(ok)
        assert chk.satisfied and chk.det_margin > 0 and chk.reciprocal_margin > 0

        bad_gate = surrogate.SurrogateModel(
            anisotropy=ok.anisotropy, gate_weights=-np.abs(ok.gate_weights),
            input_weights=ok.input_weights, reciprocal_weights=ok.reciprocal_weights,
            biases=ok.biases, energy_offset=ok.energy_offset, bounds=ok.bounds)
        assert not surrogate.check_growth_condition(bad_gate).satisfied

        w_bad = ok.input_weights.copy()
        w_bad[:, surrogate.DET_SLOT] = -np.abs(w_bad[:, surrogate.DET_SLOT])
        bad_det = surrogate.SurrogateModel(
            anisotropy=ok.anisotropy, gate_weights=ok.gate_weights,
            input_weights=w_bad, reciprocal_weights=ok.reciprocal_weights,
            biases=ok.biases, energy_offset=ok.energy_offset, bounds=ok.bounds)
        assert not surrogate.check_growth_condition(bad_det).satisfied

        bad_rec = surrogate.SurrogateModel(
            anisotropy=ok.anisotropy, gate_weights=ok.gate_weights,
            input_weights=ok.input_weights,
            reciprocal_weights=-np.abs(ok.reciprocal_weights),
            biases=ok.biases, energy_offset=ok.energy_offset, bounds=ok.bounds)
        assert not surrogate.check_growth_condition(bad_rec).satisfied

    def test_growth_model_energy_escapes_at_extreme_volumes(self):
        rng = rng0(8)
        model, M = helpers.random_model(rng, growth=True)
        w = model.input_weights.copy()
        w[0, surrogate.DET_SLOT] = abs(w[0, surrogate.DET_SLOT]) + 0.1
        rec = model.reciprocal_weights.copy()
        rec[1] = abs(rec[1]) + 0.1
        model = surrogate.fix_energy_offset(surrogate.SurrogateModel(
            anisotropy=model.anisotropy, gate_weights=model.gate_weights,
            input_weights=w, reciprocal_weights=rec, biases=model.biases,
            energy_offset=0.0, bounds=model.bounds, growth_mode=True))
        assert surrogate.check_growth_condition(model).satisfied
        interior = [surrogate.model_energy(model, oracles.random_spd(rng0(9)), M)
                    for _ in range(20)]
        for lam in (1e-2, 1e2):
            C = lam**2 * np.eye(3)
            assert surrogate.model_energy(model, C, M) > max(interior)


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = rng0(10)
        model, _ = helpers.random_model(rng)
        path = tmp_path / "model.json"
        surrogate.save_model(model, path)
        back = surrogate.load_model(path)
        assert back.anisotropy == model.anisotropy
        assert back.growth_mode == model.growth_mode
        for name in ("gate_weights", "input_weights", "reciprocal_weights", "biases"):
            a, b = getattr(model, name), getattr(back, name)
            assert a.shape == b.shape and np.all(a == b)
        assert back.energy_offset == model.energy_offset
        assert np.all(back.bounds.lower == model.bounds.lower)
        assert np.all(back.bounds.upper == model.bounds.upper)
        # a second save of the loaded model is byte-identical
        path2 = tmp_path / "model2.json"
        surrogate.save_model(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_version_mismatch_rejected(self, tmp_path):
        rng = rng0(11)
        model, _ = helpers.random_model(rng)
        path = tmp_path / "model.json"
        surrogate.save_model(model, path)
        doc = path.read_text().replace(surrogate.FORMAT_VERSION, "surrogate-v999")
        path.write_text(doc)
        with pytest.raises(FormatVersionMismatch):
            surrogate.load_model(path)

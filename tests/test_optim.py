from dataclasses import fields

import numpy as np
import pytest

from helpers import rand_state
from otflow.errors import FlowDivergenceError
from otflow.optim import OptimizerState, apply_step
from otflow.otdd import MODE_FD, MODE_JD_FL, MODE_JD_VL, FlowGradients


def feature_grads(state, g):
    fg = FlowGradients.zeros(state, MODE_FD)
    fg.d_features = np.asarray(g, dtype=float)
    return fg


class TestSgd:
    def test_single_euler_step(self):
        rng = np.random.default_rng(0)
        state = rand_state(rng, 1, 1, 2)
        state.features = np.array([[1.0, 0.0]])
        opt = OptimizerState(rule="sgd", step_size=0.1)
        new, opt = apply_step(state, feature_grads(state, [[10.0, 0.0]]), opt)
        np.testing.assert_allclose(new.features, [[0.0, 0.0]], atol=1e-15)
        assert opt.step_count == 1

    def test_linear_in_gradients(self):
        rng = np.random.default_rng(1)
        state = rand_state(rng, 5, 2, 2)
        g1 = rng.standard_normal((5, 2))
        g2 = rng.standard_normal((5, 2))
        opt = OptimizerState(rule="sgd", step_size=0.3)
        combined, _ = apply_step(state, feature_grads(state, g1 + g2), opt)
        s1, _ = apply_step(state, feature_grads(state, g1), OptimizerState(rule="sgd", step_size=0.3))
        s2, _ = apply_step(s1, feature_grads(s1, g2), OptimizerState(rule="sgd", step_size=0.3))
        np.testing.assert_allclose(combined.features, s2.features, rtol=1e-12, atol=1e-14)

    def test_zero_gradient_fixed_point(self):
        rng = np.random.default_rng(2)
        state = rand_state(rng, 4, 2, 2)
        zeros = feature_grads(state, np.zeros((4, 2)))
        for rule in ("sgd", "momentum", "adagrad"):
            new, _ = apply_step(state, zeros, OptimizerState(rule=rule, step_size=0.5))
            np.testing.assert_allclose(new.features, state.features, atol=1e-15)


class TestAdam:
    def test_quadratic_convergence_vs_reference(self):
        # Scalar reference implementation of adam on 0.5 ||x||^2.
        x_ref = np.array([3.0, 4.0])
        m = np.zeros(2); v = np.zeros(2)
        b1, b2, eps, tau = 0.9, 0.999, 1e-8, 0.05
        for t in range(1, 201):
            g = x_ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            x_ref = x_ref - tau * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

        state = rand_state(np.random.default_rng(3), 1, 1, 2)
        state.features = np.array([[3.0, 4.0]])
        opt = OptimizerState(rule="adam", step_size=0.05)
        for _ in range(200):
            state, opt = apply_step(state, feature_grads(state, state.features), opt)
        np.testing.assert_allclose(state.features[0], x_ref, atol=1e-12)
        assert np.linalg.norm(state.features) < 1e-2

    def test_first_step_bounded_by_tau(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            state = rand_state(rng, 3, 1, 2)
            g = 10.0 ** rng.uniform(-6, 6) * rng.standard_normal((3, 2))
            opt = OptimizerState(rule="adam", step_size=0.1)
            new, _ = apply_step(state, feature_grads(state, g), opt)
            assert np.abs(new.features - state.features).max() <= 0.1 * (1 + 1e-9)


class TestAdagrad:
    def test_accumulates_squared_gradients(self):
        state = rand_state(np.random.default_rng(5), 1, 1, 1)
        state.features = np.array([[1.0]])
        opt = OptimizerState(rule="adagrad", step_size=0.1)
        g = np.array([[2.0]])
        s1, opt = apply_step(state, feature_grads(state, g), opt)
        # first step: x - tau * g / (|g| + eps) = 1 - 0.1
        assert s1.features[0, 0] == pytest.approx(0.9, abs=1e-9)
        s2, opt = apply_step(s1, feature_grads(s1, g), opt)
        # accumulator now 8: step = 0.1 * 2 / sqrt(8)
        assert s2.features[0, 0] == pytest.approx(0.9 - 0.2 / np.sqrt(8.0), abs=1e-9)


class TestMomentum:
    def test_velocity_accumulates(self):
        state = rand_state(np.random.default_rng(6), 1, 1, 1)
        state.features = np.array([[0.0]])
        opt = OptimizerState(rule="momentum", step_size=1.0, momentum=0.5)
        g = np.array([[1.0]])
        s1, opt = apply_step(state, feature_grads(state, g), opt)
        assert s1.features[0, 0] == pytest.approx(-1.0)
        s2, opt = apply_step(s1, feature_grads(s1, g), opt)
        # velocity = 0.5 * 1 + 1 = 1.5
        assert s2.features[0, 0] == pytest.approx(-2.5)


class TestBlocks:
    def test_moment_blocks_updated_and_psd(self):
        rng = np.random.default_rng(7)
        state = rand_state(rng, 12, 2, 2)
        grads = FlowGradients.zeros(state, MODE_JD_FL)
        for k in range(len(state.label_dists)):
            grads.d_means[k] = rng.standard_normal(2)
            v = rng.standard_normal((2, 2))
            grads.d_covs[k] = 5.0 * (v + v.T)  # big enough to push outside the cone
        opt = OptimizerState(rule="sgd", step_size=0.5)
        new, _ = apply_step(state, grads, opt)
        old, upd = state.label_dists, new.label_dists
        for old_mean, mean, cov in zip(old.means, upd.means, upd.covs):
            assert np.linalg.eigvalsh(cov).min() >= 0.0
            assert not np.allclose(mean, old_mean)

    def test_per_particle_blocks(self):
        rng = np.random.default_rng(8)
        state = rand_state(rng, 6, 2, 2).decoupled()
        grads = FlowGradients.zeros(state, MODE_JD_VL)
        grads.d_means += 1.0
        opt = OptimizerState(rule="sgd", step_size=0.1)
        new, _ = apply_step(state, grads, opt)
        for old_mean, mean in zip(state.label_dists.means, new.label_dists.means):
            np.testing.assert_allclose(mean, old_mean - 0.1, atol=1e-12)

    def test_block_step_size_override(self):
        rng = np.random.default_rng(9)
        state = rand_state(rng, 6, 2, 2)
        grads = FlowGradients.zeros(state, MODE_JD_FL)
        grads.d_features += 1.0
        grads.d_means[:] = 1.0
        opt = OptimizerState(rule="sgd", step_size=0.1, block_step_sizes={"means": 0.01})
        new, _ = apply_step(state, grads, opt)
        np.testing.assert_allclose(new.features, state.features - 0.1, atol=1e-12)
        np.testing.assert_allclose(
            new.label_dists.means[0], state.label_dists.means[0] - 0.01, atol=1e-12
        )

    def test_nonfinite_gradient_raises(self):
        rng = np.random.default_rng(10)
        state = rand_state(rng, 3, 1, 2)
        bad = feature_grads(state, np.full((3, 2), np.nan))
        with pytest.raises(FlowDivergenceError) as exc:
            apply_step(state, bad, OptimizerState())
        assert exc.value.step == 0

    @pytest.mark.parametrize("sizes", [
        {"cov": 5.0}, {"means": -1.0}, {"features": 0.0}, {"covs": float("nan")},
    ])
    def test_bad_block_step_sizes_rejected(self, sizes):
        with pytest.raises(ValueError, match="block"):
            OptimizerState(block_step_sizes=sizes)

    @pytest.mark.parametrize("rule", ["momentum", "adam"])
    def test_clone_drops_accumulated_state(self, rule):
        state = rand_state(np.random.default_rng(11), 4, 2, 2)
        opt = OptimizerState(
            rule=rule, step_size=0.3, momentum=0.7, beta1=0.8, beta2=0.99,
            adam_eps=1e-7, adagrad_eps=1e-9, block_step_sizes={"features": 0.2},
        )
        apply_step(state, feature_grads(state, np.ones((4, 2))), opt)
        assert opt.step_count == 1 and opt.buffers
        twin = opt.clone()
        for f in fields(OptimizerState):
            if f.name not in ("buffers", "step_count"):
                assert getattr(twin, f.name) == getattr(opt, f.name), f.name
        assert twin.block_step_sizes is not opt.block_step_sizes
        assert twin.buffers == {} and twin.step_count == 0

    @pytest.mark.parametrize("internal", ["buffers", "step_count"])
    def test_accumulators_are_not_settings(self, internal):
        with pytest.raises(TypeError, match=internal):
            OptimizerState(**{internal: {} if internal == "buffers" else 3})

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            OptimizerState(rule="bfgs")

import importlib
import sys
import tracemalloc
from inspect import signature

import numpy as np
import pytest

from helpers import one_row, rand_state, rel_err
from otflow.dynamics import FlowConfig, flow_step
from otflow.errors import DimensionMismatchError, NumericError
from otflow.functionals import FunctionalSpec, TargetDistanceTerm
from otflow.gaussian import PSD_FLOOR_ABS, Moments, pairwise_bures_sq
from otflow.optim import OptimizerState
from otflow.otdd import (
    EVAL_MAX_ITER,
    EVAL_TOL,
    MODE_FD,
    MODE_JD_FL,
    MODE_JD_VL,
    MODES,
    DatasetState,
    Divergence,
    FlowGradients,
    _row_masses,
    ground_cost_matrix,
    otdd,
)
from otflow.transport import (
    _cost_product,
    default_reg,
    sinkhorn,
    sinkhorn_symmetric,
    squared_euclidean_cost,
)

FD_TOL = dict(tol=1e-9, max_iter=300_000)
EVAL = dict(tol=EVAL_TOL, max_iter=EVAL_MAX_ITER)


def inflate_covs(state, ridge=0.25):
    """FD checks at h=1e-5 need covariances well inside the PD cone."""
    state.label_dists.covs += ridge * np.eye(state.dim)
    return state


def otdd_sq_value(src, dst, reg, debias=True):
    """Scalar objective the gradients differentiate (target self-term is a
    constant and drops under finite differences)."""
    cab = ground_cost_matrix(src, dst)
    pab = sinkhorn(cab, src.weights, dst.weights, reg, **FD_TOL)
    if not debias:
        return pab.soft_cost
    caa = ground_cost_matrix(src, src)
    paa = sinkhorn_symmetric(caa, src.weights, reg, **FD_TOL)
    return pab.soft_cost - 0.5 * paa.soft_cost


class TestDatasetState:
    def test_from_features_builds_stats(self):
        state = DatasetState.from_features([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]], [0, 0, 1])
        assert len(state.label_dists) == 2
        np.testing.assert_array_equal(state.block, [0, 0, 1])
        assert state.n == 3 and state.dim == 2
        state.validate()

    def test_decoupled_aligns_per_particle(self):
        rng = np.random.default_rng(1)
        state = rand_state(rng, 8, 2, 2)
        dec = state.decoupled()
        assert dec.per_particle
        for i in range(dec.n):
            src_mean = state.label_dists.means[int(state.labels[i])]
            np.testing.assert_allclose(dec.label_dists.means[i], src_mean)

    def test_copy_is_deep(self):
        rng = np.random.default_rng(2)
        state = rand_state(rng, 6, 2, 2)
        clone = state.copy()
        clone.features[0, 0] += 100.0
        clone.label_dists.means[0, 0] += 100.0
        assert state.features[0, 0] != clone.features[0, 0]
        assert state.label_dists.means[0, 0] != clone.label_dists.means[0, 0]


class TestLabelStats:
    def test_two_point_moments(self):
        state = DatasetState.from_features([[0.0, 0.0], [2.0, 0.0]], [0, 0])
        mean, cov = state.label_dists.means[0], state.label_dists.covs[0]
        np.testing.assert_allclose(mean, [1.0, 0.0])
        # biased covariance diag(1, 0), zero eigenvalue floored at 1e-6*tr/d
        assert cov[0, 0] == pytest.approx(1.0, rel=1e-9)
        assert cov[1, 1] == pytest.approx(0.5e-6, rel=1e-6)

    def test_identical_points_floored(self):
        state = DatasetState.from_features([[1.0, 2.0]] * 4, [0] * 4)
        np.testing.assert_allclose(state.label_dists.covs[0], PSD_FLOOR_ABS * np.eye(2))

    def test_single_particle_class(self):
        state = DatasetState.from_features([[0.0, 0.0], [5.0, 5.0]], [0, 1])
        np.testing.assert_allclose(state.label_dists.covs[1], PSD_FLOOR_ABS * np.eye(2))

    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(3)
        mean = np.array([1.0, -2.0])
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        pts = mean + rng.standard_normal((4000, 2)) @ np.linalg.cholesky(cov).T
        state = DatasetState.from_features(pts, np.zeros(4000, dtype=int))
        rows = state.label_dists
        assert np.abs(rows.means[0] - mean).max() < 3 * np.sqrt(2.0 / 4000) * 3
        assert rel_err(rows.covs[0], cov) < 0.15


class TestGroundCost:
    def test_equal_stats_reduce_to_feature_cost(self):
        rng = np.random.default_rng(4)
        xa = rng.standard_normal((6, 2))
        xb = rng.standard_normal((5, 2))
        shared = Moments(np.zeros((1, 2)), [np.eye(2)])
        a = DatasetState(xa, np.zeros(6, dtype=int), np.full(6, 1 / 6), shared, np.zeros(6))
        b = DatasetState(xb, np.zeros(5, dtype=int), np.full(5, 1 / 5), shared.copy(), np.zeros(5))
        np.testing.assert_allclose(
            ground_cost_matrix(a, b), squared_euclidean_cost(xa, xb), atol=1e-12
        )

    def test_identical_sets_zero_diagonal(self):
        rng = np.random.default_rng(5)
        state = rand_state(rng, 8, 2, 2)
        cost = ground_cost_matrix(state, state)
        np.testing.assert_allclose(np.diag(cost), 0.0, atol=1e-10)

    def test_recomposition_oracle(self):
        rng = np.random.default_rng(6)
        a = rand_state(rng, 7, 2, 2)
        b = rand_state(rng, 9, 3, 2)
        cost = ground_cost_matrix(a, b)
        for i in [0, 3, 6]:
            for j in [0, 4, 8]:
                feat = float(np.sum((a.features[i] - b.features[j]) ** 2))
                lab = pairwise_bures_sq(
                    one_row(a.label_dists, a.block[i]), one_row(b.label_dists, b.block[j])
                )[0, 0]
                assert cost[i, j] == pytest.approx(feat + lab, rel=1e-9)

    # (n, classes) of source and target, d, and whether each side is decoupled.
    ORACLE_CASES = {
        "p<q": ((7, 2), (9, 4), 2, False, False),
        "p>q": ((9, 4), (7, 2), 2, False, False),
        "d=1": ((8, 3), (6, 2), 1, False, False),
        "d=3": ((6, 2), (10, 3), 3, False, False),
        "per-particle source": ((12, 3), (10, 2), 2, True, False),
        "per-particle target": ((10, 2), (12, 3), 2, False, True),
        "per-particle both": ((8, 2), (11, 3), 2, True, True),
        "1x1": ((1, 1), (1, 1), 2, False, False),
        "1x1 d=3": ((1, 1), (1, 1), 3, False, False),
    }

    @staticmethod
    def oracle(src, dst, label_block):
        """Difference-tensor cost plus the gathered label block, and the
        entrywise tolerance 1e-12 * (|ref| + ||x_i||^2 + ||y_j||^2)."""
        diff = src.features[:, None, :] - dst.features[None, :, :]
        ref = (diff**2).sum(axis=-1) + label_block[src.block][:, dst.block]
        scale = (src.features**2).sum(axis=1)[:, None] + (dst.features**2).sum(axis=1)
        return ref, 1e-12 * (np.abs(ref) + scale)

    @pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    @pytest.mark.parametrize("given_block", [False, True])
    def test_matches_brute_force(self, case, given_block):
        (n, p), (m, q), d, src_pp, dst_pp = case
        rng = np.random.default_rng(30 + n + m + d)
        src = rand_state(rng, n, p, d)
        dst = rand_state(rng, m, q, d)
        src.features += 4.0  # a common offset, so the expansion cancels
        dst.features += 4.0
        src = src.decoupled() if src_pp else src
        dst = dst.decoupled() if dst_pp else dst
        shape = (len(src.label_dists), len(dst.label_dists))
        if given_block:
            block = rng.uniform(0.0, 5.0, size=shape)
            cost = ground_cost_matrix(src, dst, block)
        else:
            block = pairwise_bures_sq(src.label_dists, dst.label_dists)
            cost = ground_cost_matrix(src, dst)
        ref, tol = self.oracle(src, dst, block)
        assert cost.shape == (src.n, dst.n)
        assert np.all(cost >= 0)
        assert np.all(np.abs(cost - ref) <= tol)

    @pytest.mark.parametrize("n, k, d", [(9, 3, 2), (7, 2, 1), (1, 1, 3)])
    def test_shared_rows_self_cost(self, n, k, d):
        rng = np.random.default_rng(40 + n)
        state = rand_state(rng, n, k, d)
        for s in (state, state.decoupled()):
            cost = ground_cost_matrix(s, s)
            ref, tol = self.oracle(s, s, pairwise_bures_sq(s.label_dists, s.label_dists))
            assert np.all(cost >= 0)
            assert np.all(np.abs(cost - ref) <= tol)

    @pytest.mark.parametrize(
        "src_pp, dst_pp, width",
        [(False, False, 2), (True, False, 3), (False, True, 2), (True, True, None)],
    )
    def test_label_columns_follow_the_size_rule(self, monkeypatch, src_pp, dst_pp, width):
        """k = min(p, q) label columns ride in the product unless k >= min(n, m)."""
        widths = []

        def spy(x, y, x_extra=None, y_extra=None, out=None):
            widths.append(None if x_extra is None else x_extra.shape[1])
            return _cost_product(x, y, x_extra, y_extra, out)

        monkeypatch.setattr(importlib.import_module("otflow.otdd"), "_cost_product", spy)
        rng = np.random.default_rng(50)
        src, dst = rand_state(rng, 10, 2, 2), rand_state(rng, 12, 3, 2)
        ground_cost_matrix(src.decoupled() if src_pp else src, dst.decoupled() if dst_pp else dst)
        assert widths == [width]

    def test_dimension_mismatch(self):
        a = DatasetState.from_features([[0.0, 0.0]] * 2, [0, 0])
        b = DatasetState.from_features([[0.0]] * 2, [0, 0])
        with pytest.raises(DimensionMismatchError):
            ground_cost_matrix(a, b)


class TestOtdd:
    def test_self_distance_negligible(self):
        rng = np.random.default_rng(7)
        state = rand_state(rng, 20, 3, 2)
        value, _ = otdd(state, state)
        scale = float(ground_cost_matrix(state, state).mean())
        assert value <= 1e-3 * scale

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        a = rand_state(rng, 15, 2, 2)
        b = rand_state(rng, 18, 3, 2)
        va, _ = otdd(a, b)
        vb, _ = otdd(b, a)
        assert abs(va - vb) <= 1e-6

    def test_gaussian_shift_oracle(self):
        # One class per side, features N(0, I) vs N((5,0), I). The analytic
        # decomposition gives ~25 from the feature shift plus ~25 from the
        # label term (the class moments differ by the same shift), so the
        # squared distance sits near 50.
        rng = np.random.default_rng(9)
        a = DatasetState.from_features(rng.standard_normal((200, 2)), np.zeros(200, dtype=int))
        b = DatasetState.from_features(
            rng.standard_normal((200, 2)) + np.array([5.0, 0.0]), np.zeros(200, dtype=int)
        )
        value, _ = otdd(a, b)
        assert abs(value**2 - 50.0) / 50.0 < 0.10

    def test_nonnegative_and_plan_marginals(self):
        rng = np.random.default_rng(10)
        a = rand_state(rng, 12, 2, 2)
        b = rand_state(rng, 14, 2, 2)
        value, plan = otdd(a, b)
        assert value >= 0
        ra, rb = plan.marginals()
        assert np.abs(ra - a.weights).sum() < 1e-5
        assert np.abs(rb - b.weights).sum() < 1e-5

    @pytest.mark.parametrize(
        "setting",
        [{"reg": -1.0}, {"reg": 0.0}, {"reg": float("nan")}, {"tol": 0.0},
         {"tol": float("nan")}, {"tol": float("inf")}, {"max_iter": 0}],
        ids=lambda s: "-".join(f"{k}={v}" for k, v in s.items()),
    )
    def test_divergence_rejects_bad_settings_when_built(self, setting):
        target = rand_state(np.random.default_rng(11), 6, 2, 2)
        with pytest.raises(NumericError, match=next(iter(setting))):
            Divergence(target, **setting)
        with pytest.raises(NumericError, match=next(iter(setting))):
            TargetDistanceTerm(target, **setting)


class TestOtddGrads:
    def test_self_gradients_vanish(self):
        rng = np.random.default_rng(11)
        state = rand_state(rng, 10, 2, 2)
        term = TargetDistanceTerm(state, max_iter=EVAL_MAX_ITER, tol=1e-8)
        grads = term.value_and_grads(state, MODE_FD)[1]
        scale = float(np.abs(state.features).max())
        assert np.abs(grads.d_features).max() <= 1e-4 * scale

    def test_single_pair_reduces_to_position_grad(self):
        shared = Moments(np.zeros((1, 2)), [np.eye(2)])
        a = DatasetState(np.array([[1.0, 1.0]]), np.array([0]), np.array([1.0]), shared, [0])
        b = DatasetState(np.array([[0.0, 0.0]]), np.array([0]), np.array([1.0]), shared.copy(), [0])
        grads = TargetDistanceTerm(b, reg=0.1, debias=False, **EVAL).value_and_grads(a, MODE_FD)[1]
        np.testing.assert_allclose(grads.d_features, [[2.0, 2.0]], atol=1e-8)

    def test_fd_mode_has_no_moment_grads(self):
        rng = np.random.default_rng(12)
        a = rand_state(rng, 10, 2, 2)
        b = rand_state(rng, 10, 2, 2)
        grads = TargetDistanceTerm(b, **EVAL).value_and_grads(a, MODE_FD)[1]
        assert grads.d_means is None and grads.d_covs is None

    def test_mode_shape_mismatch(self):
        rng = np.random.default_rng(13)
        a = rand_state(rng, 6, 2, 2)
        b = rand_state(rng, 6, 2, 2)
        with pytest.raises(DimensionMismatchError):
            TargetDistanceTerm(b, **EVAL).value_and_grads(a, MODE_JD_VL)

    @pytest.mark.parametrize("debias", [True, False])
    def test_feature_grads_match_fd(self, debias):
        rng = np.random.default_rng(14)
        src = rand_state(rng, 8, 2, 2)
        dst = rand_state(rng, 9, 2, 2)
        reg = 0.1 * float(ground_cost_matrix(src, dst).mean())
        term = TargetDistanceTerm(dst, reg=reg, debias=debias, **FD_TOL)
        grads = term.value_and_grads(src, MODE_FD)[1]
        h = 1e-5
        gref = np.abs(grads.d_features).max() * src.weights[0]
        for i, l in [(0, 0), (3, 1), (7, 0)]:
            sp = src.copy(); sp.features[i, l] += h
            sm = src.copy(); sm.features[i, l] -= h
            fd = (otdd_sq_value(sp, dst, reg, debias) - otdd_sq_value(sm, dst, reg, debias)) / (2 * h)
            analytic = grads.d_features[i, l] * src.weights[i]
            assert abs(fd - analytic) / max(abs(fd), gref, 1e-8) < 1e-3

    def test_jdfl_moment_grads_match_fd(self):
        rng = np.random.default_rng(15)
        src = inflate_covs(rand_state(rng, 10, 2, 2))
        dst = inflate_covs(rand_state(rng, 11, 3, 2))
        reg = 0.1 * float(ground_cost_matrix(src, dst).mean())
        grads = TargetDistanceTerm(dst, reg=reg, **FD_TOL).value_and_grads(src, MODE_JD_FL)[1]
        h = 1e-5
        for c in src.class_ids():
            mass = float(src.weights[src.labels == c].sum())
            # mean block
            for l in range(2):
                sp = src.copy(); sp.label_dists.means[c, l] += h
                sm = src.copy(); sm.label_dists.means[c, l] -= h
                fd = (otdd_sq_value(sp, dst, reg) - otdd_sq_value(sm, dst, reg)) / (2 * h)
                analytic = grads.d_means[c, l] * mass
                assert abs(fd - analytic) / max(abs(fd), 1e-6) < 1e-3
            # covariance block along a random symmetric direction
            v = rng.standard_normal((2, 2)); v = 0.5 * (v + v.T)
            sp = src.copy(); sp.label_dists.covs[c] += h * v
            sm = src.copy(); sm.label_dists.covs[c] -= h * v
            fd = (otdd_sq_value(sp, dst, reg) - otdd_sq_value(sm, dst, reg)) / (2 * h)
            analytic = float(np.sum(grads.d_covs[c] * v)) * mass
            assert abs(fd - analytic) / max(abs(fd), 1e-6) < 1e-3

    def test_jdvl_moment_grads_match_fd(self):
        rng = np.random.default_rng(16)
        src = inflate_covs(rand_state(rng, 8, 2, 2).decoupled())
        dst = inflate_covs(rand_state(rng, 9, 3, 2))
        reg = 0.1 * float(ground_cost_matrix(src, dst).mean())
        grads = TargetDistanceTerm(dst, reg=reg, **FD_TOL).value_and_grads(src, MODE_JD_VL)[1]
        assert grads.d_means.shape == (8, 2)
        h = 1e-5
        for i in [0, 4, 7]:
            p_i = float(src.weights[i])
            for l in range(2):
                sp = src.copy(); sp.label_dists.means[i, l] += h
                sm = src.copy(); sm.label_dists.means[i, l] -= h
                fd = (otdd_sq_value(sp, dst, reg) - otdd_sq_value(sm, dst, reg)) / (2 * h)
                analytic = grads.d_means[i, l] * p_i
                assert abs(fd - analytic) / max(abs(fd), 1e-6) < 1e-3
            v = rng.standard_normal((2, 2)); v = 0.5 * (v + v.T)
            sp = src.copy(); sp.label_dists.covs[i] += h * v
            sm = src.copy(); sm.label_dists.covs[i] -= h * v
            fd = (otdd_sq_value(sp, dst, reg) - otdd_sq_value(sm, dst, reg)) / (2 * h)
            analytic = float(np.sum(grads.d_covs[i] * v)) * p_i
            assert abs(fd - analytic) / max(abs(fd), 1e-6) < 1e-3

    @pytest.mark.parametrize("mode", MODES)
    def test_zero_weight_particle_raises_before_any_solve(self, mode):
        # Its per-unit-mass gradient is 0/0; a distance takes it.
        rng = np.random.default_rng(17)
        a, b = rand_state(rng, 8, 2, 2), rand_state(rng, 9, 2, 2)
        a.weights[3], a.weights[4] = 0.0, a.weights[3] + a.weights[4]
        src = a.decoupled() if mode == MODE_JD_VL else a
        divergence = Divergence(b)
        with pytest.raises(NumericError, match="particle 3 "):
            divergence.value_and_grads(src, mode)
        assert not divergence._buffers
        value, plan = divergence.solve(src)
        assert np.isfinite(value) and not plan.plan[3].any()
        assert np.isfinite(otdd(src, b)[0])

    def test_grads_finite_for_floored_covs(self):
        state = DatasetState.from_features([[0.0, 0.0]] * 3 + [[1.0, 1.0]] * 3, [0] * 3 + [1] * 3)
        other = DatasetState.from_features([[2.0, 0.0]] * 3 + [[3.0, 1.0]] * 3, [0] * 3 + [1] * 3)
        grads = TargetDistanceTerm(other, **EVAL).value_and_grads(state, MODE_JD_FL)[1]
        assert grads.is_finite()


class TestRowMasses:
    @pytest.mark.parametrize("per_particle", [False, True])
    def test_matches_unbuffered_accumulation(self, per_particle):
        rng = np.random.default_rng(23)
        n, m, q = 9, 7, 4
        p = n if per_particle else 3
        plan = rng.random((n, m)) / (n * m)
        rows = np.arange(n) if per_particle else rng.integers(p, size=n)
        cols = rng.integers(q, size=m)
        want = np.zeros((p, q))
        np.add.at(want, (rows[:, None], cols[None, :]), plan)
        np.testing.assert_allclose(_row_masses(plan, rows, cols, p, q), want, rtol=0, atol=1e-14)


class TestOneSolvePath:
    """otdd and TargetDistanceTerm solve the divergence through one
    ``Divergence``."""

    @staticmethod
    def pair():
        rng = np.random.default_rng(19)
        return rand_state(rng, 12, 2, 2), rand_state(rng, 14, 3, 2)

    @pytest.mark.parametrize("reg", [0.5, None])
    @pytest.mark.parametrize("debias", [True, False])
    def test_otdd_is_sqrt_of_term_value(self, debias, reg):
        a, b = self.pair()
        term = TargetDistanceTerm(b, reg=reg, debias=debias, max_iter=EVAL_MAX_ITER, tol=EVAL_TOL)
        value, _ = otdd(a, b, reg=reg, debias=debias)
        # sqrt is correctly rounded, so this is exact where value**2 is not.
        assert value == np.sqrt(term.value_and_grads(a, MODE_FD)[0])

    @pytest.mark.parametrize("reg", [0.5, None])
    def test_cold_solve_is_the_hand_built_divergence(self, reg):
        a, b = self.pair()
        cost_ab = ground_cost_matrix(a, b)
        solver = (reg or default_reg(cost_ab), EVAL_MAX_ITER, EVAL_TOL)
        ab = sinkhorn(cost_ab, a.weights, b.weights, *solver).soft_cost
        aa = sinkhorn_symmetric(ground_cost_matrix(a, a), a.weights, *solver).soft_cost
        bb = sinkhorn_symmetric(ground_cost_matrix(b, b), b.weights, *solver).soft_cost
        assert Divergence(b, reg=reg).solve(a)[0] == ab - 0.5 * (aa + bb)

    def test_target_self_term_solved_once(self, monkeypatch):
        otdd_module = sys.modules["otflow.otdd"]
        sizes = []
        solve = otdd_module.sinkhorn_symmetric

        def counting(cost, *args, **kwargs):
            sizes.append(cost.shape[0])
            return solve(cost, *args, **kwargs)

        monkeypatch.setattr(otdd_module, "sinkhorn_symmetric", counting)
        a, b = self.pair()
        term = TargetDistanceTerm(b, reg=0.5)
        term.value_and_grads(a, MODE_JD_FL)
        term.value_and_grads(a, MODE_JD_FL)
        # The target self-term comes first, and only in the first solve.
        assert sizes == [b.n, a.n, a.n]
        term.reset()
        term.value_and_grads(a, MODE_JD_FL)
        assert sizes == [b.n, a.n, a.n, b.n, a.n]
        # A new target object resets the state built for the old one.
        other = rand_state(np.random.default_rng(20), 10, 2, 2)
        term.target = other
        value = term.value_and_grads(a, MODE_JD_FL)[0]
        assert sizes == [b.n, a.n, a.n, b.n, a.n, other.n, a.n]
        assert value == TargetDistanceTerm(other, reg=0.5).value_and_grads(a, MODE_JD_FL)[0]

    def test_new_source_size_drops_the_warm_duals(self):
        rng = np.random.default_rng(21)
        b = rand_state(rng, 25, 2, 2)
        first, second = rand_state(rng, 30, 2, 2), rand_state(rng, 20, 2, 2)
        divergence = Divergence(b, reg=0.5)
        divergence.solve(first)
        assert divergence.solve(second)[0] == Divergence(b, reg=0.5).solve(second)[0]

    def test_term_is_a_divergence_plus_weight_and_squared(self):
        params = signature(TargetDistanceTerm).parameters
        assert list(params) == [*signature(Divergence).parameters, "weight", "squared"]
        after_target = list(params.values())[1:]
        assert {p.name: p.default for p in after_target} == {
            "reg": None, "debias": True, "max_iter": 6000, "tol": 1e-6,
            "weight": 1.0, "squared": True,
        }
        # Keyword-only, so no positional call binds a value to another name.
        assert all(p.kind is p.KEYWORD_ONLY for p in after_target)
        with pytest.raises(TypeError):
            TargetDistanceTerm(self.pair()[1], 0.5)

    def test_solve_rejects_an_unknown_mode(self):
        a, b = self.pair()
        with pytest.raises(ValueError, match="jd_fl"):
            TargetDistanceTerm(b, reg=0.5).value_and_grads(a, "jd_fl")

    def test_jdvl_flow_step_makes_one_bures_pass(self, monkeypatch):
        # The costs and the gradients of a step share one kernel call per
        # label block: source-target, then the source self-block.
        calls = []

        def counting(name, kernel):
            def wrapped(rows_a, rows_b):
                calls.append((name, len(rows_a), len(rows_b), rows_b is rows_a))
                return kernel(rows_a, rows_b)

            return wrapped

        a, b = self.pair()
        src = a.decoupled()
        term = TargetDistanceTerm(b, reg=0.5)
        config = FlowConfig(FunctionalSpec([term]), OptimizerState(step_size=0.1), MODE_JD_VL)
        # Solves the target self-term, as run_flow's first record does.
        term.value_and_grads(src, MODE_FD)
        for module, name in (
            ("otflow.otdd", "pairwise_bures_sq"),
            ("otflow.otdd", "pairwise_bures_grads"),
            ("otflow.clustering", "pairwise_bures_sq"),
        ):
            kernel = getattr(sys.modules[module], name)
            monkeypatch.setattr(sys.modules[module], name, counting(name, kernel))
        flow_step(src, config, config.optimizer.clone(), np.random.default_rng(0))
        assert calls == [
            ("pairwise_bures_grads", src.n, len(b.label_dists), False),
            ("pairwise_bures_grads", src.n, src.n, True),
        ]


def assert_same_grads(left, right):
    for block in ("d_features", "d_means", "d_covs"):
        a, b = getattr(left, block), getattr(right, block)
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_array_equal(a, b)


OUT_CALLS = {
    "_cost_product": lambda a, b, out: _cost_product(a.features, b.features, out=out),
    "ground_cost_matrix": lambda a, b, out: ground_cost_matrix(a, b, out=out),
    "sinkhorn": lambda a, b, out: sinkhorn(
        ground_cost_matrix(a, b), a.weights, b.weights, 0.5, out=out
    ).plan,
    "sinkhorn_symmetric": lambda a, b, out: sinkhorn_symmetric(
        ground_cost_matrix(a, a), a.weights, 0.5, out=out
    ).plan,
}


class TestOwnedBuffers:
    @staticmethod
    def states():
        rng = np.random.default_rng(31)
        return rand_state(rng, 20, 2, 2), rand_state(rng, 25, 3, 2), rand_state(rng, 40, 3, 2)

    @pytest.mark.parametrize("mode", MODES)
    def test_nan_filled_buffers_change_nothing(self, mode):
        a, b, _ = self.states()
        src = a.decoupled() if mode == MODE_JD_VL else a
        filled, clean = Divergence(b), Divergence(b)
        for divergence in (filled, clean):
            divergence.value_and_grads(src, mode)
        for buf in filled._buffers.values():
            buf.fill(np.nan)
        value, grads = filled.value_and_grads(src, mode)
        clean_value, clean_grads = clean.value_and_grads(src, mode)
        assert value == clean_value
        assert_same_grads(grads, clean_grads)

    @pytest.mark.parametrize("mode", MODES)
    def test_a_larger_source_in_between_changes_nothing(self, mode):
        a, b, big = self.states()
        if mode == MODE_JD_VL:
            a, big = a.decoupled(), big.decoupled()
        divergence = Divergence(b, reg=0.5)
        divergence.value_and_grads(big, mode)
        value, grads = divergence.value_and_grads(a, mode)
        fresh_value, fresh_grads = Divergence(b, reg=0.5).value_and_grads(a, mode)
        assert value == fresh_value
        assert_same_grads(grads, fresh_grads)
        assert divergence.solve(a)[0] == Divergence(b, reg=0.5).solve(a)[0]

    def test_returned_plan_is_never_overwritten(self):
        a, b, big = self.states()
        divergence = Divergence(b)
        _, plan = divergence.solve(a)
        kept = plan.plan.copy()
        divergence.solve(a)
        divergence.solve(big)
        divergence.value_and_grads(a, MODE_JD_FL)
        np.testing.assert_array_equal(plan.plan, kept)

    @pytest.mark.parametrize("n, m", [(300, 400), (400, 300)])
    def test_cold_distance_holds_two_kernel_sized_arrays(self, n, m):
        # The cost and kernel buffers, at 8 * max(n, m)^2 bytes each, plus
        # small change; a distance that kept every cost and plan alive
        # peaked near 3.7 of them. With n > m both buffers grow while the
        # other is held, so a buffer kept alive while it grows shows too.
        rng = np.random.default_rng(32)
        src, dst = rand_state(rng, n, 3, 2), rand_state(rng, m, 4, 2)
        tracemalloc.start()
        try:
            otdd(src, dst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 8 * max(n, m) ** 2

    def test_warm_jdvl_step_holds_no_per_pair_gradient(self):
        # The Bures gradients go through pullbacks of the (n, n) and (n, m)
        # coupling masses; per-pair gradient blocks of both, and their
        # temporaries, took the peak of this step to about 15 n x n arrays.
        n = 300
        rng = np.random.default_rng(33)
        src, dst = rand_state(rng, n, 3, 2).decoupled(), rand_state(rng, n, 4, 2)
        divergence = Divergence(dst)
        divergence.value_and_grads(src, MODE_JD_VL)
        tracemalloc.start()
        try:
            divergence.value_and_grads(src, MODE_JD_VL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 8 * n**2

    @pytest.mark.parametrize("call", OUT_CALLS.values(), ids=OUT_CALLS.keys())
    def test_out_receives_the_same_result(self, call):
        a, b, _ = self.states()
        expected = call(a, b, None)
        out = np.full(expected.shape, np.nan)
        assert call(a, b, out) is out
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("call", OUT_CALLS.values(), ids=OUT_CALLS.keys())
    @pytest.mark.parametrize(
        "bad",
        [
            lambda shape: np.empty((shape[0] + 1, shape[1])),
            lambda shape: np.empty((shape[0], shape[1] + 1)),
            lambda shape: np.empty(shape, dtype=np.float32),
            lambda shape: np.empty(shape, order="F"),
            lambda shape: np.empty((shape[0], 2 * shape[1]))[:, ::2],
            lambda shape: np.empty(shape).tolist(),
        ],
        ids=["taller", "wider", "float32", "fortran", "strided", "list"],
    )
    def test_out_of_another_shape_dtype_or_layout_is_rejected(self, call, bad):
        a, b, _ = self.states()
        shape = (a.n, a.n) if call is OUT_CALLS["sinkhorn_symmetric"] else (a.n, b.n)
        with pytest.raises(DimensionMismatchError, match="out must be"):
            call(a, b, bad(shape))

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_out_may_not_overlap_the_cost(self, symmetric):
        a = self.states()[0]
        cost = ground_cost_matrix(a, a)
        with pytest.raises(ValueError, match="overlap"):
            if symmetric:
                sinkhorn_symmetric(cost, a.weights, 0.5, out=cost)
            else:
                sinkhorn(cost, a.weights, a.weights, 0.5, out=cost)


class TestFlowGradients:
    def test_zeros_shapes(self):
        rng = np.random.default_rng(17)
        state = rand_state(rng, 6, 2, 3)
        g = FlowGradients.zeros(state, MODE_JD_FL)
        assert g.d_means.shape == (2, 3) and g.d_covs.shape == (2, 3, 3)
        g2 = FlowGradients.zeros(state.decoupled(), MODE_JD_VL)
        assert g2.d_means.shape == (6, 3)

    def test_axpy_accumulates(self):
        rng = np.random.default_rng(18)
        state = rand_state(rng, 5, 2, 2)
        a = FlowGradients.zeros(state, MODE_JD_FL)
        b = FlowGradients.zeros(state, MODE_JD_FL)
        b.d_features += 1.0
        b.d_means[0] += 2.0
        a.axpy(0.5, b)
        assert np.all(a.d_features == 0.5)
        assert np.all(a.d_means[0] == 1.0)
        assert np.all(a.d_means[1] == 0.0)

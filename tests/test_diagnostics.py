import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from otflow.datagen import GeneratorSpec, generate
from otflow.diagnostics import (
    _matching,
    check_displacement_convexity,
    check_flow_contraction,
    displacement_interpolant,
    feature_w2_sq,
    oracle_accuracy_proxy,
)
from otflow.dynamics import FlowConfig, run_flow
from otflow.errors import DimensionMismatchError, SizeLimitError
from otflow.functionals import FunctionalSpec, PotentialTerm, TargetDistanceTerm
from otflow.gaussian import Moments
from otflow.optim import OptimizerState
from otflow.otdd import DatasetState, FlowGradients
from otflow.transport import exact_ot, squared_euclidean_cost


def matched_pair(seed, n=16, d=2):
    rng = np.random.default_rng(seed)
    a = DatasetState.from_features(rng.standard_normal((n, d)), np.arange(n) % 2)
    b = DatasetState.from_features(rng.standard_normal((n, d)) + 1.5, np.arange(n) % 2)
    return a, b


class TestInterpolant:
    def test_endpoints(self):
        a, b = matched_pair(0)
        i0 = displacement_interpolant(a, b, 0.0)
        np.testing.assert_allclose(i0.features, a.features, atol=1e-12)
        i1 = displacement_interpolant(a, b, 1.0)
        # t=1 reaches b's positions (in matched order)
        assert feature_w2_sq(i1, b) < 1e-12

    def test_matching_is_the_optimal_assignment(self):
        a, b = matched_pair(3, n=20)
        cost = squared_euclidean_cost(a.features, b.features)
        sigma = _matching(a, b)
        rows, cols = linear_sum_assignment(cost)
        np.testing.assert_array_equal(sigma, cols)
        # the exact-OT LP finds the same optimum
        exact = exact_ot(cost, a.weights, b.weights)
        assert exact.cost == pytest.approx(cost[rows, sigma].mean(), abs=1e-12)
        np.testing.assert_array_equal(np.argmax(exact.plan, axis=1), sigma)

    def test_two_singletons_midpoint(self):
        a = DatasetState.from_features([[0.0, 0.0]], [0])
        b = DatasetState.from_features([[2.0, 2.0]], [0])
        mid = displacement_interpolant(a, b, 0.5)
        np.testing.assert_allclose(mid.features, [[1.0, 1.0]], atol=1e-12)

    def test_constant_speed_geodesic(self):
        a, b = matched_pair(1)
        w_ab = np.sqrt(feature_w2_sq(a, b))
        mid = displacement_interpolant(a, b, 0.5)
        w_am = np.sqrt(feature_w2_sq(a, mid))
        w_mb = np.sqrt(feature_w2_sq(mid, b))
        assert abs(w_am - 0.5 * w_ab) < 1e-6
        assert abs(w_mb - 0.5 * w_ab) < 1e-6

    def test_labels_carried_from_first(self):
        a, b = matched_pair(2)
        interp = displacement_interpolant(a, b, 0.3)
        np.testing.assert_array_equal(interp.labels, a.labels)

    def test_size_limit(self):
        rng = np.random.default_rng(3)
        a = DatasetState.from_features(rng.standard_normal((65, 2)), np.zeros(65, dtype=int))
        with pytest.raises(SizeLimitError):
            displacement_interpolant(a, a, 0.5)

    def test_unequal_counts_rejected(self):
        a, _ = matched_pair(4, n=10)
        b, _ = matched_pair(5, n=12)
        with pytest.raises(DimensionMismatchError):
            displacement_interpolant(a, b, 0.5)


class TestDisplacementConvexity:
    def test_quadratic_potential_is_1_convex(self):
        spec = FunctionalSpec([PotentialTerm("quadratic", {"scale": 1.0})])
        for seed in range(5):
            a, b = matched_pair(seed, n=12)
            report = check_displacement_convexity(spec, a, b, lambda_claimed=1.0)
            assert report.max_violation <= 1e-8
            assert len(report.samples) == 11

    def test_linear_potential_equality(self):
        spec = FunctionalSpec([PotentialTerm("linear", {"normal": [0.7, -0.3]})])
        a, b = matched_pair(6, n=10)
        report = check_displacement_convexity(spec, a, b, lambda_claimed=0.0)
        assert abs(report.max_violation) <= 1e-10
        # linear along geodesics: every sample is an equality
        for _, lhs, rhs in report.samples:
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_target_distance_report_produced(self):
        # The target-distance functional is not displacement convex in
        # general; the report records any violations without asserting.
        a, b = matched_pair(7, n=10)
        tgt = matched_pair(8, n=10)[0]
        spec = FunctionalSpec([TargetDistanceTerm(tgt)])
        report = check_displacement_convexity(spec, a, b, lambda_claimed=0.0)
        assert len(report.samples) == 11
        assert np.isfinite(report.max_violation)

    def test_target_distance_report_ignores_history(self):
        # The term's reg would otherwise stay frozen at whatever state it
        # saw first, and its warm duals would carry over between reports.
        a, b = matched_pair(7, n=10)
        tgt = matched_pair(8, n=10)[0]
        fresh = check_displacement_convexity(FunctionalSpec([TargetDistanceTerm(tgt)]), a, b)
        spec = FunctionalSpec([TargetDistanceTerm(tgt)])
        spec.terms[0].value_and_grads(DatasetState.from_features(a.features + 20.0, a.labels), "fd")
        after_far = check_displacement_convexity(spec, a, b)
        again = check_displacement_convexity(spec, a, b)
        assert after_far.samples == fresh.samples
        assert again.samples == fresh.samples
        assert after_far.max_violation == again.max_violation == fresh.max_violation

    def test_generalized_geodesic_base_mode(self):
        a, b = matched_pair(9, n=10)
        base = matched_pair(10, n=10)[0]
        spec = FunctionalSpec([TargetDistanceTerm(base)])
        report = check_displacement_convexity(spec, a, b, lambda_claimed=0.0, base=base)
        assert report.generalized_base
        assert len(report.samples) == 11

    def test_exact_w2_convex_along_generalized_geodesics(self):
        # The squared exact transport distance to the base measure is convex
        # along generalized geodesics through that base, even though it is
        # not displacement convex in general.
        class ExactW2Term:
            kind = "exact_w2"
            weight = 1.0

            def __init__(self, base):
                self.base = base

            def value_and_grads(self, state, mode):
                # The convexity report reads the values; the gradients fill the pair.
                return feature_w2_sq(state, self.base), FlowGradients.zeros(state, mode)

        base = matched_pair(20, n=12)[0]
        spec = FunctionalSpec([ExactW2Term(base)])
        for seed in range(5):
            a, b = matched_pair(30 + seed, n=12)
            gen = check_displacement_convexity(spec, a, b, lambda_claimed=0.0, base=base)
            assert gen.max_violation <= 1e-9


class TestFlowContraction:
    @staticmethod
    def quadratic_config(steps=40, tau=0.05):
        spec = FunctionalSpec([PotentialTerm("quadratic", {"scale": 1.0})])
        return FlowConfig(
            functional=spec,
            optimizer=OptimizerState(rule="sgd", step_size=tau),
            steps=steps,
            record_every=5,
        )

    def test_identical_starts_stay_identical(self):
        a, _ = matched_pair(11, n=10)
        table = check_flow_contraction(self.quadratic_config(), a, a.copy(), lam=1.0)
        for _, delta in table:
            assert delta <= 1e-16

    def test_quadratic_contracts_at_rate(self):
        a, b = matched_pair(12, n=12)
        table = check_flow_contraction(self.quadratic_config(), a, b, lam=1.0)
        d0 = table[0][1]
        for t, delta in table:
            assert delta <= d0 * np.exp(-2.0 * t) * 1.05

    def test_zero_functional_keeps_delta_constant(self):
        a, b = matched_pair(13, n=10)
        spec = FunctionalSpec([PotentialTerm("quadratic", weight=0.0)])
        config = FlowConfig(
            functional=spec, optimizer=OptimizerState(rule="sgd", step_size=0.1),
            steps=10, record_every=2,
        )
        table = check_flow_contraction(config, a, b)
        deltas = [d for _, d in table]
        assert max(deltas) - min(deltas) <= 1e-12


class TestOracleProxy:
    def test_perfect_on_training_data(self):
        train = generate(GeneratorSpec(n=100, k=4, seed=0, radius=5.0, sigma=0.3))
        assert oracle_accuracy_proxy(train, train) == 1.0

    def test_shuffled_labels_near_chance(self):
        rng = np.random.default_rng(1)
        train = generate(GeneratorSpec(n=1000, k=4, seed=2, radius=5.0, sigma=0.3))
        shuffled = DatasetState.from_features(train.features, rng.permutation(train.labels))
        acc = oracle_accuracy_proxy(shuffled, train)
        assert abs(acc - 0.25) < 0.06

    def test_flow_improves_transfer_accuracy(self):
        src = generate(GeneratorSpec(n=80, k=5, seed=3, radius=1.2, sigma=0.3))
        tgt = generate(GeneratorSpec(n=80, k=5, seed=4, radius=5.0, sigma=0.3))
        spec = FunctionalSpec([TargetDistanceTerm(tgt)])
        config = FlowConfig(
            functional=spec, optimizer=OptimizerState(rule="sgd", step_size=0.05),
            steps=200, mode="fd", record_every=50,
        )
        traj = run_flow(src, config)
        accs = [oracle_accuracy_proxy(s.state, tgt) for s in traj.snapshots]
        assert accs[-1] >= 0.9
        assert accs[-1] >= accs[0] - 0.05

    def test_purity_path_for_mismatched_label_sets(self):
        train = generate(GeneratorSpec(n=60, k=3, seed=5, radius=5.0, sigma=0.3))
        flowed = generate(GeneratorSpec(n=40, k=2, seed=6, radius=5.0, sigma=0.3))
        acc = oracle_accuracy_proxy(flowed, train)
        assert 0.0 <= acc <= 1.0

    def test_empty_rejected(self):
        train = generate(GeneratorSpec(n=10, k=2, seed=7))
        with pytest.raises(ValueError):
            oracle_accuracy_proxy(
                DatasetState(
                    np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros(0),
                    Moments(np.zeros((0, 2)), np.zeros((0, 2, 2))), np.zeros(0, dtype=int),
                ),
                train,
            )

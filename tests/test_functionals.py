import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rand_state
from otflow import functionals
from otflow.functionals import (
    EntropyTerm,
    FunctionalSpec,
    InteractionTerm,
    PotentialTerm,
    TargetDistanceTerm,
    eval_terms,
    grad_functional,
)
from otflow.otdd import MODE_FD, MODE_JD_FL, DatasetState


def value(term, state):
    return term.value_and_grads(state, MODE_FD)[0]


def circle_state(n=8):
    theta = 2 * np.pi * np.arange(n) / n
    feats = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return DatasetState.from_features(feats, np.zeros(n, dtype=int))


class TestPotential:
    def test_affine_norm_unit_circle(self):
        state = circle_state()
        term = PotentialTerm("affine_norm", {"matrix": np.eye(2), "offset": [0.0, 0.0]})
        val = value(term, state)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_hinge_inactive_region(self):
        # all points classified with nonpositive margin -> zero potential
        feats = np.array([[-1.0, 0.0], [-2.0, 1.0], [1.0, 0.0]])
        labels = np.array([1, 1, 0])
        state = DatasetState.from_features(feats, labels)
        params = {"normal": [1.0, 0.0], "bias": 0.0, "positive_label": 1}
        assert value(PotentialTerm("hinge", params), state) == 0.0

    def test_hinge_negate_flag_flips(self):
        feats = np.array([[1.0, 0.0]])
        state = DatasetState.from_features(feats, [1])
        params = {"normal": [1.0, 0.0], "bias": 0.0, "positive_label": 1}
        assert value(PotentialTerm("hinge", params), state) == pytest.approx(1.0)
        assert value(PotentialTerm("hinge", {**params, "negate": True}), state) == 0.0

    def test_radial_shell_direct_summation(self):
        rng = np.random.default_rng(0)
        state = rand_state(rng, 30, 2, 2)
        center = np.array([0.5, -0.5])
        radius = 1.5
        val = value(PotentialTerm("radial_shell", {"center": center, "radius": radius}), state)
        direct = sum(
            w * max(0.0, np.linalg.norm(x - center) - radius)
            for x, w in zip(state.features, state.weights)
        )
        assert val == pytest.approx(direct, rel=1e-12)

    def test_class_affine_norm_per_class_params(self):
        feats = np.array([[1.0, 0.0], [0.0, 2.0]])
        state = DatasetState.from_features(feats, [0, 1])
        params = {"per_class": {
            "0": {"matrix": np.eye(2).tolist(), "offset": [0.0, 0.0]},
            "1": {"matrix": (2 * np.eye(2)).tolist(), "offset": [0.0, 0.0]},
        }}
        val = value(PotentialTerm("class_affine_norm", params), state)
        assert val == pytest.approx(0.5 * 1.0 + 0.5 * 4.0, rel=1e-12)

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            PotentialTerm("mystery", {})

    @pytest.mark.parametrize(
        "form, params, named",
        [
            ("quadratic", {"scael": 3.0}, "scael"),
            ("radial_shell", {"center": [0.0, 0.0], "raduis": 1.0}, "raduis"),
            ("hinge", {"normal": [1.0, 0.0], "offset": 0.1}, "offset"),
            ("class_affine_norm", {"per_class": {"0": {"matrix": [[1.0]], "ofset": [0.0]}}},
             "ofset"),
            ("class_affine_norm", {"per_class": [[1.0]]}, "per_class"),
            ("quadratc", {}, "quadratc"),
        ],
    )
    def test_term_rejects_what_its_form_does_not_read(self, form, params, named):
        with pytest.raises(ValueError, match=named):
            PotentialTerm(form, params)

    @pytest.mark.parametrize(
        "form, params, named",
        [
            ("linear", {"offset": 0.1}, "normal"),
            ("hinge", {"bias": 0.1}, "normal"),
            ("affine_norm", {"offset": [0.0]}, "matrix"),
            ("class_affine_norm", {}, "per_class"),
            ("class_affine_norm", {"per_class": {"0": {"offset": [0.0]}}}, "matrix"),
        ],
        ids=["linear", "hinge", "affine_norm", "class_affine_norm", "class_entry"],
    )
    def test_term_requires_the_keys_its_form_needs(self, form, params, named):
        with pytest.raises(ValueError, match=f"missing a required argument: {named!r}"):
            PotentialTerm(form, params)

    def test_shape_mismatch_rejected(self):
        state = circle_state(4)  # 2-D features
        with pytest.raises(ValueError):
            value(PotentialTerm("linear", {"normal": [1.0, 2.0, 3.0]}), state)
        with pytest.raises(ValueError):
            value(PotentialTerm("quadratic", {"center": [0.0]}), state)

    @pytest.mark.parametrize(
        "form, params, named",
        [
            ("linear", {"normal": 3.0}, "'normal' has dimension 0, expected 2"),
            ("hinge", {"normal": 1.0}, "'normal' has dimension 0, expected 2"),
            ("quadratic", {"center": 0.5}, "'center' has dimension 0, expected 2"),
            ("radial_shell", {"center": 0.5}, "'center' has dimension 0, expected 2"),
            ("affine_norm", {"matrix": 2.0}, "'matrix' has dimension 1, expected 2"),
        ],
    )
    def test_scalar_for_a_vector_fails_the_dimension_check(self, form, params, named):
        with pytest.raises(ValueError, match=named):
            value(PotentialTerm(form, params), circle_state(4))

    def test_params_bind_once_at_construction(self, monkeypatch):
        term = PotentialTerm("radial_shell", {"center": [0.5, 0.0], "radius": 1})
        assert term._bound["center"].dtype == float and term.params["center"] == [0.5, 0.0]
        monkeypatch.setattr(functionals, "signature", None)
        assert value(term, circle_state(4)) == pytest.approx(np.mean(
            [max(0.0, np.linalg.norm(x - [0.5, 0.0]) - 1) for x in circle_state(4).features]))


class TestInteraction:
    def test_unknown_form_rejected_when_built(self):
        with pytest.raises(ValueError, match="repulsoin"):
            InteractionTerm("class_repulsoin")
        with pytest.raises(ValueError, match="mystery"):
            InteractionTerm("mystery")

    def test_single_class_repulsion_zero(self):
        rng = np.random.default_rng(1)
        state = rand_state(rng, 12, 1, 2)
        assert value(InteractionTerm("class_repulsion"), state) == 0.0

    def test_two_particle_value(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0]])
        state = DatasetState.from_features(feats, [0, 1])
        val = value(InteractionTerm("class_repulsion"), state)
        # 0.5 * 2 * p0 * p1 * exp(-r^2), r = 1
        assert val == pytest.approx(0.25 * np.exp(-1.0), rel=1e-12)

    def test_brute_force_double_loop(self):
        rng = np.random.default_rng(2)
        state = rand_state(rng, 30, 2, 2)
        for form, w in [
            ("class_repulsion", lambda u: np.exp(-np.sum(u**2))),
            ("cross_class_spread", lambda u: -np.sum(u**2)),
        ]:
            val = value(InteractionTerm(form), state)
            direct = 0.0
            for i in range(state.n):
                for j in range(state.n):
                    if state.labels[i] != state.labels[j]:
                        direct += 0.5 * state.weights[i] * state.weights[j] * w(
                            state.features[i] - state.features[j]
                        )
            assert val == pytest.approx(direct, rel=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        state = rand_state(rng, 15, 3, 2)
        perm = rng.permutation(15)
        shuffled = DatasetState.from_features(state.features[perm], state.labels[perm])
        assert value(InteractionTerm("class_repulsion"), state) == pytest.approx(
            value(InteractionTerm("class_repulsion"), shuffled), rel=1e-10
        )

    def test_value_drops_as_cross_pair_separates(self):
        feats = np.array([[0.0, 0.0], [0.5, 0.0], [3.0, 3.0]])
        state = DatasetState.from_features(feats, [0, 1, 0])
        base = value(InteractionTerm("class_repulsion"), state)
        moved = state.copy()
        moved.features[1, 0] += 0.5  # move along the connecting line
        assert value(InteractionTerm("class_repulsion"), moved) < base


class TestGradFunctional:
    def test_quadratic_gradient(self):
        rng = np.random.default_rng(3)
        state = rand_state(rng, 10, 2, 2)
        spec = FunctionalSpec([PotentialTerm("quadratic", {"scale": 2.0})])
        terms, grads = grad_functional(state, spec, MODE_FD)
        value = sum(terms)
        np.testing.assert_allclose(grads.d_features, 2.0 * state.features, atol=1e-12)
        assert value == pytest.approx(float(state.weights @ np.sum(state.features**2, axis=1)))

    def test_zero_weights_zero_everything(self):
        rng = np.random.default_rng(4)
        state = rand_state(rng, 8, 2, 2)
        tgt = rand_state(rng, 8, 2, 2)
        spec = FunctionalSpec([
            TargetDistanceTerm(tgt, weight=0.0),
            PotentialTerm("quadratic", weight=0.0),
        ])
        terms, grads = grad_functional(state, spec, MODE_FD)
        value = sum(terms)
        assert value == 0.0
        assert np.all(grads.d_features == 0.0)

    def test_linearity_of_weighted_sum(self):
        rng = np.random.default_rng(5)
        state = rand_state(rng, 12, 2, 2)
        t1 = PotentialTerm("quadratic", {"scale": 1.0}, weight=0.7)
        t2 = InteractionTerm("class_repulsion", weight=1.3)
        terms, g1 = grad_functional(state, FunctionalSpec([t1]), MODE_FD)
        v1 = sum(terms)
        terms, g2 = grad_functional(state, FunctionalSpec([t2]), MODE_FD)
        v2 = sum(terms)
        terms, g = grad_functional(state, FunctionalSpec([t1, t2]), MODE_FD)
        v = sum(terms)
        assert v == pytest.approx(v1 + v2, abs=1e-12)
        np.testing.assert_allclose(g.d_features, g1.d_features + g2.d_features, atol=1e-12)

    def test_entropy_term_reports_zero(self):
        rng = np.random.default_rng(6)
        state = rand_state(rng, 6, 2, 2)
        spec = FunctionalSpec([EntropyTerm(weight=2.0)])
        terms, grads = grad_functional(state, spec, MODE_FD)
        value = sum(terms)
        assert value == 0.0
        assert np.all(grads.d_features == 0.0)
        assert spec.entropy_weight() == 2.0

    @pytest.mark.parametrize(
        "form,params",
        [
            ("quadratic", {"scale": 1.5, "center": [0.3, -0.2]}),
            ("linear", {"normal": [0.5, -1.0], "offset": 0.2}),
            ("affine_norm", {"matrix": [[1.0, 0.2], [0.0, 0.8]], "offset": [0.4, -0.1]}),
            ("radial_shell", {"center": [0.0, 0.0], "radius": 0.8}),
            ("hinge", {"normal": [1.0, -0.5], "bias": 0.1, "positive_label": 1}),
        ],
    )
    def test_potential_grads_match_fd(self, form, params):
        rng = np.random.default_rng(7)
        state = rand_state(rng, 9, 2, 2)
        spec = FunctionalSpec([PotentialTerm(form, params)])
        _, grads = grad_functional(state, spec, MODE_FD)
        h = 1e-6
        for i, l in [(0, 0), (4, 1), (8, 0)]:
            sp = state.copy(); sp.features[i, l] += h
            sm = state.copy(); sm.features[i, l] -= h
            vp = sum(grad_functional(sp, spec, MODE_FD)[0])
            vm = sum(grad_functional(sm, spec, MODE_FD)[0])
            fd = (vp - vm) / (2 * h)
            analytic = grads.d_features[i, l] * state.weights[i]
            assert abs(fd - analytic) <= 1e-4 * max(abs(fd), 1.0)

    def test_interaction_grads_match_fd(self):
        rng = np.random.default_rng(8)
        state = rand_state(rng, 10, 2, 2)
        for form in ("class_repulsion", "cross_class_spread"):
            spec = FunctionalSpec([InteractionTerm(form)])
            _, grads = grad_functional(state, spec, MODE_FD)
            h = 1e-6
            for i, l in [(0, 0), (5, 1)]:
                sp = state.copy(); sp.features[i, l] += h
                sm = state.copy(); sm.features[i, l] -= h
                vp = sum(grad_functional(sp, spec, MODE_FD)[0])
                vm = sum(grad_functional(sm, spec, MODE_FD)[0])
                fd = (vp - vm) / (2 * h)
                analytic = grads.d_features[i, l] * state.weights[i]
                assert abs(fd - analytic) <= 1e-4 * max(abs(fd), 1e-3)

    # w'(||u||^2) of each form: W(u) = w(||u||^2) on cross-class pairs.
    SLOPES = {
        "class_repulsion": lambda s: -np.exp(-s),
        "cross_class_spread": lambda s: -1.0,
    }

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("form", sorted(SLOPES))
    def test_interaction_grads_match_double_loop(self, form, d):
        # grad_i = sum_j p_j w'(||x_i - x_j||^2) 2 (x_i - x_j) over j of another class.
        rng = np.random.default_rng(20 + d)
        state = rand_state(rng, 11, 3, d, spread=1.0)
        _, grads = InteractionTerm(form).value_and_grads(state, MODE_FD)
        x, y, p = state.features, state.labels, state.weights
        expected = np.zeros_like(x)
        for i in range(state.n):
            for j in range(state.n):
                if y[i] != y[j]:
                    u = x[i] - x[j]
                    expected[i] += p[j] * self.SLOPES[form](u @ u) * 2.0 * u
        np.testing.assert_allclose(grads.d_features, expected, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("form", sorted(SLOPES))
    def test_interaction_grads_vanish_in_one_class(self, form):
        state = rand_state(np.random.default_rng(24), 9, 1, 2)
        _, grads = InteractionTerm(form).value_and_grads(state, MODE_FD)
        assert np.all(grads.d_features == 0.0)

    def test_value_is_sum_of_term_values(self):
        # A step's objective is the sum of grad_functional's term values;
        # eval_terms gives the same values in fd, for states no step evaluates.
        rng = np.random.default_rng(25)
        state = rand_state(rng, 10, 2, 2)
        spec = FunctionalSpec([
            TargetDistanceTerm(rand_state(rng, 12, 3, 2), weight=0.8),
            PotentialTerm("radial_shell", {"radius": 1.0}, weight=0.5),
            InteractionTerm("class_repulsion", weight=1.5),
            EntropyTerm(weight=0.1),
        ])
        spec.reset()
        value = sum(grad_functional(state, spec, MODE_FD)[0])
        spec.reset()
        assert value == sum(eval_terms(state, spec))

    def test_composite_with_target_matches_fd(self):
        rng = np.random.default_rng(9)
        state = rand_state(rng, 8, 2, 2)
        tgt = rand_state(rng, 9, 2, 2)
        term = TargetDistanceTerm(tgt, tol=1e-9, max_iter=300_000)
        spec = FunctionalSpec([term, InteractionTerm("class_repulsion", weight=0.5)])
        terms, grads = grad_functional(state, spec, MODE_FD)
        value = sum(terms)
        h = 1e-5
        scale = float(np.abs(grads.d_features).max()) * state.weights[0]
        for i, l in [(1, 0), (6, 1)]:
            sp = state.copy(); sp.features[i, l] += h
            sm = state.copy(); sm.features[i, l] -= h
            vp = sum(grad_functional(sp, spec, MODE_FD)[0])
            vm = sum(grad_functional(sm, spec, MODE_FD)[0])
            fd = (vp - vm) / (2 * h)
            analytic = grads.d_features[i, l] * state.weights[i]
            assert abs(fd - analytic) / max(abs(fd), scale) < 1e-3

    @pytest.mark.parametrize("mode", [MODE_FD, MODE_JD_FL])
    def test_sqrt_variant_chain_rule(self, mode):
        rng = np.random.default_rng(10)
        state = rand_state(rng, 8, 2, 2)
        tgt = rand_state(rng, 8, 2, 2)
        sq = TargetDistanceTerm(tgt, squared=True)
        rt = TargetDistanceTerm(tgt, squared=False)
        v_sq, g_sq = sq.value_and_grads(state, mode)
        v_rt, g_rt = rt.value_and_grads(state, mode)
        assert v_rt == pytest.approx(np.sqrt(v_sq), rel=1e-9)
        # Every block, moments included in jd-fl, scales by one factor.
        assert (g_rt.d_means is None) == (mode == MODE_FD)
        for block in ("d_features", "d_means", "d_covs"):
            if getattr(g_sq, block) is not None:
                np.testing.assert_allclose(
                    getattr(g_rt, block), getattr(g_sq, block) / (2 * v_rt), atol=1e-9
                )

    def test_spec_requires_terms(self):
        with pytest.raises(ValueError):
            FunctionalSpec([])

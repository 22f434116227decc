import numpy as np
import pytest

import otflow.dynamics as dynamics
from helpers import rand_state
from otflow.datagen import GeneratorSpec, generate
from otflow.dynamics import FlowConfig, flow_step, run_flow
from otflow.errors import DimensionMismatchError, FlowDivergenceError, NumericError
from otflow.functionals import (
    EntropyTerm,
    FunctionalSpec,
    PotentialTerm,
    TargetDistanceTerm,
    eval_terms,
)
from otflow.optim import OptimizerState
from otflow.otdd import MODE_FD, MODE_JD_FL, MODE_JD_VL, DatasetState


def quadratic_spec(scale=1.0):
    return FunctionalSpec([PotentialTerm("quadratic", {"scale": scale})])


def sgd(tau):
    return OptimizerState(rule="sgd", step_size=tau)


class TestFlowStep:
    def test_zero_functional_is_identity(self):
        rng = np.random.default_rng(0)
        state = rand_state(rng, 8, 2, 2)
        config = FlowConfig(
            functional=FunctionalSpec([PotentialTerm("quadratic", weight=0.0)]),
            optimizer=sgd(0.1),
        )
        new, diag = flow_step(state, config, config.optimizer.clone(), np.random.default_rng(0))
        np.testing.assert_allclose(new.features, state.features, atol=1e-15)
        assert diag["objective"] == 0.0

    def test_quadratic_scales_by_one_minus_tau(self):
        rng = np.random.default_rng(1)
        state = rand_state(rng, 10, 2, 2)
        config = FlowConfig(functional=quadratic_spec(), optimizer=sgd(0.2))
        opt = config.optimizer.clone()
        new, _ = flow_step(state, config, opt, np.random.default_rng(0))
        np.testing.assert_allclose(new.features, 0.8 * state.features, atol=1e-12)

    def test_fd_refreshes_stats(self):
        rng = np.random.default_rng(2)
        state = rand_state(rng, 12, 2, 2)
        config = FlowConfig(functional=quadratic_spec(), optimizer=sgd(0.1), mode=MODE_FD)
        new, _ = flow_step(state, config, config.optimizer.clone(), np.random.default_rng(0))
        expected = DatasetState.from_features(new.features, new.labels).label_dists
        np.testing.assert_allclose(new.label_dists.means, expected.means, atol=1e-9)
        np.testing.assert_allclose(new.label_dists.covs, expected.covs, atol=1e-9)

    def test_passes_term_values_only_at_the_state(self):
        rng = np.random.default_rng(13)
        state = rand_state(rng, 10, 2, 2)
        spec = FunctionalSpec([
            PotentialTerm("quadratic"), PotentialTerm("linear", {"normal": [1.0, 0.0]}, weight=0.0),
        ])
        config = FlowConfig(functional=spec, optimizer=sgd(0.1))
        _, diag = flow_step(state, config, config.optimizer.clone(), np.random.default_rng(0))
        assert diag["term_values"] == eval_terms(state, spec)
        assert diag["term_values"][1] == 0.0
        assert diag["objective"] == sum(diag["term_values"])
        config.noise_scale = 0.5
        _, diag = flow_step(state, config, config.optimizer.clone(), np.random.default_rng(0))
        assert diag["term_values"] is None

    def test_mode_shape_mismatch(self):
        rng = np.random.default_rng(3)
        state = rand_state(rng, 6, 2, 2)
        config = FlowConfig(functional=quadratic_spec(), optimizer=sgd(0.1), mode=MODE_JD_VL)
        with pytest.raises(DimensionMismatchError):
            flow_step(state, config, config.optimizer.clone(), np.random.default_rng(0))


class TestRunFlow:
    def test_t1_gives_two_snapshots(self):
        rng = np.random.default_rng(4)
        state = rand_state(rng, 6, 2, 2)
        config = FlowConfig(functional=quadratic_spec(), optimizer=sgd(0.1), steps=1)
        traj = run_flow(state, config)
        assert [s.step for s in traj.snapshots] == [0, 1]
        assert len(traj.objective_trace) == 2

    def test_weights_of_another_length_fail_validation(self):
        rng = np.random.default_rng(4)
        state = rand_state(rng, 10, 2, 2)
        state.weights = np.full(11, 1.0 / 11)
        config = FlowConfig(functional=quadratic_spec(), optimizer=sgd(0.1), steps=1)
        with pytest.raises(DimensionMismatchError):
            run_flow(state, config)

    def test_records_first_and_last(self):
        rng = np.random.default_rng(5)
        state = rand_state(rng, 6, 2, 2)
        config = FlowConfig(
            functional=quadratic_spec(), optimizer=sgd(0.05), steps=7, record_every=3
        )
        traj = run_flow(state, config)
        assert [s.step for s in traj.snapshots] == [0, 3, 6, 7]

    @pytest.mark.parametrize("mode", [MODE_FD, MODE_JD_FL, MODE_JD_VL])
    def test_snapshot_objective_is_its_steps_objective(self, mode):
        src = generate(GeneratorSpec(n=24, k=3, seed=3, sigma=0.4))
        tgt = generate(GeneratorSpec(n=30, k=3, seed=4, radius=4.0, sigma=0.4))
        spec = FunctionalSpec([
            TargetDistanceTerm(tgt), PotentialTerm("radial_shell", {"radius": 2.0}, weight=0.5),
        ])
        config = FlowConfig(
            functional=spec, optimizer=sgd(0.1), steps=12, mode=mode, record_every=3,
            relabel_every=4, cluster_eps=1.5,
        )
        traj = run_flow(src, config)
        assert [s.step for s in traj.snapshots] == [0, 3, 6, 9, 12]
        for snap in traj.snapshots:
            assert snap.objective == traj.objective_trace[snap.step]
            assert snap.objective == sum(snap.term_values)

    def test_deterministic_traces(self):
        rng = np.random.default_rng(6)
        state = rand_state(rng, 10, 2, 2)
        for noise in (0.0, 0.3):
            config = FlowConfig(
                functional=quadratic_spec(),
                optimizer=sgd(0.05),
                steps=20,
                noise_scale=noise,
                seed=42,
            )
            t1 = run_flow(state, config)
            t2 = run_flow(state, config)
            assert t1.objective_trace == t2.objective_trace
            np.testing.assert_array_equal(
                t1.snapshots[-1].state.features, t2.snapshots[-1].state.features
            )

    def test_mass_conservation_all_modes(self):
        rng = np.random.default_rng(7)
        src = rand_state(rng, 12, 3, 2)
        tgt = rand_state(rng, 12, 3, 2)
        for mode in (MODE_FD, MODE_JD_FL, MODE_JD_VL):
            spec = FunctionalSpec([TargetDistanceTerm(tgt)])
            config = FlowConfig(
                functional=spec, optimizer=sgd(0.05), steps=5, mode=mode, relabel_every=2,
                cluster_eps=1.0,
            )
            traj = run_flow(src, config)
            for snap in traj.snapshots:
                assert snap.state.n == src.n
                np.testing.assert_allclose(snap.state.weights, src.weights, atol=1e-15)

    def test_labels_fixed_in_fd_and_jdfl(self):
        rng = np.random.default_rng(8)
        src = rand_state(rng, 10, 2, 2)
        tgt = rand_state(rng, 10, 3, 2)
        for mode in (MODE_FD, MODE_JD_FL):
            spec = FunctionalSpec([TargetDistanceTerm(tgt)])
            config = FlowConfig(functional=spec, optimizer=sgd(0.05), steps=6, mode=mode)
            traj = run_flow(src, config)
            for snap in traj.snapshots:
                np.testing.assert_array_equal(snap.state.labels, src.labels)
                assert len(snap.state.label_dists) == len(src.class_ids())
                np.testing.assert_array_equal(snap.state.block, src.block)

    def test_jdfl_moments_move_only_by_gradient_steps(self):
        # under a pure feature potential the jd-fl moment blocks get zero
        # gradients and must stay frozen, while fd re-estimates them
        rng = np.random.default_rng(20)
        src = rand_state(rng, 12, 2, 2)
        for mode, should_move in ((MODE_JD_FL, False), (MODE_FD, True)):
            config = FlowConfig(functional=quadratic_spec(), optimizer=sgd(0.1),
                                steps=5, mode=mode)
            traj = run_flow(src, config)
            final = traj.snapshots[-1].state
            moved = any(
                not np.allclose(final.label_dists.means[c], src.label_dists.means[c])
                for c in src.class_ids()
            )
            assert moved == should_move

    def test_jdvl_kmeans_relabeling(self):
        src = generate(GeneratorSpec(n=30, k=2, seed=2, radius=2.0, sigma=0.3))
        tgt = generate(GeneratorSpec(n=40, k=3, seed=3, radius=5.0, sigma=0.3))
        spec = FunctionalSpec([TargetDistanceTerm(tgt)])
        config = FlowConfig(
            functional=spec, optimizer=sgd(0.2), steps=40, mode=MODE_JD_VL,
            relabel_every=10, relabel_method="kmeans", cluster_k=3, seed=4,
        )
        traj = run_flow(src, config)
        final = traj.snapshots[-1].state
        assert len(set(final.labels.tolist())) == 3

    def test_jdvl_decouples_and_can_relabel(self):
        src = generate(GeneratorSpec(n=30, k=2, seed=0, radius=2.0, sigma=0.3))
        tgt = generate(GeneratorSpec(n=40, k=4, seed=1, radius=5.0, sigma=0.3))
        spec = FunctionalSpec([TargetDistanceTerm(tgt)])
        config = FlowConfig(
            functional=spec,
            optimizer=sgd(0.3),
            steps=30,
            mode=MODE_JD_VL,
            relabel_every=10,
            cluster_eps=1.5,
            cluster_min_pts=3,
            seed=5,
        )
        traj = run_flow(src, config)
        final = traj.snapshots[-1].state
        assert final.per_particle
        assert len(final.label_dists) == src.n

    def test_noise_perturbs_evaluation_point_only(self):
        rng = np.random.default_rng(9)
        state = rand_state(rng, 8, 2, 2)
        # zero functional: eval-point noise must leave the state untouched
        spec = FunctionalSpec([PotentialTerm("quadratic", weight=0.0)])
        config = FlowConfig(
            functional=spec, optimizer=sgd(0.1), steps=3, noise_scale=1.0, seed=1
        )
        traj = run_flow(state, config)
        np.testing.assert_allclose(
            traj.snapshots[-1].state.features, state.features, atol=1e-15
        )

    def test_noise_state_mode_moves_state(self):
        rng = np.random.default_rng(10)
        state = rand_state(rng, 8, 2, 2)
        spec = FunctionalSpec([PotentialTerm("quadratic", weight=0.0)])
        config = FlowConfig(
            functional=spec, optimizer=sgd(0.1), steps=3, noise_scale=1.0,
            noise_target="state", seed=1,
        )
        traj = run_flow(state, config)
        assert not np.allclose(traj.snapshots[-1].state.features, state.features)

    def test_noise_schedule_decays(self):
        config = FlowConfig(
            functional=quadratic_spec(), optimizer=sgd(0.1), noise_scale=2.0
        )
        assert config.beta(0) == pytest.approx(2.0)
        assert config.beta(3) == pytest.approx(1.0)
        config.noise_schedule = "constant"
        assert config.beta(3) == pytest.approx(2.0)

    def test_entropy_noise_moves_particles(self):
        rng = np.random.default_rng(11)
        state = rand_state(rng, 20, 1, 2)
        spec = FunctionalSpec([EntropyTerm(weight=1.0)])
        config = FlowConfig(functional=spec, optimizer=sgd(1e-2), steps=10, seed=2)
        traj = run_flow(state, config)
        moved = traj.snapshots[-1].state.features - state.features
        # Euler-Maruyama increments: std ~ sqrt(2 * tau * steps)
        expected = np.sqrt(2 * 1e-2 * 10)
        assert 0.3 * expected < moved.std() < 3 * expected

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_carries_partial_trajectory(self):
        rng = np.random.default_rng(12)
        state = rand_state(rng, 6, 2, 2)
        # exploding quadratic: tau too large makes the state blow up to inf
        config = FlowConfig(
            functional=quadratic_spec(scale=1e200), optimizer=sgd(1e200), steps=50,
            record_every=1,
        )
        with pytest.raises(FlowDivergenceError) as exc:
            run_flow(state, config)
        assert exc.value.trajectory is not None
        # The diverging step records its starting state too.
        steps = [s.step for s in exc.value.trajectory.snapshots]
        assert steps == list(range(exc.value.step + 1))

    def test_numeric_error_in_a_step_ends_the_run_as_a_divergence(self, monkeypatch):
        state = rand_state(np.random.default_rng(12), 6, 2, 2)
        config = FlowConfig(functional=quadratic_spec(), optimizer=sgd(0.1), steps=5,
                            record_every=1)
        grad = dynamics.grad_functional

        def failing(current, spec, mode):
            if len(calls) == 2:
                raise NumericError("bures gradient needs a positive definite covariance")
            calls.append(current)
            return grad(current, spec, mode)

        calls = []
        monkeypatch.setattr(dynamics, "grad_functional", failing)
        with pytest.raises(FlowDivergenceError, match="diverged at step 2: bures") as exc:
            run_flow(state, config)
        assert isinstance(exc.value.__cause__, NumericError)
        # The failing step's start still evaluates, so it is recorded too.
        assert [s.step for s in exc.value.trajectory.snapshots] == [0, 1, 2]

    def test_objective_mostly_nonincreasing_with_sgd(self):
        src = generate(GeneratorSpec(n=40, k=3, seed=3, sigma=0.4))
        tgt = generate(GeneratorSpec(n=40, k=3, seed=4, sigma=0.4))
        spec = FunctionalSpec([TargetDistanceTerm(tgt)])
        config = FlowConfig(functional=spec, optimizer=sgd(0.05), steps=60, mode=MODE_FD)
        traj = run_flow(src, config)
        trace = np.array(traj.objective_trace)
        drops = np.sum(trace[1:] <= trace[:-1] + 1e-10 * max(trace[0], 1.0))
        assert drops / (len(trace) - 1) >= 0.95

    def test_config_validation(self):
        spec = quadratic_spec()
        with pytest.raises(ValueError):
            FlowConfig(functional=spec, optimizer=sgd(0.1), steps=0).validate()
        with pytest.raises(ValueError):
            FlowConfig(functional=spec, optimizer=sgd(0.1), noise_scale=-1.0).validate()
        with pytest.raises(ValueError):
            FlowConfig(functional=spec, optimizer=sgd(0.1), mode="warp").validate()
        with pytest.raises(ValueError):
            FlowConfig(
                functional=spec, optimizer=sgd(0.1), relabel_method="kmeans"
            ).validate()
        for k in (0, -2):
            with pytest.raises(ValueError, match="cluster_k"):
                FlowConfig(
                    functional=spec, optimizer=sgd(0.1), relabel_method="kmeans", cluster_k=k
                ).validate()

    def test_kmeans_cluster_count_bounded_by_particles(self, monkeypatch):
        spec = quadratic_spec()
        state = rand_state(np.random.default_rng(0), 20, 2, 2)
        config = FlowConfig(
            functional=spec, optimizer=sgd(0.1), mode=MODE_JD_VL, steps=4, relabel_every=2,
            relabel_method="kmeans", cluster_k=21,
        )
        steps = []
        monkeypatch.setattr(dynamics, "flow_step", lambda *args: steps.append(args))
        with pytest.raises(ValueError, match="cluster_k 21 exceeds the 20 particles"):
            run_flow(state, config)
        assert steps == []
        config.cluster_k = 20
        config.validate(state.n)

    def test_entropy_needs_sgd_rule(self):
        spec = FunctionalSpec([EntropyTerm(weight=1.0), PotentialTerm("quadratic")])
        FlowConfig(functional=spec, optimizer=sgd(0.1)).validate()
        for rule in ("momentum", "adam", "adagrad"):
            config = FlowConfig(functional=spec, optimizer=OptimizerState(rule=rule))
            with pytest.raises(ValueError, match="sgd"):
                config.validate()
            with pytest.raises(ValueError, match="sgd"):
                run_flow(rand_state(np.random.default_rng(0), 6, 2, 2), config)


class TestSolverStatePerRun:
    """A run is a pure function of (source, config): the target term's
    frozen reg, warm duals and target self-value never carry over."""

    @staticmethod
    def config(target, mode=MODE_FD):
        spec = FunctionalSpec([TargetDistanceTerm(target)])
        return FlowConfig(functional=spec, optimizer=sgd(0.05), steps=20, mode=mode)

    @pytest.mark.parametrize("mode", [MODE_FD, MODE_JD_VL])
    def test_rerun_is_byte_identical(self, mode):
        src = generate(GeneratorSpec(n=30, k=3, seed=3, sigma=0.4))
        tgt = generate(GeneratorSpec(n=40, k=3, seed=4, radius=5.0, sigma=0.4))
        config = self.config(tgt, mode)
        first = run_flow(src, config)
        second = run_flow(src, config)
        assert first.objective_trace == second.objective_trace
        np.testing.assert_array_equal(first.final.state.features, second.final.state.features)
        assert config.functional.terms[0].reg is None

    def test_prior_run_on_other_source_changes_nothing(self):
        src = generate(GeneratorSpec(n=30, k=3, seed=3, sigma=0.4))
        other = generate(GeneratorSpec(n=25, k=2, seed=8, radius=0.5, sigma=1.5))
        tgt = generate(GeneratorSpec(n=40, k=3, seed=4, radius=5.0, sigma=0.4))
        config = self.config(tgt)
        run_flow(other, config)
        after = run_flow(src, config)
        fresh = run_flow(src, self.config(tgt))
        assert after.objective_trace == fresh.objective_trace
        np.testing.assert_array_equal(after.final.state.features, fresh.final.state.features)

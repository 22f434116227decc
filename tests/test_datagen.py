import numpy as np
import pytest

from otflow.datagen import GeneratorSpec, generate, swiss_roll_arc_length
from otflow.errors import ConfigError


class TestGaussianMixture:
    def test_deterministic_per_seed(self):
        a = generate(GeneratorSpec(n=100, k=3, seed=42))
        b = generate(GeneratorSpec(n=100, k=3, seed=42))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_tiny_sigma_collapses_to_means(self):
        spec = GeneratorSpec(n=20, k=1, sigma=1e-9, seed=0)
        state = generate(spec)
        assert np.abs(state.features - state.features[0]).max() < 1e-6

    def test_class_means_near_spec(self):
        spec = GeneratorSpec(n=500, k=5, seed=1, radius=4.0, sigma=0.5)
        state = generate(spec)
        angles = 2 * np.pi * np.arange(5) / 5
        expected = 4.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        for c in range(5):
            pts = state.features[state.labels == c]
            # 3 sigma / sqrt(n_c) tolerance
            tol = 3 * 0.5 / np.sqrt(len(pts))
            assert np.abs(pts.mean(axis=0) - expected[c]).max() < 3 * tol

    def test_explicit_means(self):
        means = [[0.0, 0.0], [10.0, 0.0]]
        state = generate(GeneratorSpec(n=50, k=2, means=means, sigma=0.1, seed=2))
        for c, m in enumerate(means):
            pts = state.features[state.labels == c]
            assert np.abs(pts.mean(axis=0) - m).max() < 0.2

    def test_balanced_proportions(self):
        state = generate(GeneratorSpec(n=101, k=4, seed=3))
        counts = np.bincount(state.labels)
        assert counts.max() - counts.min() <= 1

    def test_uniform_weights_and_stats(self):
        state = generate(GeneratorSpec(n=40, k=2, seed=4))
        np.testing.assert_allclose(state.weights, 1.0 / 40)
        assert len(state.label_dists) == 2
        np.testing.assert_array_equal(state.block, state.labels)


class TestSwissRoll:
    def test_points_on_spiral_surface(self):
        spec = GeneratorSpec(kind="swiss-roll", n=200, k=4, dim=3, noise=0.0, seed=5)
        state = generate(spec)
        x, z = state.features[:, 0], state.features[:, 2]
        t = np.hypot(x, z)
        # (x, z) = (t cos t, t sin t): angle recovers t modulo 2 pi
        angle = np.arctan2(z, x)
        assert np.abs(np.cos(angle) - np.cos(t)).max() < 1e-9
        assert np.abs(np.sin(angle) - np.sin(t)).max() < 1e-9

    def test_labels_by_arc_length_quantile(self):
        spec = GeneratorSpec(kind="swiss-roll", n=400, k=4, dim=2, noise=0.0, seed=6)
        state = generate(spec)
        t = np.hypot(state.features[:, 0], state.features[:, 1])
        s = swiss_roll_arc_length(t)
        for c in range(3):
            assert s[state.labels == c].max() <= s[state.labels == c + 1].min() + 1e-9

    def test_balanced_classes(self):
        state = generate(GeneratorSpec(kind="swiss-roll", n=200, k=4, dim=3, seed=7))
        counts = np.bincount(state.labels)
        assert counts.max() - counts.min() <= 1


class TestMoonsAndRings:
    def test_moons_two_classes(self):
        state = generate(GeneratorSpec(kind="moons", n=80, k=2, seed=8, noise=0.02))
        assert set(state.labels.tolist()) == {0, 1}
        assert state.dim == 2

    def test_moons_rejects_other_k(self):
        with pytest.raises(ConfigError):
            generate(GeneratorSpec(kind="moons", n=50, k=3))

    def test_rings_radii(self):
        state = generate(GeneratorSpec(kind="rings", n=300, k=3, radius=6.0, noise=0.0, seed=9))
        r = np.linalg.norm(state.features, axis=1)
        for c, expected in zip(range(3), (2.0, 4.0, 6.0)):
            np.testing.assert_allclose(r[state.labels == c], expected, atol=1e-9)

    def test_padded_dimensions(self):
        state = generate(GeneratorSpec(kind="rings", n=30, k=2, dim=4, seed=10))
        assert state.dim == 4
        np.testing.assert_allclose(state.features[:, 2:], 0.0, atol=1e-12)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            generate(GeneratorSpec(kind="torus", n=10, k=2))

    def test_n_less_than_k(self):
        with pytest.raises(ConfigError):
            generate(GeneratorSpec(n=2, k=5))

    def test_no_extra_knob(self):
        with pytest.raises(TypeError, match="extra"):
            GeneratorSpec(n=10, k=2, extra={"twist": 1.0})

    def test_bad_geometry(self):
        with pytest.raises(ConfigError):
            generate(GeneratorSpec(n=10, k=2, sigma=-1.0))

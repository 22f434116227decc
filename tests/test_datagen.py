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


# Each kind with every param away from its default, and the features and
# labels it gave before the kinds became functions (recorded at full precision).
RECORDED = [
    (
        dict(kind="gaussian-mixture", n=6, k=2, dim=3, seed=1, sigma=0.3, radius=2.5),
        [[2.7716067600019354, 0.1339123717092034, -0.16108597060808555],
         [2.674335431258906, 0.10937171885582271, 0.08823974899665779],
         [2.5085266723947393, 0.1640138959837341, -0.22093622610050007],
         [-2.548872984397916, -0.14463579380399316, 0.17965386379038825],
         [-2.488083367755502, -0.08773702528952627, -0.2345725387070526],
         [-2.577157672185661, 0.0024426541555033583, -0.08268087158981112]],
        [0, 0, 0, 1, 1, 1],
    ),
    (
        dict(kind="gaussian-mixture", n=6, k=2, dim=3, seed=2, sigma=0.2,
             means=[[1.0, 0.0, -1.0], [0.0, 2.0, 0.5]]),
        [[-0.48829347652797117, 2.35994147654418, 0.7288331744074458],
         [-0.06508456737356487, 2.1547613173455322, 0.5562421339595298],
         [0.8892354327151895, 0.19551349022520714, -1.0621113093318306],
         [0.9342352191884075, -0.15842935107177966, -0.909008385751829],
         [0.9801603896565224, 0.10905774279293634, -1.1214371399741274],
         [0.025365569422373974, 1.821545191314042, 0.6682929944740286]],
        [1, 1, 0, 0, 0, 1],
    ),
    (
        dict(kind="swiss-roll", n=6, k=3, dim=3, seed=3, noise=0.2, radius=1.5),
        [[3.930948950913177, 1.3035446252007121, -4.027876521609021],
         [5.403118846415246, 0.5756058216125929, 4.215919331498905],
         [11.900200357999406, 2.1637710284143274, -3.6446289965688488],
         [-6.98188714500346, 0.4500371643017391, -7.232873309254804],
         [4.304577074255881, 1.2817895978379465, -3.149817619427187],
         [-7.15876673123374, 1.50150881204827, 5.38357868240104]],
        [0, 1, 2, 2, 0, 1],
    ),
    (
        dict(kind="moons", n=6, k=2, dim=3, seed=4, noise=0.1, radius=2.0),
        [[2.6853591351876913, -0.7297616685777575, 0.0],
         [0.7883935679671833, 1.902368016250315, 0.0],
         [-1.7743382228160418, 1.3911582832340863, 0.0],
         [0.10160683380679084, 0.06771383373728271, 0.0],
         [-1.8725560066429268, 0.6967910075711571, 0.0],
         [2.209587397753144, -1.048175018879294, 0.0]],
        [1, 0, 0, 1, 0, 1],
    ),
    (
        dict(kind="rings", n=6, k=3, dim=3, seed=5, noise=0.2, radius=3.0),
        [[1.9408244739393834, 0.4181521185706354, 0.0],
         [-1.6782415572541207, 1.6579330325196018, 0.0],
         [-2.476870199280012, 1.2852783284915148, 0.0],
         [0.9430706099001963, 0.04800593178710455, 0.0],
         [2.7344610681199844, 0.8071512927526799, 0.0],
         [0.8573239269972668, 0.10549909547268822, 0.0]],
        [1, 1, 2, 0, 2, 0],
    ),
]


@pytest.mark.parametrize(
    "spec, features, labels", RECORDED,
    ids=["mixture-radius", "mixture-means", "swiss-roll", "moons", "rings"],
)
def test_every_param_gives_the_recorded_dataset(spec, features, labels):
    state = generate(GeneratorSpec(**spec))
    np.testing.assert_allclose(state.features, features, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(state.labels, labels)

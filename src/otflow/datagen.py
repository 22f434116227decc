"""Seeded generators for the synthetic benchmark datasets: labeled Gaussian
mixtures, the swiss roll, interleaved moons, and concentric rings. Each kind
is a function ``GENERATORS[kind](rng, n, k, dim, **params)`` that checks its
own arguments; its keyword parameters are the whole schema of its params."""

from inspect import signature

import numpy as np

from .errors import ConfigError
from .otdd import DatasetState

# Every kind's default radius; a mixture or swiss-roll radius of None stands for it.
DEFAULT_RADIUS = 4.0


def _need(ok: bool, message: str):
    if not ok:
        raise ConfigError(message)


def _balanced_labels(n: int, k: int, rng) -> np.ndarray:
    """Near-equal class counts, shuffled; avoids empty classes at any n."""
    labels = np.arange(n) % k
    rng.shuffle(labels)
    return labels


def _circle_means(k: int, dim: int, radius: float) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(k) / k
    means = np.zeros((k, dim))
    means[:, 0] = radius * np.cos(angles)
    if dim > 1:
        means[:, 1] = radius * np.sin(angles)
    return means


def _planar(kind: str, feats, rng, dim: int, noise: float, radius: float):
    """Checks dim, noise and radius; adds noise to the 2-D ``feats``, zero-padded to dim."""
    _need(dim >= 2, f"{kind} needs dim >= 2, not {dim}")
    _need(noise >= 0 and radius > 0, f"{kind} needs noise >= 0 and radius > 0")
    feats += noise * rng.standard_normal(feats.shape)
    return np.hstack([feats, np.zeros((len(feats), dim - 2))]) if dim > 2 else feats


def gaussian_mixture(
    rng, n, k, dim, *,
    means: list[list[float]] | None = None, sigma: float = 0.5, radius: float | None = None,
):
    """Isotropic classes of scale ``sigma`` around ``means`` (one row per
    class), or else around k points evenly spaced on a circle of ``radius``
    (None: DEFAULT_RADIUS) in the first two coordinates."""
    _need(dim >= 1, f"gaussian-mixture needs dim >= 1, not {dim}")
    _need(sigma >= 0, f"gaussian-mixture sigma must be >= 0, not {sigma}")
    if means is None:
        _need(radius is None or radius > 0, f"gaussian-mixture radius must be > 0, not {radius}")
        means = _circle_means(k, dim, DEFAULT_RADIUS if radius is None else radius)
    else:
        _need(radius is None, "gaussian-mixture takes means or a radius, not both")
        shape = f"means must have shape ({k}, {dim})"
        _need(all(len(row) == dim for row in means), shape)  # before numpy meets ragged rows
        means = np.asarray(means, dtype=float)
        _need(means.shape == (k, dim), shape)
    labels = _balanced_labels(n, k, rng)
    return means[labels] + sigma * rng.standard_normal((n, dim)), labels


def swiss_roll_arc_length(t: np.ndarray) -> np.ndarray:
    """Arc length of the spiral (t cos t, t sin t) from t=0."""
    return 0.5 * (t * np.sqrt(1.0 + t**2) + np.arcsinh(t))


def swiss_roll(rng, n, k, dim, *, noise: float = 0.05, radius: float | None = None):
    """The spiral (t cos t, t sin t), t uniform on [1.5 pi, 4.5 pi], in k
    equal-count classes along its arc; at dim 3 a height uniform on
    [0, 2 radius] (None: DEFAULT_RADIUS) is the middle coordinate."""
    _need(dim in (2, 3), f"swiss-roll needs dim 2 or 3, not {dim}")
    _need(dim == 3 or radius is None, "swiss-roll radius sets the height of dim 3, not dim 2")
    _need(noise >= 0, f"swiss-roll noise must be >= 0, not {noise}")
    _need(radius is None or radius > 0, f"swiss-roll radius must be > 0, not {radius}")
    t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, size=n)
    if dim == 3:
        height = rng.uniform(0.0, 2.0 * (DEFAULT_RADIUS if radius is None else radius), size=n)
        feats = np.stack([t * np.cos(t), height, t * np.sin(t)], axis=1)
    else:
        feats = np.stack([t * np.cos(t), t * np.sin(t)], axis=1)
    # Classes by arc-length quantile: equal-count bins along the roll.
    order = np.argsort(np.argsort(swiss_roll_arc_length(t)))
    labels = (order * k) // n
    return feats + noise * rng.standard_normal(feats.shape), labels


def moons(rng, n, k, dim, *, noise: float = 0.05, radius: float = DEFAULT_RADIUS):
    """Two interleaved half circles of ``radius`` (k is 2): class 0 on the
    upper one, class 1 on its mirror image shifted by (1, 0.5)."""
    _need(k == 2, "moons generates exactly 2 classes")
    labels = _balanced_labels(n, 2, rng)
    theta = rng.uniform(0.0, np.pi, size=n)
    arc = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    feats = np.where((labels == 0)[:, None], arc, [1.0, 0.5] - arc)
    return _planar("moons", radius * feats, rng, dim, noise, radius), labels


def rings(rng, n, k, dim, *, noise: float = 0.05, radius: float = DEFAULT_RADIUS):
    """k concentric circles, class c of radius (c + 1) radius / k."""
    labels = _balanced_labels(n, k, rng)
    radii = radius * (labels + 1.0) / k
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    feats = np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=1)
    return _planar("rings", feats, rng, dim, noise, radius), labels


GENERATORS = {f.__name__.replace("_", "-"): f for f in (gaussian_mixture, swiss_roll, moons, rings)}


class GeneratorSpec:
    """n points in k classes with dim features from ``GENERATORS[kind]`` at
    ``seed``; ``params``, that kind's keyword parameters, are bound here, so
    a key it does not take is a TypeError naming the key."""

    def __init__(self, kind: str = "gaussian-mixture", n: int = 500, k: int = 5, dim: int = 2,
                 seed: int = 0, **params):
        _need(kind in GENERATORS, f"unknown generator kind {kind!r} ({', '.join(GENERATORS)})")
        _need(n >= k >= 1, f"need n >= k >= 1 (got n={n}, k={k})")
        _need(seed >= 0, f"generator seed must be >= 0, not {seed}")
        signature(GENERATORS[kind]).bind(None, n, k, dim, **params)
        self.kind, self.n, self.k, self.dim, self.seed, self.params = kind, n, k, dim, seed, params


def generate(spec: GeneratorSpec) -> DatasetState:
    """Deterministic dataset for the given spec: uniform weights, label
    distributions initialized from the empirical per-class moments."""
    rng = np.random.default_rng(spec.seed)
    feats, labels = GENERATORS[spec.kind](rng, spec.n, spec.k, spec.dim, **spec.params)
    return DatasetState.from_features(feats, labels)

"""Seeded generators for the synthetic benchmark datasets: labeled Gaussian
mixtures, the swiss roll, interleaved moons, and concentric rings."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .otdd import DatasetState

KINDS = ("gaussian-mixture", "swiss-roll", "moons", "rings")

# Mixture defaults: class means on a circle of this radius, isotropic noise.
MIXTURE_RADIUS = 4.0
MIXTURE_SIGMA = 0.5


@dataclass
class GeneratorSpec:
    kind: str = "gaussian-mixture"
    n: int = 500
    k: int = 5
    dim: int = 2
    means: list | None = None
    sigma: float = MIXTURE_SIGMA
    radius: float = MIXTURE_RADIUS
    noise: float = 0.05
    seed: int = 0

    def validate(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        if not (self.n >= self.k >= 1):
            raise ConfigError(f"need n >= k >= 1 (got n={self.n}, k={self.k})")
        min_dim = 2 if self.kind in ("moons", "rings") else 1
        if self.dim < min_dim:
            raise ConfigError(f"{self.kind} needs dim >= {min_dim}, not {self.dim}")
        if self.kind == "moons" and self.k != 2:
            raise ConfigError("moons generates exactly 2 classes")
        if self.kind == "swiss-roll" and self.dim not in (2, 3):
            raise ConfigError("swiss-roll supports dim 2 or 3")
        if self.sigma < 0 or self.noise < 0 or self.radius <= 0:
            raise ConfigError("geometry parameters out of range")


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


def _gaussian_mixture(spec: GeneratorSpec, rng):
    if spec.means is not None:
        means = np.asarray(spec.means, dtype=float)
        if means.shape != (spec.k, spec.dim):
            raise ConfigError(f"means must have shape ({spec.k}, {spec.dim})")
    else:
        means = _circle_means(spec.k, spec.dim, spec.radius)
    labels = _balanced_labels(spec.n, spec.k, rng)
    feats = means[labels] + spec.sigma * rng.standard_normal((spec.n, spec.dim))
    return feats, labels


def swiss_roll_arc_length(t: np.ndarray) -> np.ndarray:
    """Arc length of the spiral (t cos t, t sin t) from t=0."""
    return 0.5 * (t * np.sqrt(1.0 + t**2) + np.arcsinh(t))


def _swiss_roll(spec: GeneratorSpec, rng):
    t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, size=spec.n)
    if spec.dim == 3:
        height = rng.uniform(0.0, 2.0 * spec.radius, size=spec.n)
        feats = np.stack([t * np.cos(t), height, t * np.sin(t)], axis=1)
    else:
        feats = np.stack([t * np.cos(t), t * np.sin(t)], axis=1)
    # Classes by arc-length quantile: equal-count bins along the roll.
    s = swiss_roll_arc_length(t)
    order = np.argsort(np.argsort(s))
    labels = (order * spec.k) // spec.n
    feats += spec.noise * rng.standard_normal(feats.shape)
    return feats, labels


def _moons(spec: GeneratorSpec, rng):
    labels = _balanced_labels(spec.n, 2, rng)
    theta = rng.uniform(0.0, np.pi, size=spec.n)
    feats = np.empty((spec.n, 2))
    outer = labels == 0
    feats[outer, 0] = np.cos(theta[outer])
    feats[outer, 1] = np.sin(theta[outer])
    feats[~outer, 0] = 1.0 - np.cos(theta[~outer])
    feats[~outer, 1] = 0.5 - np.sin(theta[~outer])
    feats *= spec.radius
    feats += spec.noise * rng.standard_normal(feats.shape)
    if spec.dim > 2:
        feats = np.hstack([feats, np.zeros((spec.n, spec.dim - 2))])
    return feats, labels


def _rings(spec: GeneratorSpec, rng):
    labels = _balanced_labels(spec.n, spec.k, rng)
    radii = spec.radius * (labels + 1.0) / spec.k
    theta = rng.uniform(0.0, 2.0 * np.pi, size=spec.n)
    feats = np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=1)
    feats += spec.noise * rng.standard_normal(feats.shape)
    if spec.dim > 2:
        feats = np.hstack([feats, np.zeros((spec.n, spec.dim - 2))])
    return feats, labels


def generate(spec: GeneratorSpec) -> DatasetState:
    """Deterministic dataset for the given spec: uniform weights, label
    distributions initialized from the empirical per-class moments."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "gaussian-mixture":
        feats, labels = _gaussian_mixture(spec, rng)
    elif spec.kind == "swiss-roll":
        feats, labels = _swiss_roll(spec, rng)
    elif spec.kind == "moons":
        feats, labels = _moons(spec, rng)
    else:
        feats, labels = _rings(spec, rng)
    return DatasetState.from_features(feats, labels)

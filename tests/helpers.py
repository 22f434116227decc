"""Shared test utilities: random instances and finite-difference oracles."""

import numpy as np

from otflow.gaussian import LabelDistribution, bures_w2_sq
from otflow.otdd import DatasetState


def rand_spd(rng, d, scale=1.0, jitter=0.1):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T + jitter * np.eye(d))


def rand_gaussian(rng, d, spread=2.0):
    return LabelDistribution(spread * rng.standard_normal(d), rand_spd(rng, d))


def rand_state(rng, n, k, d, spread=3.0, sigma=0.6):
    centers = spread * rng.standard_normal((k, d))
    labels = np.arange(n) % k
    rng.shuffle(labels)
    feats = centers[labels] + sigma * rng.standard_normal((n, d))
    return DatasetState.from_features(feats, labels)


def central_diff(fn, x, h=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        grad[i] = (fn(xp) - fn(xm)) / (2 * h)
    return grad


def directional_diff(fn, x, v, h=1e-5):
    """Central difference of fn along direction v (arrays of any shape)."""
    return (fn(x + h * v) - fn(x - h * v)) / (2 * h)


def rel_err(approx, exact, floor=1e-8):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = max(float(np.abs(exact).max(initial=0.0)), float(np.abs(approx).max(initial=0.0)), floor)
    return float(np.abs(approx - exact).max(initial=0.0)) / scale


def bures_w2_sq_grad_fd(a: LabelDistribution, b: LabelDistribution, h: float = 1e-5):
    """Central-difference gradient of ``bures_w2_sq`` w.r.t. the first
    argument, as (grad_mean, grad_cov): the oracle of the analytic form."""
    d = a.dim
    grad_mean = np.zeros(d)
    for l in range(d):
        e = np.zeros(d)
        e[l] = h
        grad_mean[l] = (
            bures_w2_sq(LabelDistribution(a.mean + e, a.cov), b)
            - bures_w2_sq(LabelDistribution(a.mean - e, a.cov), b)
        ) / (2 * h)
    grad_cov = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            e = np.zeros((d, d))
            e[i, j] = e[j, i] = h
            diff = (
                bures_w2_sq(LabelDistribution(a.mean, a.cov + e), b)
                - bures_w2_sq(LabelDistribution(a.mean, a.cov - e), b)
            ) / (2 * h)
            # diff = <grad, direction>; off-diagonal directions hit two entries
            grad_cov[i, j] = grad_cov[j, i] = diff if i == j else diff / 2.0
    return grad_mean, grad_cov

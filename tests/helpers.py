"""Shared test utilities: random instances and finite-difference oracles."""

import numpy as np

from otflow.gaussian import Moments, pairwise_bures_sq
from otflow.otdd import DatasetState


def rand_spd(rng, d, scale=1.0, jitter=0.1):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T + jitter * np.eye(d))


def gaussian(mean, cov):
    """N(mean, cov) as a one-row Moments."""
    return Moments([mean], [cov])


def rand_gaussian(rng, d, spread=2.0):
    return gaussian(spread * rng.standard_normal(d), rand_spd(rng, d))


def stack_rows(rows):
    """One Moments holding the rows of a list of Moments, in order."""
    return Moments(np.concatenate([r.means for r in rows]), np.concatenate([r.covs for r in rows]))


def one_row(m, k):
    """Row k of a Moments as a one-row Moments."""
    return Moments(m.means[k : k + 1], m.covs[k : k + 1])


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


def bures_grad_fd(a: Moments, b: Moments, h: float = 1e-5):
    """Central-difference gradient of the squared Bures distance between
    the one-row Moments ``a`` and ``b`` w.r.t. ``a``, as (grad_mean,
    grad_cov): the oracle of the analytic form."""
    mean, cov = a.means[0], a.covs[0]
    d = mean.size

    def value(mu, c):
        return pairwise_bures_sq(gaussian(mu, c), b)[0, 0]

    grad_mean = np.zeros(d)
    for l in range(d):
        e = np.zeros(d)
        e[l] = h
        grad_mean[l] = (value(mean + e, cov) - value(mean - e, cov)) / (2 * h)
    grad_cov = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            e = np.zeros((d, d))
            e[i, j] = e[j, i] = h
            diff = (value(mean, cov + e) - value(mean, cov - e)) / (2 * h)
            # diff = <grad, direction>; off-diagonal directions hit two entries
            grad_cov[i, j] = grad_cov[j, i] = diff if i == j else diff / 2.0
    return grad_mean, grad_cov

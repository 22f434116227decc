"""Label imputation for variable-label dynamics.

Clusters per-particle Gaussian label distributions, either with DBSCAN under
the Bures-Wasserstein metric (nonparametric, cluster count free to change)
or with fixed-k k-means on a Euclidean embedding of the (mean, sqrt-cov)
pairs. Both are deterministic given input order and seed.
"""

from dataclasses import dataclass

import numpy as np

from .gaussian import Moments, pairwise_bures_sq, spd_sqrt
from .transport import _cost_product

NOISE = -1

# Nonparametric clustering defaults for the flow engine.
DEFAULT_EPS = 5.0
DEFAULT_MIN_PTS = 4


@dataclass
class ClusterAssignment:
    """Cluster ids per particle; -1 marks DBSCAN noise. Ids are contiguous
    0..k-1 in order of cluster creation."""

    labels: np.ndarray
    k: int


def dbscan_bures(
    moments: Moments, eps: float = DEFAULT_EPS, min_pts: int = DEFAULT_MIN_PTS
) -> ClusterAssignment:
    """DBSCAN over the Bures-Wasserstein metric on the rows of ``moments``.

    Standard density-based expansion with a fixed seed-point scan order
    (ascending particle index), so the assignment is deterministic for a
    given input order.
    """
    n = len(moments)
    dmat = np.sqrt(pairwise_bures_sq(moments, moments))
    neighbors = [np.flatnonzero(dmat[i] <= eps) for i in range(n)]

    UNVISITED = -2
    labels = np.full(n, UNVISITED, dtype=int)
    cid = 0
    for i in range(n):
        if labels[i] != UNVISITED:
            continue
        if neighbors[i].size < min_pts:
            labels[i] = NOISE
            continue
        labels[i] = cid
        queue = list(neighbors[i])
        qi = 0
        while qi < len(queue):
            j = queue[qi]
            qi += 1
            if labels[j] == NOISE:
                labels[j] = cid  # border point reached from a core
            if labels[j] != UNVISITED:
                continue
            labels[j] = cid
            if neighbors[j].size >= min_pts:
                queue.extend(neighbors[j])
        cid += 1
    return ClusterAssignment(labels, cid)


def embed_distributions(moments: Moments) -> np.ndarray:
    """Euclidean embedding [mean ; vec(sqrt(cov))] per row of ``moments``."""
    roots = spd_sqrt(moments.covs).reshape(len(moments), -1)
    return np.concatenate([moments.means, roots], axis=1)


def _kmeans_pp_init(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[j:] = points[first]
            break
        probs = closest / total
        idx = int(rng.choice(n, p=probs))
        centers[j] = points[idx]
        closest = np.minimum(closest, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def kmeans_embedded(moments: Moments, k: int, seed: int = 0, max_iter: int = 200) -> ClusterAssignment:
    """Fixed-size clustering of the rows of ``moments``.

    Runs Lloyd's algorithm with k-means++ initialization on the embedded
    (mean, sqrt-cov) vectors; converged when assignments are stable.
    """
    n = len(moments)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} is not between 1 and the number of distributions ({n})")
    points = embed_distributions(moments)
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(points, k, rng)

    assign = np.full(n, -1, dtype=int)
    for _ in range(max_iter):
        new_assign = np.argmin(_cost_product(points, centers), axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            mask = assign == j
            if mask.any():
                centers[j] = points[mask].mean(axis=0)

    # Renumber to contiguous ids in order of first appearance.
    remap = {}
    out = np.empty(n, dtype=int)
    for i, c in enumerate(assign):
        if c not in remap:
            remap[c] = len(remap)
        out[i] = remap[c]
    return ClusterAssignment(out, len(remap))

import itertools

import numpy as np
import pytest

from otflow.clustering import (
    NOISE,
    bures_distance_matrix,
    dbscan_bures,
    embed_distributions,
    kmeans_embedded,
)
from otflow.gaussian import LabelDistribution, spd_sqrt


def gaussian_cluster(rng, center, n, spread=0.05):
    """n nearby label distributions around a center Gaussian."""
    out = []
    for _ in range(n):
        mean = np.asarray(center, dtype=float) + spread * rng.standard_normal(2)
        out.append(LabelDistribution(mean, np.eye(2)))
    return out


def best_permutation_agreement(pred, truth):
    ids_p, ids_t = np.unique(pred), np.unique(truth)
    best = 0.0
    for perm in itertools.permutations(ids_p):
        mapping = dict(zip(perm, ids_t))
        best = max(best, np.mean([mapping.get(p, -99) == t for p, t in zip(pred, truth)]))
    return best


class TestDbscan:
    def test_single_point(self):
        d = [LabelDistribution(np.zeros(2), np.eye(2))]
        out = dbscan_bures(d, eps=1.0, min_pts=4)
        assert out.labels[0] == NOISE and out.k == 0
        out1 = dbscan_bures(d, eps=1.0, min_pts=1)
        assert out1.labels[0] == 0 and out1.k == 1

    def test_two_tight_groups(self):
        rng = np.random.default_rng(0)
        dists = gaussian_cluster(rng, [0, 0], 10, spread=0.0) + gaussian_cluster(
            rng, [50, 0], 10, spread=0.0
        )
        out = dbscan_bures(dists, eps=1.0, min_pts=4)
        assert out.k == 2
        assert not np.any(out.labels == NOISE)
        assert len(set(out.labels[:10])) == 1 and len(set(out.labels[10:])) == 1

    def test_three_synthetic_clusters(self):
        rng = np.random.default_rng(1)
        truth = np.repeat([0, 1, 2], 20)
        centers = [[0, 0], [20, 0], [0, 20]]
        dists = []
        for c in centers:
            dists += gaussian_cluster(rng, c, 20, spread=0.3)
        out = dbscan_bures(dists, eps=5.0, min_pts=4)
        assert out.k == 3
        mask = out.labels >= 0
        assert mask.mean() >= 0.95
        assert best_permutation_agreement(out.labels[mask], truth[mask]) >= 0.95

    def test_partition_invariant_under_permutation(self):
        rng = np.random.default_rng(2)
        dists = gaussian_cluster(rng, [0, 0], 12, 0.2) + gaussian_cluster(rng, [30, 0], 12, 0.2)
        out = dbscan_bures(dists, eps=4.0, min_pts=4)
        perm = rng.permutation(24)
        out_p = dbscan_bures([dists[i] for i in perm], eps=4.0, min_pts=4)
        # same partition: pairs agree on same-cluster relation
        for i in range(24):
            for j in range(i + 1, 24):
                same = out.labels[perm[i]] == out.labels[perm[j]]
                same_p = out_p.labels[i] == out_p.labels[j]
                assert same == same_p

    def test_clusters_respect_min_pts(self):
        # every cluster grows from a core point: some member must have
        # >= min_pts neighbors (itself included) within eps
        rng = np.random.default_rng(3)
        dists = gaussian_cluster(rng, [0, 0], 10, 0.2) + gaussian_cluster(rng, [40, 0], 2, 0.2)
        out = dbscan_bures(dists, eps=3.0, min_pts=4)
        dmat = bures_distance_matrix(dists)
        for c in range(out.k):
            members = np.flatnonzero(out.labels == c)
            assert any(np.sum(dmat[m] <= 3.0) >= 4 for m in members)
        # the 2-point group cannot form a cluster
        assert np.all(out.labels[10:] == NOISE)

    def test_metric_is_bures(self):
        a = LabelDistribution([0.0, 0.0], np.eye(2))
        b = LabelDistribution([3.0, 4.0], np.eye(2))
        dmat = bures_distance_matrix([a, b])
        assert dmat[0, 1] == pytest.approx(5.0, abs=1e-9)


class TestKmeans:
    def test_embedding_matches_per_row_roots(self):
        rng = np.random.default_rng(9)
        dists = []
        for _ in range(6):
            a = rng.standard_normal((3, 3))
            dists.append(LabelDistribution(rng.standard_normal(3), a @ a.T + 0.1 * np.eye(3)))
        rows = [np.concatenate([g.mean, spd_sqrt(g.cov).ravel()]) for g in dists]
        np.testing.assert_array_equal(embed_distributions(dists), np.stack(rows))

    def test_each_point_own_cluster(self):
        rng = np.random.default_rng(4)
        dists = [LabelDistribution(rng.standard_normal(2) * 10, np.eye(2)) for _ in range(5)]
        out = kmeans_embedded(dists, k=5, seed=0)
        assert out.k == 5
        assert len(set(out.labels)) == 5

    def test_identical_points_one_cluster(self):
        dists = [LabelDistribution(np.ones(2), np.eye(2)) for _ in range(6)]
        out = kmeans_embedded(dists, k=1, seed=0)
        assert out.k == 1
        assert np.all(out.labels == 0)

    def test_three_separated_clusters(self):
        rng = np.random.default_rng(5)
        truth = np.repeat([0, 1, 2], 20)
        dists = []
        for c in ([0, 0], [25, 0], [0, 25]):
            dists += gaussian_cluster(rng, c, 20, spread=0.3)
        out = kmeans_embedded(dists, k=3, seed=7)
        assert best_permutation_agreement(out.labels, truth) >= 0.95

    def test_k_exceeds_n(self):
        dists = [LabelDistribution(np.zeros(2), np.eye(2))]
        with pytest.raises(ValueError):
            kmeans_embedded(dists, k=2)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(6)
        dists = [LabelDistribution(rng.standard_normal(2), np.eye(2)) for _ in range(20)]
        a = kmeans_embedded(dists, k=3, seed=11)
        b = kmeans_embedded(dists, k=3, seed=11)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_inertia_nonincreasing(self):
        # re-run Lloyd manually on the embedding and track inertia
        rng = np.random.default_rng(7)
        dists = [LabelDistribution(rng.standard_normal(2) * 3, np.eye(2)) for _ in range(30)]
        pts = embed_distributions(dists)
        centers = pts[rng.choice(30, 4, replace=False)]
        prev = np.inf
        for _ in range(20):
            d2 = ((pts[:, None, :] - centers[None]) ** 2).sum(axis=2)
            assign = d2.argmin(axis=1)
            inertia = float(d2[np.arange(30), assign].sum())
            assert inertia <= prev + 1e-9
            prev = inertia
            for j in range(4):
                if np.any(assign == j):
                    centers[j] = pts[assign == j].mean(axis=0)

    def test_assignment_is_fixed_point(self):
        rng = np.random.default_rng(8)
        dists = [LabelDistribution(rng.standard_normal(2) * 5, np.eye(2)) for _ in range(25)]
        out = kmeans_embedded(dists, k=3, seed=3)
        pts = embed_distributions(dists)
        centers = np.stack([pts[out.labels == j].mean(axis=0) for j in range(out.k)])
        d2 = ((pts[:, None, :] - centers[None]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(d2.argmin(axis=1), out.labels)

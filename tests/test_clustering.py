import itertools

import numpy as np
import pytest

from otflow.clustering import NOISE, dbscan_bures, embed_distributions, kmeans_embedded
from otflow.gaussian import Moments, pairwise_bures_sq, spd_sqrt


def cluster_means(rng, center, n, spread=0.05):
    """n 2-D means scattered around a center."""
    return np.asarray(center, dtype=float) + spread * rng.standard_normal((n, 2))


def unit_moments(*mean_blocks):
    """Moments of the given blocks of 2-D means, in order, with identity
    covariances."""
    means = np.concatenate(mean_blocks)
    return Moments(means, np.tile(np.eye(2), (len(means), 1, 1)))


def best_permutation_agreement(pred, truth):
    ids_p, ids_t = np.unique(pred), np.unique(truth)
    best = 0.0
    for perm in itertools.permutations(ids_p):
        mapping = dict(zip(perm, ids_t))
        best = max(best, np.mean([mapping.get(p, -99) == t for p, t in zip(pred, truth)]))
    return best


class TestDbscan:
    def test_single_point(self):
        d = unit_moments(np.zeros((1, 2)))
        out = dbscan_bures(d, eps=1.0, min_pts=4)
        assert out.labels[0] == NOISE and out.k == 0
        out1 = dbscan_bures(d, eps=1.0, min_pts=1)
        assert out1.labels[0] == 0 and out1.k == 1

    def test_two_tight_groups(self):
        rng = np.random.default_rng(0)
        dists = unit_moments(
            cluster_means(rng, [0, 0], 10, spread=0.0), cluster_means(rng, [50, 0], 10, spread=0.0)
        )
        out = dbscan_bures(dists, eps=1.0, min_pts=4)
        assert out.k == 2
        assert not np.any(out.labels == NOISE)
        assert len(set(out.labels[:10])) == 1 and len(set(out.labels[10:])) == 1

    def test_three_synthetic_clusters(self):
        rng = np.random.default_rng(1)
        truth = np.repeat([0, 1, 2], 20)
        centers = [[0, 0], [20, 0], [0, 20]]
        dists = unit_moments(*(cluster_means(rng, c, 20, spread=0.3) for c in centers))
        out = dbscan_bures(dists, eps=5.0, min_pts=4)
        assert out.k == 3
        mask = out.labels >= 0
        assert mask.mean() >= 0.95
        assert best_permutation_agreement(out.labels[mask], truth[mask]) >= 0.95

    def test_partition_invariant_under_permutation(self):
        rng = np.random.default_rng(2)
        dists = unit_moments(
            cluster_means(rng, [0, 0], 12, 0.2), cluster_means(rng, [30, 0], 12, 0.2)
        )
        out = dbscan_bures(dists, eps=4.0, min_pts=4)
        perm = rng.permutation(24)
        out_p = dbscan_bures(Moments(dists.means[perm], dists.covs[perm]), eps=4.0, min_pts=4)
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
        dists = unit_moments(
            cluster_means(rng, [0, 0], 10, 0.2), cluster_means(rng, [40, 0], 2, 0.2)
        )
        out = dbscan_bures(dists, eps=3.0, min_pts=4)
        dmat = np.sqrt(pairwise_bures_sq(dists, dists))
        for c in range(out.k):
            members = np.flatnonzero(out.labels == c)
            assert any(np.sum(dmat[m] <= 3.0) >= 4 for m in members)
        # the 2-point group cannot form a cluster
        assert np.all(out.labels[10:] == NOISE)

    def test_metric_is_bures(self):
        pair = unit_moments(np.array([[0.0, 0.0], [3.0, 4.0]]))
        dmat = np.sqrt(pairwise_bures_sq(pair, pair))
        assert dmat[0, 1] == pytest.approx(5.0, abs=1e-9)
        # DBSCAN links the pair exactly when eps reaches that distance.
        assert dbscan_bures(pair, eps=5.0 + 1e-6, min_pts=2).k == 1
        assert dbscan_bures(pair, eps=5.0 - 1e-6, min_pts=2).k == 0


class TestKmeans:
    def test_embedding_matches_per_row_roots(self):
        rng = np.random.default_rng(9)
        means, covs = [], []
        for _ in range(6):
            a = rng.standard_normal((3, 3))
            means.append(rng.standard_normal(3))
            covs.append(a @ a.T + 0.1 * np.eye(3))
        rows = [np.concatenate([mean, spd_sqrt(cov).ravel()]) for mean, cov in zip(means, covs)]
        np.testing.assert_array_equal(embed_distributions(Moments(means, covs)), np.stack(rows))

    def test_each_point_own_cluster(self):
        rng = np.random.default_rng(4)
        dists = unit_moments(rng.standard_normal((5, 2)) * 10)
        out = kmeans_embedded(dists, k=5, seed=0)
        assert out.k == 5
        assert len(set(out.labels)) == 5

    def test_identical_points_one_cluster(self):
        dists = unit_moments(np.ones((6, 2)))
        out = kmeans_embedded(dists, k=1, seed=0)
        assert out.k == 1
        assert np.all(out.labels == 0)

    def test_three_separated_clusters(self):
        rng = np.random.default_rng(5)
        truth = np.repeat([0, 1, 2], 20)
        centers = [[0, 0], [25, 0], [0, 25]]
        dists = unit_moments(*(cluster_means(rng, c, 20, spread=0.3) for c in centers))
        out = kmeans_embedded(dists, k=3, seed=7)
        assert best_permutation_agreement(out.labels, truth) >= 0.95

    @pytest.mark.parametrize("k", [2, 0, -1])
    def test_k_exceeds_n(self, k):
        dists = unit_moments(np.zeros((1, 2)))
        with pytest.raises(ValueError, match=f"k={k} is not between 1 and"):
            kmeans_embedded(dists, k=k)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(6)
        dists = unit_moments(rng.standard_normal((20, 2)))
        a = kmeans_embedded(dists, k=3, seed=11)
        b = kmeans_embedded(dists, k=3, seed=11)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_inertia_nonincreasing(self):
        # re-run Lloyd manually on the embedding and track inertia
        rng = np.random.default_rng(7)
        dists = unit_moments(rng.standard_normal((30, 2)) * 3)
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
        dists = unit_moments(rng.standard_normal((25, 2)) * 5)
        out = kmeans_embedded(dists, k=3, seed=3)
        pts = embed_distributions(dists)
        centers = np.stack([pts[out.labels == j].mean(axis=0) for j in range(out.k)])
        d2 = ((pts[:, None, :] - centers[None]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(d2.argmin(axis=1), out.labels)

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bures_grad_blocks,
    bures_grad_fd,
    central_diff,
    directional_diff,
    gaussian,
    one_row,
    rand_gaussian,
    rand_spd,
    rel_err,
    stack_rows,
)
from otflow.errors import DimensionMismatchError, NumericError
from otflow.gaussian import (
    LabelDistribution,
    Moments,
    pairwise_bures_grads,
    pairwise_bures_sq,
    project_psd,
    psd_floor_value,
    spd_sqrt,
)


def _one_pair_sq(a, b):
    return pairwise_bures_sq(a, b)[0, 0]


def _one_pair_grads(a, b):
    _, gm, gc = bures_grad_blocks(a, b)
    return gm[0, 0], gc[0, 0]


def _rows(m):
    return [LabelDistribution(mean, cov) for mean, cov in zip(m.means, m.covs)]


def _pairwise_sq(a, b):
    return pairwise_bures_sq(_rows(a), _rows(b))[0, 0]


def _pairwise_grads(a, b):
    _, gm, gc = bures_grad_blocks(_rows(a) * 2, _rows(b) * 3)
    return gm[1, 2], gc[1, 2]


# Every input form of the Bures kernels, by the name pytest shows, each
# called on one-row Moments a and b: ``bures_w2_sq`` and
# ``bures_w2_sq_grad`` are the 1x1 blocks of a against b, the
# ``pairwise_*`` entries take the rows as lists of LabelDistribution.
VALUE_ENTRIES = {"bures_w2_sq": _one_pair_sq, "pairwise_bures_sq": _pairwise_sq}
GRAD_ENTRIES = {"bures_w2_sq_grad": _one_pair_grads, "pairwise_bures_grads": _pairwise_grads}
ENTRIES = {**VALUE_ENTRIES, **GRAD_ENTRIES}


class TestSpdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(spd_sqrt(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rand_spd(rng, 4)
            s = spd_sqrt(m)
            assert rel_err(s @ s, m) < 1e-8
            np.testing.assert_allclose(s, s.T, atol=1e-11)

    def test_nonfinite_rejected(self):
        m = np.eye(2)
        m[0, 1] = m[1, 0] = np.nan
        with pytest.raises(NumericError):
            spd_sqrt(m)

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(8)
        stack = np.stack([rand_spd(rng, 3) for _ in range(5)]).reshape(5, 1, 3, 3)
        roots = spd_sqrt(stack)
        assert roots.shape == stack.shape
        for k in range(5):
            np.testing.assert_allclose(roots[k, 0], spd_sqrt(stack[k, 0]), rtol=1e-13, atol=1e-15)

    def test_asymmetric_stack_rejected(self):
        stack = np.stack([np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])])
        with pytest.raises(NumericError):
            spd_sqrt(stack)


class TestProjectPsd:
    def test_clips_negative_eigenvalue(self):
        out = project_psd(np.diag([1.0, -0.5]), floor=1e-6)
        np.testing.assert_allclose(out, np.diag([1.0, 1e-6]), atol=1e-12)

    def test_fixed_point_above_floor(self):
        rng = np.random.default_rng(3)
        m = rand_spd(rng, 3, jitter=0.5)
        np.testing.assert_allclose(project_psd(m, floor=1e-9), m, atol=1e-12)

    def test_indefinite_matches_eigen_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 3))
        m = 0.5 * (a + a.T)
        floor = 1e-4
        out = project_psd(m, floor)
        w, v = np.linalg.eigh(m)
        oracle = (v * np.maximum(w, floor)) @ v.T
        np.testing.assert_allclose(out, oracle, atol=1e-10)
        assert np.linalg.eigvalsh(out).min() >= floor - 1e-12

    def test_floor_value_scales_with_trace(self):
        assert psd_floor_value(np.diag([1.0, 0.0])) == pytest.approx(0.5e-6)
        assert psd_floor_value(np.zeros((2, 2))) > 0


class TestBures:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(5)
        g = rand_gaussian(rng, 3)
        assert pairwise_bures_sq(g, g.copy())[0, 0] == pytest.approx(0.0, abs=1e-10)

    def test_1d_mean_shift(self):
        a = gaussian([0.0], [[1.0]])
        b = gaussian([3.0], [[1.0]])
        assert pairwise_bures_sq(a, b)[0, 0] == pytest.approx(9.0, abs=1e-9)

    @pytest.mark.parametrize("entry", VALUE_ENTRIES.values(), ids=VALUE_ENTRIES.keys())
    def test_close_means_far_from_origin(self, entry):
        a = gaussian([1e4, -1e4], np.eye(2))
        b = gaussian([1e4 + 1e-3, -1e4], np.eye(2))
        assert entry(a, b) == pytest.approx(1e-6, rel=1e-6)

    @pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
    def test_dimension_mismatch(self, entry):
        a = gaussian([0.0], [[1.0]])
        b = gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(DimensionMismatchError):
            entry(a, b)
        with pytest.raises(DimensionMismatchError):
            entry(b, a)

    @pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
    @pytest.mark.parametrize("side", ["first", "second"])
    @pytest.mark.parametrize("field", ["mean", "cov"])
    def test_nonfinite_rejected(self, entry, side, field):
        good = gaussian([0.0, 1.0], np.eye(2))
        bad = good.copy()
        getattr(bad, field + "s")[0, 0] = np.nan
        with pytest.raises(NumericError):
            entry(bad, good) if side == "first" else entry(good, bad)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = rand_gaussian(rng, 2)
        b = rand_gaussian(rng, 2)
        assert abs(pairwise_bures_sq(a, b)[0, 0] - pairwise_bures_sq(b, a)[0, 0]) < 1e-10

    def test_triangle_inequality(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a, b, c = (rand_gaussian(rng, 3) for _ in range(3))
            dab = np.sqrt(pairwise_bures_sq(a, b)[0, 0])
            dbc = np.sqrt(pairwise_bures_sq(b, c)[0, 0])
            dac = np.sqrt(pairwise_bures_sq(a, c)[0, 0])
            assert dac <= dab + dbc + 1e-8

    def test_monte_carlo_transport_oracle(self):
        # Closed form vs debiased entropic OT between sampled clouds.
        from otflow.transport import sinkhorn, sinkhorn_symmetric, squared_euclidean_cost

        rng = np.random.default_rng(23)
        a = rand_gaussian(rng, 2)
        b = gaussian(a.means[0] + np.array([2.5, -1.0]), rand_spd(rng, 2))
        closed = pairwise_bures_sq(a, b)[0, 0]

        n = 1000
        la = np.linalg.cholesky(a.covs[0])
        lb = np.linalg.cholesky(b.covs[0])
        xa = a.means[0] + rng.standard_normal((n, 2)) @ la.T
        xb = b.means[0] + rng.standard_normal((n, 2)) @ lb.T
        cab = squared_euclidean_cost(xa, xb)
        caa = squared_euclidean_cost(xa, xa)
        cbb = squared_euclidean_cost(xb, xb)
        u = np.full(n, 1.0 / n)
        reg = 0.2 * float(np.trace(a.covs[0]) + np.trace(b.covs[0])) / 2
        solver = dict(reg=reg, tol=1e-5)
        est = sinkhorn(cab, u, u, **solver).soft_cost - 0.5 * (
            sinkhorn_symmetric(caa, u, **solver).soft_cost
            + sinkhorn_symmetric(cbb, u, **solver).soft_cost
        )
        assert abs(est - closed) / closed < 0.05


class TestBuresGrad:
    def test_zero_at_identity(self):
        rng = np.random.default_rng(2)
        g = rand_gaussian(rng, 3)
        _, gm, gc = bures_grad_blocks(g, g.copy())
        np.testing.assert_allclose(gm[0, 0], 0.0, atol=1e-9)
        np.testing.assert_allclose(gc[0, 0], 0.0, atol=1e-9)

    def test_1d_mean_gradient(self):
        a = gaussian([0.0], [[1.0]])
        b = gaussian([3.0], [[1.0]])
        _, gm, _ = bures_grad_blocks(a, b)
        assert gm[0, 0, 0] == pytest.approx(-6.0, abs=1e-9)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a = rand_gaussian(rng, 3)
            b = rand_gaussian(rng, 3)
            _, gm, gc = bures_grad_blocks(a, b)
            mean, cov = a.means[0], a.covs[0]

            fd_mean = np.array([
                directional_diff(
                    lambda mu: pairwise_bures_sq(gaussian(mu, cov), b)[0, 0], mean, e
                )
                for e in np.eye(3)
            ])
            assert rel_err(gm[0, 0], fd_mean) < 1e-4

            v = rng.standard_normal((3, 3))
            v = 0.5 * (v + v.T)
            fd = directional_diff(
                lambda c: pairwise_bures_sq(gaussian(mean, c), b)[0, 0], cov, v
            )
            assert abs(np.sum(gc[0, 0] * v) - fd) / max(abs(fd), 1e-6) < 1e-4

    @pytest.mark.parametrize("entry", GRAD_ENTRIES.values(), ids=GRAD_ENTRIES.keys())
    def test_singular_covariance_raises(self, entry):
        a = gaussian([0.0, 0.0], np.diag([1.0, 0.0]))
        b = gaussian([1.0, 1.0], np.eye(2))
        with pytest.raises(NumericError):
            entry(a, b)

    @pytest.mark.parametrize("entry", GRAD_ENTRIES.values(), ids=GRAD_ENTRIES.keys())
    def test_singularity_threshold_is_relative(self, entry):
        b = gaussian([1.0, 1.0], np.eye(2))
        # lambda_min / lambda_max = 5e-15 is singular, 5e-13 is not.
        entry(gaussian([0.0, 0.0], np.diag([2.0, 1e-12])), b)
        with pytest.raises(NumericError):
            entry(gaussian([0.0, 0.0], np.diag([2.0, 1e-14])), b)
        with pytest.raises(NumericError):
            entry(gaussian([0.0], [[5e-15]]), gaussian([0.0], [[1.0]]))

    def test_verify_mode_cross_checks(self):
        # The analytic gradient against the central-difference oracle.
        rng = np.random.default_rng(37)
        a = rand_gaussian(rng, 2)
        b = rand_gaussian(rng, 2)
        _, gm, gc = bures_grad_blocks(a, b)
        fd_mean, fd_cov = bures_grad_fd(a, b)
        np.testing.assert_allclose(fd_mean, gm[0, 0], rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(fd_cov, gc[0, 0], rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_fd_oracle(self, d):
        # d = 2 is the closed form, d = 3 the eigendecomposition path.
        rng = np.random.default_rng(39 + d)
        for _ in range(10):
            a, b = rand_gaussian(rng, d), rand_gaussian(rng, d)
            _, gm, gc = bures_grad_blocks(a, b)
            fd_mean, fd_cov = bures_grad_fd(a, b)
            np.testing.assert_allclose(fd_mean, gm[0, 0], rtol=1e-4, atol=1e-6)
            np.testing.assert_allclose(fd_cov, gc[0, 0], rtol=1e-4, atol=1e-6)


class TestPairwise:
    """The batched kernels entry by entry against their own 1x1 case."""

    def test_values_match_scalar_path(self):
        rng = np.random.default_rng(41)
        da = [rand_gaussian(rng, 2) for _ in range(4)]
        db = [rand_gaussian(rng, 2) for _ in range(3)]
        block = pairwise_bures_sq(stack_rows(da), stack_rows(db))
        for i in range(4):
            for j in range(3):
                assert block[i, j] == pytest.approx(pairwise_bures_sq(da[i], db[j])[0, 0], abs=1e-9)

    def test_grads_match_scalar_path(self):
        rng = np.random.default_rng(43)
        da = [rand_gaussian(rng, 2) for _ in range(3)]
        db = [rand_gaussian(rng, 2) for _ in range(2)]
        values, gms, gcs = bures_grad_blocks(stack_rows(da), stack_rows(db))
        for i in range(3):
            for j in range(2):
                assert values[i, j] == pytest.approx(pairwise_bures_sq(da[i], db[j])[0, 0], abs=1e-9)
                _, gm, gc = bures_grad_blocks(da[i], db[j])
                np.testing.assert_allclose(gms[i, j], gm[0, 0], atol=1e-9)
                np.testing.assert_allclose(gcs[i, j], gc[0, 0], atol=1e-8)

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_self_block_matches_scalar_path_both_ways(self, d):
        # b is a: only i < j is decomposed; (j, i) is mirrored or inverted.
        rng = np.random.default_rng(47 + d)
        m = _random_moments(rng, 5, d)
        values, gms, gcs = bures_grad_blocks(m, m)
        sq = pairwise_bures_sq(m, m)
        for block in (values, sq):
            np.testing.assert_array_equal(block, block.T)
            assert not np.diag(block).any()
        diag = np.arange(5)
        assert not gms[diag, diag].any() and not gcs[diag, diag].any()
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                v, gm, gc = bures_grad_blocks(one_row(m, i), one_row(m, j))
                for got in (values[i, j], sq[i, j]):
                    np.testing.assert_allclose(got, v[0, 0], rtol=1e-10, atol=1e-10)
                np.testing.assert_allclose(gms[i, j], gm[0, 0], rtol=1e-10, atol=1e-10)
                np.testing.assert_allclose(gcs[i, j], gc[0, 0], rtol=1e-10, atol=1e-10)
                t_ij, t_ji = np.eye(d) - gcs[i, j], np.eye(d) - gcs[j, i]
                np.testing.assert_allclose(t_ij @ t_ji, np.eye(d), atol=1e-10)

    def test_self_block_returns_finite_or_raises(self):
        # Nearly rank-one, nearly aligned covariances pass the singularity
        # check, yet S_i^1/2 S_j S_i^1/2 can round to a non-positive
        # eigenvalue, which the inverted map of (j, i) cannot take.
        rng = np.random.default_rng(53)

        def thin(angle, small):
            r = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
            c = r @ np.diag([1.0, small]) @ r.T
            return 0.5 * (c + c.T)

        for _ in range(50):
            angle = rng.uniform(0.0, np.pi)
            m = Moments(np.zeros((2, 2)), [thin(angle, 2e-14), thin(angle + 1e-9, 3e-14)])
            try:
                blocks = bures_grad_blocks(m, m)
            except NumericError:
                continue
            assert all(np.isfinite(b).all() for b in blocks)


def _random_moments(rng, k, d):
    """k random Gaussians in dimension d, covariances of varied scale."""
    means = 2.0 * rng.standard_normal((k, d))
    covs = np.stack([rand_spd(rng, d, scale=rng.uniform(0.2, 5.0)) for _ in range(k)])
    return Moments(means, covs)


class TestBuresOracles:
    """The batched kernels against identities they were not built from."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_value_is_fidelity_form(self, d):
        # tr((S_a^1/2 S_b S_a^1/2)^1/2) is the nuclear norm of S_a^1/2 S_b^1/2.
        rng = np.random.default_rng(100 + d)
        a, b = _random_moments(rng, 4, d), _random_moments(rng, 3, d)
        for block in (pairwise_bures_sq(a, b), bures_grad_blocks(a, b)[0]):
            assert block.shape == (4, 3)
            for i in range(4):
                for j in range(3):
                    ra = np.real(scipy.linalg.sqrtm(a.covs[i]))
                    rb = np.real(scipy.linalg.sqrtm(b.covs[j]))
                    nuclear = np.linalg.svd(ra @ rb, compute_uv=False).sum()
                    want = (
                        np.sum((a.means[i] - b.means[j]) ** 2)
                        + np.trace(a.covs[i]) + np.trace(b.covs[j]) - 2.0 * nuclear
                    )
                    assert block[i, j] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_gradient_is_transport_map(self, d):
        # I - grad_cov is the Gaussian OT map: symmetric PD with T S_a T = S_b.
        rng = np.random.default_rng(200 + d)
        a, b = _random_moments(rng, 3, d), _random_moments(rng, 4, d)
        values, gms, gcs = bures_grad_blocks(a, b)
        assert values.shape == (3, 4)
        assert gms.shape == (3, 4, d) and gcs.shape == (3, 4, d, d)
        for i in range(3):
            for j in range(4):
                np.testing.assert_allclose(
                    gms[i, j], 2.0 * (a.means[i] - b.means[j]), rtol=1e-10, atol=1e-12
                )
                t = np.eye(d) - gcs[i, j]
                np.testing.assert_array_equal(t, t.T)
                assert np.linalg.eigvalsh(t).min() > 0.0
                assert rel_err(t @ a.covs[i] @ t, b.covs[j]) < 1e-10


class TestBuresPullback:
    """The pullback of a dense mass against central differences of the
    mass-weighted values, an oracle apart from the kernels' gradient code."""

    @pytest.mark.parametrize("same", [False, True], ids=["cross", "self"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_central_differences(self, d, same):
        rng = np.random.default_rng(400 + d + 10 * same)
        a = _random_moments(rng, 4, d)
        b = a if same else _random_moments(rng, 3, d)
        mass = rng.uniform(0.1, 1.0, (len(a), len(b)))
        if same:
            mass = 0.5 * (mass + mass.T)

        def objective(means, covs):
            moved = Moments(means, 0.5 * (covs + covs.swapaxes(-1, -2)))
            return float(np.sum(mass * pairwise_bures_sq(moved, moved if same else b)))

        fd_means = central_diff(lambda x: objective(x.reshape(a.means.shape), a.covs), a.means.ravel())
        fd_covs = central_diff(lambda x: objective(a.means, x.reshape(a.covs.shape)), a.covs.ravel())
        d_means, d_covs = pairwise_bures_grads(a, b)[1](mass)
        # Moving a self-block moves both arguments; the values and the mass
        # being symmetric, that doubles the first argument's gradient.
        scale = 2.0 if same else 1.0
        assert rel_err(scale * d_means, fd_means.reshape(a.means.shape)) < 1e-6
        assert rel_err(scale * d_covs, fd_covs.reshape(a.covs.shape)) < 1e-6

    def test_mass_of_another_shape_rejected(self):
        rng = np.random.default_rng(410)
        a, b = _random_moments(rng, 4, 2), _random_moments(rng, 3, 2)
        _, pullback = pairwise_bures_grads(a, b)
        with pytest.raises(DimensionMismatchError):
            pullback(np.ones((3, 4)))


def _rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])


def _conditioned_covs(rng, k, cond_lo, cond_hi):
    """k random 2x2 covariances with condition numbers in [cond_lo, cond_hi]."""
    covs = []
    for _ in range(k):
        r = _rotation(rng.uniform(0.0, np.pi))
        top = rng.uniform(0.2, 5.0)
        c = r @ np.diag([top, top / rng.uniform(cond_lo, cond_hi)]) @ r.T
        covs.append(0.5 * (c + c.T))
    return np.stack(covs)


def _well_conditioned(rng, k):
    """k 2-D Gaussians with cond <= 1e2; every other covariance is a
    rank-one matrix floored by project_psd at 1/50 of its eigenvalue."""
    covs = _conditioned_covs(rng, k, 1.0, 1e2)
    for c in covs[::2]:
        v = rng.standard_normal(2)
        c[...] = project_psd(np.outer(v, v), floor=v @ v / 50.0)
    return Moments(2.0 * rng.standard_normal((k, 2)), covs)


def _embed_3d(m):
    """The 2-D moments block-diagonally in 3-D, with a shared third mean
    coordinate and unit variance on the third axis: every Bures value is
    unchanged, and every gradient gains a zero third row and column."""
    means = np.concatenate([m.means, np.full((len(m), 1), 0.7)], axis=1)
    covs = np.zeros((len(m), 3, 3))
    covs[:, :2, :2] = m.covs
    covs[:, 2, 2] = 1.0
    return Moments(means, covs)


class TestBures2D:
    """The closed form at d = 2 against the eigendecomposition path and a
    high-precision reference, and at the edges of its domain."""

    @pytest.mark.parametrize("p,q", [(60, 5), (60, 60), (60, None)], ids=["60x5", "60x60", "self60"])
    def test_matches_eigh_path_in_3d(self, p, q):
        rng = np.random.default_rng(300 + p + (q or 0))
        a = _well_conditioned(rng, p)
        b = a if q is None else _well_conditioned(rng, q)
        a3 = _embed_3d(a)
        b3 = a3 if q is None else _embed_3d(b)
        values, gms, gcs = bures_grad_blocks(a, b)
        values3, gms3, gcs3 = bures_grad_blocks(a3, b3)
        for got, want in [
            (values, values3),
            (pairwise_bures_sq(a, b), pairwise_bures_sq(a3, b3)),
            (gms, gms3[..., :2]),
            (gcs, gcs3[..., :2, :2]),
        ]:
            assert rel_err(got, want) < 1e-12
        assert rel_err(gcs3[..., 2, :], 0.0, floor=np.abs(gcs).max()) < 1e-12
        assert rel_err(gcs3[..., :, 2], 0.0, floor=np.abs(gcs).max()) < 1e-12
        assert not gms3[..., 2].any()

    @pytest.mark.parametrize("cond", [1e4, 1e5, 1e6])
    def test_high_condition_matches_mpmath_reference(self, cond):
        mp = pytest.importorskip("mpmath")
        ctx = mp.mp.clone()
        ctx.dps = 60

        def sqrtm(m):
            w, v = ctx.eigsy(m)
            return v * ctx.diag([ctx.sqrt(x) for x in w]) * v.T

        rng = np.random.default_rng(int(np.log10(cond)))
        a = Moments(rng.standard_normal((4, 2)), _conditioned_covs(rng, 4, cond, cond))
        b = Moments(rng.standard_normal((3, 2)), _conditioned_covs(rng, 3, cond, cond))
        values, _, gcs = bures_grad_blocks(a, b)
        sq = pairwise_bures_sq(a, b)
        for i in range(4):
            for j in range(3):
                sa, sb = ctx.matrix(a.covs[i].tolist()), ctx.matrix(b.covs[j].tolist())
                ra = sqrtm(sa)
                root = sqrtm(ra * sb * ra)
                t = ra**-1 * root * ra**-1
                want = sum((ctx.mpf(x) - ctx.mpf(y)) ** 2 for x, y in zip(a.means[i], b.means[j]))
                want += sum(sa[k, k] + sb[k, k] - 2 * root[k, k] for k in range(2))
                grad = np.array([[float(ctx.mpf(k == l) - t[k, l]) for l in range(2)] for k in range(2)])
                for got in (values[i, j], sq[i, j]):
                    assert got == pytest.approx(float(want), rel=1e-9)
                assert rel_err(gcs[i, j], grad) < 1e-9

    def test_singularity_threshold_rotated(self):
        # The threshold of test_singularity_threshold_is_relative on
        # covariances that are not diagonal, alone and in a self-block. The
        # kernel call raises, before any pullback.
        r = _rotation(0.3)
        b = Moments(np.ones((1, 2)), [np.eye(2)])
        bures_grad_blocks(Moments(np.zeros((1, 2)), [r @ np.diag([2.0, 1e-12]) @ r.T]), b)
        for bad in (r @ np.diag([2.0, 1e-14]) @ r.T, np.zeros((2, 2)), -np.eye(2)):
            m = Moments(np.zeros((2, 2)), [np.eye(2), bad])
            with pytest.raises(NumericError):
                pairwise_bures_grads(m, b)
            with pytest.raises(NumericError):
                pairwise_bures_grads(m, m)

    def test_asymmetric_first_argument_rejected(self):
        a = gaussian([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])
        b = gaussian([1.0, 0.0], np.eye(2))
        with pytest.raises(NumericError):
            pairwise_bures_sq(a, b)
        # Both kernels, at the closed form's d = 2 and the eigh kernel's
        # d = 3, on cross and self blocks: only the upper off-diagonal entry
        # of the first covariance is set.
        for d in (2, 3):
            covs = np.stack([np.eye(d), 2.0 * np.eye(d)])
            covs[0, 0, 1] = 0.5
            first = Moments(np.zeros((2, d)), covs)
            second = Moments(np.ones((1, d)), [np.eye(d)])
            for kernel in (pairwise_bures_sq, bures_grad_blocks):
                for other in (second, first):
                    with pytest.raises(NumericError, match="not symmetric"):
                        kernel(first, other)

    def test_psd_singular_second_argument(self):
        # det S_b rounds below 0 here; the kernels take it as the exactly
        # singular [[1, 1], [1, 1]], and a zero covariance as T = 0.
        y = 1.0 + 2.2e-16
        a = _well_conditioned(np.random.default_rng(61), 3)
        rounded = Moments(np.ones((1, 2)), [[[1.0, y], [y, 1.0]]])
        exact = Moments(np.ones((1, 2)), [np.ones((2, 2))])
        got, want = bures_grad_blocks(a, rounded), bures_grad_blocks(a, exact)
        for g, w in zip(got, want):
            assert np.isfinite(g).all()
            assert rel_err(g, w) < 1e-12
        np.testing.assert_array_equal(pairwise_bures_sq(a, rounded), got[0])
        zero = Moments(np.ones((1, 2)), [np.zeros((2, 2))])
        values, _, gcs = bures_grad_blocks(a, zero)
        np.testing.assert_allclose(values[:, 0], np.sum((a.means - 1.0) ** 2, axis=1) + a.covs.trace(0, 1, 2))
        np.testing.assert_array_equal(gcs[:, 0], np.broadcast_to(np.eye(2), (3, 2, 2)))

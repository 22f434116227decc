"""Symmetric-PSD matrix primitives and the closed-form 2-Wasserstein
(Bures) distance between Gaussians, with analytic gradients.

Matrix square roots go through symmetric eigendecomposition. One dispatcher
picks the Bures kernel by dimension: at d = 2 it takes the square root of
each 2x2 pair matrix from its trace and determinant (Cayley-Hamilton) and
decomposes nothing. Both kernels reject an asymmetric first argument.
Covariances are kept inside the PSD cone by clipping eigenvalues at a floor
that scales with the matrix trace.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericError

# Relative eigenvalue floor: floor = PSD_FLOOR_SCALE * trace(S)/dim.
PSD_FLOOR_SCALE = 1e-6
# Absolute fallback when the matrix has (numerically) zero trace.
PSD_FLOOR_ABS = 1e-6

SYMMETRY_RTOL = 1e-12
# A first-argument covariance of a Bures gradient is singular when
# lambda_min <= SINGULAR_RTOL * max(lambda_max, 1).
SINGULAR_RTOL = 1e-14


@dataclass
class LabelDistribution:
    """Gaussian summary of one class's features: N(mean, cov).

    Kept only as the list input of the pairwise Bures kernels, which
    convert a list of them through ``Moments.of``; the package itself
    passes moments around as ``Moments``.
    """

    mean: np.ndarray  # (d,)
    cov: np.ndarray   # (d, d), symmetric PSD

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        if self.mean.ndim != 1 or self.cov.shape != (self.mean.size, self.mean.size):
            raise DimensionMismatchError(
                f"mean of length {self.mean.size} incompatible with cov shape {self.cov.shape}"
            )


class Moments:
    """Stacked Gaussian moments: row k is N(means[k], covs[k])."""

    def __init__(self, means, covs):
        self.means = np.asarray(means, dtype=float)
        self.covs = np.asarray(covs, dtype=float)
        if self.means.ndim != 2 or self.covs.shape != self.means.shape + self.means.shape[1:]:
            raise DimensionMismatchError(
                f"means of shape {self.means.shape} incompatible with covs {self.covs.shape}"
            )

    @classmethod
    def of(cls, dists) -> "Moments":
        """The moments of a list of LabelDistribution, the kernels' list
        input; a Moments is returned as it is."""
        if isinstance(dists, Moments):
            return dists
        return cls(np.stack([d.mean for d in dists]), np.stack([d.cov for d in dists]))

    def __len__(self) -> int:
        return self.means.shape[0]

    def copy(self) -> "Moments":
        return Moments(self.means.copy(), self.covs.copy())


def _check_finite(m: np.ndarray, name: str = "matrix"):
    if not np.isfinite(m).all():
        raise NumericError(f"{name} contains non-finite entries")


def _check_symmetric(m: np.ndarray, name: str = "matrix"):
    scale = max(float(np.abs(m).max(initial=0.0)), 1.0)
    if np.abs(m - m.swapaxes(-1, -2)).max(initial=0.0) > SYMMETRY_RTOL * scale * 10:
        raise NumericError(f"{name} is not symmetric")


def _from_eig(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """v diag(w) v^T for eigenvector stacks v (..., d, d) and values w (..., d)."""
    return (v * w[..., None, :]) @ v.swapaxes(-1, -2)


def psd_floor_value(m: np.ndarray) -> np.ndarray:
    """Default eigenvalue floor for a covariance update: 1e-6 * trace/dim,
    per matrix of a (..., d, d) stack."""
    rel = PSD_FLOOR_SCALE * m.trace(0, -2, -1) / m.shape[-1]
    return np.where(rel > 0.0, rel, PSD_FLOOR_ABS)


def spd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, of one matrix or
    of each matrix of a (..., d, d) stack.

    Negative eigenvalues from roundoff are clipped at zero, so the result
    satisfies s @ s == m to ~1e-8 relative error for any valid PSD input.
    """
    m = np.asarray(m, dtype=float)
    _check_finite(m)
    _check_symmetric(m)
    w, v = np.linalg.eigh(m)
    return _from_eig(v, np.sqrt(np.maximum(w, 0.0)))


def project_psd(m: np.ndarray, floor=0.0) -> np.ndarray:
    """Nearest PSD matrix by eigenvalue clipping (eigenvalues >= floor).

    ``m`` is one matrix or a (..., d, d) stack; ``floor`` is a scalar or
    one floor per matrix. Matrices already above their floor come back
    symmetrized only.
    """
    m = np.asarray(m, dtype=float)
    _check_finite(m)
    m = 0.5 * (m + m.swapaxes(-1, -2))
    w, v = np.linalg.eigh(m)
    floor = np.asarray(floor, dtype=float)[..., None]
    if (w >= floor).all():
        return m
    clipped = (w < floor).any(axis=-1)
    out = _from_eig(v, np.maximum(w, floor))
    out = 0.5 * (out + out.swapaxes(-1, -2))
    return np.where(clipped[..., None, None], out, m)


def _moment_pair(dists_a, dists_b):
    """Both arguments of a pairwise kernel as Moments of one dimension,
    with finite entries."""
    a, b = Moments.of(dists_a), Moments.of(dists_b)
    if a.means.shape[1] != b.means.shape[1]:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.means.shape[1]} vs {b.means.shape[1]}"
        )
    for m in (a.means, a.covs, b.means, b.covs):
        _check_finite(m, "Gaussian moments")
    return a, b


def _check_nonsingular(lam_min: np.ndarray, lam_max: np.ndarray):
    """NumericError unless every lambda_min > SINGULAR_RTOL * max(lambda_max, 1);
    a NaN lambda_min counts as singular."""
    if not np.all(lam_min > SINGULAR_RTOL * np.maximum(lam_max, 1.0)):
        raise NumericError(
            "covariance numerically singular; apply project_psd with a positive floor first"
        )


def _entries_2d(covs: np.ndarray):
    """(x, y, z, det) of each 2x2 covariance [[x, y], [y, z]] of a stack,
    with y the mean of the two off-diagonal entries."""
    x, z = covs[:, 0, 0], covs[:, 1, 1]
    y = 0.5 * (covs[:, 0, 1] + covs[:, 1, 0])
    return x, y, z, x * z - y * y


def _bures_2d(a: Moments, b: Moments, same: bool, grads: bool):
    """Both Bures kernels at d = 2 in closed form, over the whole (p, q)
    block from per-row scalars.

    det M = det S_a det S_b and tr M = tr(S_a S_b), so by Cayley-Hamilton
    M^1/2 = (M + s I) / t with s = sqrt(det M) and t = tr M^1/2 =
    sqrt(tr M + 2 s) (Bhatia, Jain & Lim 2019):

        value = ||mu_a - mu_b||^2 + tr S_a + tr S_b - 2 t
        T     = (S_b + s S_a^-1) / t,   S_a^-1 = adj(S_a) / det S_a

    Returns the values, and with ``grads`` (values, grad_means, grad_covs
    = I - T) after the singular check on the first argument. A self-block
    (``same``) is the same broadcast, T_ji being the formula at (j, i); its
    values are exactly symmetric, and the diagonal of values and
    gradients is set to 0.
    """
    xa, ya, za, det_a = _entries_2d(a.covs)
    xb, yb, zb, det_b = _entries_2d(b.covs)
    if grads:
        lam_max = 0.5 * (xa + za) + np.hypot(0.5 * (xa - za), ya)
        with np.errstate(divide="ignore", invalid="ignore"):
            _check_nonsingular(det_a / lam_max, lam_max)
    # Clamped at 0 like the eigenvalues of a PSD-singular covariance.
    root_a, root_b = np.sqrt(np.maximum(det_a, 0.0)), np.sqrt(np.maximum(det_b, 0.0))
    # t^2 = x_a x_b + 2 y_a y_b + z_a z_b + 2 s as one product of the rows.
    rows_b = np.array([xb, yb, zb, root_b])
    t_sq = np.array([xa, 2.0 * ya, za, 2.0 * root_a]).T @ rows_b
    if same:
        # Each (i, j) and (j, i) sum the same products, but BLAS may not
        # order them alike.
        t_sq = 0.5 * (t_sq + t_sq.T)
    t = np.sqrt(np.maximum(t_sq, 0.0))
    # One coordinate at a time: broadcasting over a length-2 axis is slow.
    dx = np.subtract.outer(a.means[:, 0], b.means[:, 0])
    dy = np.subtract.outer(a.means[:, 1], b.means[:, 1])
    values = np.maximum(dx * dx + dy * dy + np.add.outer(xa + za, xb + zb) - 2.0 * t, 0.0)
    diag = np.arange(len(a))
    if same:
        values[diag, diag] = 0.0
    if not grads:
        return values

    grad_means = np.stack([2.0 * dx, 2.0 * dy], axis=-1)
    # t T = S_b + sqrt(det S_b) adj(S_a) / sqrt(det S_a), entries xx, xy
    # and yy, as one batched product of the rows; T = 0 where t = 0.
    left = np.ones((3, len(a), 2))
    left[..., 1] = np.array([za, -ya, xa]) / root_a
    right = np.empty((3, 2, len(b)))
    right[:, 0], right[:, 1] = rows_b[:3], root_b
    tmap = (left @ right) * (1.0 / np.where(t > 0.0, t, np.inf))
    grad_covs = np.empty(values.shape + (2, 2))
    grad_covs[..., 0, 0] = 1.0 - tmap[0]
    grad_covs[..., 0, 1] = grad_covs[..., 1, 0] = -tmap[1]
    grad_covs[..., 1, 1] = 1.0 - tmap[2]
    if same:
        grad_covs[diag, diag] = 0.0
    return values, grad_means, grad_covs


def _bures_eig(a: Moments, b: Moments, same: bool, grads: bool):
    """Both Bures kernels at any d, with the inputs and outputs of
    ``_bures_2d``: S_a^1/2 from one ``eigh`` per first-argument covariance,
    then per pair the eigenvalues of M = S_a^1/2 S_b S_a^1/2 (``eigvalsh``)
    for values, or M = V diag(w) V^T (``eigh``) for gradients, with
    T = (S_a^-1/2 V) diag(w^1/2) (S_a^-1/2 V)^T. A self-block solves only
    the pairs i < j: the values are mirrored, and the map of (j, i) is the
    inverse T_ji = S_i^1/2 M^-1/2 S_i^1/2 of the map of (i, j), so a pair
    whose M is not numerically positive definite raises NumericError.
    """
    if same:
        i, j = np.triu_indices(len(a), 1)
    else:  # the open mesh of the block, which broadcasts to (p, q)
        i, j = np.ix_(np.arange(len(a)), np.arange(len(b)))
    wa, va = np.linalg.eigh(a.covs)
    if grads:
        _check_nonsingular(wa[:, 0], wa[:, -1])
    sq = np.sqrt(np.maximum(wa, 0.0))
    sa = _from_eig(va, sq)[i]
    m = sa @ b.covs[j] @ sa
    m = 0.5 * (m + m.swapaxes(-1, -2))
    wm, vm = np.linalg.eigh(m) if grads else (np.linalg.eigvalsh(m), None)
    root = np.sqrt(np.maximum(wm, 0.0))
    values = np.zeros((len(a), len(b)))
    mean_term = np.sum((a.means[i] - b.means[j]) ** 2, axis=-1)
    tr_a, tr_b = np.trace(a.covs, axis1=1, axis2=2), np.trace(b.covs, axis1=1, axis2=2)
    values[i, j] = np.maximum(mean_term + tr_a[i] + tr_b[j] - 2.0 * np.sum(root, axis=-1), 0.0)
    if same:
        values[j, i] = values[i, j]
    if not grads:
        return values

    grad_means = 2.0 * (a.means[:, None, :] - b.means[None, :, :])
    grad_covs = np.zeros((len(a), len(b)) + a.covs.shape[1:])
    # I - T from T = (outer V) diag(w) (outer V)^T, symmetrized.
    maps = [(i, j, _from_eig(va, 1.0 / sq)[i], root)]
    if same:
        if np.any(wm[:, 0] <= 0.0):
            raise NumericError("covariance pair too ill-conditioned to invert its transport map")
        maps.append((j, i, sa, 1.0 / root))
    for rows, cols, outer, w in maps:
        t = _from_eig(outer @ vm, w)
        grad_covs[rows, cols] = np.eye(t.shape[-1]) - 0.5 * (t + t.swapaxes(-1, -2))
    return values, grad_means, grad_covs


def _bures(dists_a, dists_b, grads: bool):
    """Both pairwise kernels: the arguments as Moments, first-argument
    covariances checked symmetric once, then the kernel of their dimension."""
    a, b = _moment_pair(dists_a, dists_b)
    _check_symmetric(a.covs, "first-argument covariance")
    kernel = _bures_2d if a.means.shape[1] == 2 else _bures_eig
    return kernel(a, b, dists_b is dists_a, grads)


def pairwise_bures_sq(dists_a, dists_b) -> np.ndarray:
    """All-pairs squared Bures-Wasserstein distances.

    ``dists_a`` and ``dists_b`` are Moments or lists of LabelDistribution;
    returns a (len(a), len(b)) matrix, exactly symmetric with an exactly
    zero diagonal when ``dists_b is dists_a``. A first-argument covariance
    that is not symmetric raises NumericError. The kernel is ``_bures_2d``
    at d = 2 and ``_bures_eig`` otherwise.
    """
    return _bures(dists_a, dists_b, grads=False)


def pairwise_bures_grads(dists_a, dists_b):
    """All-pairs squared Bures-Wasserstein distances and their analytic
    gradients w.r.t. the first argument, from one square root of
    M = S_a^1/2 S_b S_a^1/2 per pair.

    Returns (values, grad_means, grad_covs) of shapes (p, q), (p, q, d)
    and (p, q, d, d):

        value     = ||mu_a - mu_b||^2 + tr(S_a) + tr(S_b) - 2 tr(M^1/2)
        grad_mean = 2 (mu_a - mu_b)
        grad_cov  = I - T,   T = S_a^-1/2 M^1/2 S_a^-1/2

    T is the symmetric factor of the optimal Gaussian transport map, so
    grad_cov vanishes iff the covariances coincide. The values are those of
    ``pairwise_bures_sq`` up to rounding. Takes the inputs of
    ``pairwise_bures_sq`` and rejects what it rejects; every
    first-argument covariance must also be positive definite,
    lambda_min > 1e-14 * max(lambda_max, 1) (floor the covariances with
    ``project_psd`` first), or NumericError is raised. When
    ``dists_b is dists_a`` the values are exactly symmetric and the
    diagonal of values and gradients is exactly zero.
    """
    return _bures(dists_a, dists_b, grads=True)

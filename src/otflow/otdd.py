"""Dataset distance over feature-label pairs.

A labeled dataset is a weighted particle system whose labels are summarized
by Gaussian feature distributions. The ground metric between two particles
adds squared Euclidean feature distance and the squared Bures-Wasserstein
distance between their label distributions; transporting one dataset onto
another under that metric gives the dataset distance evaluated here, along
with its gradients w.r.t. particle positions and label-distribution moments.
"""

from dataclasses import KW_ONLY, dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericError
from .gaussian import (
    Moments,
    pairwise_bures_grads,
    pairwise_bures_sq,
    project_psd,
    psd_floor_value,
)
from .transport import (
    _cost_product,
    _envelope_grad,
    default_reg,
    sinkhorn,
    sinkhorn_symmetric,
    validate_weights,
)

MODE_FD = "fd"
MODE_JD_FL = "jd-fl"
MODE_JD_VL = "jd-vl"
MODES = (MODE_FD, MODE_JD_FL, MODE_JD_VL)

# Distance evaluation: the dual value is stationary at the optimum, so its
# error is quadratically smaller than the marginal violation; 1e-6 marginals
# give ~1e-9 value accuracy, enough for the symmetry and self-distance
# contracts. The iteration cap is generous because near-symmetric instances
# have a slowly decaying antisymmetric dual mode.
EVAL_TOL = 1e-6
EVAL_MAX_ITER = 20_000


@dataclass
class DatasetState:
    """Weighted particle system with Gaussian label moments.

    ``label_dists`` holds p moment rows and ``block[i]`` is the row that
    particle i uses. In fd and jd-fl dynamics the rows are the classes in
    ascending id order, so every particle of a class shares one row; in
    jd-vl each particle owns a row (``block = arange(n)``) and ``labels``
    only names the cluster it was last assigned to.
    """

    features: np.ndarray  # (n, d)
    labels: np.ndarray    # (n,) int
    weights: np.ndarray   # (n,) simplex
    label_dists: Moments  # p rows: means (p, d), covs (p, d, d)
    block: np.ndarray     # (n,) int, row of label_dists per particle

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.labels = np.asarray(self.labels, dtype=int)
        self.weights = np.asarray(self.weights, dtype=float)
        self.block = np.asarray(self.block, dtype=int)

    @classmethod
    def from_features(cls, features, labels, weights=None) -> "DatasetState":
        """A state whose moment rows are the empirical class summaries."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        labels = np.asarray(labels, dtype=int)
        n = features.shape[0]
        if weights is None:
            weights = np.full(n, 1.0 / n)
        _, block = np.unique(labels, return_inverse=True)
        state = cls(features, labels, weights, None, block)
        state.label_dists = label_stats(state)
        return state

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def per_particle(self) -> bool:
        """Whether every particle owns its moment row (jd-vl layout)."""
        return np.array_equal(self.block, np.arange(self.n))

    def class_ids(self):
        return sorted(int(c) for c in np.unique(self.labels))

    def validate(self):
        if not np.all(np.isfinite(self.features)):
            raise NumericError("features contain non-finite entries")
        validate_weights(self.weights)
        if any(x.shape != (self.n,) for x in (self.labels, self.weights, self.block)):
            raise DimensionMismatchError("labels, weights or block misaligned with features")
        if self.block.min() < 0 or self.block.max() >= len(self.label_dists):
            raise DimensionMismatchError("block indexes a missing moment row")

    def copy(self) -> "DatasetState":
        return DatasetState(
            self.features.copy(), self.labels.copy(), self.weights.copy(),
            self.label_dists.copy(), self.block.copy(),
        )

    def decoupled(self) -> "DatasetState":
        """Per-particle layout: each particle gets a copy of its row."""
        rows = self.label_dists
        return DatasetState(
            self.features.copy(), self.labels.copy(), self.weights.copy(),
            Moments(rows.means[self.block], rows.covs[self.block]), np.arange(self.n),
        )


@dataclass
class FlowGradients:
    """Per-unit-mass gradients of a functional at each particle.

    Entries are first-variation gradients: the raw partial derivative of the
    objective w.r.t. a particle position, or a moment row, divided by the
    mass it carries (the particle's weight, or the summed weight of the
    particles sharing the row), so magnitudes are comparable across particle
    counts. ``d_means`` (p, d) and ``d_covs`` (p, d, d) are aligned with
    the rows of ``label_dists``; both are None in fd, where moments do not
    move by gradient steps.
    """

    d_features: np.ndarray
    d_means: np.ndarray | None = None
    d_covs: np.ndarray | None = None

    @classmethod
    def zeros(cls, state: DatasetState, mode: str) -> "FlowGradients":
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        feats = np.zeros_like(state.features)
        if mode == MODE_FD:
            return cls(feats)
        rows = state.label_dists
        return cls(feats, np.zeros_like(rows.means), np.zeros_like(rows.covs))

    def axpy(self, w: float, other: "FlowGradients"):
        """In-place self += w * other for all blocks present in ``other``."""
        self.d_features += w * other.d_features
        if other.d_means is not None:
            self.d_means += w * other.d_means
            self.d_covs += w * other.d_covs

    def scale(self, w: float):
        """In-place multiplication of every block by ``w``."""
        self.d_features *= w
        if self.d_means is not None:
            self.d_means *= w
            self.d_covs *= w

    def is_finite(self) -> bool:
        blocks = (self.d_features, self.d_means, self.d_covs)
        return all(np.all(np.isfinite(b)) for b in blocks if b is not None)


def require_layout(state: DatasetState, mode: str):
    """jd-vl moves and relabels one moment row per particle; a state whose
    particles share rows must be ``decoupled()`` first."""
    if mode == MODE_JD_VL and not state.per_particle:
        raise DimensionMismatchError("jd-vl needs one moment row per particle (decoupled())")


def label_stats(state: DatasetState) -> Moments:
    """Empirical Gaussian summaries of the particles sharing each moment
    row: row k from the particles with ``block == k``.

    In the fd / jd-fl layout these are the per-class summaries, rows in
    ascending class id. Means and covariances use 1/N normalization;
    covariances are floored onto the PSD cone in one batched projection,
    so single-particle (or zero-variance) rows get an isotropic floor
    covariance.
    """
    block = state.block
    p, d = int(block.max()) + 1, state.dim
    means, covs = np.empty((p, d)), np.empty((p, d, d))
    for k in range(p):
        pts = state.features[block == k]
        means[k] = pts.mean(axis=0)
        diff = pts - means[k]
        covs[k] = diff.T @ diff / pts.shape[0]
    return Moments(means, project_psd(covs, psd_floor_value(covs)))


def ground_cost_matrix(
    src: DatasetState, dst: DatasetState, label_block=None, out=None
) -> np.ndarray:
    """Hybrid ground cost: squared feature distance plus squared Bures term.

    Label-pair distances are computed once per distinct distribution pair.
    ``label_block`` is that (p, q) matrix of squared Bures distances between
    the moment rows when the caller has it already; by default it is
    ``pairwise_bures_sq`` of them.

    The cost is one matrix product, clipped at 0 (``_cost_product``). The
    label term rides in k = min(p, q) extra columns: one side takes its
    rows of the block, the other a one-hot of its own row, so the product
    adds exactly ``label_block[src.block[i], dst.block[j]]``. When k is at
    least min(n, m), as for two per-particle (jd-vl) layouts, those columns
    would make the product O(n m min(n, m)), and the block is gathered and
    added instead. ``out`` receives the cost as in ``_cost_product``: an
    (n, m) C-contiguous float64 array, else DimensionMismatchError.
    """
    if src.dim != dst.dim:
        raise DimensionMismatchError(
            f"feature dimension mismatch: {src.dim} vs {dst.dim}"
        )
    if label_block is None:
        label_block = pairwise_bures_sq(src.label_dists, dst.label_dists)
    p, q = label_block.shape
    if min(p, q) >= min(src.n, dst.n):
        cost = _cost_product(src.features, dst.features, out=out)
        cost += label_block[src.block][:, dst.block]
        return cost
    if p <= q:
        src_cols, dst_cols = np.eye(p)[src.block], label_block.T[dst.block]
    else:
        src_cols, dst_cols = label_block[src.block], np.eye(q)[dst.block]
    return _cost_product(src.features, dst.features, src_cols, dst_cols, out)


@dataclass(eq=False)
class Divergence:
    """Squared entropic OT dataset distance from a source state to ``target``.

    With ``debias`` the value is the Sinkhorn divergence OT(src, target) -
    (OT(src, src) + OT(target, target)) / 2 of the dual values, zero at
    src == target; without it, OT(src, target) alone. ``solve(src)``
    returns (value_sq, plan_ab), plan_ab the src -> target coupling.
    ``value_and_grads(src, mode)`` returns value_sq and its FlowGradients;
    in a mode that moves moments (jd-fl, jd-vl) the label costs are the
    values of ``pairwise_bures_grads``, whose pullbacks ``_assemble_grads``
    applies to the couplings, and in fd those of ``pairwise_bures_sq``. An
    unknown mode raises ValueError, jd-vl needs the per-particle layout,
    and a zero-weight source particle raises NumericError before any solve.
    Solves share state, which ``reset()`` drops: a None ``reg`` is frozen
    from the first solve's ground cost, duals warm-start the next solve at
    the same particle count, and the target self-value is solved once, by
    the first solve. ``target`` is read per solve, and a solve whose
    ``target`` is another object than the last solve's resets first. The
    parameters after it are keyword-only: ``reg`` None or positive and
    finite, ``tol`` positive and finite and ``max_iter`` at least 1, else
    construction raises NumericError.

    The kernel-sized (n x m float64) arrays of the solves live in three flat
    buffers that the Divergence owns, each grown to the largest shape it has
    held and dropped by ``reset()``: ``cost`` takes every ground cost,
    ``kernel`` the cross plan and the value-only self-terms' kernels (the
    target's; the source's in ``solve``), ``kernel_aa`` the source self-plan
    that ``value_and_grads`` reads. So a flow step reuses its arrays, and a
    cold ``solve`` holds two: it builds the cross cost for a None ``reg``,
    the target self-term, the source self-term, then the cross cost again,
    and solves the cross plan last. ``solve`` gives its ``kernel`` up with
    the plan it returns, so a returned plan is never overwritten;
    ``plan.plan`` may be a view of a buffer sized for the largest square of
    the call.
    """

    target: DatasetState
    _: KW_ONLY
    reg: float | None = None
    debias: bool = True
    max_iter: int = EVAL_MAX_ITER
    tol: float = EVAL_TOL

    def __post_init__(self):
        if self.reg is not None and not (np.isfinite(self.reg) and self.reg > 0):
            raise NumericError(f"reg must be positive and finite (got {self.reg!r})")
        if not 0 < self.tol < np.inf:
            raise NumericError(f"tol must be positive and finite (got {self.tol!r})")
        if not self.max_iter >= 1:
            raise NumericError(f"max_iter must be >= 1 (got {self.max_iter!r})")
        self.reset()

    def reset(self):
        self._target = None  # the target the state below was built for
        self._reg = self.reg
        self._bb_soft = None
        self._warm_ab = None
        self._warm_aa = None
        self._buffers = {}  # "cost", "kernel", "kernel_aa": flat float64

    def solve(self, src: DatasetState):
        value_sq, plan_ab = self._solve(src, None)[:2]
        del self._buffers["kernel"]  # the returned plan keeps it
        return value_sq, plan_ab

    def value_and_grads(self, src: DatasetState, mode: str):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        require_layout(src, mode)
        empty = np.flatnonzero(src.weights == 0.0)
        if empty.size:
            raise NumericError(f"source particle {empty[0]} has zero weight, so no gradient per unit mass")
        value_sq, *solved = self._solve(src, mode)
        return value_sq, _assemble_grads(src, self.target, *solved)

    def _buffer(self, name: str, shape) -> np.ndarray:
        """The first entries of buffer ``name`` as a C-contiguous ``shape``
        array. A buffer too small is released before its successor is made."""
        size = shape[0] * shape[1]
        if name not in self._buffers or self._buffers[name].size < size:
            self._buffers.pop(name, None)
            self._buffers[name] = np.empty(size)
        return self._buffers[name][:size].reshape(shape)

    def _cost(self, src: DatasetState, dst: DatasetState, label_block) -> np.ndarray:
        return ground_cost_matrix(src, dst, label_block, self._buffer("cost", (src.n, dst.n)))

    def _self_plan(self, state: DatasetState, label_block, init, kernel: str, plan: bool):
        """The self-transport of ``state``, solved in buffer ``kernel``."""
        cost = self._cost(state, state, label_block)
        return sinkhorn_symmetric(
            cost, state.weights, self._reg, self.max_iter, self.tol,
            init=init, out=self._buffer(kernel, cost.shape), plan=plan,
        )

    def _solve(self, src: DatasetState, mode: str | None):
        """(value_sq, plan_ab, plan_aa, bures_ab, bures_aa) for
        ``value_and_grads`` in ``mode``. Only plans that are read are
        assembled: the target self-term, and with no mode (``solve``) the
        source self-term plan_aa, are value-only solves. bures_ab and
        bures_aa are the ``pairwise_bures_grads`` (values, pullback) pairs
        the label costs were built from in jd-fl and jd-vl; each part that
        was not built (fd, no debias) is None. The self-terms' costs reuse
        the cross cost's buffer, so a growing buffer is never held twice."""
        dst = self.target
        if dst is not self._target:
            self.reset()
            self._target = dst
        grads = mode not in (None, MODE_FD)
        bures_ab = pairwise_bures_grads(src.label_dists, dst.label_dists) if grads else None
        # Both builds of the cross cost take this one label block.
        label_ab = bures_ab[0] if grads else pairwise_bures_sq(src.label_dists, dst.label_dists)
        cost_ab = None if self.debias else self._cost(src, dst, label_ab)
        if self._reg is None:
            self._reg = default_reg(self._cost(src, dst, label_ab) if cost_ab is None else cost_ab)
        if self._warm_ab is not None and self._warm_ab[0].shape[0] != src.n:
            self._warm_ab = self._warm_aa = None
        self_sq, plan_aa, bures_aa = 0.0, None, None
        if self.debias:
            if self._bb_soft is None:
                self._bb_soft = self._self_plan(dst, None, None, "kernel", False).soft_cost
            bures_aa = pairwise_bures_grads(src.label_dists, src.label_dists) if grads else None
            plan_aa = self._self_plan(
                src, None if bures_aa is None else bures_aa[0], self._warm_aa,
                "kernel" if mode is None else "kernel_aa", mode is not None,
            )
            self._warm_aa = plan_aa.dual_left
            self_sq = 0.5 * (plan_aa.soft_cost + self._bb_soft)
        cost_ab = self._cost(src, dst, label_ab) if cost_ab is None else cost_ab
        plan_ab = sinkhorn(
            cost_ab, src.weights, dst.weights, self._reg, self.max_iter, self.tol,
            init=self._warm_ab, out=self._buffer("kernel", cost_ab.shape),
        )
        self._warm_ab = (plan_ab.dual_left, plan_ab.dual_right)
        return plan_ab.soft_cost - self_sq, plan_ab, plan_aa, bures_ab, bures_aa


def otdd(
    src: DatasetState,
    dst: DatasetState,
    reg: float | None = None,
    debias: bool = True,
    max_iter: int = EVAL_MAX_ITER,
    tol: float = EVAL_TOL,
):
    """Dataset distance between two states: the square root of one cold
    ``Divergence(dst).solve(src)`` value, i.e. of the debiased Sinkhorn
    divergence by default (zero from a dataset to itself), or of the
    entropic dual value with ``debias=False``. Negative values clip to 0.
    Returns (value, plan) with plan the src -> dst coupling, which nothing
    overwrites; ``plan.plan`` may be a view of a buffer sized for the
    largest square of the call (see ``Divergence``).
    """
    value_sq, plan = Divergence(dst, reg=reg, debias=debias, max_iter=max_iter, tol=tol).solve(src)
    return float(np.sqrt(max(value_sq, 0.0))), plan


def _row_masses(plan: np.ndarray, row_idx: np.ndarray, col_idx: np.ndarray, p: int, q: int):
    """Aggregate coupling mass onto moment-row pairs: (p, q) matrix."""
    pair = (row_idx[:, None] * q + col_idx[None, :]).ravel()
    return np.bincount(pair, weights=plan.ravel(), minlength=p * q).reshape(p, q)


def _assemble_grads(src, dst, plan_ab, plan_aa, bures_ab, bures_aa) -> FlowGradients:
    """Chain the coupling through feature and Bures gradients.

    ``plan_aa`` is the source self-coupling of the debiased divergence, or
    None for the raw entropic value; both gradients read it symmetrized,
    made once. ``bures_ab`` and ``bures_aa`` are the
    ``pairwise_bures_grads`` (values, pullback) pairs that ``Divergence``
    built the matching costs from; each coupling, summed onto moment-row
    pairs, goes through its pullback. ``bures_ab`` is None in fd, where
    only features get gradients. All outputs use the per-unit-mass
    convention of FlowGradients: each moment row is divided by the mass of
    the particles that share it.
    """
    d_feat = _envelope_grad(plan_ab.plan, src.features, dst.features)
    if plan_aa is not None:
        sym_aa = 0.5 * (plan_aa.plan + plan_aa.plan.T)
        d_feat -= _envelope_grad(sym_aa, src.features, src.features)
    d_feat /= src.weights[:, None]
    if bures_ab is None:
        return FlowGradients(d_feat)

    p, q = len(src.label_dists), len(dst.label_dists)
    d_mean, d_cov = bures_ab[1](_row_masses(plan_ab.plan, src.block, dst.block, p, q))
    if plan_aa is not None:
        masses = sym_aa if src.per_particle else _row_masses(sym_aa, src.block, src.block, p, p)
        self_mean, self_cov = bures_aa[1](masses)
        d_mean, d_cov = d_mean - self_mean, d_cov - self_cov

    row_mass = np.bincount(src.block, weights=src.weights, minlength=p)
    return FlowGradients(d_feat, d_mean / row_mass[:, None], d_cov / row_mass[:, None, None])

"""Entropic-regularized optimal transport between discrete measures.

Sinkhorn for the regularized problem, with a symmetric variant for self
couplings, an exact small-instance solver (one LP) used as oracle, and
envelope-form gradients of the transport value w.r.t. point positions.

Both Sinkhorn solvers iterate the log-potentials but run each round in the
scaling domain (Cuturi 2013): a matrix-vector product with the kernel
absorbed at reference potentials, stabilized by rebuilding that kernel
whenever the scalings drift out of range (Schmitzer 2019, "Stabilized
Sparse Scaling Algorithms for Entropy Regularized Transport Problems",
Alg. 2).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, NumericError, SinkhornConvergenceError, SizeLimitError

EXACT_SIZE_LIMIT = 64
DEFAULT_MAX_ITER = 2000
DEFAULT_TOL = 1e-6
# Default entropic regularization as a fraction of the mean ground cost.
DEFAULT_REG_FRACTION = 0.05


@dataclass
class TransportPlan:
    """Coupling between two discrete measures plus its dual potentials.

    ``cost`` is the linear transport cost <plan, C>. ``soft_cost`` is the
    converged value of the entropic dual objective, whose derivative w.r.t.
    cost entries is exactly the plan (the envelope identity the gradient
    routines rely on); for reg == 0 the two coincide.
    """

    plan: np.ndarray        # (n, m), nonnegative
    dual_left: np.ndarray   # (n,)
    dual_right: np.ndarray  # (m,)
    cost: float
    reg: float
    soft_cost: float = field(default=0.0)
    marginal_error: float = field(default=0.0)
    iterations: int = field(default=0)

    def marginals(self):
        return self.plan.sum(axis=1), self.plan.sum(axis=0)


def validate_weights(w: np.ndarray, tol: float = 1e-9):
    if not np.all(np.isfinite(w)):
        raise NumericError("weights contain non-finite entries")
    if np.any(w < 0):
        raise NumericError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > tol:
        raise NumericError(f"weights must sum to 1 (got {w.sum()!r})")


def _validate_cost(cost: np.ndarray):
    """Reject non-finite, then negative entries, from two reductions.

    A NaN anywhere makes the minimum NaN. An empty cost passes, so the
    weight checks that follow reject it.
    """
    if cost.size == 0:
        return
    lo, hi = cost.min(), cost.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericError("cost matrix contains non-finite entries")
    if lo < 0:
        raise NumericError("cost matrix must be nonnegative")


ANDERSON_MEMORY = 6
# Scalings exp(u - reference) and absorbed sums must stay within
# [1/SCALE_BOUND, SCALE_BOUND]. Within it, entries of the absorbed kernel
# lost to underflow carry no visible mass; outside it the kernel is
# rebuilt. Anderson candidates farther than LOG_BOUND from the plain round
# are not tried.
SCALE_BOUND = 1e50
LOG_BOUND = np.log(SCALE_BOUND)


class _LogFrame:
    """Validated inputs and absorbed kernel of one solve.

    The solvers iterate reg-scaled potentials u = f/reg, v = g/reg. ``buf``
    holds the kernel absorbed at reference potentials ``ref = [ru, rv]``,
    K~ = exp(-C/reg + ru (+) rv). A half round (``softmin``) is one
    matrix-vector product of K~ with weighted scalings exp(u - ru) or
    exp(v - rv), plus O(n + m) exp and log work; ``_softmin`` rebuilds K~
    around the current potentials when the scalings drift too far. ``plan``
    scales K~ in place into the coupling exp(u (+) v - C/reg) * (a x b)
    and computes its linear and dual values.
    """

    def __init__(self, cost, a, b, reg: float):
        self.cost = np.asarray(cost, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        _validate_cost(self.cost)
        validate_weights(self.a)
        validate_weights(self.b)
        if not (np.isfinite(reg) and reg > 0):
            raise NumericError(f"reg must be positive and finite (got {reg!r})")
        if self.cost.shape != self.a.shape + self.b.shape:
            raise DimensionMismatchError("weight lengths do not match the cost matrix")
        self.reg = reg
        live = self.a > 0
        # The zero-weight mask of ``_violation``, None when there are none.
        self.live = None if live.all() else live
        # The one kernel-sized array of a solve: K~, and at the end the plan.
        self.buf = np.empty(self.cost.shape)
        self.ref = [None, None]

    def start(self, f) -> np.ndarray:
        """Scaled left potential to start from: zero, or the warm start f/reg."""
        if f is None:
            return np.zeros(self.a.shape[0])
        f = np.asarray(f, dtype=float)
        if f.shape != self.a.shape:
            raise DimensionMismatchError(f"warm start has shape {f.shape}, not {self.a.shape}")
        if not np.all(np.isfinite(f)):
            raise NumericError("warm-start potential contains non-finite entries")
        return f / self.reg

    def softmin(self, shift, axis: int, w) -> np.ndarray:
        """-log sum_k w_k exp(-C/reg + shift) along ``axis``; ``shift`` runs along it.

        A scaling step on K~. The first call of a solve, and any call whose
        scaling exp(shift - reference) or absorbed sum leaves
        [1/SCALE_BOUND, SCALE_BOUND] (or is not finite), rebuilds K~ around
        ``shift`` instead.
        """
        ref = self.ref[axis]
        if ref is not None:
            d = shift - ref
            if np.abs(d).max() <= LOG_BOUND:
                wx = w * np.exp(d)
                s = wx @ self.buf if axis == 0 else self.buf @ wx
                # |log s| <= LOG_BOUND is the range check on s; a zero sum
                # logs to -inf and a NaN fails the comparison, so both rebuild.
                log_s = np.log(s)
                if np.abs(log_s).max() <= LOG_BOUND:
                    return self.ref[1 - axis] - log_s
        self.ref[axis] = shift
        self.ref[1 - axis], out = _softmin(self.cost, self.reg, shift, axis, self.buf, w)
        return out

    def plan(self, u, v, err: float, it: int) -> TransportPlan:
        reg = self.reg
        f = reg * u
        g = reg * v
        with np.errstate(divide="ignore"):  # a zero weight zeroes its line
            left = np.exp(np.log(self.a) + u - self.ref[0])
            right = np.exp(np.log(self.b) + v - self.ref[1])
        plan = self.buf
        plan *= left[:, None]
        plan *= right
        lin_cost = float(np.vdot(plan, self.cost))
        soft = float(f @ self.a + g @ self.b - reg * (plan.sum() - 1.0))
        return TransportPlan(plan, f, g, lin_cost, reg, soft, err, it)


def _softmin(cost, reg: float, shift, axis: int, buf, w):
    """The rebuild: a log-domain half round that absorbs ``shift`` into ``buf``.

    Fills ``buf`` with K~ = exp(-C/reg + shift - mx), where mx is the
    maximum of -C/reg + shift along ``axis`` over the atoms with positive
    weight, so each line along ``axis`` peaks at exactly 1 on them. Returns
    the other reference potential -mx and -log sum_k w_k exp(-C/reg + shift)
    along ``axis``.

    A zero-weight atom can lie far above that maximum, where its exact
    entries could overflow. They are capped at 1: they enter no marginal,
    so only that atom's own potential becomes approximate.
    """
    np.divide(cost, -reg, out=buf)
    np.add(buf, shift[:, None] if axis == 0 else shift, out=buf)
    live = (w > 0)[:, None] if axis == 0 else w > 0
    mx = buf.max(axis=axis, where=live, initial=-np.inf)
    np.subtract(buf, mx if axis == 0 else mx[:, None], out=buf)
    np.minimum(buf, 0.0, out=buf)
    np.exp(buf, out=buf)
    s = w @ buf if axis == 0 else buf @ w
    return -mx, -mx - np.log(s)


def _violation(a, live, u, t) -> float:
    """L1 marginal violation sum_i a_i |exp(u_i - t_i) - 1|.

    With t the scaling that u maps to, the row sums of the plan are
    a_i * exp(u_i - t_i). With every weight positive this is one dot
    product. Otherwise ``live`` is the mask a > 0, computed once per solve,
    and zero-weight atoms are excluded: their rows are exactly zero, and
    their term may be 0 * inf. Runs inside ``_fixed_point``'s errstate.
    """
    terms = np.abs(np.expm1(u - t))
    if live is None:
        return float(a @ terms)
    return float((a * terms)[live].sum())


class _Anderson:
    """Anderson extrapolation (Walker & Ni 2011) over a fixed-point map T.

    Keeps the last ANDERSON_MEMORY pairs (T(u), T(u) - u) in two ring
    buffers. The extrapolant is the affine combination of the stored T(u)
    whose residuals combine to the least L2 norm; differences against the
    newest entry span that affine space. The coefficients solve the normal
    equations (D D^T) gamma = D r of that least-squares problem, with one
    step of iterative refinement (Higham 2002, "Accuracy and Stability of
    Numerical Algorithms", ch. 12); see ``_anderson_coefficients``.
    """

    # _OLDER[k][slot]: the entries of a k-entry ring other than ``slot``,
    # oldest first.
    _OLDER = [
        [(slot + np.arange(1, k)) % k for slot in range(k)] for k in range(ANDERSON_MEMORY + 1)
    ]

    def __init__(self, n: int):
        self.maps = np.empty((ANDERSON_MEMORY, n))
        self.residuals = np.empty((ANDERSON_MEMORY, n))
        self.count = 0

    def push(self, u, tu):
        """Record (T(u), T(u) - u); return the extrapolant, or None with one entry."""
        slot = self.count % ANDERSON_MEMORY
        self.maps[slot] = tu
        self.residuals[slot] = tu - u
        self.count += 1
        k = min(self.count, ANDERSON_MEMORY)
        if k < 2:
            return None
        older = self._OLDER[k][slot]
        r = self.residuals[slot]
        gamma = _anderson_coefficients(r - self.residuals[older], r)
        return tu - (tu - self.maps[older]).T @ gamma


def _anderson_coefficients(diff, r):
    """gamma minimizing ||r - diff^T gamma||, for k differences of n-vectors.

    The k x k normal equations square the condition number of ``diff``;
    one refinement step against the residual restores lstsq's accuracy.
    numpy keeps no LU factors, so the inverse serves both solves at the
    cost of one. A singular Gram matrix takes ``lstsq``'s least-norm
    solution: one that ``inv`` reports, and every one with more
    differences than dimensions (k > n), which rounding can hide from it.
    """
    if diff.shape[0] <= diff.shape[1]:
        try:
            inverse = np.linalg.inv(diff @ diff.T)
            gamma = inverse @ (diff @ r)
            return gamma + inverse @ (diff @ (r - gamma @ diff))
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(diff.T, r, rcond=None)[0]


def _fixed_point(step, u, max_iter: int, tol: float, accel=None):
    """Iterate ``step`` from u until the violation it reports is within ``tol``.

    ``step(u)`` returns (next u, the matching right potential, violation at
    u). Each call is one round. With ``accel`` an Anderson candidate is
    tried between plain rounds and kept only if its true violation is
    lower. A candidate farther than LOG_BOUND from the plain round, or
    non-finite, is not tried: out there its violation is no longer a
    faithful measure. A NaN violation never counts as converged. Returns
    (u, right potential, violation, rounds); raises
    SinkhornConvergenceError when ``max_iter`` rounds do not reach ``tol``.
    """
    # One errstate for the whole loop: a violation may overflow or meet
    # 0 * inf on a zero-weight atom, and a zero absorbed sum logs to -inf;
    # each is then caught by a comparison, not by a warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nxt, right, err = step(u)
        it = 1
        while not err <= tol:
            if it >= max_iter:
                raise SinkhornConvergenceError(err, it)
            cand = None if accel is None else accel.push(u, nxt)
            if cand is not None and np.abs(cand - nxt).max() < LOG_BOUND:
                c_nxt, c_right, e_cand = step(cand)
                it += 1
                if e_cand < err:
                    u, nxt, right, err = cand, c_nxt, c_right, e_cand
                    continue
            u = nxt
            nxt, right, err = step(u)
            it += 1
    return u, right, err, it


def sinkhorn(
    cost: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    reg: float,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    init=None,
) -> TransportPlan:
    """Stabilized Sinkhorn iterations for entropic OT.

    Alternates exact row/column scalings on the dual potentials (f, g) with
    plan(f, g) = exp((f + g - C)/reg) * (a x b). Column marginals are exact
    by construction; convergence is declared when the L1 violation of the
    row marginals drops below ``tol``. Anderson extrapolation over the dual
    fixed point (safeguarded by the true violation, so the stopping metric
    is never fooled) cuts through the slowly decaying tail that plain
    alternation hits at small reg or on nearly symmetric instances. A
    candidate farther than LOG_BOUND from the plain round is not tried.

    A round is two matrix-vector products with the kernel absorbed at
    reference potentials, K~ = exp((ru (+) rv) - C/reg), on the scalings
    exp(u - ru) and exp(v - rv). The first round absorbs the start into K~;
    a round whose scaling or absorbed sum leaves [1e-50, 1e50] rebuilds it
    in the log domain first. Stable for reg down to ~1e-3 of the mean cost.

    ``init`` warm-starts the solve with a pair (f, g), such as
    (plan.dual_left, plan.dual_right) of an earlier solve; only f is read.
    It must have one finite entry per source atom, and is centred to mean
    zero: (f + c, g - c) is the same solution for every c, and a large
    offset would swamp the violation in rounding. ``reg`` must be positive
    and finite.

    Raises SinkhornConvergenceError (carrying the final violation) if the
    tolerance is not met within ``max_iter`` dual updates.
    """
    frame = _LogFrame(cost, a, b, reg)

    def full_round(u):
        """One column scaling followed by one row scaling."""
        v = frame.softmin(u, 0, frame.a)
        tu = frame.softmin(v, 1, frame.b)
        return tu, v, _violation(frame.a, frame.live, u, tu)

    u = frame.start(None if init is None else init[0])
    u -= u.mean()
    u, v, err, it = _fixed_point(full_round, u, max_iter, tol, _Anderson(u.shape[0]))
    return frame.plan(u, v, err, it)


def sinkhorn_symmetric(
    cost: np.ndarray,
    a: np.ndarray,
    reg: float,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    init=None,
) -> TransportPlan:
    """Entropic self-transport of a measure (symmetric cost).

    The optimal potentials satisfy f = g, so the averaged fixed-point update
    f <- (f + T(f))/2 applies; it converges in far fewer iterations than
    alternating scalings and is the workhorse behind debiased divergences.
    A round is one matrix-vector product with the absorbed kernel, rebuilt
    as in ``sinkhorn``. ``init`` warm-starts f (one finite entry per atom);
    f = g fixes the offset, so it is not centred.
    """
    frame = _LogFrame(cost, a, a, reg)

    def averaged_round(u):
        t = frame.softmin(u, 1, frame.a)
        return 0.5 * (u + t), u, _violation(frame.a, frame.live, u, t)

    u, _, err, it = _fixed_point(averaged_round, frame.start(init), max_iter, tol)
    return frame.plan(u, u, err, it)


def exact_ot(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> TransportPlan:
    """Exact optimal transport for small instances (n, m <= 64).

    One LP over the transportation polytope, for every instance. Its
    equality-constraint marginals are the Kantorovich potentials (f, g):
    f_i + g_j <= C_ij, with a.f + b.g equal to the cost. The last column
    constraint is redundant and dropped, which fixes its potential at 0.
    """
    from scipy.optimize import linprog  # on first use: a slow import

    cost = np.asarray(cost, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _validate_cost(cost)
    validate_weights(a)
    validate_weights(b)
    n, m = cost.shape
    if n > EXACT_SIZE_LIMIT or m > EXACT_SIZE_LIMIT:
        raise SizeLimitError(
            f"exact_ot supports at most {EXACT_SIZE_LIMIT} atoms per side (got {n}x{m})"
        )
    # Row i sums plan[i, :], row n + j sums plan[:, j] of the flattened plan.
    a_eq = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])
    b_eq = np.concatenate([a, b])[:-1]
    res = linprog(cost.ravel(), A_eq=a_eq[:-1], b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise NumericError(f"transport LP failed: {res.message}")
    duals = np.append(res.eqlin.marginals, 0.0)
    lin_cost = float(res.fun)
    return TransportPlan(res.x.reshape(n, m), duals[:n], duals[n:], lin_cost, 0.0, lin_cost)


def _cost_product(x, y, x_extra=None, y_extra=None) -> np.ndarray:
    """||x_i - y_j||^2 + <x_extra_i, y_extra_j> for every pair, as one GEMM.

    The product of the rows [x_i, ||x_i||^2, 1, x_extra_i] and
    [-2 y_j, 1, ||y_j||^2, y_extra_j], clipped at 0 in place: the result is
    the only (n, m) array made. Its cancellation error is
    O(eps * (||x_i||^2 + ||y_j||^2)), as for any expansion of the square.
    """
    n, d = x.shape
    k = 0 if x_extra is None else x_extra.shape[1]
    left = np.empty((n, d + 2 + k))
    right = np.empty((y.shape[0], d + 2 + k))
    left[:, :d] = x
    left[:, d] = np.einsum("ij,ij->i", x, x)
    left[:, d + 1] = 1.0
    np.multiply(y, -2.0, out=right[:, :d])
    right[:, d] = 1.0
    right[:, d + 1] = np.einsum("ij,ij->i", y, y)
    if k:
        left[:, d + 2:] = x_extra
        right[:, d + 2:] = y_extra
    cost = left @ right.T
    return np.maximum(cost, 0.0, out=cost)


def _envelope_grad(w, x, y) -> np.ndarray:
    """Gradient of sum_ij w_ij ||x_i - y_j||^2 w.r.t. every x_i, w held fixed.

    sum_j w_ij * 2 (x_i - y_j), as 2 (w.sum(1) x - w @ y): one matrix
    product, O(n m) memory, no (n, m, d) difference tensor. The transport,
    debiased self-term and pair-interaction gradients all take this form.
    """
    return 2.0 * (w.sum(axis=1)[:, None] * x - w @ y)


def squared_euclidean_cost(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise ||x_i - y_j||^2 as one matrix product (see ``_cost_product``),
    without forming difference tensors."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    return _cost_product(x, y)


def ot_position_grad(
    plan: TransportPlan, source_points: np.ndarray, target_points: np.ndarray
) -> np.ndarray:
    """Envelope gradient of the squared-Euclidean transport value w.r.t.
    source positions: with the plan held fixed at its optimum,
    d(value)/dx_i = sum_j plan_ij * 2 (x_i - y_j) (see ``_envelope_grad``).
    """
    source_points = np.atleast_2d(np.asarray(source_points, dtype=float))
    target_points = np.atleast_2d(np.asarray(target_points, dtype=float))
    return _envelope_grad(plan.plan, source_points, target_points)


def default_reg(cost: np.ndarray) -> float:
    """Default entropic regularization: a fixed fraction of the mean cost."""
    mean = float(np.mean(cost))
    return DEFAULT_REG_FRACTION * mean if mean > 0 else DEFAULT_REG_FRACTION

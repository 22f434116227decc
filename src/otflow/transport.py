"""Entropic-regularized optimal transport between discrete measures.

Log-domain Sinkhorn for the regularized problem, an exact small-instance
solver (linear assignment / LP) used as oracle, debiased divergence values,
and envelope-form gradients of the transport value w.r.t. point positions.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from .errors import NumericError, SinkhornConvergenceError, SizeLimitError

EXACT_SIZE_LIMIT = 64
DEFAULT_MAX_ITER = 2000
DEFAULT_TOL = 1e-6
# Default entropic regularization as a fraction of the mean ground cost.
DEFAULT_REG_FRACTION = 0.05


@dataclass
class DiscreteMeasure:
    """Weighted point cloud sum_i w_i * delta(x_i)."""

    points: np.ndarray   # (n, d)
    weights: np.ndarray  # (n,), simplex

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.weights is None:
            n = self.points.shape[0]
            self.weights = np.full(n, 1.0 / n)
        self.weights = np.asarray(self.weights, dtype=float)
        validate_weights(self.weights)
        if not np.all(np.isfinite(self.points)):
            raise NumericError("measure points contain non-finite entries")

    @property
    def n(self) -> int:
        return self.points.shape[0]


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
    if not np.all(np.isfinite(cost)):
        raise NumericError("cost matrix contains non-finite entries")
    if np.any(cost < 0):
        raise NumericError("cost matrix must be nonnegative")


ANDERSON_MEMORY = 6


class _LogFrame:
    """Validated inputs of a log-domain solve.

    The solvers iterate reg-scaled potentials u = f/reg, v = g/reg over the
    kernel K = -C/reg; ``plan`` turns converged (u, v) into the coupling
    plan = exp(u + v + K) * (a x b) and its linear and dual values.
    """

    def __init__(self, cost, a, b, reg: float):
        self.cost = np.asarray(cost, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        _validate_cost(self.cost)
        validate_weights(self.a)
        validate_weights(self.b)
        if reg <= 0:
            raise NumericError("reg must be positive")
        if self.cost.shape != self.a.shape + self.b.shape:
            raise NumericError("weight lengths do not match the cost matrix")
        self.reg = reg
        with np.errstate(divide="ignore"):
            self.log_a = np.log(self.a)
            self.log_b = np.log(self.b)
        self.kernel = -self.cost / reg

    def plan(self, u, v, err: float, it: int) -> TransportPlan:
        reg = self.reg
        f = reg * u
        g = reg * v
        plan = np.exp(
            self.log_a[:, None] + self.log_b[None, :] + u[:, None] + v[None, :] + self.kernel
        )
        lin_cost = float(np.sum(plan * self.cost))
        soft = float(f @ self.a + g @ self.b - reg * (plan.sum() - 1.0))
        return TransportPlan(plan, f, g, lin_cost, reg, soft, err, it)


def sinkhorn(
    cost: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    reg: float,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    init=None,
) -> TransportPlan:
    """Log-domain Sinkhorn iterations for entropic OT.

    Alternates exact row/column scalings on the dual potentials (f, g) with
    plan(f, g) = exp((f + g - C)/reg) * (a x b). Column marginals are exact
    by construction; convergence is declared when the L1 violation of the
    row marginals drops below ``tol``. Anderson extrapolation over the dual
    fixed point (safeguarded by the true violation, so the stopping metric
    is never fooled) cuts through the slowly decaying tail that plain
    alternation hits at small reg or on nearly symmetric instances. Stable
    for reg down to ~1e-3 of the mean cost. ``init`` warm-starts the duals.

    Raises SinkhornConvergenceError (carrying the final violation) if the
    tolerance is not met within ``max_iter`` dual updates.
    """
    frame = _LogFrame(cost, a, b, reg)
    a, log_a, log_b, kernel = frame.a, frame.log_a, frame.log_b, frame.kernel
    # A single preallocated buffer keeps the inner loop allocation-free.
    buf = np.empty_like(kernel)

    def full_round(u_cur):
        """One column scaling followed by one row scaling."""
        np.add(kernel, (u_cur + log_a)[:, None], out=buf)
        mx = buf.max(axis=0)
        np.subtract(buf, mx[None, :], out=buf)
        np.exp(buf, out=buf)
        v_cur = -(np.log(buf.sum(axis=0)) + mx)
        np.add(kernel, (v_cur + log_b)[None, :], out=buf)
        mx = buf.max(axis=1)
        np.subtract(buf, mx[:, None], out=buf)
        np.exp(buf, out=buf)
        return -(np.log(buf.sum(axis=1)) + mx), v_cur

    def violation(u_cur, u_mapped):
        # Row sums of plan(u, v(u)) are a_i * exp(u_i - T(u)_i); columns are
        # exact by construction, so this is the full marginal violation.
        # Zero-weight atoms are excluded (their rows are exactly zero).
        with np.errstate(over="ignore", invalid="ignore"):
            terms = a * np.abs(np.expm1(u_cur - u_mapped))
        return float(np.sum(terms[a > 0]))

    u = np.zeros(a.shape[0]) if init is None else np.asarray(init[0], dtype=float) / reg
    tu, v = full_round(u)
    it = 1
    err = violation(u, tu)
    hist_tu: list = []
    hist_r: list = []
    while err > tol:
        if it >= max_iter:
            raise SinkhornConvergenceError(err, it)
        hist_tu.append(tu)
        hist_r.append(tu - u)
        if len(hist_tu) > ANDERSON_MEMORY:
            hist_tu.pop(0)
            hist_r.pop(0)
        if len(hist_tu) >= 2:
            d_r = np.diff(np.stack(hist_r, axis=1), axis=1)
            d_tu = np.diff(np.stack(hist_tu, axis=1), axis=1)
            gamma = np.linalg.lstsq(d_r, hist_r[-1], rcond=None)[0]
            cand = tu - d_tu @ gamma
            if np.all(np.isfinite(cand)):
                t_cand, v_cand = full_round(cand)
                it += 1
                e_cand = violation(cand, t_cand)
                if e_cand < err:
                    u, tu, v, err = cand, t_cand, v_cand, e_cand
                    continue
        u = tu
        tu, v = full_round(u)
        it += 1
        err = violation(u, tu)
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
    """
    frame = _LogFrame(cost, a, a, reg)
    a, log_a, kernel = frame.a, frame.log_a, frame.kernel
    buf = np.empty_like(kernel)
    u = np.zeros(a.shape[0]) if init is None else np.asarray(init, dtype=float) / reg

    err = np.inf
    for it in range(1, max_iter + 1):
        np.add(kernel, (u + log_a)[None, :], out=buf)
        mx = buf.max(axis=1)
        np.subtract(buf, mx[:, None], out=buf)
        np.exp(buf, out=buf)
        t = -(np.log(buf.sum(axis=1)) + mx)
        with np.errstate(over="ignore"):
            err = float(np.sum(a * np.abs(np.expm1(u - t))))
        if err <= tol:
            break
        u = 0.5 * (u + t)
    else:
        raise SinkhornConvergenceError(err, max_iter)
    return frame.plan(u, u, err, it)


def sinkhorn_divergence(
    cost_ab: np.ndarray,
    cost_aa: np.ndarray,
    cost_bb: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    reg: float,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
):
    """Debiased entropic OT: OT(a,b) - (OT(a,a) + OT(b,b)) / 2.

    Uses the converged dual values, so the divergence of a measure with
    itself is exactly zero. Returns (value, plan_ab, plan_aa, plan_bb).
    """
    plan_ab = sinkhorn(cost_ab, a, b, reg, max_iter, tol)
    plan_aa = sinkhorn_symmetric(cost_aa, a, reg, max_iter, tol)
    plan_bb = sinkhorn_symmetric(cost_bb, b, reg, max_iter, tol)
    value = plan_ab.soft_cost - 0.5 * (plan_aa.soft_cost + plan_bb.soft_cost)
    return value, plan_ab, plan_aa, plan_bb


def _lp_duals(cost: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Kantorovich potentials via the dual LP: max a.f + b.g, f_i+g_j <= C_ij."""
    n, m = cost.shape
    nv = n + m
    a_ub = np.zeros((n * m, nv))
    rows = np.repeat(np.arange(n), m)
    cols = np.tile(np.arange(m), n)
    a_ub[np.arange(n * m), rows] = 1.0
    a_ub[np.arange(n * m), n + cols] = 1.0
    res = linprog(
        c=-np.concatenate([a, b]),
        A_ub=a_ub,
        b_ub=cost.ravel(),
        bounds=[(None, None)] * nv,
        method="highs",
    )
    if not res.success:
        raise NumericError(f"dual LP failed: {res.message}")
    return res.x[:n], res.x[n:]


def exact_ot(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> TransportPlan:
    """Exact optimal transport for small instances (n, m <= 64).

    Uniform equal-size marginals reduce to a linear assignment; anything
    else is solved as an LP over the transportation polytope. Dual
    potentials come from the dual LP in both cases.
    """
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

    uniform = (
        n == m
        and np.allclose(a, 1.0 / n, atol=1e-12)
        and np.allclose(b, 1.0 / m, atol=1e-12)
    )
    if uniform:
        rows, cols = linear_sum_assignment(cost)
        plan = np.zeros((n, m))
        plan[rows, cols] = 1.0 / n
        lin_cost = float(cost[rows, cols].mean())
    else:
        a_eq = np.zeros((n + m, n * m))
        idx = np.arange(n * m).reshape(n, m)
        for i in range(n):
            a_eq[i, idx[i, :]] = 1.0
        for j in range(m):
            a_eq[n + j, idx[:, j]] = 1.0
        # Drop one redundant marginal constraint to keep the system full rank.
        res = linprog(
            c=cost.ravel(),
            A_eq=a_eq[:-1],
            b_eq=np.concatenate([a, b])[:-1],
            bounds=(0, None),
            method="highs",
        )
        if not res.success:
            raise NumericError(f"transport LP failed: {res.message}")
        plan = res.x.reshape(n, m)
        lin_cost = float(res.fun)

    f, g = _lp_duals(cost, a, b)
    return TransportPlan(
        plan=plan,
        dual_left=f,
        dual_right=g,
        cost=lin_cost,
        reg=0.0,
        soft_cost=lin_cost,
    )


def squared_euclidean_cost(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise ||x_i - y_j||^2, computed without forming difference tensors."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    sq = (
        np.sum(x**2, axis=1)[:, None]
        + np.sum(y**2, axis=1)[None, :]
        - 2.0 * x @ y.T
    )
    return np.maximum(sq, 0.0)


def squared_euclidean_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient tensor of the squared Euclidean cost: (n, m, d) with 2(x_i - y_j)."""
    return 2.0 * (x[:, None, :] - y[None, :, :])


def ot_position_grad(
    plan: TransportPlan,
    source_points: np.ndarray,
    target_points: np.ndarray,
    ground_grad=squared_euclidean_grad,
) -> np.ndarray:
    """Envelope gradient of the transport value w.r.t. source positions.

    With the plan held fixed at its optimum, d(value)/dx_i reduces to
    sum_j plan_ij * grad_x c(x_i, x'_j). ``ground_grad`` maps the two point
    arrays to the (n, m, d) tensor of per-pair cost gradients.
    """
    source_points = np.atleast_2d(np.asarray(source_points, dtype=float))
    target_points = np.atleast_2d(np.asarray(target_points, dtype=float))
    grads = np.asarray(ground_grad(source_points, target_points), dtype=float)
    if not np.all(np.isfinite(grads)):
        raise NumericError("ground-cost gradient callback returned non-finite values")
    return np.einsum("ij,ijd->id", plan.plan, grads)


def default_reg(cost: np.ndarray) -> float:
    """Default entropic regularization: a fixed fraction of the mean cost."""
    mean = float(np.mean(cost))
    return DEFAULT_REG_FRACTION * mean if mean > 0 else DEFAULT_REG_FRACTION


def entropic_transport(
    a: DiscreteMeasure,
    b: DiscreteMeasure,
    reg: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> TransportPlan:
    """Entropic OT between two point clouds under squared Euclidean cost."""
    cost = squared_euclidean_cost(a.points, b.points)
    if reg is None:
        reg = default_reg(cost)
    return sinkhorn(cost, a.weights, b.weights, reg, max_iter, tol)

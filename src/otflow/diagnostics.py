"""Numerical verification of flow theory on small instances, plus a
desk-scale transfer-quality proxy.

Geodesics and the contraction metric are built on exact feature-space
optimal transport (squared Euclidean cost), which is where the convexity
statements are defined; labels ride along unchanged.
"""

from dataclasses import dataclass, field

import numpy as np

from .dynamics import FlowConfig, run_flow
from .errors import DimensionMismatchError, SizeLimitError
from .functionals import FunctionalSpec, eval_terms
from .otdd import DatasetState
from .transport import EXACT_SIZE_LIMIT, exact_ot, squared_euclidean_cost

CONVEXITY_GRID = [round(0.1 * i, 1) for i in range(11)]


@dataclass
class ConvexityReport:
    """Samples of the geodesic-convexity inequality at grid points.

    Each sample is (t, lhs, rhs) for
        F(interp_t) <= (1-t) F(a) + t F(b) - (lam/2) t (1-t) W2^2(a, b);
    ``max_violation`` is the largest lhs - rhs (negative when the
    inequality holds everywhere with margin).
    """

    functional_name: str
    lambda_claimed: float
    samples: list = field(default_factory=list)
    max_violation: float = 0.0
    generalized_base: bool = False


def feature_w2_sq(a: DatasetState, b: DatasetState) -> float:
    """Exact squared 2-Wasserstein distance between the feature clouds."""
    cost = squared_euclidean_cost(a.features, b.features)
    return exact_ot(cost, a.weights, b.weights).cost


def _matching(a: DatasetState, b: DatasetState) -> np.ndarray:
    """Optimal permutation matching a's particles to b's (uniform weights)."""
    if a.n != b.n:
        raise DimensionMismatchError("interpolation needs equal particle counts")
    if a.n > EXACT_SIZE_LIMIT:
        raise SizeLimitError(f"interpolation limited to {EXACT_SIZE_LIMIT} particles")
    uniform = np.full(a.n, 1.0 / a.n)
    if not (np.allclose(a.weights, uniform) and np.allclose(b.weights, uniform)):
        raise DimensionMismatchError("interpolation needs uniform weights")
    from scipy.optimize import linear_sum_assignment  # on first use: a slow import

    return linear_sum_assignment(squared_euclidean_cost(a.features, b.features))[1]


def displacement_interpolant(a: DatasetState, b: DatasetState, t: float) -> DatasetState:
    """Point on the Wasserstein geodesic from a to b at time t.

    Particles sit at (1-t) x_i + t x'_sigma(i) along the exact optimal
    matching; labels are carried from a and the class moments refreshed.
    """
    sigma = _matching(a, b)
    feats = (1.0 - t) * a.features + t * b.features[sigma]
    return DatasetState.from_features(feats, a.labels.copy())


def _generalized_interpolant(a, b, base, t):
    """Generalized geodesic through ``base``: ((1-t) T0 + t T1)_# base."""
    s0 = _matching(base, a)
    s1 = _matching(base, b)
    feats = (1.0 - t) * a.features[s0] + t * b.features[s1]
    return DatasetState.from_features(feats, a.labels[s0].copy())


# Keys of a run config's ``convexity`` section and the types of their values:
# ``lambda_claimed`` as below, and ``use_target_base``, which passes the
# target dataset as ``base``.
CONVEXITY_KEYS = {"lambda_claimed": float, "use_target_base": bool}


def check_displacement_convexity(
    functional: FunctionalSpec,
    a: DatasetState,
    b: DatasetState,
    lambda_claimed: float = 0.0,
    base: DatasetState | None = None,
) -> ConvexityReport:
    """Evaluate the lambda-convexity inequality on an 11-point grid.

    With ``base`` given, interpolation runs along the generalized geodesic
    through that base measure instead of the displacement geodesic (the
    regime where the target-distance functional is convex when the target
    itself is the base). No pass/fail is asserted; violations are reported.
    The functional's solver state is reset first, so the report does not
    depend on where its terms were evaluated before.
    """
    functional.reset()
    w2 = feature_w2_sq(a, b)
    f_a = float(sum(eval_terms(a, functional)))
    f_b = float(sum(eval_terms(b, functional)))
    report = ConvexityReport(
        functional_name="+".join(functional.term_kinds()),
        lambda_claimed=lambda_claimed,
        generalized_base=base is not None,
    )
    worst = -np.inf
    for t in CONVEXITY_GRID:
        if base is not None:
            interp = _generalized_interpolant(a, b, base, t)
        else:
            interp = displacement_interpolant(a, b, t)
        lhs = float(sum(eval_terms(interp, functional)))
        rhs = (1.0 - t) * f_a + t * f_b - 0.5 * lambda_claimed * t * (1.0 - t) * w2
        report.samples.append((t, lhs, rhs))
        worst = max(worst, lhs - rhs)
    report.max_violation = float(worst)
    return report


def check_flow_contraction(
    config: FlowConfig,
    a: DatasetState,
    b: DatasetState,
    lam: float | None = None,
    slack: float = 0.05,
):
    """Run two flows under an identical config and track their separation.

    Returns a list of (time, delta) pairs with delta(t) = 0.5 W2^2 between
    the two states at each recorded snapshot (time = step * step size).
    When ``lam`` > 0 is given, asserts delta is non-increasing up to the
    per-step slack, which lambda-convex potentials guarantee.
    """
    traj_a = run_flow(a, config)
    traj_b = run_flow(b, config)
    tau = config.optimizer.step_size
    table = []
    for snap_a, snap_b in zip(traj_a.snapshots, traj_b.snapshots):
        delta = 0.5 * feature_w2_sq(snap_a.state, snap_b.state)
        table.append((snap_a.step * tau, delta))
    if lam is not None and lam > 0:
        for (_, d0), (_, d1) in zip(table, table[1:]):
            if d1 > d0 * (1.0 + slack) + 1e-12:
                raise AssertionError(
                    f"contraction violated: delta grew from {d0:.6e} to {d1:.6e}"
                )
    return table


def oracle_accuracy_proxy(flowed: DatasetState, source_train: DatasetState) -> float:
    """Nearest-class-centroid accuracy of flowed particles.

    The classifier is fit on ``source_train`` class centroids and queried on
    the flowed particles. When the two label sets have equal size the score
    is the best-permutation label agreement; otherwise it is cluster purity
    of the flowed labels against the predictions.
    """
    if flowed.n == 0 or source_train.n == 0:
        raise ValueError("empty dataset")
    if flowed.dim != source_train.dim:
        raise DimensionMismatchError("feature dimensions differ")
    classes = source_train.class_ids()
    centroids = np.stack(
        [source_train.features[source_train.labels == c].mean(axis=0) for c in classes]
    )
    d2 = squared_euclidean_cost(flowed.features, centroids)
    pred = np.array(classes)[np.argmin(d2, axis=1)]

    true_classes = flowed.class_ids()
    if len(true_classes) == len(classes):
        confusion = np.zeros((len(true_classes), len(classes)))
        for ti, tc in enumerate(true_classes):
            for pi, pc in enumerate(classes):
                confusion[ti, pi] = np.sum((flowed.labels == tc) & (pred == pc))
        from scipy.optimize import linear_sum_assignment  # on first use: a slow import

        rows, cols = linear_sum_assignment(-confusion)
        return float(confusion[rows, cols].sum() / flowed.n)

    # Cluster purity: each true-label group votes for its dominant prediction.
    total = 0.0
    for tc in true_classes:
        sub = pred[flowed.labels == tc]
        counts = np.bincount(np.searchsorted(classes, sub), minlength=len(classes))
        total += counts.max()
    return float(total / flowed.n)

"""Layer kernels at fixed sizes, for sizes no workload reaches.

``pairwise_bures_sq`` / ``pairwise_bures_grads`` at (p, q, d) on a grid that
includes d = 8 (every workload is 2-D), and ``sinkhorn`` cold vs warm at the
flow size n = 150 and the distance size n = 800, with round counts. The warm
solve starts from the duals of the previous state, as a flow step does.
"""

import statistics
import time

import numpy as np

import otflow
from otflow import gaussian, transport

BURES_GRID = ((60, 5, 2), (60, 60, 2), (200, 200, 2), (100, 100, 8))
SINKHORN_SIZES = (150, 800)
REPEATS = 3
# Solver settings of TargetDistanceTerm, which drives every flow.
SOLVE_MAX_ITER = 3 * transport.DEFAULT_MAX_ITER
SOLVE_TOL = transport.DEFAULT_TOL
# Feature displacement between the warm start and the solved state: one
# flow step at step size 0.05 moves particles by about this much.
WARM_SHIFT = 0.02


def _median_ms(fn):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times), result


def _label_dists(rng, count, dim):
    factors = rng.standard_normal((count, dim, dim))
    covs = factors @ np.swapaxes(factors, 1, 2) / dim + 0.1 * np.eye(dim)
    means = 2.0 * rng.standard_normal((count, dim))
    return [gaussian.LabelDistribution(m, c) for m, c in zip(means, covs)]


def kernel_grid(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    out = {}
    for p, q, d in BURES_GRID:
        a, b = _label_dists(rng, p, d), _label_dists(rng, q, d)
        key = f"p{p}q{q}d{d}"
        out[f"grid.bures_sq.{key}.ms"], _ = _median_ms(lambda: gaussian.pairwise_bures_sq(a, b))
        out[f"grid.bures_grads.{key}.ms"], _ = _median_ms(
            lambda: gaussian.pairwise_bures_grads(a, b)
        )
    for n in SINKHORN_SIZES:
        spec = otflow.GeneratorSpec(n=n, k=5, seed=seed, radius=2.0, sigma=0.4)
        src = otflow.generate(spec)
        tgt = otflow.generate(otflow.GeneratorSpec(n=n, k=5, seed=seed + 1, radius=5.0))
        cost0 = otflow.ground_cost_matrix(src, tgt)
        reg = transport.default_reg(cost0)
        start = transport.sinkhorn(cost0, src.weights, tgt.weights, reg, SOLVE_MAX_ITER, SOLVE_TOL)
        moved = otflow.DatasetState.from_features(
            src.features + WARM_SHIFT * rng.standard_normal(src.features.shape), src.labels
        )
        cost = otflow.ground_cost_matrix(moved, tgt)
        for kind, init in (("cold", None), ("warm", (start.dual_left, start.dual_right))):
            ms, plan = _median_ms(
                lambda: transport.sinkhorn(
                    cost, moved.weights, tgt.weights, reg, SOLVE_MAX_ITER, SOLVE_TOL, init=init
                )
            )
            out[f"grid.sinkhorn.n{n}.{kind}.ms"] = ms
            out[f"grid.sinkhorn.n{n}.{kind}.rounds"] = plan.iterations
    return out

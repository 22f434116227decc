"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines as they complete.
"""

import itertools
import json
import re
import time

import numpy as np
import pytest

import otflow as of
from otflow.clustering import dbscan_bures
from otflow.diagnostics import (
    check_displacement_convexity,
    check_flow_contraction,
    feature_w2_sq,
)
from otflow.dynamics import FlowConfig, run_flow
from otflow.functionals import (
    EntropyTerm,
    FunctionalSpec,
    InteractionTerm,
    PotentialTerm,
    TargetDistanceTerm,
)
from otflow.gaussian import Moments, pairwise_bures_grads, pairwise_bures_sq
from otflow.optim import OptimizerState
from otflow.otdd import (
    MODE_FD,
    MODE_JD_FL,
    MODE_JD_VL,
    DatasetState,
    ground_cost_matrix,
    otdd,
)
from otflow.transport import (
    sinkhorn,
    sinkhorn_symmetric,
    squared_euclidean_cost,
)


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def rand_spd(rng, d, lo=0.3, hi=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (q * rng.uniform(lo, hi, d)) @ q.T


def rand_gaussian_pair(rng, d):
    """Two one-row Moments in dimension d."""
    mean = rng.uniform(-1, 1, d)
    a = Moments([mean], [rand_spd(rng, d)])
    shift = rng.uniform(1.5, 3.0, d) * rng.choice([-1.0, 1.0], d)
    b = Moments([mean + shift], [rand_spd(rng, d)])
    return a, b


def inflate_covariances(state, ridge=0.25):
    """Keep label covariances well inside the PD cone; finite differences at
    h = 1e-5 need the smooth regime (the gradient op requires strict PD)."""
    state.label_dists.covs += ridge * np.eye(state.dim)
    return state


def test_01_sinkhorn_vs_exact():
    rng = np.random.default_rng(101)
    perm_cache = {}
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 9))
        cost = rng.uniform(size=(n, n))
        if n not in perm_cache:
            perm_cache[n] = np.array(list(itertools.permutations(range(n))))
        perms = perm_cache[n]
        exact = float(cost[np.arange(n), perms].sum(axis=1).min() / n)
        u = np.full(n, 1.0 / n)
        plan = of.sinkhorn(cost, u, u, reg=1e-3 * cost.mean(), max_iter=100_000, tol=1e-5)
        worst = max(worst, abs(plan.cost - exact) / exact)
    elapsed = time.perf_counter() - t0
    report(
        1, "sinkhorn vs exact OT",
        worst <= 0.01 and elapsed < 5.0,
        f"max rel cost error {worst:.2e} over 50 instances, {elapsed:.1f}s",
    )


def test_02_bures_closed_form():
    t0 = time.perf_counter()
    # 1-D equal-variance pair: exact |delta mu|^2
    a1 = Moments([[0.0]], [[[1.0]]])
    b1 = Moments([[3.0]], [[[1.0]]])
    exact_1d_err = abs(pairwise_bures_sq(a1, b1)[0, 0] - 9.0)

    # closed form vs debiased entropic estimate on 10k samples per side,
    # evaluated in disjoint 1000-sample batch pairs and averaged
    worst = 0.0
    for d in (1, 2, 3):
        rng = np.random.default_rng(1000 * d)
        a, b = rand_gaussian_pair(rng, d)
        closed = pairwise_bures_sq(a, b)[0, 0]
        la, lb = np.linalg.cholesky(a.covs[0]), np.linalg.cholesky(b.covs[0])
        reg = 0.2 * float(np.trace(a.covs[0]) + np.trace(b.covs[0])) / 2
        m, batches = 1000, 10
        u = np.full(m, 1.0 / m)
        ests = []
        for _ in range(batches):
            xa = a.means[0] + rng.standard_normal((m, d)) @ la.T
            xb = b.means[0] + rng.standard_normal((m, d)) @ lb.T
            solver = dict(reg=reg, tol=1e-5, max_iter=3000)
            est = sinkhorn(squared_euclidean_cost(xa, xb), u, u, **solver).soft_cost - 0.5 * (
                sinkhorn_symmetric(squared_euclidean_cost(xa, xa), u, **solver).soft_cost
                + sinkhorn_symmetric(squared_euclidean_cost(xb, xb), u, **solver).soft_cost
            )
            ests.append(est)
        worst = max(worst, abs(float(np.mean(ests)) - closed) / closed)
    elapsed = time.perf_counter() - t0
    report(
        2, "Bures closed form vs Monte Carlo",
        worst <= 0.02 and exact_1d_err <= 1e-9 and elapsed < 30.0,
        f"max rel error {worst:.2%}, 1-D exactness {exact_1d_err:.1e}, {elapsed:.1f}s",
    )


def _fd_feature_check(src, dst, mode, reg, rng):
    """Relative FD error of otdd gradients on a random instance."""
    solver = dict(tol=1e-9, max_iter=300_000)
    grads = TargetDistanceTerm(dst, reg=reg, **solver).value_and_grads(src, mode)[1]

    def value(state):
        pab = sinkhorn(ground_cost_matrix(state, dst), state.weights, dst.weights, reg, **{
            "tol": 1e-9, "max_iter": 300_000})
        paa = sinkhorn_symmetric(ground_cost_matrix(state, state), state.weights, reg,
                                 tol=1e-9, max_iter=300_000)
        return pab.soft_cost - 0.5 * paa.soft_cost

    h = 1e-5
    worst = 0.0
    scale = float(np.abs(grads.d_features).max()) * src.weights[0]
    i = int(rng.integers(src.n))
    for l in range(src.dim):
        sp = src.copy(); sp.features[i, l] += h
        sm = src.copy(); sm.features[i, l] -= h
        fd = (value(sp) - value(sm)) / (2 * h)
        an = grads.d_features[i, l] * src.weights[i]
        worst = max(worst, abs(fd - an) / max(abs(fd), scale, 1e-8))

    if mode == MODE_JD_FL:
        c = src.class_ids()[0]
        mass = float(src.weights[src.labels == c].sum())
        sp = src.copy(); sp.label_dists.means[c, 0] += h
        sm = src.copy(); sm.label_dists.means[c, 0] -= h
        fd = (value(sp) - value(sm)) / (2 * h)
        worst = max(worst, abs(fd - grads.d_means[c, 0] * mass) / max(abs(fd), 1e-6))
        v = rng.standard_normal((src.dim, src.dim)); v = 0.5 * (v + v.T)
        sp = src.copy(); sp.label_dists.covs[c] += h * v
        sm = src.copy(); sm.label_dists.covs[c] -= h * v
        fd = (value(sp) - value(sm)) / (2 * h)
        an = float(np.sum(grads.d_covs[c] * v)) * mass
        worst = max(worst, abs(fd - an) / max(abs(fd), 1e-6))
    elif mode == MODE_JD_VL:
        mass = float(src.weights[i])
        sp = src.copy(); sp.label_dists.means[i, 0] += h
        sm = src.copy(); sm.label_dists.means[i, 0] -= h
        fd = (value(sp) - value(sm)) / (2 * h)
        worst = max(worst, abs(fd - grads.d_means[i, 0] * mass) / max(abs(fd), 1e-6))
        v = rng.standard_normal((src.dim, src.dim)); v = 0.5 * (v + v.T)
        sp = src.copy(); sp.label_dists.covs[i] += h * v
        sm = src.copy(); sm.label_dists.covs[i] -= h * v
        fd = (value(sp) - value(sm)) / (2 * h)
        an = float(np.sum(grads.d_covs[i] * v)) * mass
        worst = max(worst, abs(fd - an) / max(abs(fd), 1e-6))
    return worst


def test_03_gradient_suite():
    t0 = time.perf_counter()
    failures = []

    # analytic Bures gradients: 1e-4
    rng = np.random.default_rng(300)
    worst_bures = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        a, b = rand_gaussian_pair(rng, d)
        _, gms, gcs = pairwise_bures_grads(a, b)
        gm, gc = gms[0, 0], gcs[0, 0]
        mean, cov = a.means[0], a.covs[0]
        h = 1e-5
        for l in range(d):
            mp = mean.copy(); mp[l] += h
            mm = mean.copy(); mm[l] -= h
            fd = (pairwise_bures_sq(Moments([mp], [cov]), b)[0, 0]
                  - pairwise_bures_sq(Moments([mm], [cov]), b)[0, 0]) / (2 * h)
            worst_bures = max(worst_bures, abs(fd - gm[l]) / max(abs(fd), 1e-6))
        v = rng.standard_normal((d, d)); v = 0.5 * (v + v.T)
        fd = (pairwise_bures_sq(Moments([mean], [cov + h * v]), b)[0, 0]
              - pairwise_bures_sq(Moments([mean], [cov - h * v]), b)[0, 0]) / (2 * h)
        worst_bures = max(worst_bures, abs(fd - float(np.sum(gc * v))) / max(abs(fd), 1e-6))
    if worst_bures > 1e-4:
        failures.append(f"bures grads {worst_bures:.2e}")

    # envelope position gradients: 1e-3
    worst_pos = 0.0
    rng = np.random.default_rng(301)
    for _ in range(20):
        n = int(rng.integers(4, 7))
        x = rng.standard_normal((n, 2))
        y = rng.standard_normal((n, 2)) + 0.5
        u = np.full(n, 1.0 / n)
        reg = 0.1 * squared_euclidean_cost(x, y).mean()
        plan = sinkhorn(squared_euclidean_cost(x, y), u, u, reg, tol=1e-10, max_iter=200_000)
        g = of.ot_position_grad(plan, x, y)
        h = 1e-5
        i = int(rng.integers(n))
        for l in range(2):
            e = np.zeros_like(x); e[i, l] = h
            vp = sinkhorn(squared_euclidean_cost(x + e, y), u, u, reg,
                          tol=1e-10, max_iter=200_000).soft_cost
            vm = sinkhorn(squared_euclidean_cost(x - e, y), u, u, reg,
                          tol=1e-10, max_iter=200_000).soft_cost
            fd = (vp - vm) / (2 * h)
            worst_pos = max(worst_pos, abs(fd - g[i, l]) / max(abs(fd), np.abs(g).max(), 1e-8))
    if worst_pos > 1e-3:
        failures.append(f"position grads {worst_pos:.2e}")

    # dataset-distance gradients, all modes: 1e-3
    worst_mode = {}
    for mode in (MODE_FD, MODE_JD_FL, MODE_JD_VL):
        rng = np.random.default_rng(302)
        worst = 0.0
        for k in range(20):
            src_rng = np.random.default_rng(5000 + k)
            centers = 3.0 * src_rng.standard_normal((2, 2))
            labels = np.arange(7) % 2
            feats = centers[labels] + 0.6 * src_rng.standard_normal((7, 2))
            src = DatasetState.from_features(feats, labels)
            if mode == MODE_JD_VL:
                src = src.decoupled()
            inflate_covariances(src)
            centers = 3.0 * src_rng.standard_normal((2, 2))
            labels = np.arange(8) % 2
            feats = centers[labels] + 0.6 * src_rng.standard_normal((8, 2))
            dst = inflate_covariances(DatasetState.from_features(feats, labels))
            reg = 0.1 * float(ground_cost_matrix(src, dst).mean())
            worst = max(worst, _fd_feature_check(src, dst, mode, reg, rng))
        worst_mode[mode] = worst
        if worst > 1e-3:
            failures.append(f"otdd {mode} grads {worst:.2e}")

    # potential and interaction forms: 1e-4
    rng = np.random.default_rng(303)
    forms = [
        PotentialTerm("quadratic", {"scale": 1.3, "center": [0.2, -0.4]}),
        PotentialTerm("linear", {"normal": [0.8, -0.5], "offset": 0.1}),
        PotentialTerm("affine_norm", {"matrix": [[1.0, 0.3], [0.0, 0.7]], "offset": [0.2, 0.0]}),
        PotentialTerm("class_affine_norm", {"per_class": {
            "0": {"matrix": [[1.0, 0.0], [0.2, 0.9]], "offset": [0.1, -0.2]},
            "1": {"matrix": [[0.6, -0.1], [0.0, 1.1]], "offset": [0.0, 0.3]},
        }}),
        PotentialTerm("hinge", {"normal": [1.0, -0.4], "bias": 0.05, "positive_label": 1}),
        PotentialTerm("radial_shell", {"center": [0.1, 0.1], "radius": 0.7}),
        InteractionTerm("class_repulsion"),
        InteractionTerm("cross_class_spread"),
    ]
    worst_forms = 0.0
    for term in forms:
        spec = FunctionalSpec([term])
        for k in range(20):
            loc = np.random.default_rng(6000 + k)
            state = DatasetState.from_features(
                loc.standard_normal((8, 2)) * 1.5, np.arange(8) % 2
            )
            _, grads = of.grad_functional(state, spec, MODE_FD)
            h = 1e-6
            i = int(loc.integers(8)); l = int(loc.integers(2))
            sp = state.copy(); sp.features[i, l] += h
            sm = state.copy(); sm.features[i, l] -= h
            vp = sum(of.grad_functional(sp, spec, MODE_FD)[0])
            vm = sum(of.grad_functional(sm, spec, MODE_FD)[0])
            fd = (vp - vm) / (2 * h)
            an = grads.d_features[i, l] * state.weights[i]
            worst_forms = max(worst_forms, abs(fd - an) / max(abs(fd), 1.0))
    if worst_forms > 1e-4:
        failures.append(f"potential/interaction grads {worst_forms:.2e}")

    elapsed = time.perf_counter() - t0
    detail = (
        f"bures {worst_bures:.1e}, position {worst_pos:.1e}, "
        + ", ".join(f"{m} {v:.1e}" for m, v in worst_mode.items())
        + f", forms {worst_forms:.1e}, {elapsed:.1f}s"
    )
    report(3, "gradient suite vs finite differences",
           not failures and elapsed < 60.0, detail)


def test_04_fokker_planck_stationarity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(400)
    n, d, a = 2000, 2, 1.0
    state = DatasetState.from_features(2.0 * rng.standard_normal((n, d)), np.zeros(n, dtype=int))
    spec = FunctionalSpec([
        EntropyTerm(weight=1.0),
        PotentialTerm("quadratic", {"scale": a}),
    ])
    config = FlowConfig(
        functional=spec,
        optimizer=OptimizerState(rule="sgd", step_size=1e-3),
        steps=20_000, record_every=20_000, seed=4,
    )
    traj = run_flow(state, config)
    cov = np.cov(traj.snapshots[-1].state.features.T, bias=True)
    dev = float(np.abs(cov - np.eye(d) / a).max())
    elapsed = time.perf_counter() - t0
    report(
        4, "Fokker-Planck / OU stationarity",
        dev <= 0.10 and elapsed < 60.0,
        f"max |cov - I/a| = {dev:.3f} with 2000 particles after 20k steps, {elapsed:.1f}s",
    )


def _mixture_pair():
    src = of.generate(of.GeneratorSpec(n=150, k=5, seed=51, radius=2.0, sigma=0.4))
    tgt = of.generate(of.GeneratorSpec(n=150, k=5, seed=52, radius=5.0, sigma=0.45))
    # rotate the target mixture so classes do not align with the source
    angle = np.pi / 5
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    tgt.features = tgt.features @ rot.T
    tgt = DatasetState.from_features(tgt.features, tgt.labels)
    return src, tgt


def test_05_distance_flow_replication():
    t0 = time.perf_counter()
    src, tgt = _mixture_pair()
    v0, _ = otdd(src, tgt)
    spec = FunctionalSpec([TargetDistanceTerm(tgt)])
    config = FlowConfig(
        functional=spec,
        optimizer=OptimizerState(rule="sgd", step_size=0.05),
        steps=300, mode=MODE_FD, seed=5, record_every=100,
    )
    traj = run_flow(src, config)
    v_final, _ = otdd(traj.snapshots[-1].state, tgt)
    trace = np.array(traj.objective_trace)
    frac_drop = float(np.mean(trace[1:] <= trace[:-1] + 1e-10 * max(trace[0], 1.0)))
    elapsed = time.perf_counter() - t0
    report(
        5, "distance-only flow between 5-class mixtures",
        v_final <= 0.10 * v0 and frac_drop >= 0.95 and elapsed < 120.0,
        f"distance {v0:.3f} -> {v_final:.3f} (ratio {v_final / v0:.3f}), "
        f"non-increasing steps {frac_drop:.1%}, {elapsed:.1f}s",
    )


def test_06_variable_label_class_adaptation():
    t0 = time.perf_counter()
    hits = 0
    found = []
    for seed in range(5):
        src = of.generate(of.GeneratorSpec(n=60, k=2, seed=seed, radius=1.5, sigma=0.4))
        tgt = of.generate(of.GeneratorSpec(n=100, k=5, seed=seed + 500, radius=4.0, sigma=0.35))
        spec = FunctionalSpec([TargetDistanceTerm(tgt)])
        config = FlowConfig(
            functional=spec,
            optimizer=OptimizerState(rule="sgd", step_size=0.1),
            steps=250, mode=MODE_JD_VL, relabel_every=25,
            cluster_eps=1.5, cluster_min_pts=4, seed=seed, record_every=250,
        )
        traj = run_flow(src, config)
        assignment = dbscan_bures(traj.snapshots[-1].state.label_dists, eps=1.5, min_pts=4)
        found.append(assignment.k)
        hits += assignment.k == 5
    elapsed = time.perf_counter() - t0
    report(
        6, "variable-label flow adapts 2 -> 5 classes",
        hits >= 4,
        f"cluster counts {found} (need 5 on >= 4/5 seeds), {elapsed:.1f}s",
    )


def test_07_displacement_convexity():
    t0 = time.perf_counter()
    spec = FunctionalSpec([PotentialTerm("quadratic", {"scale": 1.0})])
    worst = -np.inf
    for seed in range(20):
        rng = np.random.default_rng(700 + seed)
        a = DatasetState.from_features(rng.standard_normal((16, 2)), np.arange(16) % 2)
        b = DatasetState.from_features(rng.standard_normal((16, 2)) + 1.0, np.arange(16) % 2)
        rep = check_displacement_convexity(spec, a, b, lambda_claimed=1.0)
        worst = max(worst, rep.max_violation)
    elapsed = time.perf_counter() - t0
    report(
        7, "displacement convexity of the quadratic potential",
        worst <= 1e-8,
        f"max violation {worst:.2e} over 20 pairs x 11 grid points, {elapsed:.1f}s",
    )


def test_08_flow_contraction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(800)
    a = DatasetState.from_features(rng.standard_normal((20, 2)) * 2.0, np.arange(20) % 2)
    b = DatasetState.from_features(rng.standard_normal((20, 2)) * 2.0 + 3.0, np.arange(20) % 2)
    spec = FunctionalSpec([PotentialTerm("quadratic", {"scale": 1.0})])
    config = FlowConfig(
        functional=spec,
        optimizer=OptimizerState(rule="sgd", step_size=0.02),
        steps=100, record_every=10,
    )
    table = check_flow_contraction(config, a, b, lam=1.0)
    d0 = table[0][1]
    ok = all(delta <= d0 * np.exp(-2.0 * t) * 1.05 for t, delta in table)
    elapsed = time.perf_counter() - t0
    worst_ratio = max(delta / (d0 * np.exp(-2.0 * t)) for t, delta in table)
    report(
        8, "flow contraction under the 1-convex potential",
        ok,
        f"max delta / (delta(0) e^-2t) = {worst_ratio:.4f} (bound 1.05), {elapsed:.1f}s",
    )


def test_09_self_distance_and_symmetry():
    t0 = time.perf_counter()
    worst_self = 0.0
    worst_sym = 0.0
    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(15, 30))
        k = int(rng.integers(2, 5))
        centers = 4.0 * rng.standard_normal((k, 2))
        labels = np.arange(n) % k
        state = DatasetState.from_features(
            centers[labels] + 0.5 * rng.standard_normal((n, 2)), labels
        )
        value, _ = otdd(state, state)
        scale = float(ground_cost_matrix(state, state).mean())
        worst_self = max(worst_self, value / (1e-3 * scale) * 1e-3)
        other = DatasetState.from_features(
            centers[labels] + 0.5 * rng.standard_normal((n, 2)) + 1.0, labels
        )
        v1, _ = otdd(state, other)
        v2, _ = otdd(other, state)
        worst_sym = max(worst_sym, abs(v1 - v2))
    elapsed = time.perf_counter() - t0
    report(
        9, "debiased self-distance and symmetry",
        worst_self <= 1e-3 and worst_sym <= 1e-6,
        f"max self/scale {worst_self:.2e} (bound 1e-3), "
        f"max asymmetry {worst_sym:.2e} (bound 1e-6), {elapsed:.1f}s",
    )


def test_10_determinism(tmp_path):
    from otflow.cli import main

    t0 = time.perf_counter()
    strip = lambda text: re.sub(r', "wall_time": [^}]*}', "}", text)
    ok = True
    details = []
    for noise in (0.0, 0.4):
        texts = []
        for run in range(2):
            out = tmp_path / f"n{noise}_{run}"
            cfg = {
                "source": {"generator": {"n": 40, "k": 3, "seed": 9}},
                "target": {"generator": {"n": 40, "k": 3, "seed": 10}},
                "functional": {"terms": [{"kind": "target_distance", "weight": 1.0}]},
                "optimizer": {"rule": "sgd", "step_size": 0.05},
                "mode": "fd",
                "steps": 25,
                "record_every": 5,
                "seed": 77,
                "noise_scale": noise,
                "output_dir": str(out),
                "plot": {"enabled": False},
            }
            cfg_path = tmp_path / f"cfg_{noise}_{run}.json"
            cfg_path.write_text(json.dumps(cfg))
            assert main(["run", str(cfg_path)]) == 0
            texts.append(strip((out / "trajectory.jsonl").read_text()))
        same = texts[0] == texts[1]
        ok = ok and same
        details.append(f"noise {noise}: {'identical' if same else 'DIFFER'}")
    elapsed = time.perf_counter() - t0
    report(10, "byte-identical trajectories for fixed seed",
           ok, "; ".join(details) + f", {elapsed:.1f}s")

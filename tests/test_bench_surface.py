"""The library surface that the benchmark in ``perfbench/`` relies on.

``perfbench/`` is only read here. Its tracer looks up every layer function
by name, its kernel grid passes plain lists of LabelDistribution to the
Bures kernels, its class_adaptation check clusters the moment rows of a
jd-vl final state, its distances must match its reference values, and its
moved inputs replace a target term's dataset after the run is built. Its
spans read ``iterations`` and ``marginal_error`` off every solve's plan and
off SinkhornConvergenceError, and its kernel grid warm-starts ``sinkhorn``
with a plan's ``(dual_left, dual_right)``.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from otflow.clustering import dbscan_bures
from otflow.config import build_run
from otflow.datagen import GeneratorSpec, generate
from otflow.dynamics import FlowConfig, run_flow
from otflow.errors import SinkhornConvergenceError
from otflow.functionals import FunctionalSpec, TargetDistanceTerm
from otflow.gaussian import Moments, pairwise_bures_grads, pairwise_bures_sq
from otflow.optim import OptimizerState
from otflow.otdd import MODE_JD_VL, ground_cost_matrix, otdd
from otflow.transport import default_reg, sinkhorn, sinkhorn_symmetric

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    trace = bench_module("bench_trace")
    for module_name, attr, _ in trace.LAYERS + trace.SETUP_LAYERS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), attr


def test_kernels_same_on_moments_and_lists():
    kernels = bench_module("bench_kernels")
    rng = np.random.default_rng(0)
    a, b = kernels._label_dists(rng, 7, 3), kernels._label_dists(rng, 4, 3)
    rows_a, rows_b = Moments.of(a), Moments.of(b)
    assert (len(rows_a), len(rows_b)) == (7, 4)
    np.testing.assert_array_equal(pairwise_bures_sq(a, b), pairwise_bures_sq(rows_a, rows_b))
    for from_list, from_rows in zip(
        pairwise_bures_grads(a, b), pairwise_bures_grads(rows_a, rows_b)
    ):
        np.testing.assert_array_equal(from_list, from_rows)


def test_traced_flow_records_bures_grad_pairs():
    trace, workloads = bench_module("bench_trace"), bench_module("bench_workloads")
    steps = 3
    run = workloads.flow_inputs(BENCH_DIR.parent, "class_adaptation", workloads.DEFAULT_SEED, steps)
    tracer = trace.Tracer()
    with tracer.op(0) as root_span:
        root_span(lambda: run_flow(run.source, run.flow))
    grads = trace.summarize(tracer.spans)[0]["gaussian.pairwise_bures_grads"]
    p, q = run.source.n, len(run.target.label_dists)
    assert grads["calls"] == 2 * steps
    assert grads["pairs"] == steps * (p * q + p * p)

    step_ids = [s[0] for s in tracer.spans if s[3] == "dynamics.flow_step"]

    def step_of(span):
        """The index of the step whose span encloses ``span``, or None."""
        while span[1] >= 0:
            span = tracer.spans[span[1]]
            if span[3] == "dynamics.flow_step":
                return step_ids.index(span[0])
        return None

    # The one value-only Bures call in a step is the target self-block, which
    # the first step's solve builds once; the final record and relabeling
    # pay the others.
    value_calls = [s for s in tracer.spans if s[3] == "gaussian.pairwise_bures_sq"]
    in_steps = [(step_of(s), s[6]["pairs"]) for s in value_calls if step_of(s) is not None]
    assert in_steps == [(0, q * q)]
    assert len(value_calls) > len(in_steps)

    # The tracer wraps ``_assemble_grads`` in the otdd module's namespace,
    # so it is traced only while ``Divergence`` calls it by that global
    # name: once per step, and once more for the final record.
    assembled = [step_of(s) for s in tracer.spans if s[3] == "otdd.assemble_grads"]
    assert assembled == [*range(steps), None]


def _solve_inputs():
    src = generate(GeneratorSpec(n=30, k=3, seed=0, radius=2.0, sigma=0.4))
    tgt = generate(GeneratorSpec(n=40, k=3, seed=1, radius=5.0))
    cost = ground_cost_matrix(src, tgt)
    return src, tgt, cost, default_reg(cost)


def test_solves_report_rounds_and_violation():
    src, tgt, cost, reg = _solve_inputs()
    tol = 1e-6
    cold = sinkhorn(cost, src.weights, tgt.weights, reg, 2000, tol)
    warm = sinkhorn(
        cost, src.weights, tgt.weights, reg, 2000, tol, init=(cold.dual_left, cold.dual_right)
    )
    self_plan = sinkhorn_symmetric(ground_cost_matrix(src, src), src.weights, reg, 2000, tol)
    for plan in (cold, warm, self_plan):
        assert isinstance(plan.iterations, int) and plan.iterations >= 1
        assert 0.0 <= plan.marginal_error <= tol
    assert warm.iterations <= cold.iterations


def test_convergence_error_reports_rounds_and_violation():
    src, tgt, cost, reg = _solve_inputs()
    with pytest.raises(SinkhornConvergenceError) as exc:
        sinkhorn(cost, src.weights, tgt.weights, 1e-3 * reg, 3, 1e-12)
    assert exc.value.iterations >= 3
    assert exc.value.marginal_error > 1e-12


def test_jdvl_final_state_clusters():
    src = generate(GeneratorSpec(n=20, k=2, seed=0, radius=1.5, sigma=0.4))
    tgt = generate(GeneratorSpec(n=30, k=3, seed=1, radius=4.0, sigma=0.35))
    config = FlowConfig(
        functional=FunctionalSpec([TargetDistanceTerm(tgt)]),
        optimizer=OptimizerState(step_size=0.1),
        mode=MODE_JD_VL, steps=5, relabel_every=5, cluster_eps=1.5,
    )
    final = run_flow(src, config).final.state
    assert len(final.label_dists) == src.n
    assignment = dbscan_bures(final.label_dists, config.cluster_eps, config.cluster_min_pts)
    assert assignment.labels.shape == (src.n,)


def test_distances_match_reference():
    workloads = bench_module("bench_workloads")
    datasets = workloads.distance_inputs(workloads.DEFAULT_SEED)
    values = [otdd(datasets[a], datasets[b])[0] for a, b in workloads.DISTANCE_PAIRS]
    expected = workloads.load_reference()[workloads.DISTANCE_WORKLOAD]["distances"]
    np.testing.assert_allclose(values, expected, rtol=workloads.DISTANCE_RTOL, atol=0)


def _distance_flow_config(target_seed):
    return {
        "source": {"generator": {"n": 20, "k": 2, "seed": 0, "radius": 1.5}},
        "target": {"generator": {"n": 25, "k": 3, "seed": target_seed, "radius": 4.0}},
        "functional": {"terms": [{"kind": "target_distance"}]},
        "optimizer": {"step_size": 0.1},
        "steps": 8,
    }


def test_swapped_target_runs_like_built_target():
    run = build_run(_distance_flow_config(1))
    run_flow(run.source, run.flow)  # leaves solver state for the first target
    built = build_run(_distance_flow_config(2))
    for term in run.flow.functional.terms:
        if term.kind == "target_distance":
            term.target = built.target
    swapped = run_flow(run.source, run.flow)
    expected = run_flow(built.source, built.flow)
    assert swapped.objective_trace == expected.objective_trace
    np.testing.assert_array_equal(swapped.final.state.features, expected.final.state.features)

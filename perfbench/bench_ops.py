"""Closed-loop runs of one workload: each flow or distance pass starts when
the previous one ends, in a single process.

Every flow repetition gets a freshly built ``RunConfig`` and is checked
against the reference and against the first repetition, which it must
reproduce exactly. A traced run alternates traced and untraced operations,
starting with a traced one, so the tracing overhead is measured in the same
process and at least two traced operations can be compared.
"""

import math
import statistics
import sys
import time
from contextlib import contextmanager

from otflow.errors import OtflowError

import bench_trace
import bench_workloads as wl

dynamics = sys.modules["otflow.dynamics"]
otdd_module = sys.modules["otflow.otdd"]

# Closed-loop operations per run at least, whatever the time budget: a
# traced run needs two traced and two untraced ones.
MIN_OPS = 3
MIN_TRACED_RUN_OPS = 4
# Warm-up flow length: short, but long enough to reach every code path
# (class_adaptation relabels at step 25).
WARM_STEPS = {"swiss_roll_shaping": 25, "class_adaptation": 25, "ou_diffusion": 400}
# distance_matrix warms up on its two largest datasets, to touch the
# largest arrays once.
DISTANCE_LARGEST = (len(wl.DISTANCE_SPECS) - 2, len(wl.DISTANCE_SPECS) - 1)


class Outcome:
    """Operations attempted and failed, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def flag(self, problem):
        """Mark an operation already recorded as correct as failed."""
        self.failed += 1
        self.problems.append(problem)


def closed_loop(seconds: float, op, min_ops: int = MIN_OPS):
    """Call ``op(i)`` back to back; stop once another operation as long as
    the last would overrun ``seconds``."""
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        op(i)
        i += 1
        now = time.perf_counter()
        if i >= min_ops and now - start + (now - t0) > seconds:
            return


@contextmanager
def step_timer(calls: list):
    """Time each ``flow_step`` call where ``run_flow`` looks it up, into the
    last list of ``calls`` (one list per solve)."""
    original = dynamics.flow_step

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            calls[-1].append(time.perf_counter() - t0)

    dynamics.flow_step = timed
    try:
        yield
    finally:
        dynamics.flow_step = original


class Run:
    """Closed-loop measurement of one workload's solves: flows, or
    all-pairs distance passes. Subclasses define ``warm_up`` and ``op``."""

    def __init__(self, seed: int, reference: dict):
        self.seed, self.reference = seed, reference
        self.outcome = Outcome()
        self.solve_s = []   # untraced solves
        self.call_s = []    # per untraced solve: its flow_step or otdd() calls
        self.traced_s = []
        self.traced_ops = []
        self.outputs = {}

    def timed_solve(self, i: int, tracer, solve):
        """Run ``solve()`` as operation ``i``, traced when given a tracer."""
        if tracer is None:
            self.call_s.append([])
            t0 = time.perf_counter()
            result = solve()
            self.solve_s.append(time.perf_counter() - t0)
            return result
        with tracer.op(i) as root_span:
            t0 = time.perf_counter()
            result = root_span(solve)
            self.traced_s.append(time.perf_counter() - t0)
        self.traced_ops.append(i)
        return result

    def measure(self, seconds: float):
        self.warm_up()
        closed_loop(seconds, self.op)

    def measure_traced(self, seconds: float, tracer):
        self.warm_up()
        closed_loop(seconds, lambda i: self.op(i, None if i % 2 else tracer), MIN_TRACED_RUN_OPS)


class FlowRun(Run):
    def __init__(self, root, name: str, seed: int, reference: dict):
        super().__init__(seed, reference)
        self.root, self.name = root, name
        self.first_trace = None

    def warm_up(self):
        run = wl.flow_inputs(self.root, self.name, self.seed, steps=WARM_STEPS[self.name])
        dynamics.run_flow(run.source, run.flow)

    def op(self, i: int, tracer=None):
        run = wl.flow_inputs(self.root, self.name, self.seed)
        try:
            traj = self.timed_solve(i, tracer, lambda: dynamics.run_flow(run.source, run.flow))
        except OtflowError as exc:
            self.outcome.record([f"flow {i}: {type(exc).__name__}: {exc}"])
            return
        problems = wl.check_flow(self.name, self.seed, run, traj, self.reference)
        if self.first_trace is None:
            self.first_trace = traj.objective_trace
            self.outputs["objective"] = traj.final.objective
        elif traj.objective_trace != self.first_trace:
            problems.append("objective trace differs from the first repetition")
        self.outcome.record([f"flow {i}: {p}" for p in problems])

    def measure(self, seconds: float):
        self.warm_up()
        with step_timer(self.call_s):
            closed_loop(seconds, self.op)


class DistanceRun(Run):
    def __init__(self, datasets, seed: int, reference: dict):
        super().__init__(seed, reference)
        self.datasets = datasets
        self.first_values = None

    def warm_up(self):
        a, b = DISTANCE_LARGEST
        otdd_module.otdd(self.datasets[a], self.datasets[b])

    def _pass(self, record_calls: bool):
        values = []
        for a, b in wl.DISTANCE_PAIRS:
            t0 = time.perf_counter()
            try:
                value, _ = otdd_module.otdd(self.datasets[a], self.datasets[b])
            except OtflowError:
                value = math.nan
            if record_calls:
                self.call_s[-1].append(time.perf_counter() - t0)
            values.append(value)
        return values

    def op(self, i: int, tracer=None):
        values = self.timed_solve(i, tracer, lambda: self._pass(record_calls=tracer is None))
        if self.first_values is None:
            self.first_values = values
            self.outputs["distances"] = values
        bad = set(wl.check_distances(values, self.reference))
        for k, (a, b) in enumerate(wl.DISTANCE_PAIRS):
            problems = []
            if k in bad:
                problems.append(f"otdd({a}, {b}) = {values[k]!r} disagrees with the reference")
            if values[k] != self.first_values[k]:
                problems.append(f"otdd({a}, {b}) differs from the first pass")
            self.outcome.record(problems)
        self._check_invariants(i, values)

    def _check_invariants(self, i: int, values):
        """Self-distance and symmetry (acceptance 9) on one pair per pass."""
        k = i % len(wl.DISTANCE_PAIRS)
        a, b = wl.DISTANCE_PAIRS[k]
        src, dst = self.datasets[a], self.datasets[b]
        try:
            self_value, _ = otdd_module.otdd(src, src)
            scale = float(otdd_module.ground_cost_matrix(src, src).mean())
            ok = self_value <= wl.SELF_DISTANCE_BOUND * scale
            self.outcome.record([] if ok else [f"otdd({a}, {a}) = {self_value!r} > bound"])
        except OtflowError as exc:
            self.outcome.record([f"otdd({a}, {a}): {exc}"])
        try:
            reverse, _ = otdd_module.otdd(dst, src)
            ok = abs(values[k] - reverse) <= wl.SYMMETRY_BOUND
            self.outcome.record([] if ok else [f"|otdd({a}, {b}) - otdd({b}, {a})| > bound"])
        except OtflowError as exc:
            self.outcome.record([f"otdd({b}, {a}): {exc}"])


# Per-layer fields reported beside the two solvers'.
LAYER_FIELDS = (
    ("gaussian.pairwise_bures_sq", ("calls", "ms", "pairs")),
    ("gaussian.pairwise_bures_grads", ("calls", "ms", "pairs")),
    ("gaussian.project_psd", ("calls", "ms")),
    ("otdd.ground_cost_matrix", ("calls", "self_ms")),
    ("otdd.assemble_grads", ("calls", "self_ms")),
    ("otdd.label_stats", ("calls", "self_ms")),
    ("otdd.otdd", ("calls", "ms")),
    ("optim.apply_step", ("calls", "self_ms")),
    ("functionals.grad_functional", ("self_ms",)),
    ("functionals.eval_terms", ("ms",)),
    ("dynamics.flow_step", ("self_ms",)),
    ("dynamics.run_flow", ("self_ms",)),
    ("clustering.dbscan_bures", ("calls", "ms")),
)


def layer_metrics(tracer, traced_ops) -> tuple:
    """Per-layer metrics per traced operation, and the ops whose counts
    differ from the first traced op's."""
    summary = bench_trace.summarize(tracer.spans)
    ops = [summary[i] for i in traced_ops]
    empty = bench_trace.empty_row()

    def med(name, field):
        return statistics.median(op.get(name, empty)[field] for op in ops)

    first = ops[0]

    def count(name, field):
        return first.get(name, empty)[field]

    m = {}
    for name in bench_trace.SOLVE_SPANS:
        rounds = count(name, "rounds")
        ms = med(name, "ms")
        m[f"{name}.calls"] = count(name, "calls")
        m[f"{name}.ms"] = ms
        m[f"{name}.rounds"] = rounds
        m[f"{name}.ms_per_round"] = ms / rounds if rounds else 0.0
        m[f"{name}.max_marginal_error"] = max(op.get(name, empty)["err"] for op in ops)
        m[f"{name}.fail"] = count(name, "fail")
    solves = sum(count(name, "calls") for name in bench_trace.SOLVE_SPANS)
    grad_solves = sum(count(name, "grad") for name in bench_trace.SOLVE_SPANS)
    m["transport.grad_solve_share"] = grad_solves / solves if solves else 0.0
    for name, fields in LAYER_FIELDS:
        for field in fields:
            is_count = field in bench_trace.COUNT_FIELDS
            m[f"{name}.{field}"] = count(name, field) if is_count else med(name, field)
    m["clustering.clusters_final"] = count("clustering.dbscan_bures", "clusters")
    op_ms = [op[bench_trace.ROOT_SPAN]["ms"] for op in ops]
    # Time in no named layer: the loop around the solve and run_flow's own.
    unaccounted = [
        (op[bench_trace.ROOT_SPAN]["self_ms"] + op.get("dynamics.run_flow", empty)["self_ms"])
        / total
        for op, total in zip(ops, op_ms)
    ]
    m["trace.op_s"] = statistics.median(op_ms) / 1e3
    m["trace.unaccounted_share"] = statistics.median(unaccounted)
    base = bench_trace.counts(first)
    drifted = [i for i, op in zip(traced_ops, ops) if bench_trace.counts(op) != base]
    return m, drifted


"""In-memory span tracing at otflow's layer boundaries.

A traced operation replaces each layer function with a timing wrapper at
every name the package looks it up by: the module that defines it and every
otflow module that imported it by name (``functionals`` imports
``sinkhorn``, ``ground_cost_matrix`` and ``_assemble_grads``; ``dynamics``
imports ``apply_step``, ``label_stats`` and ``dbscan_bures``). The package
re-exports ``otdd`` under its module's name, so modules are reached through
``sys.modules``, never as attributes of the package. The originals are put
back after each operation, so untraced operations in the same process run
unwrapped code.

A span is ``[id, parent id, op id, name, start, end, attrs]``; every span of
one flow (or one distance pass) shares its op id.
"""

import gzip
import json
import sys
import time
from contextlib import contextmanager

ROOT_SPAN = "bench.op"
GRAD_SPAN = "functionals.grad_functional"
SOLVE_SPANS = ("transport.sinkhorn", "transport.sinkhorn_symmetric")

# (module, function, span name)
LAYERS = (
    ("otflow.transport", "sinkhorn", "transport.sinkhorn"),
    ("otflow.transport", "sinkhorn_symmetric", "transport.sinkhorn_symmetric"),
    ("otflow.gaussian", "pairwise_bures_sq", "gaussian.pairwise_bures_sq"),
    ("otflow.gaussian", "pairwise_bures_grads", "gaussian.pairwise_bures_grads"),
    ("otflow.gaussian", "project_psd", "gaussian.project_psd"),
    ("otflow.otdd", "ground_cost_matrix", "otdd.ground_cost_matrix"),
    ("otflow.otdd", "_assemble_grads", "otdd.assemble_grads"),
    ("otflow.otdd", "label_stats", "otdd.label_stats"),
    ("otflow.otdd", "otdd", "otdd.otdd"),
    ("otflow.optim", "apply_step", "optim.apply_step"),
    ("otflow.functionals", "grad_functional", "functionals.grad_functional"),
    ("otflow.functionals", "eval_terms", "functionals.eval_terms"),
    ("otflow.dynamics", "flow_step", "dynamics.flow_step"),
    ("otflow.dynamics", "run_flow", "dynamics.run_flow"),
    ("otflow.clustering", "dbscan_bures", "clustering.dbscan_bures"),
)
SETUP_LAYERS = (
    ("otflow.config", "build_run", "config.build_run"),
    ("otflow.datagen", "generate", "datagen.generate"),
)


def _solve_attrs(args, plan):
    return {"rounds": plan.iterations, "err": plan.marginal_error}


def _pair_attrs(args, result):
    return {"pairs": len(args[0]) * len(args[1])}


def _cluster_attrs(args, assignment):
    return {"clusters": assignment.k}


ATTRS = {
    "transport.sinkhorn": _solve_attrs,
    "transport.sinkhorn_symmetric": _solve_attrs,
    "gaussian.pairwise_bures_sq": _pair_attrs,
    "gaussian.pairwise_bures_grads": _pair_attrs,
    "clustering.dbscan_bures": _cluster_attrs,
}


def _failure_attrs(exc):
    attrs = {"fail": 1}
    if hasattr(exc, "iterations"):  # SinkhornConvergenceError
        attrs.update(rounds=exc.iterations, err=exc.marginal_error)
    return attrs


class Tracer:
    """Spans of every traced operation, kept in memory until written out."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, measure = self.spans, self._stack, ATTRS.get(name)

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, self._op, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[6] = _failure_attrs(exc)
                raise
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if measure is not None:
                span[6] = measure(args, result)
            return result

        return traced

    def install(self, layers):
        """Wrap each layer function under every otflow name bound to it."""
        modules = [m for k, m in sys.modules.items() if k == "otflow" or k.startswith("otflow.")]
        for module_name, attr, name in layers:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._patched.append((module, key, original))

    def uninstall(self):
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)

    @contextmanager
    def op(self, op_id):
        """Trace one operation; yields the wrapper for its root span."""
        self.install(LAYERS)
        self._op = op_id
        root = self._wrap(ROOT_SPAN, lambda thunk: thunk())
        try:
            yield root
        finally:
            self.uninstall()

    def write(self, path, header: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def empty_row():
    return {"calls": 0, "ms": 0.0, "self_ms": 0.0, "rounds": 0, "pairs": 0,
            "fail": 0, "err": 0.0, "grad": 0, "clusters": 0}


def summarize(spans) -> dict:
    """Per op and span name: calls, busy ms, self ms (busy minus traced
    children), summed rounds/pairs/fails, worst marginal error, solves under
    a gradient evaluation, and the last cluster count."""
    child_s = [0.0] * len(spans)
    under_grad = [False] * len(spans)
    for span in spans:
        parent = span[1]
        if parent >= 0:
            child_s[parent] += span[5] - span[4]
            under_grad[span[0]] = under_grad[parent] or spans[parent][3] == GRAD_SPAN
    ops = {}
    for span in spans:
        row = ops.setdefault(span[2], {}).setdefault(span[3], empty_row())
        dur = span[5] - span[4]
        row["calls"] += 1
        row["ms"] += 1e3 * dur
        row["self_ms"] += 1e3 * (dur - child_s[span[0]])
        row["grad"] += under_grad[span[0]]
        attrs = span[6] or {}
        row["rounds"] += attrs.get("rounds", 0)
        row["pairs"] += attrs.get("pairs", 0)
        row["fail"] += attrs.get("fail", 0)
        row["err"] = max(row["err"], attrs.get("err", 0.0))
        row["clusters"] = attrs.get("clusters", row["clusters"])
    return ops


COUNT_FIELDS = ("calls", "rounds", "pairs", "fail", "clusters", "grad")


def counts(op_summary: dict) -> dict:
    """The fields of an op summary that must repeat exactly."""
    return {name: tuple(row[f] for f in COUNT_FIELDS) for name, row in op_summary.items()}

"""Objective functionals over dataset states.

A functional is a weighted sum of terms: distance to a target dataset,
potential energies integrated against the particle measure, pairwise
interaction energies, and an entropy term whose effect is realized as
Brownian noise by the dynamics engine. A term is a ``weight``, a ``kind``
and one method, ``value_and_grads(state, mode)``, which returns its value
and per-particle gradients; gradients follow the per-unit-mass convention
of FlowGradients so step sizes are comparable across particle counts.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError
from .otdd import MODE_FD, DatasetState, Divergence, FlowGradients, _assemble_grads
from .transport import DEFAULT_MAX_ITER, DEFAULT_TOL, _cost_product, _envelope_grad

# Each potential form and the ``params`` keys it reads, True for a key it
# requires; ``class_affine_norm`` reads ``affine_norm`` params per class.
POTENTIAL_FORMS = {
    "quadratic": {"scale": False, "center": False},
    "linear": {"normal": True, "offset": False},
    "affine_norm": {"matrix": True, "offset": False},
    "class_affine_norm": {"per_class": True},
    "hinge": {"normal": True, "bias": False, "positive_label": False, "negate": False},
    "radial_shell": {"center": False, "radius": False},
}
INTERACTION_FORMS = ("class_repulsion", "cross_class_spread")


def _as_array(params, key, default=None, dim=None):
    out = np.asarray(params[key], dtype=float) if key in params else default
    if dim is not None and out.shape[-1] != dim:
        raise ValueError(
            f"potential param {key!r} has dimension {out.shape[-1]}, expected {dim}"
        )
    return out


def _affine_norm(x, a, b):
    """||A x_i - b|| for every row x_i, and its gradient (0 where the norm is 0)."""
    u = x @ a.T - b
    norms = np.linalg.norm(u, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    grads = (u / safe[:, None]) @ a
    grads[norms == 0] = 0.0
    return norms, grads


def _potential_pointwise(state: DatasetState, form: str, params: dict):
    """V(z_i) for every particle, plus the per-particle gradient dV/dx_i."""
    x = state.features
    y = state.labels
    n, d = x.shape

    if form == "quadratic":
        scale = float(params.get("scale", 1.0))
        center = _as_array(params, "center", np.zeros(d), dim=d)
        diff = x - center
        vals = 0.5 * scale * np.sum(diff**2, axis=1)
        grads = scale * diff
    elif form == "linear":
        w = _as_array(params, "normal", dim=d)
        c = float(params.get("offset", 0.0))
        vals = x @ w + c
        grads = np.broadcast_to(w, x.shape).copy()
    elif form == "affine_norm":
        a = np.atleast_2d(_as_array(params, "matrix", dim=d))
        b = _as_array(params, "offset", np.zeros(a.shape[0]))
        vals, grads = _affine_norm(x, a, b)
    elif form == "class_affine_norm":
        per_class = params["per_class"]
        vals = np.zeros(n)
        grads = np.zeros_like(x)
        for c in np.unique(y):
            key = str(int(c)) if str(int(c)) in per_class else int(c)
            if key not in per_class:
                raise ValueError(f"class_affine_norm params missing class {c}")
            sub = per_class[key]
            a = np.atleast_2d(np.asarray(sub["matrix"], dtype=float))
            b = np.asarray(sub.get("offset", np.zeros(a.shape[0])), dtype=float)
            mask = y == c
            vals[mask], grads[mask] = _affine_norm(x[mask], a, b)
    elif form == "hinge":
        # Printed form: V(z) = max{0, y (x.w - b)} with y in {-1, +1}; the
        # `negate` flag flips the sign convention without silently fixing it.
        w = _as_array(params, "normal", dim=d)
        b = float(params.get("bias", 0.0))
        positive = int(params.get("positive_label", 1))
        sign = np.where(y == positive, 1.0, -1.0)
        if params.get("negate", False):
            sign = -sign
        margin = sign * (x @ w - b)
        active = margin > 0
        vals = np.where(active, margin, 0.0)
        grads = np.where(active[:, None], sign[:, None] * w[None, :], 0.0)
    else:  # radial_shell
        center = _as_array(params, "center", np.zeros(d), dim=d)
        radius = float(params.get("radius", 1.0))
        diff = x - center
        norms = np.linalg.norm(diff, axis=1)
        active = norms > radius
        vals = np.where(active, norms - radius, 0.0)
        safe = np.where(norms > 0, norms, 1.0)
        grads = np.where(active[:, None], diff / safe[:, None], 0.0)
    return vals, grads


def _interaction_pointwise(state: DatasetState, form: str):
    """Value and per-particle first-variation gradient of the pair energy
    W(u) = w(||u||^2) on cross-class pairs: grad_i = sum_j p_j w'(.) 2 (x_i - x_j),
    the factor 2 of the symmetric double sum cancelling its leading 1/2."""
    x = state.features
    y = state.labels
    p = state.weights
    sq = _cost_product(x, x)
    cross = (y[:, None] != y[None, :]).astype(float)
    if form == "class_repulsion":
        w = np.exp(-sq) * cross
        slope = -w
    else:  # cross_class_spread
        w = -sq * cross
        slope = -cross
    value = 0.5 * float(p @ w @ p)
    return value, _envelope_grad(slope * p, x, x)


def _check_form(form: str, forms, what: str):
    if form not in forms:
        raise ValueError(f"unknown {what} form {form!r} (available: {', '.join(forms)})")


def _check_params(params, form: str):
    if not isinstance(params, dict):
        raise ValueError(f"{form} potential params must be an object, not {params!r}")
    keys = POTENTIAL_FORMS[form]
    unknown = [k for k in params if k not in keys]
    if unknown:
        raise ValueError(f"{form} potential params take {tuple(keys)}, not {unknown[0]!r}")
    missing = [k for k, required in keys.items() if required and k not in params]
    if missing:
        raise ValueError(f"{form} potential params need {missing[0]!r}")


@dataclass
class PotentialTerm:
    form: str
    params: dict = field(default_factory=dict)
    weight: float = 1.0
    kind: str = field(default="potential", init=False)

    def __post_init__(self):
        _check_form(self.form, POTENTIAL_FORMS, "potential")
        _check_params(self.params, self.form)
        if self.form == "class_affine_norm":
            per_class = self.params["per_class"]
            if not isinstance(per_class, dict):
                raise ValueError("class_affine_norm per_class must map class ids to params")
            for sub in per_class.values():
                _check_params(sub, "affine_norm")

    def value_and_grads(self, state: DatasetState, mode: str):
        vals, grads = _potential_pointwise(state, self.form, self.params)
        return float(state.weights @ vals), FlowGradients(grads)


@dataclass
class InteractionTerm:
    form: str
    weight: float = 1.0
    kind: str = field(default="interaction", init=False)

    def __post_init__(self):
        _check_form(self.form, INTERACTION_FORMS, "interaction")

    def value_and_grads(self, state: DatasetState, mode: str):
        value, grads = _interaction_pointwise(state, self.form)
        return value, FlowGradients(grads)


@dataclass
class EntropyTerm:
    """Entropy of the underlying density, f(t) = t log t.

    No density estimate is attempted: the term reports value 0 and a zero
    deterministic gradient, and the dynamics engine realizes it as Brownian
    noise scaled by the term weight (Euler-Maruyama).
    """

    weight: float = 1.0
    kind: str = field(default="entropy", init=False)

    def value_and_grads(self, state: DatasetState, mode: str):
        return 0.0, FlowGradients(np.zeros_like(state.features))


class TargetDistanceTerm(Divergence):
    """Entropic OT distance to a fixed target dataset as a weighted flow
    term: a ``Divergence`` (the solver of ``otdd``) with its own iteration
    defaults. By default it evaluates and differentiates the squared
    debiased divergence, smooth at its zero minimum; ``squared=False``
    flows the distance itself. ``run_flow`` and
    ``check_displacement_convexity`` ``reset()`` its solver state first.
    """

    kind = "target_distance"

    def __init__(
        self,
        target: DatasetState,
        weight: float = 1.0,
        reg: float | None = None,
        debias: bool = True,
        squared: bool = True,
        max_iter: int = 3 * DEFAULT_MAX_ITER,
        tol: float = DEFAULT_TOL,
    ):
        self.weight = weight
        self.squared = squared
        super().__init__(target, reg, debias, max_iter, tol)

    def value_and_grads(self, state: DatasetState, mode: str):
        value_sq, plan_ab, plan_aa, bures = self.solve(state, mode)
        grads = _assemble_grads(state, self.target, plan_ab, plan_aa, bures)
        if self.squared:
            return value_sq, grads
        value = float(np.sqrt(max(value_sq, 0.0)))
        # Subgradient 0 at the (nonsmooth) zero of the square root.
        grads.scale(0.5 / value if value > 1e-9 else 0.0)
        return value, grads


@dataclass
class FunctionalSpec:
    """Weighted sum of functional terms driving a flow."""

    terms: list

    def __post_init__(self):
        if not self.terms:
            raise ValueError("functional needs at least one term")
        for t in self.terms:
            if not np.isfinite(t.weight):
                raise ValueError("term weights must be finite")

    def entropy_weight(self) -> float:
        return sum(t.weight for t in self.terms if t.kind == "entropy")

    def term_kinds(self):
        return [t.kind for t in self.terms]

    def reset(self):
        """Drop the solver state that divergence terms keep between solves."""
        for t in self.terms:
            if isinstance(t, Divergence):
                t.reset()


# Term classes by the ``kind`` they report; a config's term entry names one.
TERM_KINDS = {t.kind: t for t in (TargetDistanceTerm, PotentialTerm, InteractionTerm, EntropyTerm)}


def grad_functional(state: DatasetState, spec: FunctionalSpec, mode: str):
    """Weighted term values, in spec order, and summed gradients at a state:
    (term_values, FlowGradients), the objective being ``sum(term_values)``.
    The entropy term reports 0; a zero-weight term is skipped entirely (no
    transport solves) and reports 0.0."""
    if state.dim == 0:
        raise DimensionMismatchError("state has no features")
    values, grads = [], FlowGradients.zeros(state, mode)
    for term in spec.terms:
        if term.weight == 0.0:
            values.append(0.0)
            continue
        v, g = term.value_and_grads(state, mode)
        values.append(term.weight * v)
        grads.axpy(term.weight, g)
    return values, grads


def eval_terms(state: DatasetState, spec: FunctionalSpec):
    """The term values of ``grad_functional`` in fd, for a state no flow step evaluates."""
    return grad_functional(state, spec, MODE_FD)[0]

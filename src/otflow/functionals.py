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
from inspect import signature

import numpy as np

from .errors import DimensionMismatchError
from .otdd import MODE_FD, DatasetState, Divergence, FlowGradients
from .transport import DEFAULT_MAX_ITER, _cost_product, _envelope_grad

INTERACTION_FORMS = ("class_repulsion", "cross_class_spread")


def _fitted(vector, name: str, dim: int):
    """``vector``, once its last axis has ``dim`` entries (a scalar has 0)."""
    if np.shape(vector)[-1:] != (dim,):
        got = (np.shape(vector) or (0,))[-1]
        raise ValueError(f"potential param {name!r} has dimension {got}, expected {dim}")
    return vector


def quadratic(x, y, scale: float = 1.0, center: list[float] | None = None):
    """V = scale/2 ||x - center||^2, centred at the origin by default."""
    diff = x if center is None else x - _fitted(center, "center", x.shape[1])
    return 0.5 * scale * np.sum(diff**2, axis=1), scale * diff


def linear(x, y, normal: list[float], offset: float = 0.0):
    """V = x.normal + offset."""
    w = _fitted(normal, "normal", x.shape[1])
    return x @ w + offset, np.broadcast_to(w, x.shape).copy()


def affine_norm(x, y, matrix: list[list[float]], offset: list[float] | None = None):
    """V = ||matrix x - offset|| (gradient 0 where the norm is 0)."""
    a = _fitted(np.atleast_2d(matrix), "matrix", x.shape[1])
    u = x @ a.T if offset is None else x @ a.T - offset
    norms = np.linalg.norm(u, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    grads = (u / safe[:, None]) @ a
    grads[norms == 0] = 0.0
    return norms, grads


def class_affine_norm(x, y, per_class: dict):
    """affine_norm with the params that ``per_class`` gives each class id."""
    vals, grads = np.zeros(len(x)), np.zeros_like(x)
    for c in np.unique(y):
        if c not in per_class:
            raise ValueError(f"class_affine_norm params missing class {c}")
        mask = y == c
        vals[mask], grads[mask] = affine_norm(x[mask], None, **per_class[c])
    return vals, grads


def hinge(
    x, y, normal: list[float], bias: float = 0.0, positive_label: int = 1, negate: bool = False
):
    """Printed form: V(z) = max{0, y (x.w - b)} with y in {-1, +1}; the
    ``negate`` flag flips the sign convention without silently fixing it."""
    w = _fitted(normal, "normal", x.shape[1])
    sign = np.where(y == positive_label, 1.0, -1.0)
    if negate:
        sign = -sign
    margin = sign * (x @ w - bias)
    active = margin > 0
    return np.where(active, margin, 0.0), np.where(active[:, None], sign[:, None] * w, 0.0)


def radial_shell(x, y, center: list[float] | None = None, radius: float = 1.0):
    """V = max{0, ||x - center|| - radius}, centred at the origin by default."""
    diff = x if center is None else x - _fitted(center, "center", x.shape[1])
    norms = np.linalg.norm(diff, axis=1)
    active = norms > radius
    safe = np.where(norms > 0, norms, 1.0)
    grads = np.where(active[:, None], diff / safe[:, None], 0.0)
    return np.where(active, norms - radius, 0.0), grads


# Each potential form by name: form(x, y, **params) returns V(z_i) and dV/dx_i
# for every particle of features x and labels y, and its keyword parameters
# (annotations, defaults) are the ``params`` schema.
POTENTIALS = {
    f.__name__: f for f in (quadratic, linear, affine_norm, class_affine_norm, hinge, radial_shell)
}


def _check_form(form: str, forms, what: str):
    if form not in forms:
        raise ValueError(f"unknown {what} form {form!r} (available: {', '.join(forms)})")


def _bind(form: str, params) -> dict:
    """``params`` as the keyword arguments of ``POTENTIALS[form]``, vectors and
    matrices as float arrays; an unknown or missing key is a ValueError naming it."""
    try:
        signature(POTENTIALS[form]).bind(None, None, **params)
    except TypeError as exc:
        raise ValueError(f"{form} potential params: {exc}") from None
    return {k: np.asarray(v, dtype=float) if np.ndim(v) else v for k, v in params.items()}


@dataclass
class PotentialTerm:
    """sum_i p_i V(z_i) for the form ``POTENTIALS[form]`` with ``params``,
    bound once here. ``class_affine_norm`` binds each ``per_class`` entry as
    ``affine_norm`` params."""

    form: str
    params: dict = field(default_factory=dict)
    weight: float = 1.0
    kind: str = field(default="potential", init=False)
    _bound: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_form(self.form, POTENTIALS, "potential")
        self._bound = _bind(self.form, self.params)
        if self.form == "class_affine_norm":
            entries = self._bound["per_class"]
            if not isinstance(entries, dict):
                raise ValueError("class_affine_norm per_class must map class ids to params")
            self._bound["per_class"] = {int(c): _bind("affine_norm", v) for c, v in entries.items()}

    def value_and_grads(self, state: DatasetState, mode: str):
        vals, grads = POTENTIALS[self.form](state.features, state.labels, **self._bound)
        return float(state.weights @ vals), FlowGradients(grads)


@dataclass
class InteractionTerm:
    """The pair energy W(u) = w(||u||^2) on cross-class pairs. Its gradient is
    grad_i = sum_j p_j w'(.) 2 (x_i - x_j), the factor 2 of the symmetric
    double sum cancelling its leading 1/2."""

    form: str
    weight: float = 1.0
    kind: str = field(default="interaction", init=False)

    def __post_init__(self):
        _check_form(self.form, INTERACTION_FORMS, "interaction")

    def value_and_grads(self, state: DatasetState, mode: str):
        x, y, p = state.features, state.labels, state.weights
        sq = _cost_product(x, x)
        cross = (y[:, None] != y[None, :]).astype(float)
        if self.form == "class_repulsion":
            w = np.exp(-sq) * cross
            slope = -w
        else:  # cross_class_spread
            w = -sq * cross
            slope = -cross
        return 0.5 * float(p @ w @ p), FlowGradients(_envelope_grad(slope * p, x, x))


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


@dataclass(eq=False, kw_only=True)
class TargetDistanceTerm(Divergence):
    """Entropic OT distance to a fixed target dataset as a weighted flow
    term: a ``Divergence`` (the solver of ``otdd``) plus ``weight`` and
    ``squared``, with its own ``max_iter`` default. By default it evaluates
    and differentiates the squared debiased divergence, smooth at its zero
    minimum; ``squared=False`` flows the distance itself. ``run_flow`` and
    ``check_displacement_convexity`` ``reset()`` its solver state first.
    """

    weight: float = 1.0
    squared: bool = True
    max_iter: int = 3 * DEFAULT_MAX_ITER
    kind: str = field(default="target_distance", init=False)

    def value_and_grads(self, state: DatasetState, mode: str):
        value_sq, grads = super().value_and_grads(state, mode)
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

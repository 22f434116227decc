"""The flow engine: explicit Euler / Euler-Maruyama advancement of a
dataset state under a functional, in one of three dynamics modes.

fd     gradient steps on features only; the per-class moment rows are
       refreshed from the particles after every step.
jd-fl  gradient steps on features and on the per-class (mean, cov) rows,
       with label assignments fixed for the whole flow.
jd-vl  the state is decoupled to one (mean, cov) row per particle, and the
       rows evolve independently; labels are re-imputed by clustering the
       rows at a configurable cadence and once at the end.
"""

import time
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .clustering import DEFAULT_EPS, DEFAULT_MIN_PTS, dbscan_bures, kmeans_embedded
from .errors import FlowDivergenceError, OtflowError
from .functionals import FunctionalSpec, eval_terms, grad_functional
from .optim import OptimizerState, apply_step
from .otdd import MODE_FD, MODE_JD_VL, MODES, DatasetState, label_stats, require_layout


@dataclass
class FlowConfig:
    """Everything needed to reproduce a flow run."""

    functional: FunctionalSpec
    optimizer: OptimizerState
    mode: str = MODE_FD
    steps: int = 100
    noise_scale: float = 0.0
    noise_schedule: str = "sqrt-decay"   # or "constant"
    noise_target: str = "eval-point"     # or "state"
    relabel_every: int = 10
    relabel_method: str = "dbscan"       # or "kmeans"
    cluster_eps: float = DEFAULT_EPS
    cluster_min_pts: int = DEFAULT_MIN_PTS
    cluster_k: int | None = None
    seed: int = 0
    record_every: int = 10

    def validate(self, n: int | None = None):
        """Reject settings the engine cannot run; ``n``, the source particle
        count when known, bounds the k-means cluster count."""
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0 <= self.noise_scale < np.inf:
            raise ValueError(f"noise_scale must be finite and >= 0, not {self.noise_scale}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        if self.noise_schedule not in ("sqrt-decay", "constant"):
            raise ValueError(f"unknown noise_schedule {self.noise_schedule!r}")
        if self.noise_target not in ("eval-point", "state"):
            raise ValueError(f"unknown noise_target {self.noise_target!r}")
        if self.relabel_every < 0:
            raise ValueError(f"relabel_every must be >= 0, not {self.relabel_every}")
        if self.relabel_method not in ("dbscan", "kmeans"):
            raise ValueError(f"unknown relabel_method {self.relabel_method!r}")
        if not 0 < self.cluster_eps < np.inf:
            raise ValueError(f"cluster_eps must be positive and finite, not {self.cluster_eps}")
        if self.cluster_min_pts < 1:
            raise ValueError(f"cluster_min_pts must be >= 1, not {self.cluster_min_pts}")
        if self.relabel_method == "kmeans" and (self.cluster_k is None or self.cluster_k < 1):
            raise ValueError("kmeans relabeling needs cluster_k >= 1")
        if self.relabel_method == "kmeans" and n is not None and self.cluster_k > n:
            raise ValueError(f"kmeans cluster_k {self.cluster_k} exceeds the {n} particles")
        if self.functional.entropy_weight() > 0.0 and self.optimizer.rule != "sgd":
            raise ValueError(
                f"an entropy term needs the sgd rule, not {self.optimizer.rule!r}: "
                "its Brownian noise is Euler-Maruyama only under sgd"
            )

    def beta(self, step: int) -> float:
        if self.noise_scale == 0.0:
            return 0.0
        if self.noise_schedule == "constant":
            return self.noise_scale
        return self.noise_scale / np.sqrt(step + 1.0)


@dataclass
class Snapshot:
    step: int
    state: DatasetState
    objective: float
    term_values: list
    wall_time: float


@dataclass
class Trajectory:
    """Recorded flow: snapshots at the configured cadence (always including
    the initial and final states) plus the per-step objective trace."""

    snapshots: list = field(default_factory=list)
    objective_trace: list = field(default_factory=list)
    term_kinds: list = field(default_factory=list)
    mode: str = MODE_FD
    seed: int = 0

    @property
    def initial(self) -> Snapshot:
        return self.snapshots[0]

    @property
    def final(self) -> Snapshot:
        return self.snapshots[-1]


def relabel(state: DatasetState, config: FlowConfig, rng) -> int:
    """Re-impute labels by clustering the per-particle moment pairs.

    Replaces particle labels with cluster ids; DBSCAN noise points keep
    their previous label so no particle (mass) is ever dropped. The
    per-particle distributions are untouched: labels are a view for
    evaluation and export, the distributions carry the dynamics.
    Returns the number of clusters found.
    """
    if config.relabel_method == "kmeans":
        seed = int(rng.integers(2**31 - 1))
        assignment = kmeans_embedded(state.label_dists, config.cluster_k, seed=seed)
    else:
        assignment = dbscan_bures(state.label_dists, config.cluster_eps, config.cluster_min_pts)
    new_labels = assignment.labels.copy()
    noise = new_labels < 0
    new_labels[noise] = state.labels[noise]
    state.labels = new_labels
    return assignment.k


def flow_step(state: DatasetState, config: FlowConfig, opt: OptimizerState, rng, step: int = 0):
    """Advance the state by one step. Returns (new_state, diagnostics); the
    diagnostics carry the weighted ``term_values`` of the state when the
    step evaluates the state itself, and None when it adds noise.

    With ``noise_scale > 0`` the gradient is evaluated at a Gaussian
    perturbation of the features (Euler-Maruyama style); ``noise_target``
    selects whether the perturbation only shifts the evaluation point or is
    written into the state itself. An entropy term in the functional adds
    scaled Brownian noise through the gradient, exact Euler-Maruyama under
    the sgd rule (the only rule ``FlowConfig.validate`` accepts with it).
    A non-finite new state raises FlowDivergenceError; any other error of
    the evaluation or the update propagates as raised, for ``run_flow`` to
    turn into one.
    """
    require_layout(state, config.mode)
    beta = config.beta(step)

    eval_state = state
    if beta > 0.0:
        eval_state = state.copy()
        eval_state.features = state.features + beta * rng.standard_normal(state.features.shape)
        if config.noise_target == "state":
            state = eval_state

    terms, grads = grad_functional(eval_state, config.functional, config.mode)

    w_entropy = config.functional.entropy_weight()
    if w_entropy > 0.0:
        tau = opt.tau("features")
        grads.d_features = grads.d_features - np.sqrt(2.0 * w_entropy / tau) * rng.standard_normal(
            state.features.shape
        )

    new_state, opt = apply_step(state, grads, opt)
    rows = new_state.label_dists
    if not all(np.isfinite(a).all() for a in (new_state.features, rows.means, rows.covs)):
        raise FlowDivergenceError(step, "non-finite state")

    if config.mode == MODE_FD:
        new_state.label_dists = label_stats(new_state)

    at_state = terms if beta == 0.0 else None
    diagnostics = {"objective": sum(terms), "term_values": at_state, "beta": beta, "step": step}

    if config.mode == MODE_JD_VL and config.relabel_every > 0 and (step + 1) % config.relabel_every == 0:
        diagnostics["clusters"] = relabel(new_state, config, rng)
    return new_state, diagnostics


def run_flow(initial: DatasetState, config: FlowConfig) -> Trajectory:
    """Run the configured number of steps from an initial state.

    Deterministic for a fixed config and seed: the functional's solver
    state is reset first, so no earlier run leaks into this one. Snapshots
    deep-copy the state, so recorded trajectories are immutable afterwards.
    A snapshot takes its term values from the step that starts at it, and
    ``eval_terms`` evaluates only the final state and noisy or failing
    steps. Any OtflowError a step raises, such as a solve that does not
    converge or a non-finite gradient, ends the run as a FlowDivergenceError
    at that step, which carries the trajectory recorded so far; the failing
    step's start is recorded too when it can be evaluated.
    """
    config.validate(initial.n)
    config.functional.reset()
    state = initial.decoupled() if config.mode == MODE_JD_VL else initial.copy()
    state.validate()

    opt = config.optimizer.clone()
    rng = np.random.default_rng(config.seed)
    traj = Trajectory(
        term_kinds=config.functional.term_kinds(), mode=config.mode, seed=config.seed
    )
    t_start = time.perf_counter()

    def record(step, current, terms=None):
        terms = eval_terms(current, config.functional) if terms is None else terms
        now = time.perf_counter() - t_start
        traj.snapshots.append(Snapshot(step, current.copy(), float(sum(terms)), terms, now))

    for t in range(config.steps):
        try:
            new_state, diag = flow_step(state, config, opt, rng, t)
            if t % config.record_every == 0:
                record(t, state, diag["term_values"])
        except OtflowError as exc:
            if t % config.record_every == 0:
                with suppress(OtflowError):  # the state may be what fails to evaluate
                    record(t, state)
            raise FlowDivergenceError(t, getattr(exc, "detail", str(exc)), traj) from exc
        state = new_state
        traj.objective_trace.append(float(diag["objective"]))

    if config.mode == MODE_JD_VL:
        relabel(state, config, rng)
    record(config.steps, state)
    traj.objective_trace.append(traj.snapshots[-1].objective)
    return traj

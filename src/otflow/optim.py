"""First-order step rules applied to flow gradients.

Supports plain sgd, sgd with momentum, adam, and adagrad, with independent
accumulator buffers per gradient block (features / means / covariances) and
optional per-block step sizes. Covariance blocks are projected back onto the
PSD cone after every update.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FlowDivergenceError
from .gaussian import Moments, project_psd, psd_floor_value
from .otdd import DatasetState, FlowGradients

RULES = ("sgd", "momentum", "adam", "adagrad")
BLOCKS = ("features", "means", "covs")


@dataclass
class OptimizerState:
    """Step rule, hyperparameters, and per-block accumulators.

    A single instance drives all blocks of a flow; ``block_step_sizes`` can
    override the shared step size per block family ("features", "means",
    "covs"), which the paper's single-tau scheme leaves shared by default.
    The accumulators ``buffers`` and ``step_count`` start empty and are not
    constructor arguments.
    """

    rule: str = "sgd"
    step_size: float = 0.1
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    adagrad_eps: float = 1e-10
    block_step_sizes: dict = field(default_factory=dict)
    buffers: dict = field(default_factory=dict, init=False)
    step_count: int = field(default=0, init=False)

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown optimizer rule {self.rule!r}")
        if not 0 < self.step_size < np.inf:
            raise ValueError(f"step_size must be positive and finite, not {self.step_size}")
        for block, tau in self.block_step_sizes.items():
            if block not in BLOCKS or not 0 < tau < np.inf:
                raise ValueError(
                    f"block_step_sizes takes positive finite steps for {BLOCKS}, "
                    f"got {block!r}: {tau!r}"
                )
        for name in ("momentum", "beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), not {getattr(self, name)}")
        for name in ("adam_eps", "adagrad_eps"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, not {getattr(self, name)}")

    def clone(self) -> "OptimizerState":
        """Same rule and hyperparameters, with no accumulated state."""
        return replace(self, block_step_sizes=dict(self.block_step_sizes))

    def tau(self, block: str) -> float:
        return float(self.block_step_sizes.get(block, self.step_size))

    def delta(self, block: str, grad: np.ndarray) -> np.ndarray:
        """Update to subtract from the block's parameters for this gradient.

        Bias correction for adam uses the post-increment step count, so call
        only after ``step_count`` has been advanced for the current step.
        """
        tau = self.tau(block)
        if self.rule == "sgd":
            return tau * grad
        buf = self.buffers.setdefault(block, {})
        if self.rule == "momentum":
            v = buf.get("v")
            v = grad.copy() if v is None else self.momentum * v + grad
            buf["v"] = v
            return tau * v
        if self.rule == "adagrad":
            g2 = buf.get("g2")
            g2 = grad**2 if g2 is None else g2 + grad**2
            buf["g2"] = g2
            return tau * grad / (np.sqrt(g2) + self.adagrad_eps)
        # adam
        t = self.step_count
        m = buf.get("m")
        v = buf.get("v")
        m = (1 - self.beta1) * grad if m is None else self.beta1 * m + (1 - self.beta1) * grad
        v = (1 - self.beta2) * grad**2 if v is None else self.beta2 * v + (1 - self.beta2) * grad**2
        buf["m"] = m
        buf["v"] = v
        m_hat = m / (1 - self.beta1**t)
        v_hat = v / (1 - self.beta2**t)
        return tau * m_hat / (np.sqrt(v_hat) + self.adam_eps)


def apply_step(state: DatasetState, grads: FlowGradients, opt: OptimizerState):
    """One explicit Euler step of every block present in the gradients.

    Features always move; the moment rows move when the gradients carry
    them, and the updated covariances are re-projected onto the PSD cone in
    one batched call.
    Returns (new_state, opt); the optimizer is advanced in place.

    Raises FlowDivergenceError (with the step index) on non-finite gradients.
    """
    if not grads.is_finite():
        raise FlowDivergenceError(opt.step_count, "non-finite gradient")
    opt.step_count += 1

    new = state.copy()
    new.features = state.features - opt.delta("features", grads.d_features)
    if grads.d_means is not None:
        rows = state.label_dists
        means = rows.means - opt.delta("means", grads.d_means)
        covs = rows.covs - opt.delta("covs", grads.d_covs)
        new.label_dists = Moments(means, project_psd(covs, psd_floor_value(covs)))
    return new, opt

"""Exception types shared across the package."""


class OtflowError(Exception):
    """Base class for all package-specific errors."""


class NumericError(OtflowError):
    """Non-finite or numerically invalid input."""


class DimensionMismatchError(OtflowError):
    """Operands have incompatible dimensions."""


class SinkhornConvergenceError(OtflowError):
    """Sinkhorn failed to reach the marginal tolerance within max_iter."""

    def __init__(self, marginal_error: float, iterations: int):
        self.marginal_error = marginal_error
        self.iterations = iterations
        super().__init__(
            f"sinkhorn did not converge in {iterations} iterations "
            f"(L1 marginal violation {marginal_error:.3e})"
        )


class SizeLimitError(OtflowError):
    """Instance exceeds the size supported by an exact solver."""


class FlowDivergenceError(OtflowError):
    """Flow produced a non-finite state or gradient.

    Carries the step index at which divergence was detected and, when
    raised from a running flow, the trajectory recorded up to that point.
    """

    def __init__(self, step: int, detail: str = "", trajectory=None):
        self.step = step
        self.detail = detail
        self.trajectory = trajectory
        msg = f"flow diverged at step {step}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ConfigError(OtflowError):
    """Run configuration is invalid or inconsistent."""


class ParseError(OtflowError):
    """A data file could not be parsed."""

    def __init__(self, path, detail: str, line: int | None = None):
        self.path = path
        self.line = line
        where = f"{path}" if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {detail}")

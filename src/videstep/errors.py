"""Exception and warning types raised by the solvers and analysis routines."""

from __future__ import annotations

__all__ = [
    "VidestepError",
    "NonPositiveStep",
    "NonTilingStep",
    "TooManySteps",
    "NonFiniteInitialValue",
    "InvalidSolveConfig",
    "NumericalFailure",
    "StepEvaluationError",
    "KernelCallMismatch",
    "NoConvergence",
    "SingularJacobian",
    "SingularDenominator",
    "DegenerateDenominator",
    "MissingExact",
    "InconsistentExact",
    "MissingJacobian",
    "LengthMismatch",
    "ZeroError",
    "RepeatedStep",
    "UnknownProblem",
    "ConfigurationWarning",
]


class VidestepError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveStep(VidestepError):
    """Step size h must be strictly positive."""


class NonTilingStep(VidestepError):
    """Step size does not tile the interval [x0, xf] into whole steps."""


class TooManySteps(VidestepError):
    """The mesh has more steps than the stated cap allows."""


class NonFiniteInitialValue(VidestepError):
    """The initial value y0 is infinite or NaN."""


class InvalidSolveConfig(VidestepError, ValueError):
    """Implicit-solve settings outside their domain: a tolerance that is not
    positive (NaN included) or an iteration cap that is not an integer of
    at least 1. It is also a
    ValueError, the built-in type for an argument outside its domain."""


class NumericalFailure(VidestepError):
    """A computation failed for arithmetic reasons, not because of how it was
    called: the command line exits 3 on it, and 2 on every other error."""


class StepEvaluationError(NumericalFailure):
    """A user-supplied callback (f, K, a jacobian or the exact solution) failed,
    or returned a value a step cannot use: NaN, or ±inf where it must be finite."""


class KernelCallMismatch(VidestepError):
    """A kernel's output for a history row disagrees with its node-by-node values,
    as happens when it reduces over its array argument."""


class NoConvergence(NumericalFailure):
    """Newton or fixed-point iteration hit the cap, or stalled, above tolerance."""

    def __init__(self, iterations: int, last_residual: float):
        self.iterations = iterations
        self.last_residual = last_residual
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(last residual {last_residual:.3e})"
        )


class SingularJacobian(NumericalFailure):
    """Newton update denominator is numerically zero."""


class SingularDenominator(NumericalFailure):
    """Propagation denominator D_{i+1} is numerically zero."""


class DegenerateDenominator(NumericalFailure):
    """Bound estimation denominator is too small to divide by."""


class MissingExact(VidestepError):
    """The requested operation needs an exact solution the problem does not carry."""


class InconsistentExact(VidestepError):
    """The exact solution does not start at the initial value: exact(x0)
    differs from y0 by more than rounding, as when a built-in solution
    that starts at x = 0 meets a mesh that does not."""


class MissingJacobian(VidestepError):
    """The requested operation needs f_y and K_y jacobians the problem does not carry."""


class LengthMismatch(VidestepError):
    """Array arguments that must agree in length do not."""


class ZeroError(NumericalFailure):
    """An error is undefined or too close to zero for a meaningful ratio: a
    magnitude below 1e-15 or not finite, or a run that diverged before the
    node where its error is measured."""


class RepeatedStep(VidestepError):
    """Two stepsizes compared for an observed order are equal, so ln(h1/h2)
    is 0 and the ratio of their errors tells nothing about the order."""


class UnknownProblem(VidestepError):
    """No built-in problem registered under the requested id."""


class ConfigurationWarning(UserWarning):
    """A parameter combination is outside the regime where a guarantee holds."""

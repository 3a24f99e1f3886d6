"""Euler-Trapezium solvers and error analysis for first-order Volterra
integro-differential equations y' = f(x, y) + int_{x0}^{x} K(x, y(t), t) dt."""

# Each module's __all__ lists its public names; the package re-exports them.
from .core import *  # noqa: F403
from .error_analysis import *  # noqa: F403
from .errors import *  # noqa: F403
from .experiments import *  # noqa: F403
from .steppers import *  # noqa: F403
from .test_problems import *  # noqa: F403

__version__ = "0.1.0"

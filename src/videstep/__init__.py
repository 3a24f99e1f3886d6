"""Euler-Trapezium solvers and error analysis for first-order Volterra
integro-differential equations y' = f(x, y) + int_{x0}^{x} K(x, y(t), t) dt."""

from .core import (
    MAX_STEPS,
    Mesh,
    Method,
    StepDiagnostics,
    Trajectory,
    VideProblem,
    make_mesh,
)
from .error_analysis import (
    BoundModel,
    ErrorReport,
    ErrorSource,
    SignCase,
    auto_reference,
    direct_local_errors,
    endpoint_error,
    error_bound,
    estimate_C_tilde,
    estimate_C_tilde_zero,
    fit_bound,
    global_errors,
    growth_rate_L,
    observed_order,
    pairwise_order,
    propagation_coefficient_explicit,
    propagation_coefficient_implicit,
    propagation_coefficients,
    propagation_residual,
    recover_local_errors,
    signed_c_curve,
)
from .errors import (
    ConfigurationWarning,
    DegenerateDenominator,
    IndexOutOfRange,
    KernelCallMismatch,
    LengthMismatch,
    MissingExact,
    MissingJacobian,
    NoConvergence,
    NonFiniteInitialValue,
    NonPositiveStep,
    NonTilingStep,
    SingularDenominator,
    SingularJacobian,
    StepEvaluationError,
    TooManySteps,
    UnknownProblem,
    VidestepError,
    ZeroError,
)
from .experiments import (
    DIVERGENCE_THRESHOLD,
    ExperimentKind,
    ExperimentSpec,
    ResultTable,
    figure_spec,
    run_consistency_study,
    run_experiment,
    run_order_study,
)
from .steppers import (
    OVERFLOW_CUTOFF,
    ImplicitSolveConfig,
    SolveStrategy,
    explicit_step,
    history_sum,
    implicit_step,
    integrate,
    seeded_steps,
)
from .test_problems import (
    PROBLEM_IDS,
    TestEquationParams,
    builtin_problem,
    constant_kernel,
    cubic_kernel,
    pure_ode,
    test_equation,
    test_equation_exact,
)

__version__ = "0.1.0"

"""Adaptive-sampling stochastic optimization for constrained stochastic
programs: projected gradient descent and an SQP variant whose per-iteration
sample sizes are chosen a posteriori by variance tests, for expectation and
smoothed-CVaR objectives."""

__version__ = "0.1.0"

from .algorithms import (
    EqualityConstraint,
    OptimizerConfig,
    OptimizerState,
    RunResult,
    run_cvar_extended,
    run_nested_quantile,
    run_spgd_adaptive,
    run_sqp_adaptive,
    sqp_directions,
)
from .geometry import (
    Halfspace,
    Intersection,
    NonNegativeOrthant,
    ProductWithFree,
    ProjectionError,
    ProjectionResult,
    UnitSimplex,
    project,
    project_simplex,
)
from .model import (
    GradientStats,
    SampleSet,
    SettingError,
    StochasticProblem,
    draw_samples,
    fill_rows,
    sample_gradient,
    sample_objective,
)
from .problems import (
    BasicExample,
    PortfolioProblem,
    basic_optimum,
    make_basic_example,
    make_portfolio,
)
from .records import RunRecord, compare_runs, read_csv, write_csv
from .risk import (
    ExtendedProblem,
    quantile_solve,
    smooth_plus,
    smoothed_cvar,
)
from .sizing import TestConfig, TestOutcome, norm_test, sqp_norm_test

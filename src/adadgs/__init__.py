"""Adaptive directional-Gaussian-smoothing optimization toolkit."""

from .baselines import BaselineConfig, es_bpop_minimize, fd_gradient, fd_minimize, nesterov_minimize
from .benchmarks import (
    BENCHMARKS,
    Objective,
    SubprocessObjective,
    TransformedBenchmark,
    eval_base,
    haar_rotation,
    make_benchmark,
    optimum_value,
)
from .errors import EvaluationError
from .gradient import DgsGradient, Frame, dgs_gradient, dgs_stencil, directional_derivative, gs_mc_gradient
from .gradient import QuadratureRule, gauss_hermite_rule
from .harness import ExperimentSpec, list_functions, preset, run_experiment, run_trial
from .optimizer import (
    AdaDgsConfig,
    LineSearchResult,
    OptimizerState,
    adadgs_minimize,
    adadgs_step,
    line_search,
    random_rotation,
    sigma_update,
)
from .trace import Trace, TraceRow

__version__ = "0.1.0"

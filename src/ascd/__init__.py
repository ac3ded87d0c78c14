"""Coordinate descent with uniform and approximate-steepest selection
(steepest on exact gradients), plus the measurement tools around them."""

from .problem import (ColumnSparseMatrix, CompositeProblem, Regularizer,
                      ResidualState, model_value)
from .oracles import OracleSpec
from .selector import (ActiveSet, Bounds, GradientEstimate, active_set,
                       compute_bounds, select_ascd, select_ucd)
from .driver import (RunConfig, RunResult, UpdateRule, progress_delta,
                     progress_tau, run, write_trace_csv)
from .hardcase import HardCase, LowDimEmbedding, embed_lowdim, solve_c_alpha
from .ratiosim import RatioSimConfig, rho_infinity, simulate_rho
from .data import SynthConfig, generate_synthetic, load_svmlight, save_svmlight

__version__ = "0.1.0"

__all__ = [
    "ColumnSparseMatrix", "CompositeProblem", "Regularizer", "ResidualState",
    "model_value", "OracleSpec",
    "ActiveSet", "Bounds", "GradientEstimate", "active_set", "compute_bounds",
    "select_ascd", "select_ucd", "RunConfig", "RunResult",
    "UpdateRule", "progress_delta", "progress_tau", "run", "write_trace_csv",
    "HardCase", "LowDimEmbedding", "embed_lowdim", "solve_c_alpha",
    "RatioSimConfig", "rho_infinity", "simulate_rho", "SynthConfig",
    "generate_synthetic", "load_svmlight", "save_svmlight",
]

"""Test-time correction of frozen forecasters from revealed prefix errors.

The solver treats the revealed prefix error of each prediction window as the
boundary of a smooth, bounded correction field over the horizon: a
closed-form local branch propagates the boundary through a regularized chain
Laplacian, a cross-window error memory with a small trained decoder supplies
long-range structure, and a horizon-ramped clipped fusion combines the two.
"""

from .backbones import (
    BiasedOracleForecaster,
    LinearForecaster,
    NormalizationWrapper,
    fit_linear_backbone,
)
from .boundary import (
    PrefixBoundary,
    build_boundary,
    contaminate_prefix,
    estimate_dominant_period,
    select_prefix_length,
)
from .chain import TransferOperator, build_transfer_operator, difference_matrix
from .config import RolloutConfig, SolverConfig
from .data import Dataset, load_csv, split_dataset
from .decoder import DecoderParams, decode, gradient_check, init_params, train_decoder
from .fusion import FusionSchedule, apply_correction, fuse, normalized_shares, ramp
from .local import LocalCorrection, extract_fast_error, solve_local
from .memory import MemoryState, cold_start, context_vector, update_memory
from .reference import (
    TemporalChain,
    bias_field,
    dirichlet_energy,
    harmonic_extension,
    propagate_fast_error,
)
from .rollout import ContractViolation, EvalReport, correct_window, rollout, train_decoder_for
from .synth import biased_oracle_fixture, seasonal_stream

__version__ = "0.1.0"

__all__ = [
    "BiasedOracleForecaster",
    "ContractViolation",
    "Dataset",
    "DecoderParams",
    "EvalReport",
    "FusionSchedule",
    "LinearForecaster",
    "LocalCorrection",
    "MemoryState",
    "NormalizationWrapper",
    "PrefixBoundary",
    "RolloutConfig",
    "SolverConfig",
    "TemporalChain",
    "TransferOperator",
    "apply_correction",
    "bias_field",
    "biased_oracle_fixture",
    "build_boundary",
    "build_transfer_operator",
    "cold_start",
    "contaminate_prefix",
    "context_vector",
    "correct_window",
    "decode",
    "difference_matrix",
    "dirichlet_energy",
    "estimate_dominant_period",
    "extract_fast_error",
    "fit_linear_backbone",
    "fuse",
    "gradient_check",
    "harmonic_extension",
    "init_params",
    "load_csv",
    "normalized_shares",
    "propagate_fast_error",
    "ramp",
    "rollout",
    "seasonal_stream",
    "select_prefix_length",
    "solve_local",
    "split_dataset",
    "train_decoder",
    "train_decoder_for",
    "update_memory",
]

"""Solver and rollout configuration.

Every solver hyperparameter defaults to the values used throughout the
reference experiments; overrides land in the run manifest so reports stay
comparable. Config files are flat `key = value` text, keys matching the
dataclass field names below.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

from .fusion import FusionSchedule


class ConfigError(ValueError):
    """Bad configuration value or file (CLI exit code 2)."""


@dataclass
class SolverConfig:
    """Hyperparameters of the correction solver."""

    min_prefix_support: int = 2      # floor on the prefix length
    smoothness_alpha: float = 0.15   # transfer-operator regularizer
    ridge_coef: float = 0.03         # local 2-parameter ridge
    basis_clip: float = 0.5          # local coefficient box
    local_mix: float = 0.55          # local response scale
    context_size: int = 8            # memory summary ring length K
    hidden_dim: int = 256            # decoder hidden width
    memory_decay: float = 0.5        # EMA retention rho
    global_scale: float = 1.5        # decoder output scale
    global_mix: float = 0.7          # fusion gamma
    ramp_midpoint: float = 0.25      # fusion tau
    ramp_sharpness: float = 8.0      # fusion kappa
    correction_clip: float = 2.5     # fusion safety bound c

    # ablation switches (test-time only; checkpoints are shared)
    local_only: bool = False         # gamma forced to 0
    global_only: bool = False        # local field forced to 0
    no_bound: bool = False           # clip disabled (c = inf)
    no_memory: bool = False          # memory frozen at cold start

    def validate(self) -> None:
        if self.min_prefix_support < 1:
            raise ConfigError("min_prefix_support must be >= 1")
        if not 1.0 < 1.0 + self.smoothness_alpha < math.inf:
            raise ConfigError("smoothness_alpha must be finite with 1 + alpha > 1")
        if not self.ridge_coef > 0:
            raise ConfigError("ridge_coef must be > 0")
        if not 0.0 <= self.memory_decay <= 1.0:
            raise ConfigError("memory_decay must lie in [0, 1]")
        if not self.basis_clip >= 0:
            raise ConfigError("basis_clip must be >= 0")
        if not math.isfinite(self.local_mix):
            raise ConfigError("local_mix must be finite")
        if self.context_size < 1:
            raise ConfigError("context_size must be >= 1")
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim must be >= 1")
        if not 0 < self.global_scale < math.inf:
            raise ConfigError("global_scale must be finite and > 0")
        try:
            self.schedule(ablate=False)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def schedule(self, ablate: bool = True) -> FusionSchedule:
        """The fusion schedule of these settings; raises `ValueError` when out of range.

        With `ablate`, `local_only` sets `global_mix` to 0 and `no_bound` the
        clip to infinity; with `ablate=False` the raw values pass through.
        """
        return _fusion_schedule(
            0.0 if ablate and self.local_only else self.global_mix,
            self.ramp_sharpness,
            self.ramp_midpoint,
            math.inf if ablate and self.no_bound else self.correction_clip,
        )


_fusion_schedule = functools.lru_cache(maxsize=64)(FusionSchedule)  # frozen, so shareable


ABLATION_SWITCHES = ("local_only", "global_only", "no_bound", "no_memory")


@dataclass
class RolloutConfig:
    """Rollout engine settings on top of the solver hyperparameters."""

    lookback: int = 96
    horizon: int = 96
    stride: int | None = None        # None -> non-overlapping (stride = horizon)
    prefix_mode: str = "fft"         # "fft" or a fixed prefix_length (0: zero-shot)
    prefix_length: int | None = None
    seed: int = 0
    standardize: bool = True         # z-score channels by train-split statistics
    memory_schedule: str = "safe"    # "immediate" is a leakage-test hook
    max_windows: int | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)

    def validate(self) -> None:
        self.solver.validate()
        if self.lookback < 4:
            raise ConfigError("lookback must be >= 4 (period estimation needs it)")
        if self.horizon < 2:
            raise ConfigError("horizon must be >= 2")
        if self.stride is not None and self.stride < 1:
            raise ConfigError("stride must be >= 1")
        if self.prefix_mode not in ("fft", "fixed"):
            raise ConfigError(f"unknown prefix_mode {self.prefix_mode!r}")
        if self.prefix_length is not None and self.prefix_length < 0:
            raise ConfigError(f"prefix_length >= 0 required, got {self.prefix_length}")
        if self.prefix_mode == "fixed" and self.prefix_length is None:
            raise ConfigError("prefix_mode=fixed requires prefix_length >= 0 (0: zero-shot)")
        if self.max_windows is not None and self.max_windows < 1:
            raise ConfigError("max_windows must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.memory_schedule not in ("safe", "immediate"):
            raise ConfigError(f"unknown memory_schedule {self.memory_schedule!r}")

    def set_prefix(self, spec) -> None:
        """Estimate each prefix length by FFT (`spec` "fft") or fix it to the integer `spec`."""
        if spec == "fft":
            self.prefix_mode, self.prefix_length = "fft", None
            return
        try:
            self.prefix_mode, self.prefix_length = "fixed", int(spec)
        except ValueError:
            raise ConfigError(f"prefix must be 'fft' or an integer, got {spec!r}") from None

    @property
    def effective_stride(self) -> int:
        return self.stride if self.stride is not None else self.horizon

    def manifest(self) -> dict:
        out = dataclasses.asdict(self)
        solver = out.pop("solver")
        solver["effective_clip"] = (
            "inf" if self.solver.no_bound else self.solver.correction_clip
        )
        out["solver"] = solver
        out["stride"] = self.effective_stride
        out["correction_units"] = "train-standardized" if self.standardize else "raw"
        return out


_NULLABLE = ("stride", "prefix_length", "max_windows")  # int keys whose default is None
_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _coerce(raw: str, target_type):
    raw = raw.strip()
    if target_type is bool:
        if raw.lower() not in _BOOL_WORDS:
            raise ConfigError(f"expected a boolean, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    try:
        return target_type(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {raw!r} as {target_type.__name__}") from exc


def apply_overrides(config: RolloutConfig, pairs: dict[str, str]) -> RolloutConfig:
    """Apply string key=value overrides onto a rollout config (in place).

    Each value parses as its key's current type; "none" or an empty value
    resets one of the `_NULLABLE` keys, which otherwise parse as int.
    """
    solver_keys = {f.name for f in dataclasses.fields(SolverConfig)}
    rollout_keys = {f.name for f in dataclasses.fields(RolloutConfig)} - {"solver"}
    for key, raw in pairs.items():
        if key not in solver_keys | rollout_keys:
            raise ConfigError(f"unknown configuration key {key!r}")
        target = config.solver if key in solver_keys else config
        if key in _NULLABLE and raw.strip().lower() in ("none", ""):
            setattr(target, key, None)
        else:
            kind = int if key in _NULLABLE else type(getattr(target, key))
            setattr(target, key, _coerce(raw, kind))
    config.validate()
    return config


def load_config_file(path) -> dict[str, str]:
    """Parse a flat `key = value` config file; '#' starts a comment."""
    pairs: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, raw = stripped.split("=", 1)
            pairs[key.strip()] = raw.strip()
    return pairs

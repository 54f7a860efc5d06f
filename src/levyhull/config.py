"""Experiment configuration: a flat ``key = value`` text format (dotted
keys for the model block) or JSON with the same keys, optionally nested.

Example::

    # compound Poisson cross-validation
    experiment = verify-identity
    model.kind = cp
    model.rate = 1
    model.jump.kind = gaussian
    model.jump.mean = 0
    model.jump.sd = 1
    model.mu = 0.2
    T_grid = 50
    reps = 10000
    cutoff = 1e-3
    seed = 20260808

Grammar: one ``key = value`` pair per line; ``#`` starts a comment; values
are numbers, bare strings, or comma/space separated number lists.
"""
from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .models import (
    BrownianDrift,
    CompoundPoissonDrift,
    Gaussian,
    LogCorrectedPareto,
    Pareto,
    PointMass,
    StableProcess,
    TwoPoint,
)
from .sbrep import DEFAULT_CUTOFF

__all__ = ["ExperimentConfig", "EXPERIMENTS", "MODELS", "JUMPS", "load_config", "config_from_mapping"]

EXPERIMENTS = (
    "stick-counts",
    "compensation",
    "verify-identity",
    "clt-trend",
    "clt-independence",
    "verify-stable",
    "verify-heavy",
    "tail-index",
    "compare-length",
    "theta-scan",
    "hull-props",
)

# kind -> class per block; a class's constructor parameters are its keys
MODELS = {"brownian": BrownianDrift, "cp": CompoundPoissonDrift, "stable": StableProcess}
JUMPS = {
    "two-point": TwoPoint,
    "gaussian": Gaussian,
    "pareto": Pareto,
    "point-mass": PointMass,
    "log-pareto": LogCorrectedPareto,
}
_JUMP_FIELD = "jump"            # the model parameter built from the model.jump block
_ALIASES = {"mean_": "mean"}    # parameter name -> configuration key


def _param_keys(cls):
    """Configuration key -> constructor parameter of a model or jump class."""
    names = inspect.signature(cls).parameters
    return {_ALIASES.get(name, name): name for name in names if name != _JUMP_FIELD}


# top-level keys; every model.* key goes to _build, which rejects the keys
# its kind does not take
_KNOWN_KEYS = {
    "experiment",
    "T_grid",
    "reps",
    "cutoff",
    "seed",
    "workers",
    "out",
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: object | None
    t_grid: tuple
    reps: int
    cutoff: float = DEFAULT_CUTOFF
    seed: int = 0
    workers: int = 1
    out: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        if self.reps < 100:
            raise ConfigError(f"replication count must be >= 100, got {self.reps}")
        if not self.t_grid or any(
            b <= a for a, b in zip(self.t_grid, self.t_grid[1:])
        ):
            raise ConfigError(f"T grid must be nonempty and strictly increasing: {self.t_grid}")
        if not all(0.0 < t < math.inf for t in self.t_grid):
            raise ConfigError(f"T_grid entries must be finite and positive: {self.t_grid}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if self.workers < 1:
            raise ConfigError("worker count must be >= 1")
        if not 0.0 < self.cutoff <= 1.0:
            raise ConfigError(f"cutoff must lie in (0, 1], got {self.cutoff}")


def _parse_scalar(text):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_value(text):
    text = text.strip()
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    if len(parts) > 1:
        return [_parse_scalar(p) for p in parts]
    return _parse_scalar(text)


def parse_flat_text(text):
    """Flat ``key = value`` lines to a dotted-key mapping."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = _parse_value(value)
    return out


def _flatten(mapping, prefix=""):
    flat = {}
    for key, value in mapping.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        else:
            flat[name] = value
    return flat


def _build(flat, block, table, noun):
    """Instance of ``table[flat[block + "kind"]]`` from the block's keys;
    parameters the block leaves out take the class defaults, and a key the
    kind does not take (another kind's) is an error."""
    kind = flat.get(f"{block}kind")
    if not isinstance(kind, str) or kind not in table:
        given = sorted(k for k in flat if k.startswith(block))
        raise ConfigError(f"unknown {noun} kind {kind!r} (keys {given}); choose from {sorted(table)}")
    cls = table[kind]
    keys = _param_keys(cls)
    nested = _JUMP_FIELD in inspect.signature(cls).parameters
    stray = sorted(k for k in flat if k.startswith(block) and k[len(block):] not in {"kind", *keys}
                   and not (nested and k.startswith(f"{block}{_JUMP_FIELD}.")))
    if stray:
        raise ConfigError(f"{noun} kind {kind!r} takes no key {stray[0]!r}")
    kwargs = {name: _number(block + key, flat[block + key])
              for key, name in keys.items() if block + key in flat}
    if nested:
        kwargs[_JUMP_FIELD] = _build(flat, "model.jump.", JUMPS, "jump")
    try:
        return cls(**kwargs)
    except TypeError as exc:  # a parameter without a default is missing
        raise ConfigError(f"{noun} kind {kind!r}: {exc}") from None


def _number(key, value, cast=float):
    """``value`` of configuration key ``key`` as a float, or as an int when
    ``cast`` is ``int`` and the value is integral (``1e3`` reads as 1000)."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    if cast is float:
        return x
    if isinstance(value, int):
        return int(value)   # exact beyond 2**53, as a 64-bit seed needs
    if not x.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(x)


def config_from_mapping(mapping) -> ExperimentConfig:
    flat = _flatten(mapping)
    unknown = {k for k in flat if not k.startswith("model.")} - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    if "experiment" not in flat:
        raise ConfigError("configuration needs an 'experiment' key")
    has_model = any(k.startswith("model.") for k in flat)   # a model block needs model.kind
    grid = flat.get("T_grid", 1.0)
    if not isinstance(grid, list):
        grid = [grid]
    kwargs = dict(
        experiment=str(flat["experiment"]),
        model=_build(flat, "model.", MODELS, "model") if has_model else None,
        t_grid=tuple(_number("T_grid", t) for t in grid),
        reps=_number("reps", flat.get("reps", 1000), int),
    )
    for key, cast in (("cutoff", float), ("seed", int), ("workers", int)):
        if key in flat:
            kwargs[key] = _number(key, flat[key], cast)
    if "out" in flat:
        kwargs["out"] = str(flat["out"])
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    """Read a configuration file; JSON when the first non-blank character
    is '{', the flat key = value grammar otherwise."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            mapping = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON configuration: {exc}") from None
    else:
        mapping = parse_flat_text(text)
    return config_from_mapping(mapping)

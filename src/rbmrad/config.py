"""Line-oriented experiment configuration: `key = value` with # comments."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .rademacher import ConstraintSpec, OptimizerSettings

DATA_SOURCES = ("bernoulli-half", "ground-truth-rbm")


class ConfigError(ValueError):
    """Raised for unparseable text, unknown keys, or invalid values."""


@dataclass
class ExperimentConfig:
    k: int = 6
    m: int = 3
    n: int = 50
    B_radius: float = 1.0
    W_radius: float = 1.0
    num_sigma: int = 200
    restarts: int = 8
    iterations: int = 500
    seed: int = 0
    vc_values: tuple = (1, 2, 5, 10)
    data_source: str = "bernoulli-half"
    output_dir: str = "."
    epochs: int = 200
    learning_rate: float = 0.05
    audit_every: int = 1
    members_file: str | None = None
    init_params_file: str | None = None

    def validate(self) -> None:
        for name in ("k", "m", "n", "num_sigma", "audit_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        try:
            OptimizerSettings(self.restarts, self.iterations)
            ConstraintSpec(self.B_radius, self.W_radius)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not 0.0 <= self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be finite and nonnegative")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not self.vc_values:
            raise ConfigError("vc_values must be nonempty")
        if any(v < 0 for v in self.vc_values):
            raise ConfigError("vc_values entries must be nonnegative")
        if self.data_source not in DATA_SOURCES:
            raise ConfigError(
                f"data_source must be one of {', '.join(DATA_SOURCES)}"
            )


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
# One parser per field annotation; vc_values is the one tuple, of ints.
_PARSERS = {
    "int": int,
    "float": float,
    "tuple": lambda raw: tuple(int(tok) for tok in raw.split(",") if tok.strip()),
    "str": str,
    "str | None": str,
}


def _parse_value(key: str, raw: str):
    try:
        return _PARSERS[_FIELD_TYPES[key]](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        setattr(cfg, key, _parse_value(key, raw))
    cfg.validate()
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if f.name == "vc_values":
            rendered = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        # What parse_config keeps of the value's line, if it stays one line.
        kept = rendered.split("#", 1)[0].strip()
        if kept != rendered or len(rendered.splitlines()) > 1:
            raise ConfigError(f"{f.name} = {rendered!r} does not survive a round trip")
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())

"""Flat key-value run configuration.

Format: one `section.key = value` per line, `#` comments, blank lines
ignored.  Unknown keys are hard errors so a typo cannot silently fall back
to a default in the middle of a sweep.  `sweep.<key> = v1,v2,...` declares
a sweep axis over any known key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import Any

from .errors import ConfigError
from .exponents import ModelParams
from .pde import (ConstantProfile, GaussianBump, RadialGrid, SolverConfig,
                  make_grid)

_NAN = float("nan")


def _derived(prefix: str, cls) -> dict[str, Any]:
    """`prefix.name` -> default for every field of `cls` whose default is a
    plain int, float or str."""
    return {f"{prefix}.{f.name}": f.default for f in dataclasses.fields(cls)
            if type(f.default) in (int, float, str)}


# key -> default: the dataclass defaults under their field names, and the
# keys no dataclass field maps onto one to one
_DEFAULTS: dict[str, Any] = {
    "model.chi": 10.0,
    "model.xi": 1.0,
    **_derived("model", ModelParams),
    "model.radius": 1.0,  # the R of make_grid
    "indices.p": _NAN,
    "indices.q": _NAN,
    "indices.s1": _NAN,
    "indices.s2": _NAN,
    "indices.epsilon": _NAN,
    "grid.shells": 64,
    "profile.kind": "gaussian",
    **_derived("profile", ConstantProfile),
    **_derived("profile", GaussianBump),
    **_derived("solver", SolverConfig),
    "bound.E0": _NAN,
    "bound.C_GN": _NAN,
    "bound.corollary": 0,
    "bound.gn_safety": 2.0,
    "verify.eta": _NAN,
    "verify.epsilon": 1.0,
    "region.p_min": _NAN,
    "region.p_max": _NAN,
    "region.p_step": 0.1,
    "seed": 0,  # read by nothing: kept so that configs that set it parse
    "output.dir": "",
}

# key -> (type tag, default); the tag is the default's type: float, int
# or str
KNOWN_KEYS: dict[str, tuple[str, Any]] = {
    key: (type(default).__name__, default)
    for key, default in _DEFAULTS.items()}


def _parse_value(key: str, raw: str):
    tag, _ = KNOWN_KEYS[key]
    raw = raw.strip()
    try:
        if tag == "float":
            return float(raw)
        if tag == "int":
            return int(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config_text(text: str) -> tuple[dict[str, Any], dict[str, list]]:
    """Resolved (config, sweep_axes); defaults filled for unset keys."""
    values: dict[str, Any] = {}
    sweep_axes: dict[str, list] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key.startswith("sweep."):
            base = key[len("sweep."):]
            if base not in KNOWN_KEYS:
                raise ConfigError(f"line {lineno}: unknown sweep key {base!r}")
            sweep_axes[base] = [_parse_value(base, item)
                               for item in raw.split(",")]
            continue
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw)
    resolved = {k: values.get(k, default) for k, (_, default) in KNOWN_KEYS.items()}
    return resolved, sweep_axes


def apply_overrides(cfg: dict[str, Any], overrides: list[str]) -> None:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        cfg[key] = _parse_value(key, raw)


def config_hash(cfg: dict[str, Any]) -> str:
    """Hash of the config, less the output.* keys: where results are
    written does not change what is computed."""
    text = "\n".join(f"{k}={cfg[k]!r}" for k in sorted(cfg)
                     if not k.startswith("output."))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- builders ---------------------------------------------------------------

def _build(cls, cfg: dict[str, Any], prefix: str):
    """`cls` from the `prefix.<field>` keys of its fields."""
    keys = {f.name: f"{prefix}.{f.name}" for f in dataclasses.fields(cls)}
    return cls(**{name: cfg[key] for name, key in keys.items()
                  if key in KNOWN_KEYS})


def build_model(cfg: dict[str, Any]) -> ModelParams:
    return _build(ModelParams, cfg, "model")


def build_grid(cfg: dict[str, Any]) -> RadialGrid:
    return make_grid(cfg["model.dim"], cfg["model.radius"], cfg["grid.shells"])


PROFILES = {"constant": ConstantProfile, "gaussian": GaussianBump}


def build_profile(cfg: dict[str, Any]):
    kind = cfg["profile.kind"]
    if kind not in PROFILES:
        raise ConfigError(f"unknown profile.kind {kind!r}")
    return _build(PROFILES[kind], cfg, "profile")


def build_solver(cfg: dict[str, Any]) -> SolverConfig:
    return _build(SolverConfig, cfg, "solver")


def require(cfg: dict[str, Any], key: str) -> float:
    value = cfg[key]
    if isinstance(value, float) and math.isnan(value):
        raise ConfigError(f"missing required config value {key}")
    return value

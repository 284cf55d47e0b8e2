"""Flat key-value run configuration.

Format: one `section.key = value` per line, `#` comments, blank lines
ignored.  Unknown keys are hard errors so a typo cannot silently fall back
to a default in the middle of a sweep.  `sweep.<key> = v1,v2,...` declares
a sweep axis over any known key.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any

from .errors import ConfigError
from .exponents import BallDomain, ModelParams
from .odi import OptConfig, QuadConfig
from .pde import (ConstantProfile, GaussianBump, RadialGrid, SolverConfig,
                  make_grid)
from .verify import SamplerConfig

_NAN = float("nan")

# key -> (type tag, default); type tags: float, int, str, bool
KNOWN_KEYS: dict[str, tuple[str, Any]] = {
    "model.chi": ("float", 10.0),
    "model.xi": ("float", 1.0),
    "model.alpha": ("float", 1.0),
    "model.beta": ("float", 1.0),
    "model.gamma": ("float", 1.0),
    "model.delta": ("float", 1.0),
    "model.mu1": ("float", 0.0),
    "model.mu2": ("float", 0.0),
    "model.k_logistic": ("float", 1.1),
    "model.dim": ("int", 3),
    "model.radius": ("float", 1.0),
    "model.convex": ("bool", True),
    "model.boundary_c": ("float", 0.0),
    "indices.p": ("float", _NAN),
    "indices.q": ("float", _NAN),
    "indices.s1": ("float", _NAN),
    "indices.s2": ("float", _NAN),
    "indices.epsilon": ("float", _NAN),
    "grid.shells": ("int", 64),
    "profile.kind": ("str", "gaussian"),
    "profile.u0": ("float", 1.0),
    "profile.v0": ("float", 0.0),
    "profile.w0": ("float", 0.0),
    "profile.amplitude": ("float", 100.0),
    "profile.width": ("float", 0.2),
    "profile.background": ("float", 0.0),
    "solver.t_final": ("float", 1.0),
    "solver.dt_init": ("float", 1e-6),
    "solver.dt_min": ("float", 1e-12),
    "solver.dt_max": ("float", 1e-2),
    "solver.cfl": ("float", 0.5),
    "solver.growth": ("float", 1.2),
    "solver.grow_after": ("int", 5),
    "solver.blowup_threshold": ("float", 1e8),
    "solver.max_steps": ("int", 2_000_000),
    "solver.sample_every": ("int", 20),
    "quad.rel_tol": ("float", 1e-10),
    "quad.tail_tol": ("float", 1e-12),
    "opt.coarse_grid": ("int", 7),
    "opt.eps_grid": ("int", 7),
    "opt.refine_iters": ("int", 60),
    "opt.boundary_margin": ("float", 1e-3),
    "bound.E0": ("float", _NAN),
    "bound.C_GN": ("float", _NAN),
    "bound.corollary": ("int", 0),
    "bound.gn_safety": ("float", 2.0),
    "verify.samples": ("int", 1000),
    "verify.max_modes": ("int", 12),
    "verify.ascent_steps": ("int", 60),
    "verify.report_tol": ("float", 1e-9),
    "verify.eta": ("float", _NAN),
    "verify.epsilon": ("float", 1.0),
    "verify.trials": ("int", 100_000),
    "monitor.slack": ("float", 0.0),
    "region.p_min": ("float", _NAN),
    "region.p_max": ("float", _NAN),
    "region.p_step": ("float", 0.1),
    "seed": ("int", 0),
    "output.dir": ("str", ""),
}


def _parse_value(key: str, raw: str):
    tag, _ = KNOWN_KEYS[key]
    raw = raw.strip()
    try:
        if tag == "float":
            return float(raw)
        if tag == "int":
            return int(raw)
        if tag == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
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
    text = "\n".join(f"{k}={cfg[k]!r}" for k in sorted(cfg))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- builders ---------------------------------------------------------------

def build_model(cfg: dict[str, Any]) -> ModelParams:
    return ModelParams(
        chi=cfg["model.chi"], xi=cfg["model.xi"],
        alpha=cfg["model.alpha"], beta=cfg["model.beta"],
        gamma=cfg["model.gamma"], delta=cfg["model.delta"],
        mu1=cfg["model.mu1"], mu2=cfg["model.mu2"],
        k_logistic=cfg["model.k_logistic"], dim=cfg["model.dim"],
        domain=BallDomain(cfg["model.radius"], cfg["model.convex"]),
        boundary_c=cfg["model.boundary_c"])


def build_grid(cfg: dict[str, Any]) -> RadialGrid:
    return make_grid(cfg["model.dim"], cfg["model.radius"], cfg["grid.shells"])


def build_profile(cfg: dict[str, Any]):
    kind = cfg["profile.kind"]
    if kind == "constant":
        return ConstantProfile(cfg["profile.u0"], cfg["profile.v0"],
                               cfg["profile.w0"])
    if kind == "gaussian":
        return GaussianBump(cfg["profile.amplitude"], cfg["profile.width"],
                            cfg["profile.background"], cfg["profile.v0"],
                            cfg["profile.w0"])
    raise ConfigError(f"unknown profile.kind {kind!r}")


def build_solver(cfg: dict[str, Any]) -> SolverConfig:
    return SolverConfig(
        t_final=cfg["solver.t_final"], dt_init=cfg["solver.dt_init"],
        dt_min=cfg["solver.dt_min"], dt_max=cfg["solver.dt_max"],
        cfl=cfg["solver.cfl"], growth=cfg["solver.growth"],
        grow_after=cfg["solver.grow_after"],
        blowup_threshold=cfg["solver.blowup_threshold"],
        max_steps=cfg["solver.max_steps"],
        sample_every=cfg["solver.sample_every"])


def build_quad(cfg: dict[str, Any]) -> QuadConfig:
    return QuadConfig(rel_tol=cfg["quad.rel_tol"],
                      tail_tol=cfg["quad.tail_tol"])


def build_opt(cfg: dict[str, Any]) -> OptConfig:
    return OptConfig(coarse_grid=cfg["opt.coarse_grid"],
                     eps_grid=cfg["opt.eps_grid"],
                     refine_iters=cfg["opt.refine_iters"],
                     boundary_margin=cfg["opt.boundary_margin"],
                     quad=build_quad(cfg))


def build_sampler(cfg: dict[str, Any]) -> SamplerConfig:
    return SamplerConfig(n_samples=cfg["verify.samples"],
                         max_modes=cfg["verify.max_modes"],
                         ascent_steps=cfg["verify.ascent_steps"],
                         seed=cfg["seed"],
                         report_tol=cfg["verify.report_tol"])


def require(cfg: dict[str, Any], key: str) -> float:
    value = cfg[key]
    if isinstance(value, float) and math.isnan(value):
        raise ConfigError(f"missing required config value {key}")
    return value

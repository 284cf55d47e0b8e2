"""Batch command-line interface.

Subcommands: check-params, bound, optimize-bound, simulate, verify-gn,
verify-embed, verify-equivalence, verify-odi, region, sweep.  Exit codes:
0 success (or admissible), 1 negative domain result (inadmissible),
2 usage or config error (any value the package rejects), 3 runtime failure
(the bound fails at valid inputs).

Every emitted JSON carries the resolved config hash; wall-clock timestamps
live in a separate `metadata` field so payloads stay byte-reproducible for
a fixed config and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import functools
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import exponents, odi, pde, verify
from .errors import ChemoboundError, ConfigError, ParameterError

OUTPUT_ROOT_ENV = "CHEMOBOUND_OUTPUT_ROOT"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


# flag -> (option strings, argparse options, config key).  argparse stores
# each flag under its config key, and a flag that is given wins over --set.
FLAGS = {
    "output": (("-o", "--output"), {"help": "output directory"}, "output.dir"),
    "dim": (("-n", "--dim"), {"type": int}, "model.dim"),
    "p": (("-p",), {"type": float}, "indices.p"),
    "q": (("-q",), {"type": float}, "indices.q"),
    "s1": (("--s1",), {"type": float}, "indices.s1"),
    "s2": (("--s2",), {"type": float}, "indices.s2"),
    "E0": (("--E0",), {"type": float}, "bound.E0"),
    "corollary": (("--corollary",), {"type": int, "choices": (0, 1, 2)},
                  "bound.corollary"),
    "eta": (("--eta",), {"type": float}, "verify.eta"),
    "seed": (("--seed",), {"type": int}, "seed"),
}


def _load_config(args) -> tuple[dict, dict]:
    text = Path(args.config).read_text() if args.config else ""
    cfg, sweep_axes = cfgmod.parse_config_text(text)
    cfgmod.apply_overrides(cfg, args.set or [])
    for _, _, key in FLAGS.values():
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg, sweep_axes


def _output_dir(cfg: dict) -> Path | None:
    target = cfg["output.dir"]
    if not target:
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if not root:
            return None
        target = root
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _json_text(payload: dict) -> str:
    """The text of every JSON file written and of each payload _emit
    prints."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(payload: dict, cfg: dict, out_dir: Path | None, name: str) -> None:
    payload = dict(payload)
    payload["config_hash"] = cfgmod.config_hash(cfg)
    print(_json_text(payload), end="")
    if out_dir is not None:
        payload["metadata"] = {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}
        (out_dir / name).write_text(_json_text(payload))


# --- shared pipeline pieces -------------------------------------------------

def resolve_indices(cfg: dict) -> exponents.EnergyIndices:
    n = cfg["model.dim"]
    corollary = cfg["bound.corollary"]
    if corollary == 1:
        p = cfgmod.require(cfg, "indices.p")
        q, s1, s2 = exponents.corollary1_parameters(p, n)
        return exponents.EnergyIndices(float(p), float(q), float(s1), float(s2))
    if corollary == 2:
        p, q, s1, s2 = exponents.corollary2_parameters(n)
        return exponents.EnergyIndices(float(p), float(q), float(s1), float(s2))
    if corollary != 0:
        raise ConfigError(f"bound.corollary must be 0, 1 or 2, got {corollary}")
    return exponents.EnergyIndices(
        cfgmod.require(cfg, "indices.p"), cfgmod.require(cfg, "indices.q"),
        cfgmod.require(cfg, "indices.s1"), cfgmod.require(cfg, "indices.s2"))


def gn_safety(cfg: dict) -> float:
    """bound.gn_safety, the factor on an estimated C_GN."""
    safety = cfg["bound.gn_safety"]
    if not 0 < safety < math.inf:
        raise ConfigError(f"bound.gn_safety must be positive and finite, "
                          f"got {safety!r}")
    return safety


def resolve_gn_constant(cfg: dict, etas: tuple, grid: pde.RadialGrid,
                        gn_memo: dict | None = None) -> tuple[float, dict]:
    """Configured constant, or the maximum over the eta values of the
    estimated constant times the safety factor.  `gn_memo` keeps the
    estimates by (n, R, M, eta), all that one depends on, for the calls
    that pass it."""
    configured = cfg["bound.C_GN"]
    if not math.isnan(configured):
        return configured, {"C_GN_source": "configured"}
    safety = gn_safety(cfg)
    gn_memo = {} if gn_memo is None else gn_memo
    per_eta = {}
    for eta in map(float, set(etas)):
        key = (grid.n, grid.R, grid.M, eta)
        if key not in gn_memo:
            gn_memo[key] = verify.estimate_gn_constant(grid, eta)
        per_eta[eta] = gn_memo[key]
    value = safety * max(per_eta.values())
    return value, {"C_GN_source": "estimated", "C_GN_safety": safety,
                   "C_GN_per_eta": {str(k): v for k, v in per_eta.items()}}


def simulation_inputs(cfg: dict) -> tuple:
    """(params, grid, initial state, indices, solver config) of a run."""
    params = cfgmod.build_model(cfg)
    grid = cfgmod.build_grid(cfg)
    state0 = pde.init_state(grid, cfgmod.build_profile(cfg))
    return (params, grid, state0, resolve_indices(cfg),
            cfgmod.build_solver(cfg))


def simulate_from_config(cfg: dict) -> tuple[pde.Trajectory, tuple]:
    """The trajectory of a run and its simulation_inputs."""
    inputs = simulation_inputs(cfg)
    params, grid, state0, indices, solver = inputs
    traj = pde.run(grid, params, state0, float(indices.p), float(indices.q),
                   solver)
    return traj, inputs


def bound_from_config(cfg: dict, params: exponents.ModelParams,
                      grid: pde.RadialGrid, indices: exponents.EnergyIndices,
                      E0: float, gn_memo: dict | None = None
                      ) -> tuple[odi.BoundResult, dict]:
    """The bound at the model, grid and indices the caller built from
    `cfg`.  `gn_memo` is passed on to resolve_gn_constant."""
    C_GN, meta = resolve_gn_constant(cfg, indices.eta, grid, gn_memo)
    with _overflow_is_config_error(cfg, C_GN):
        return odi.bound_at_indices(params, indices, E0, C_GN,
                                    cfg["indices.epsilon"],
                                    cfgmod.build_quad(cfg)), meta


@contextlib.contextmanager
def _overflow_is_config_error(cfg: dict, C_GN: float):
    try:
        yield
    except OverflowError as exc:  # e.g. a tiny epsilon's epsilon**(-h)
        raise ConfigError(f"indices.epsilon={cfg['indices.epsilon']!r} with "
                          f"C_GN={C_GN!r} overflows the bound") from exc


# --- subcommand handlers ----------------------------------------------------

def cmd_check_params(args) -> int:
    cfg, _ = _load_config(args)
    n = cfg["model.dim"]
    report = exponents.check_condition_C(
        n, cfgmod.require(cfg, "indices.p"), cfgmod.require(cfg, "indices.q"),
        cfgmod.require(cfg, "indices.s1"), cfgmod.require(cfg, "indices.s2"))
    _emit(report.to_json_dict(), cfg, _output_dir(cfg), "admissibility.json")
    return EXIT_OK if report.admissible else EXIT_NEGATIVE


def cmd_bound(args) -> int:
    cfg, _ = _load_config(args)
    # built in this order so that the first bad value is the one reported
    result, meta = bound_from_config(
        cfg, cfgmod.build_model(cfg), cfgmod.build_grid(cfg),
        resolve_indices(cfg), cfgmod.require(cfg, "bound.E0"))
    _emit({**result.to_json_dict(), **meta}, cfg, _output_dir(cfg), "bound.json")
    return EXIT_OK


def cmd_optimize_bound(args) -> int:
    cfg, _ = _load_config(args)
    params = cfgmod.build_model(cfg)
    grid = cfgmod.build_grid(cfg)
    p = cfgmod.require(cfg, "indices.p")
    q = cfgmod.require(cfg, "indices.q")
    E0 = cfgmod.require(cfg, "bound.E0")
    opt_cfg = cfgmod.build_opt(cfg)
    indices_seed = exponents.EnergyIndices(
        p, q, *(_feasible_center(cfg["model.dim"], p, q)))
    C_GN, meta = resolve_gn_constant(cfg, indices_seed.eta, grid)
    result = odi.optimize_bound(params, p, q, E0, C_GN, opt_cfg)
    payload = {**result.to_json_dict(), **meta, "optimized": {
        "s1": float(result.indices.s1), "s2": float(result.indices.s2),
        "epsilon": result.coeffs.epsilon}}
    _emit(payload, cfg, _output_dir(cfg), "optimize_bound.json")
    return EXIT_OK


def _feasible_center(n: int, p: float, q: float) -> tuple[float, float]:
    (a, b), (c, d) = exponents.feasible_box(n, p, q)
    if b <= a or d <= c:
        raise ConfigError(f"empty admissible box for n={n}, p={p}, q={q}")
    return (0.5 * (a + b), 0.5 * (c + d))


def _run_report(traj: pde.Trajectory) -> dict:
    """report.json of a simulated trajectory, less the config hash."""
    return {**traj.report.to_json_dict(), "steps": traj.steps,
            "clip_count": traj.clip_count,
            "solver": traj.solver.to_json_dict()}


def cmd_simulate(args) -> int:
    cfg, _ = _load_config(args)
    traj, _ = simulate_from_config(cfg)
    out_dir = _output_dir(cfg)
    if out_dir is not None:
        with open(out_dir / "trajectory.csv", "w") as stream:
            traj.to_csv(stream)
    _emit(_run_report(traj), cfg, out_dir, "report.json")
    return EXIT_OK


def cmd_verify_gn(args) -> int:
    cfg, _ = _load_config(args)
    grid = cfgmod.build_grid(cfg)
    eta = cfgmod.require(cfg, "verify.eta")
    safety = gn_safety(cfg)
    estimate = verify.estimate_gn_constant(grid, eta)
    _emit({"eta": eta, "estimate": estimate, "safety": safety,
           "inflated": safety * estimate},
          cfg, _output_dir(cfg), "gn_estimate.json")
    return EXIT_OK


def cmd_verify_embed(args) -> int:
    cfg, _ = _load_config(args)
    grid = cfgmod.build_grid(cfg)
    eta = cfgmod.require(cfg, "verify.eta")
    C_GN, _ = resolve_gn_constant(cfg, (eta,), grid)
    report = verify.check_embed_inequality(grid, eta, cfg["verify.epsilon"],
                                           C_GN)
    _emit(report.to_json_dict(), cfg, _output_dir(cfg), "embed.json")
    return EXIT_OK if report.violations == 0 else EXIT_NEGATIVE


def cmd_verify_equivalence(args) -> int:
    cfg, _ = _load_config(args)
    report = verify.equivalence_bruteforce(cfg["model.dim"],
                                           cfg["verify.trials"], cfg["seed"])
    _emit(report.to_json_dict(), cfg, _output_dir(cfg), "equivalence.json")
    return EXIT_OK if report.violations == 0 else EXIT_NEGATIVE


def cmd_verify_odi(args) -> int:
    cfg, _ = _load_config(args)
    traj, (params, grid, _, indices, _) = simulate_from_config(cfg)
    C_GN, meta = resolve_gn_constant(cfg, indices.eta, grid)
    with _overflow_is_config_error(cfg, C_GN):
        coeffs = odi.odi_coefficients(params, indices, cfg["indices.epsilon"],
                                      C_GN)
    mon = verify.MonitorConfig(slack=cfg["monitor.slack"],
                               t_max=traj.report.t_detect)
    report = verify.odi_monitor(traj, coeffs, mon)
    _emit({**report.to_json_dict(), **meta}, cfg, _output_dir(cfg),
          "odi_monitor.json")
    return EXIT_OK if report.violations == 0 else EXIT_NEGATIVE


def cmd_region(args) -> int:
    cfg, _ = _load_config(args)
    n = cfg["model.dim"]
    p_min = cfg["region.p_min"]
    p_max = cfg["region.p_max"]
    step = cfg["region.p_step"]
    if not 0.0 < step < math.inf:
        raise ConfigError(
            f"region.p_step must be positive and finite, got {step!r}")
    if math.isnan(p_min):
        p_min = n / 2.0 + step
    if math.isnan(p_max):
        p_max = 3.0 * n
    grid = np.arange(p_min, p_max + 0.5 * step, step)
    rows = exponents.feasible_region_samples(n, grid.tolist())
    out_dir = _output_dir(cfg)
    if out_dir is not None:
        with open(out_dir / "region.csv", "w") as stream:
            exponents.write_region_csv(rows, stream)
    exponents.write_region_csv(rows, sys.stdout)
    return EXIT_OK


CELL_ERRORS = (ChemoboundError, ArithmeticError, ValueError)


def run_sweep(cfg: dict, sweep_axes: dict, out_dir: Path) -> list[dict]:
    """Cartesian sweep: simulate every cell, attach the configured bound,
    and write one subdirectory per cell plus summary.csv.

    Cells on one grid with one (p, q) are simulated together, as one
    batched pde.run, and written as soon as it returns; each cell's
    trajectory is the one it gets alone.  The cells share one C_GN memo.
    Individual cell failures are recorded and do not stop the sweep."""
    if not sweep_axes:
        raise ConfigError("sweep requires at least one sweep.<key> axis")
    keys = sorted(sweep_axes)
    gn_memo: dict[tuple, float] = {}

    def write_cell(idx, cell_cfg, inputs, traj):
        """`traj` is the cell's trajectory, run from its simulation_inputs
        `inputs`, or the error that stopped it."""
        run_id = f"run_{idx:03d}"
        cell_dir = out_dir / run_id
        cell_dir.mkdir(parents=True, exist_ok=True)
        try:
            if isinstance(traj, Exception):
                raise traj
            params, grid, _, indices, _ = inputs
            bound, meta = bound_from_config(cell_cfg, params, grid, indices,
                                            float(traj.E_pq[0]), gn_memo)
            with open(cell_dir / "trajectory.csv", "w") as stream:
                traj.to_csv(stream)
            digest = cfgmod.config_hash(cell_cfg)
            (cell_dir / "report.json").write_text(_json_text(
                {**_run_report(traj), "config_hash": digest}))
            (cell_dir / "bound.json").write_text(_json_text(
                {**bound.to_json_dict(), **meta, "config_hash": digest}))
            t_detect = traj.report.t_detect
            margin = (t_detect - bound.t_lower) if t_detect is not None else ""
            return {"run_id": run_id, "blew_up": str(traj.report.blew_up).lower(),
                    "t_detect": "" if t_detect is None else repr(t_detect),
                    "t_lower": repr(bound.t_lower),
                    "margin": "" if margin == "" else repr(margin)}
        except CELL_ERRORS as exc:
            (cell_dir / "error.txt").write_text(f"{type(exc).__name__}: {exc}\n")
            return {"run_id": run_id, "blew_up": "error", "t_detect": "",
                    "t_lower": "", "margin": ""}

    rows = {}   # by cell index
    groups: dict[tuple, list[tuple]] = {}   # (idx, config, inputs) by batch
    for idx, values in enumerate(itertools.product(
            *(sweep_axes[k] for k in keys))):
        cell_cfg = dict(cfg)
        cell_cfg.update(zip(keys, values))
        try:
            inputs = simulation_inputs(cell_cfg)
        except CELL_ERRORS as exc:
            rows[idx] = write_cell(idx, cell_cfg, None, exc)
            continue
        _, grid, _, indices, _ = inputs
        groups.setdefault((grid.n, grid.R, grid.M, float(indices.p),
                           float(indices.q)), []).append(
                               (idx, cell_cfg, inputs))
    for (_, _, _, p, q), members in groups.items():
        for (idx, cell_cfg, inputs), traj in zip(members, _run_cells(
                [inputs for _, _, inputs in members], p, q)):
            rows[idx] = write_cell(idx, cell_cfg, inputs, traj)

    rows = [rows[idx] for idx in sorted(rows)]
    with open(out_dir / "summary.csv", "w") as stream:
        writer = csv.DictWriter(
            stream, fieldnames=["run_id", "blew_up", "t_detect", "t_lower",
                                "margin"], lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return rows


def _run_cells(inputs: list[tuple], p: float, q: float) -> list:
    """Trajectories of cells on one grid with one (p, q), from one batched
    run.  If that run raises, each cell runs alone, so that only a cell
    that fails gets its error in place of a trajectory."""
    params, grids, states, _, solvers = zip(*inputs)
    try:
        return pde.run(grids[0], params, states, p, q, solvers)
    except CELL_ERRORS as exc:
        if len(inputs) == 1:
            return [exc]
        return [r for cell in inputs for r in _run_cells([cell], p, q)]


def cmd_sweep(args) -> int:
    cfg, sweep_axes = _load_config(args)
    out_dir = _output_dir(cfg)
    if out_dir is None:
        raise ConfigError("sweep requires an output directory "
                          f"(output.dir or ${OUTPUT_ROOT_ENV})")
    rows = run_sweep(cfg, sweep_axes, out_dir)
    print(json.dumps({"cells": len(rows),
                      "failures": sum(r["blew_up"] == "error" for r in rows),
                      "summary": str(out_dir / "summary.csv")}, sort_keys=True))
    return EXIT_OK


# --- argument parsing -------------------------------------------------------

_PQ = ("p", "q", "s1", "s2")
_BOUND = (*_PQ, "E0", "corollary")

# (name, help, handler, FLAGS it takes besides --output and --dim)
COMMANDS = (
    ("check-params", "evaluate the admissibility condition", cmd_check_params,
     _PQ),
    ("bound", "blow-up time lower bound", cmd_bound, _BOUND),
    ("optimize-bound", "search (s1, s2)", cmd_optimize_bound, _BOUND),
    ("simulate", "run the radial solver", cmd_simulate, _BOUND),
    ("verify-gn", "estimate C_GN at one eta", cmd_verify_gn,
     (*_BOUND, "eta")),
    ("verify-embed", "check the embedding inequality at one eta",
     cmd_verify_embed, (*_BOUND, "eta")),
    ("verify-equivalence", "check Condition C against the eta intervals",
     cmd_verify_equivalence, (*_BOUND, "eta", "seed")),
    ("verify-odi", "check dE/dt <= F(E) along a simulated run",
     cmd_verify_odi, (*_BOUND, "eta")),
    ("region", "admissible (p, q) region table", cmd_region, ()),
    ("sweep", "cartesian experiment sweep", cmd_sweep, _BOUND),
)


@functools.cache  # parsing leaves the parser unchanged; build it once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemobound",
        description="Blow-up bound toolkit for an attraction-repulsion "
                    "chemotaxis system")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, flags in COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config entry")
        for flag in ("output", "dim", *flags):
            names, options, key = FLAGS[flag]
            sp.add_argument(*names, dest=key, **options)
        sp.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ChemoboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

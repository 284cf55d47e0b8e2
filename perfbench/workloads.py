"""Inputs, warm-up calls and output checks of the three workloads.

Each workload is a list of CLI queries (argv lists for
``chemobound.cli.main``) that together make one operation, plus a check
of the files the queries wrote.  Inputs come only from the workload seed;
expected outputs come from ``reference.json``, which
``record_reference.py`` wrote at the commit that defined the benchmark.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Relative tolerances of the output checks.  t_detect is a sum of accepted
# dt values, so it repeats to the last digit unless an adaptive step
# decision flips; 1e-6 admits reordered arithmetic and rejects a flipped
# decision early in the run.  The same tolerance applies to t_lower.
RTOL_TIME = 1e-6
RTOL_STEPS = 1e-3
MAX_MASS_DRIFT = 1e-10

WORKLOADS = ("blowup", "sweep", "bound_search")

# Acceptance blow-up run: n=3, M=48, chi=10, xi=0.5, Gaussian 1e4/0.15.
BLOWUP_CONFIG = """\
model.dim = 3
model.chi = 10.0
model.xi = 0.5
grid.shells = 48
profile.kind = gaussian
profile.amplitude = 1e4
profile.width = 0.15
solver.t_final = 1.0
solver.cfl = 0.2
solver.grow_after = 1
solver.blowup_threshold = 5e6
solver.sample_every = 1
bound.corollary = 2
"""

# Short blow-up cells on one shared grid (~60-130 steps each).  The seed
# permutes the order of each axis and sets the sampler seed, so the cell
# set and its cost are the same for every seed.
SWEEP_AXES = {
    "model.chi": (5.0, 10.0, 20.0, 40.0),
    "model.xi": (0.25, 0.5, 1.0),
    "profile.amplitude": (1e4, 2e4, 3e4),
}
SWEEP_BASE = """\
model.dim = 3
model.chi = 10.0
model.xi = 0.5
grid.shells = 48
profile.kind = gaussian
profile.amplitude = 1e4
profile.width = 0.15
solver.t_final = 1.0
solver.cfl = 0.2
solver.grow_after = 1
solver.blowup_threshold = 1e6
solver.sample_every = 5
bound.corollary = 2
"""

# Admissible points of the bound queries; the seed draws E0 for each query
# from E0_CHOICES and shuffles the batch order.
OPTIMIZE_POINTS = ((3, 2, 4), (3, 3, 6), (4, 3, 6), (5, 4, 8))
COROLLARY1_POINTS = ((3, 3), (3, 4), (4, 4), (5, 5))
COROLLARY2_DIMS = (3, 4, 5, 6)
E0_CHOICES = ("0.1", "0.3", "1", "3", "10", "100")


@dataclass
class Workload:
    name: str
    queries: list[list[str]]   # argv lists without the output flag
    warmup: list[str]          # cheap query run before any timing
    cells: int                 # results one operation produces
    work_dir: Path
    axes: dict | None = None   # sweep axes, in the order written

    def argv(self, query: list[str], out_dir: Path) -> list[str]:
        return [*query, "-o", str(out_dir)]


def sweep_cells(axes: dict) -> list[str]:
    """Cell names in the CLI's run_NNN order: the product of the axis
    value lists, axes taken in sorted key order."""
    keys = sorted(axes)
    return ["|".join(f"{k}={v!r}" for k, v in zip(keys, values))
            for values in itertools.product(*(axes[k] for k in keys))]


def read_summary(out_dir: Path) -> dict[str, dict]:
    with open(out_dir / "summary.csv", newline="") as stream:
        return {row["run_id"]: row for row in csv.DictReader(stream)}


def sweep_config(axes: dict, seed: int) -> str:
    lines = [SWEEP_BASE, f"seed = {seed}"]
    lines += [f"sweep.{key} = " + ", ".join(repr(v) for v in values)
              for key, values in axes.items()]
    return "\n".join(lines) + "\n"


def bound_queries(rng: random.Random | None) -> list[list[str]]:
    """The query batch; with rng None, every (point, E0) pair."""
    def e0s():
        return E0_CHOICES if rng is None else (rng.choice(E0_CHOICES),)

    queries = []
    for n, p, q in OPTIMIZE_POINTS:
        for e0 in e0s():
            queries.append(["optimize-bound", "-n", str(n), "-p", str(p),
                            "-q", str(q), "--E0", e0])
    for n, p in COROLLARY1_POINTS:
        for e0 in e0s():
            queries.append(["bound", "-n", str(n), "-p", str(p),
                            "--corollary", "1", "--E0", e0])
    for n in COROLLARY2_DIMS:
        for e0 in e0s():
            queries.append(["bound", "-n", str(n), "--corollary", "2",
                            "--E0", e0])
    if rng is not None:
        rng.shuffle(queries)
    return queries


def build(name: str, seed: int, work_dir: Path) -> Workload:
    """Write the workload's config files into work_dir and list its queries."""
    rng = random.Random(f"{name}:{seed}")
    if name == "blowup":
        cfg = work_dir / "blowup.cfg"
        cfg.write_text(BLOWUP_CONFIG + f"seed = {rng.randrange(2**31)}\n")
        return Workload(name, [["simulate", "--config", str(cfg)]],
                        ["simulate", "--config", str(cfg),
                         "--set", "solver.max_steps=50"], 1, work_dir)
    if name == "sweep":
        axes = {}
        for key, values in SWEEP_AXES.items():
            values = list(values)
            rng.shuffle(values)
            axes[key] = values
        cfg = work_dir / "sweep.cfg"
        cfg.write_text(sweep_config(axes, rng.randrange(2**31)))
        warm = work_dir / "sweep_warmup.cfg"
        warm.write_text(SWEEP_BASE + "solver.max_steps = 50\n"
                        "sweep.model.chi = 10.0\n")
        cells = math.prod(len(v) for v in axes.values())
        return Workload(name, [["sweep", "--config", str(cfg)]],
                        ["sweep", "--config", str(warm)], cells, work_dir,
                        axes)
    if name == "bound_search":
        queries = bound_queries(rng)
        return Workload(name, queries,
                        ["bound", "-n", "3", "--corollary", "2", "--E0", "1"],
                        len(queries), work_dir)
    raise ValueError(f"unknown workload {name!r}")


# --- output checks ----------------------------------------------------------
# Each returns None when the outputs match the reference, else the reason.

def _close(value: float, expected: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= rtol * abs(expected)


def check_blowup(out_dir: Path, ref: dict) -> str | None:
    report = json.loads((out_dir / "report.json").read_text())
    if report.get("trigger") != ref["trigger"]:
        return f"trigger {report.get('trigger')!r} != {ref['trigger']!r}"
    if not _close(float(report["t_detect"]), ref["t_detect"], RTOL_TIME):
        return f"t_detect {report['t_detect']!r} != {ref['t_detect']!r}"
    if not _close(float(report["steps"]), ref["steps"], RTOL_STEPS):
        return f"steps {report['steps']} != {ref['steps']}"
    with open(out_dir / "trajectory.csv", newline="") as stream:
        mass = [float(row["mass"]) for row in csv.DictReader(stream)]
    drift = max(abs(m - mass[0]) for m in mass) / mass[0]
    if not drift < MAX_MASS_DRIFT:
        return f"mass drift {drift!r} >= {MAX_MASS_DRIFT}"
    return None


def check_sweep(out_dir: Path, ref: dict, axes: dict) -> str | None:
    cells = sweep_cells(axes)
    rows = read_summary(out_dir)
    if len(rows) != len(cells):
        return f"{len(rows)} summary rows for {len(cells)} cells"
    for idx, cell in enumerate(cells):
        row = rows.get(f"run_{idx:03d}")
        if row is None or row["blew_up"] != "true":
            return f"cell {cell}: row {row!r}"
        if not _close(float(row["t_detect"]), ref[cell], RTOL_TIME):
            return f"cell {cell}: t_detect {row['t_detect']} != {ref[cell]!r}"
        if not float(row["margin"]) >= 0.0:
            return f"cell {cell}: negative margin {row['margin']}"
    return None


def bound_t_lower(out_dir: Path, query: list[str]) -> float:
    name = "optimize_bound.json" if query[0] == "optimize-bound" else "bound.json"
    return float(json.loads((out_dir / name).read_text())["t_lower"])


def check_bound(out_dir: Path, query: list[str], ref: dict) -> str | None:
    t_lower = bound_t_lower(out_dir, query)
    expected = ref[" ".join(query)]
    if not (t_lower > 0 and _close(t_lower, expected, RTOL_TIME)):
        return f"{' '.join(query)}: t_lower {t_lower!r} != {expected!r}"
    return None


def check(workload: Workload, ref: dict, query: list[str],
          out_dir: Path) -> str | None:
    if workload.name == "blowup":
        return check_blowup(out_dir, ref["blowup"])
    if workload.name == "sweep":
        return check_sweep(out_dir, ref["sweep"], workload.axes)
    return check_bound(out_dir, query, ref["bound_search"])


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())

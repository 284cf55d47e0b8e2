"""Acceptance suite: one test per acceptance criterion, with pinned
tolerances and runtime limits.  Each test prints a single pass/fail line."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from chemobound.cli import run_sweep
from chemobound.config import parse_config_text
from chemobound.errors import ParameterError
from chemobound.exponents import (ModelParams, corollary1_parameters,
                                  corollary2_parameters, compute_etas,
                                  k_exponent)
from chemobound.odi import Denominator, lower_bound_integral, optimize_bound
from chemobound.pde import (ConstantProfile, GaussianBump, ParamStack,
                            SolverConfig, energy, init_state, make_grid, mass,
                            run, step)
from chemobound.verify import (check_concurrence, check_embed_inequality,
                               check_equivalence, check_remark_ordering,
                               estimate_gn_constant, odi_monitor)


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}")


GRID3 = make_grid(3, 1.0, 48)

BLOWUP_SOLVER = SolverConfig(t_final=1.0, grow_after=1, cfl=0.2,
                             blowup_threshold=5e6, sample_every=1)

SWEEP_CONFIG = """
model.chi = 10.0
model.xi = 0.5
grid.shells = 48
profile.kind = gaussian
profile.amplitude = 1e4
profile.width = 0.15
solver.t_final = 1.0
solver.grow_after = 1
solver.cfl = 0.2
solver.blowup_threshold = 1e6
solver.sample_every = 5
bound.corollary = 2
sweep.model.chi = 5, 10, 20
seed = 0
"""


@pytest.fixture(scope="module")
def monitored_runs():
    """Five n=3 convex-ball runs with no logistic source: two decaying,
    three blow-up-prone, each with coefficients from the bound optimizer."""
    cases = [
        (ModelParams(chi=0.0, xi=0.0, dim=3), GaussianBump(5.0, 0.2)),
        (ModelParams(chi=1.0, xi=1.0, dim=3), GaussianBump(2.0, 0.3)),
        (ModelParams(chi=10.0, xi=0.5, dim=3), GaussianBump(1e4, 0.15)),
        (ModelParams(chi=20.0, xi=0.5, dim=3), GaussianBump(1e4, 0.15)),
        (ModelParams(chi=10.0, xi=0.5, dim=3), GaussianBump(3e4, 0.2)),
    ]
    C_GN = 2.0 * estimate_gn_constant(GRID3, 1.5)
    out = []
    for params, profile in cases:
        state0 = init_state(GRID3, profile)
        solver = BLOWUP_SOLVER if params.chi >= 10 else SolverConfig(
            t_final=0.05, dt_max=1e-3, sample_every=1)
        traj = run(GRID3, params, state0, 2.0, 4.0, solver)
        E0 = energy(state0, 2.0, 4.0, GRID3)
        out.append((traj, optimize_bound(params, 2.0, 4.0, E0, C_GN).coeffs))
    return out


@pytest.fixture(scope="module")
def sweep_dirs(tmp_path_factory):
    cfg, axes = parse_config_text(SWEEP_CONFIG)
    dirs = []
    for name in ("first", "second"):
        out_dir = tmp_path_factory.mktemp(name)
        run_sweep(cfg, axes, out_dir)
        dirs.append(out_dir)
    return dirs


def test_criterion_01_admissibility_equivalence():
    start = time.monotonic()
    reports = [check_equivalence(n) for n in (3, 4, 5, 6)]
    total_violations = sum(r.violations for r in reports)
    elapsed = time.monotonic() - start
    ok = total_violations == 0 and elapsed < 10.0
    _line(1, ok, f"clause/eta biconditional, exact lattice of "
                 f"{sum(r.samples for r in reports)} points over n=3..6, "
                 f"{total_violations} violations, {elapsed:.2f}s")
    assert total_violations == 0
    assert elapsed < 10.0


def test_criterion_02_corollary_exponent_identities():
    start = time.monotonic()
    worst = 0.0
    for n in (3, 4, 5):
        for p in (2, 3, 5):
            if 2 * p <= n:
                with pytest.raises(ParameterError):
                    corollary1_parameters(p, n)
                continue
            q, s1, s2 = corollary1_parameters(p, n)
            etas = compute_etas(float(p), float(q), float(s1), float(s2))
            target_eta = (p + 1) / p
            target_k = (2 * (p + 1) - n) / (2 * p - n)
            for e in etas:
                worst = max(worst, abs(float(e) - target_eta))
                worst = max(worst, abs(float(k_exponent(float(e), n))
                                       - target_k))
        p2, q2, s1_2, s2_2 = corollary2_parameters(n)
        etas = compute_etas(float(p2), float(q2), float(s1_2), float(s2_2))
        for e in etas:
            worst = max(worst, abs(float(e) - n / (n - 1)))
            worst = max(worst, abs(float(k_exponent(float(e), n))
                                   - n / (n - 2)))
    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and elapsed < 1.0
    _line(2, ok, f"corollary eta/k identities, worst error {worst:.2e}, "
                 f"{elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_03_remark_ordering():
    total = 0
    for n in (3, 4, 5):
        eta_star = n / (n - 1.0)
        grid = np.linspace(1.0, eta_star, 1002)[1:-1]
        total += check_remark_ordering(n, grid).violations
    _line(3, total == 0, f"strict chain and 1e-12 equality on 1e3-point "
                         f"grids, {total} violations")
    assert total == 0


def test_criterion_04_quadrature_oracle():
    worst = 0.0
    for a in (1.5, 5.0 / 3.0, 3.0):
        for E0 in (0.1, 1.0, 10.0):
            A = 2.0
            [result] = lower_bound_integral(Denominator.of(((A, a),)), E0)
            exact = E0 ** (1.0 - a) / (A * (a - 1.0))
            worst = max(worst, abs(result.t_lower - exact) / exact)
    # truncation monotonicity on a 10-point S ladder
    den = Denominator.of(((1.0, 1.5), (1.0, 3.0)))
    ladder = [row.t_lower for S in np.geomspace(2.0, 1e3, 10)
              for row in lower_bound_integral(den, 1.0, S)]
    monotone = all(b >= a for a, b in zip(ladder, ladder[1:]))
    ok = worst < 1e-8 and monotone
    _line(4, ok, f"closed-form match worst rel err {worst:.2e}, "
                 f"S-ladder monotone: {monotone}")
    assert worst < 1e-8
    assert monotone


def test_criterion_05_embed_inequality_sampling():
    start = time.monotonic()
    total = samples = 0
    etas = (1.1, 3.0 / 2.0, 4.0 / 3.0)  # low, n/(n-1), interval midpoint
    for eta in etas:
        C = 2.0 * estimate_gn_constant(GRID3, eta)
        report = check_embed_inequality(GRID3, eta, 1.0, C)
        total += report.violations
        samples = report.samples
    elapsed = time.monotonic() - start
    ok = total == 0 and elapsed < 60.0
    _line(5, ok, f"embed inequality, 3 etas x {samples} profiles, {total} "
                 f"violations, {elapsed:.2f}s")
    assert total == 0
    assert elapsed < 60.0


def test_criterion_06_solver_conservation():
    # step advances a stack of states, here one: fields of shape (1, 3, M)
    free = ParamStack([ModelParams(chi=0.0, xi=0.0, dim=3)])
    grid = make_grid(3, 1.0, 32)

    start = init_state(grid, GaussianBump(5.0, 0.2))
    m0 = mass(start, grid)
    fields = start[None]
    for _ in range(10_000):
        fields, _ = step(fields, [1e-4], grid, free)
    drift = abs(mass(fields[0], grid) - m0) / m0

    full = ParamStack([ModelParams(chi=2.0, xi=1.0, alpha=2.0, beta=1.0,
                                   gamma=3.0, delta=1.5, dim=3)])
    steady = init_state(grid, ConstantProfile(1.0, 0.5, 0.5))
    fields = steady[None]
    for _ in range(10_000):
        fields, _ = step(fields, [1e-4], grid, full)
    steady_err = float(np.max(np.abs(fields[0] - steady)))

    # spatial order on int u^2 at fixed time, three-level refinement
    t_end, dt = 0.01, 1e-5
    values = []
    for M in (16, 32, 64):
        g = make_grid(3, 1.0, M)
        s = init_state(g, GaussianBump(5.0, 0.2))[None]
        for _ in range(round(t_end / dt)):
            s, _ = step(s, [dt], g, free)
        values.append(float(np.dot(g.shell_measures, s[0, 0] ** 2)))
    order = math.log2(abs(values[0] - values[1]) / abs(values[1] - values[2]))

    ok = drift < 1e-10 and steady_err < 1e-10 and order >= 1.8
    _line(6, ok, f"mass drift {drift:.2e}, steady-state error "
                 f"{steady_err:.2e}, spatial order {order:.3f}")
    assert drift < 1e-10
    assert steady_err < 1e-10
    assert order >= 1.8


def test_criterion_07_odi_consistency(monitored_runs):
    total = 0
    worst = math.inf
    blowups = 0
    for traj, coeffs in monitored_runs:
        blowups += int(traj.report.blew_up)
        report = odi_monitor(traj, coeffs, traj.report.t_detect)
        total += report.violations
        worst = min(worst, report.worst_margin)
    ok = total == 0 and blowups == 3
    _line(7, ok, f"dE/dt <= F(E) on 5 runs (3 blow-up), {total} violations, "
                 f"worst margin {worst:.3e}")
    assert blowups == 3
    assert total == 0


def test_criterion_08_bound_validity(sweep_dirs):
    summary = (sweep_dirs[0] / "summary.csv").read_text().splitlines()
    assert summary[0] == "run_id,blew_up,t_detect,t_lower,margin"
    blowup_rows = 0
    min_margin = math.inf
    for line in summary[1:]:
        run_id, blew_up, t_detect, t_lower, margin = line.split(",")
        assert blew_up in ("true", "false")
        if blew_up == "true":
            blowup_rows += 1
            min_margin = min(min_margin, float(margin))
    ok = blowup_rows > 0 and min_margin >= 0.0
    _line(8, ok, f"sweep margins: {blowup_rows} blow-up rows, smallest "
                 f"margin {min_margin:.3e}")
    assert blowup_rows > 0
    assert min_margin >= 0.0


def test_criterion_09_concurrence_diagnostic(monitored_runs):
    checked = violations = 0
    lags = []
    for traj, _ in monitored_runs:
        report = check_concurrence(traj, 10.0 * traj.E_pq[0],
                                   10.0 * traj.Linf_u[0])
        if not traj.report.blew_up:
            assert report.samples == 0
            continue
        checked += 1
        assert report.samples == 2
        violations += report.violations
        lags.append(report.config["lag"])
    ok = checked == 3 and violations == 0
    _line(9, ok, f"energy and sup-norm levels passed by detection on "
                 f"{checked} blow-up runs, {violations} violations, "
                 f"lags {lags}")
    assert checked == 3
    assert violations == 0


def test_criterion_10_sweep_determinism(sweep_dirs):
    first = (sweep_dirs[0] / "summary.csv").read_bytes()
    second = (sweep_dirs[1] / "summary.csv").read_bytes()
    ok = first == second
    _line(10, ok, f"repeated sweep summary.csv byte-identical: {ok}")
    assert ok

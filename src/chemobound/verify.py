"""Empirical checks of the inequalities behind the blow-up bound.

Test functions are radial profiles on the same shell grid the solver uses:
one fixed, deterministic set of shapes (the constant profile, centred and
off-centre Gaussians from half a shell to twice the radius wide, and the
indicators of the innermost cells).  The interpolation-inequality constant
is estimated from below as the maximum of the defining ratio over that set,
then inflated by a safety factor before use.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .errors import EpsilonError, ParameterError
from .exponents import (C1_coef, C3_coef, check_condition_C, etas_in_range,
                        h_exponent, k_exponent)
from .odi import OdiCoefficients
from .pde import RadialGrid, Trajectory, _integral, cell_gradients


@dataclass(frozen=True)
class InequalityReport:
    samples: int
    violations: int
    worst_margin: float
    witness: str | None = None
    config: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


GAUSSIAN_WIDTHS = 40  # geometric ladder from dr/2 to 2R
GAUSSIAN_CENTRES = (0.0, 0.25, 0.5, 0.75, 1.0)  # fractions of R
# the ratio is scale-invariant, the embed inequality is not
EMBED_AMPLITUDES = np.exp(np.linspace(-1.0, 3.0, 9))
REPORT_TOL = 1e-9  # relative margin below which a profile violates


# --- discrete norms (the solver's shell quadrature) -------------------------

def _norm(grid: RadialGrid, F: np.ndarray, p: float) -> np.ndarray:
    return _integral(grid, np.abs(F) ** p) ** (1.0 / p)


def _widths(grid: RadialGrid) -> np.ndarray:
    return np.geomspace(0.5 * grid.dr, 2.0 * grid.R, GAUSSIAN_WIDTHS)


def profile_set(grid: RadialGrid) -> np.ndarray:
    """(K, M) test profiles: the constant profile as row 0, the Gaussians
    exp(-(r - c)^2 / 2w^2) for every centre c and width w, then the
    indicators of the first j cells, j = 1..M-1."""
    c = np.repeat(grid.R * np.array(GAUSSIAN_CENTRES), GAUSSIAN_WIDTHS)
    w = np.tile(_widths(grid), len(GAUSSIAN_CENTRES))
    return np.vstack([
        np.ones((1, grid.M)),
        np.exp(-(grid.r_centers - c[:, None]) ** 2 / (2.0 * w[:, None] ** 2)),
        np.tri(grid.M - 1, grid.M)])


def _profile_label(grid: RadialGrid, row: int) -> str:
    """Name of row `row` of profile_set(grid)."""
    n_gauss = len(GAUSSIAN_CENTRES) * GAUSSIAN_WIDTHS
    if row == 0:
        return "constant"
    if row <= n_gauss:
        c, w = divmod(row - 1, GAUSSIAN_WIDTHS)
        return (f"gaussian[c={GAUSSIAN_CENTRES[c]}R, "
                f"w={_widths(grid)[w]:.4g}]")
    return f"indicator[{row - n_gauss}]"


def estimate_gn_constant(grid: RadialGrid, eta):
    """Numerical lower estimate, not yet safety-inflated, of the constant of
    the squared-field interpolation inequality at eta in [1, n/(n-2)].

    Maximum over `profile_set` of
        ||f||_p^p / (||grad f||_2^{p a} ||f||_2^{p(1-a)} + ||f||_2^p),
    p = 2 eta, with the interpolation weight a = (1/2 - 1/p) / (1/n).

    `eta` is one value, or a sequence of them, whose list of estimates this
    returns: the profiles and their two L2 norms are then built once for
    them all, and each estimate is the one its eta gets alone.
    """
    n = grid.n
    single = np.ndim(eta) == 0
    F = profile_set(grid)
    abs_F = np.abs(F)
    grad_2 = _norm(grid, cell_gradients(grid, F), 2.0)
    f_2 = _norm(grid, F, 2.0)
    estimates = []
    for e in [eta] if single else eta:
        if not e >= 1.0:
            raise ParameterError(f"eta must be >= 1, got {e}")
        p_gn = 2.0 * e
        # 1/n taken as 1/2 + 1/n - 1/2 keeps the estimate's last bits
        a = (0.5 - 1.0 / p_gn) / (0.5 + 1.0 / n - 0.5)
        if not a <= 1.0:
            raise ParameterError(f"eta={e} is past n/(n-2): interpolation "
                                 f"weight a={a} outside [0, 1]")
        num = _integral(grid, abs_F ** p_gn)
        den = grad_2 ** (p_gn * a) * f_2 ** (p_gn * (1 - a)) + f_2 ** p_gn
        with np.errstate(invalid="ignore", divide="ignore"):
            estimates.append(
                float(np.max(np.where(den > 0, num / den, 0.0))))
    return estimates[0] if single else estimates


def check_embed_inequality(grid: RadialGrid, eta: float, epsilon: float,
                           C_GN: float) -> InequalityReport:
    """One-sided check of
    int |f|^{2 eta} <= eps C1 int |grad f|^2 + C_GN (int f^2)^eta
                       + C3 eps^{-h} (int f^2)^{k}
    on `profile_set` scaled by each of EMBED_AMPLITUDES.
    """
    n = grid.n
    if not etas_in_range((eta,), n):
        raise ParameterError(f"eta={eta} outside (1, 1 + 2/{n})")
    if not 0 < epsilon < math.inf:
        raise EpsilonError(f"epsilon must be positive and finite, "
                          f"got {epsilon}")
    shapes = profile_set(grid)
    profiles = (EMBED_AMPLITUDES[:, None, None] * shapes).reshape(-1, grid.M)

    c1 = float(C1_coef(eta, n))
    c3 = C3_coef(eta, n, C_GN)
    h = float(h_exponent(eta, n))
    k = float(k_exponent(eta, n))

    lhs = _integral(grid, np.abs(profiles) ** (2.0 * eta))
    grad_sq = _integral(grid, cell_gradients(grid, profiles) ** 2)
    f_sq = _integral(grid, profiles ** 2)
    rhs = (epsilon * c1 * grad_sq + C_GN * f_sq ** eta
           + c3 * epsilon ** (-h) * f_sq ** k)
    margins = (rhs - lhs) / np.maximum(rhs, 1e-300)
    worst = int(np.argmin(margins))
    amp, shape = divmod(worst, len(shapes))
    violations = int(np.count_nonzero(~(margins >= -REPORT_TOL)))
    return InequalityReport(
        samples=profiles.shape[0], violations=violations,
        worst_margin=float(margins[worst]),
        witness=f"{EMBED_AMPLITUDES[amp]:.4g} * {_profile_label(grid, shape)}",
        config={"eta": eta, "epsilon": epsilon, "C_GN": C_GN,
                "n": n, "M": grid.M})


def check_remark_ordering(n: int, eta_grid) -> InequalityReport:
    """Strict chain k(eta) < eta/(2-eta) < n/(n-2) on (1, n/(n-1)) with
    triple equality at eta = n/(n-1) to 1e-12."""
    eta_star, limit = n / (n - 1.0), n / (n - 2.0)
    margins, violations, witness = [], 0, None
    for eta in list(eta_grid) + [eta_star]:
        eta = float(eta)
        if not 1.0 < eta <= eta_star + 1e-15:
            raise ParameterError(f"eta={eta} outside (1, n/(n-1)]")
        kv = float(k_exponent(eta, n))
        mid = eta / (2.0 - eta)
        if abs(eta - eta_star) <= 1e-13:
            err = max(abs(kv - mid), abs(mid - limit))
            margins.append(-err)
            if err > 1e-12:
                violations += 1
                witness = f"eta={eta} (equality point, err={err})"
        else:
            gap = min(mid - kv, limit - mid)
            margins.append(gap)
            if gap <= 0:
                violations += 1
                witness = f"eta={eta} (chain gap={gap})"
    return InequalityReport(samples=len(margins), violations=violations,
                            worst_margin=float(min(margins)),
                            witness=witness, config={"n": n})


# each end of the lattice, and a small exact step inside and outside it
EQUIVALENCE_OFFSETS = (-Fraction(1, 1000), 0, Fraction(1, 1000))


def _axis(lo, hi, *ends) -> list:
    """One coordinate's values at the interval (lo, hi): the centre first,
    half the width beyond each side, and lo, hi and `ends`, each moved by
    every EQUIVALENCE_OFFSETS."""
    half = abs(hi - lo) / 2
    return [(lo + hi) / 2, min(lo, hi) - half, max(lo, hi) + half] + [
        end + d for end in (lo, hi, *ends) for d in EQUIVALENCE_OFFSETS]


def equivalence_lattice(n: int) -> list[tuple]:
    """The exact (p, q, s1, s2) points of check_equivalence at n, in order
    and without repeats.  q runs around the edge q = n and the switch
    q = n + 2 of max(1 + n/2, q/2), up to n + 6; p around the edge
    nq/(n+q), the switches q(n+2)/(q+n) and nq/(n+2) of the s2 box's max
    and min, and q, where that box closes.  The box is written from the
    eta intervals, apart from the table under test.  s1 depends on q alone
    and s2 on p and q, so each is varied with the other at its centre."""
    n = Fraction(n)
    points = {}
    for q in _axis(n, n + 2) + [n + 6]:
        s1_lows = (1 + n / 2, q / 2)
        s1_axis = _axis(max(s1_lows), (n + 2) * q / (2 * n), *s1_lows)
        for p in _axis(n * q / (n + q), q, q * (n + 2) / (q + n),
                       n * q / (n + 2)):
            s2_lows = (q * (n + 2) / (2 * (q + n)), p / 2)
            s2_highs = ((n + 2) * p / (2 * n), q / 2)
            s2_axis = _axis(max(s2_lows), min(s2_highs), *s2_lows, *s2_highs)
            points.update(dict.fromkeys(
                [(p, q, s1, s2_axis[0]) for s1 in s1_axis]
                + [(p, q, s1_axis[0], s2) for s2 in s2_axis]))
    return list(points)


def check_equivalence(n: int) -> InequalityReport:
    """Exact check that Condition C's clause table and the eta form agree
    on equivalence_lattice(n): at each point one check_condition_C call
    gives both verdicts, every clause passed and etas_in_range, and a point
    where they differ is a violation, the first one the witness."""
    points = equivalence_lattice(n)
    violations, witness = 0, None
    for p, q, s1, s2 in points:
        report = check_condition_C(n, p, q, s1, s2)
        clauses = all(c.passed for c in report.clauses)
        if clauses != report.etas_in_range:
            violations += 1
            witness = witness or (f"p={p}, q={q}, s1={s1}, s2={s2}: "
                                  f"clauses={clauses}, etas={not clauses}")
    return InequalityReport(samples=len(points), violations=violations,
                            worst_margin=0.0 if violations == 0 else -1.0,
                            witness=witness, config={"n": n})


MONITOR_REL_FLOOR = 1.0  # floor of the odi_monitor margin normalizer


def odi_monitor(trajectory: Trajectory, coeffs: OdiCoefficients,
                t_max: float | None = None) -> InequalityReport:
    """Check dE/dt <= F(E) along a trajectory, up to t_max if given
    (centered differences).

    The check is conditional on the supplied constant dominating the true
    discrete interpolation constant; the report's config records it.
    """
    t, E = trajectory.t, trajectory.E_pq
    if t_max is not None:
        keep = t <= t_max
        t, E = t[keep], E[keep]
    if len(t) < 3:
        raise ParameterError(
            f"trajectory too short for centered differences: {len(t)} "
            "samples, need 3; a smaller solver.sample_every or a larger "
            "solver.max_steps or solver.t_final records more")
    dEdt = (E[2:] - E[:-2]) / (t[2:] - t[:-2])
    rhs = coeffs.denominator()(E[1:-1])
    margins = (rhs - dEdt) / np.maximum(np.abs(rhs), MONITOR_REL_FLOOR)
    worst = int(np.argmin(margins))
    violations = int(np.count_nonzero(~(margins >= 0)))
    return InequalityReport(
        samples=len(margins), violations=violations,
        worst_margin=float(margins[worst]),
        witness=f"t={t[1 + worst]}" if violations else None,
        config={"C_GN": coeffs.C_GN, "epsilon": coeffs.epsilon,
                "caveat": "conditional on the supplied interpolation "
                          "constant dominating the true discrete one"})


def check_concurrence(trajectory: Trajectory, energy_level: float,
                      linf_level: float) -> InequalityReport:
    """Check that a run that blew up had its energy pass `energy_level` and
    its sup norm pass `linf_level` by the detection time.

    On a run that blew up, the two series E_pq and Linf_u are the samples,
    and a series violates unless some sample up to t_detect exceeds its
    level; its margin is (peak - level) / |level|, and a NaN margin is a
    violation.  A run that did not blow up checks nothing (samples = 0).
    The config holds the levels, the first sample time at which each
    series exceeds its level (None if none does), the lag of the sup norm
    behind the energy and t_detect; the witness names the series that
    violate."""
    t, report = trajectory.t, trajectory.report
    levels = {"E_pq": float(energy_level), "Linf_u": float(linf_level)}
    crossings = {}
    for name, level in levels.items():
        idx = np.nonzero(getattr(trajectory, name) > level)[0]
        crossings[name] = float(t[idx[0]]) if idx.size else None
    t_e, t_l = crossings["E_pq"], crossings["Linf_u"]
    config = {"energy_level": levels["E_pq"], "linf_level": levels["Linf_u"],
              "t_energy": t_e, "t_linf": t_l,
              "lag": None if t_e is None or t_l is None else t_l - t_e,
              "t_detect": report.t_detect}
    if not report.blew_up:
        # the minimum over no margins
        return InequalityReport(samples=0, violations=0,
                                worst_margin=math.inf, config=config)
    keep = t <= report.t_detect
    margins = {name: (float(np.max(getattr(trajectory, name)[keep])) - level)
               / max(abs(level), 1e-300) for name, level in levels.items()}
    failed = [name for name, margin in margins.items() if not margin > 0]
    return InequalityReport(
        samples=len(margins), violations=len(failed),
        worst_margin=float(np.min(list(margins.values()))),
        witness=", ".join(failed) or None, config=config)

"""Coefficient assembly and evaluation of the blow-up time lower bound.

The energy E satisfies a differential inequality E' <= F(E) with

    F(E) = m * sum_i E**eta_i + sum_i m_i * E**k(eta_i) + mu1 * E + c

once the auxiliary epsilon is small enough to make both gradient-term
prefactors (zeta1, zeta2) negative.  Separation of variables then gives
T >= integral_{E0}^{infinity} ds / F(s); this module assembles the
coefficients, picks epsilon, evaluates the truncated integral with an
explicit tail budget, and searches the free parameters (s1, s2, epsilon)
for the best bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import integrate, optimize

from .errors import (DivergenceError, InfeasibleError,
                     NonpositiveDenominatorError, ParameterError)
from .exponents import (C1_coef, C3_coef, EnergyIndices, ModelParams,
                        check_condition_C, corollary1_parameters,
                        feasible_box, h_exponent, k_exponent)


class CoefficientConventionWarning(UserWarning):
    """The assembled constants use (alpha, beta) for both gradient estimates;
    raised when (gamma, delta) differ from (alpha, beta) so the repellent
    equation's own coefficients would not reproduce them."""


@dataclass(frozen=True)
class Denominator:
    """Power-sum denominator F(s) = sum A_j s**a_j + mu1*s + c."""

    terms: tuple[tuple[float, float], ...]  # (coefficient, exponent)
    mu1: float = 0.0
    c: float = 0.0

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.full_like(s, self.c, dtype=float)
        for coef, expo in self.terms:
            out += coef * s ** expo
        out += self.mu1 * s
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class OdiCoefficients:
    """Assembled right-hand-side coefficients of the energy inequality."""

    m: float
    m_i: tuple[float, float, float, float]
    mu1: float
    c: float
    eta_exponents: tuple[float, float, float, float]
    k_exponents: tuple[float, float, float, float]
    epsilon: float
    C_GN: float

    def denominator(self) -> Denominator:
        terms = tuple((self.m, float(e)) for e in self.eta_exponents)
        terms += tuple((mi, float(k)) for mi, k in zip(self.m_i, self.k_exponents))
        return Denominator(terms, self.mu1, self.c)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "m_i": list(self.m_i), "mu1": self.mu1, "c": self.c}


QUADPACK_REL_FLOOR = 50.0 * np.finfo(float).eps  # smallest epsrel it takes


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-10
    tail_tol: float = 1e-12
    truncation_point: float | None = None  # override the adaptive S

    def __post_init__(self):
        if not self.rel_tol > QUADPACK_REL_FLOOR:
            raise ParameterError(f"rel_tol must exceed {QUADPACK_REL_FLOOR:.3g}"
                                 f", got {self.rel_tol}")
        if not self.tail_tol > 0:
            raise ParameterError(f"tail_tol must be positive, got "
                                 f"{self.tail_tol}")


@dataclass(frozen=True)
class BoundResult:
    """A truncated bound integral; `bound_at_indices` attaches the indices
    and coefficients it was assembled from."""

    t_lower: float
    S: float
    quadrature_error: float
    tail_upper: float
    indices: EnergyIndices | None = None
    coeffs: OdiCoefficients | None = None
    flags: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        """Payload of a `bound_at_indices` result."""
        idx, coeffs = self.indices, self.coeffs
        out = {
            "t_lower": self.t_lower,
            "S": self.S,
            "quad_error": self.quadrature_error,
            "tail_upper": self.tail_upper,
            "epsilon": coeffs.epsilon,
            "C_GN": coeffs.C_GN,
            "indices": {
                "p": float(idx.p), "q": float(idx.q),
                "s1": float(idx.s1), "s2": float(idx.s2),
                "eta": [float(e) for e in idx.eta],
                "k_eta": [float(k) for k in coeffs.k_exponents],
            },
            "coeffs": coeffs.to_json_dict(),
        }
        if self.flags:
            out["flags"] = list(self.flags)
        return out


def _zeta_split(params: ModelParams, indices: EnergyIndices):
    """Constant terms (negative) and epsilon slopes of (zeta1, zeta2)."""
    n = params.dim
    p, q, s1 = float(indices.p), float(indices.q), float(indices.s1)
    e0, e1, e2, e3 = (float(e) for e in indices.eta)
    ab2 = params.alpha ** 2 + params.beta ** 2
    cx2 = params.chi ** 2 + params.xi ** 2
    gq = n / 4.0 + q - 2.0
    slope1 = ab2 * gq * float(C1_coef(e0, n)) \
        + p * cx2 * ((s1 - 1.0) / s1) * float(C1_coef(e1, n))
    slope2 = float(C1_coef(e2, n)) * ab2 * gq \
        + float(C1_coef(e3, n)) * (1.0 / s1) * cx2 * p
    const1 = -2.0 * (p - 1.0) / p ** 2
    const2 = -(q - 2.0) / q ** 2
    return (const1, const2), (slope1, slope2)


def zeta_coefficients(params: ModelParams, indices: EnergyIndices,
                      epsilon: float) -> tuple[float, float]:
    """Gradient-term prefactors, both affine and increasing in epsilon."""
    if epsilon < 0:
        raise ParameterError(f"epsilon must be nonnegative, got {epsilon}")
    (c1, c2), (b1, b2) = _zeta_split(params, indices)
    return (c1 + b1 * epsilon, c2 + b2 * epsilon)


def max_admissible_epsilon(params: ModelParams, indices: EnergyIndices) -> float:
    """Supremum of epsilon keeping both zeta prefactors negative."""
    (c1, c2), (b1, b2) = _zeta_split(params, indices)
    if c1 >= 0 or c2 >= 0:
        raise ParameterError(
            f"degenerate zeta constants ({c1}, {c2}); need p > 1 and q > 2")
    roots = [(-c / b) for c, b in ((c1, b1), (c2, b2)) if b > 0]
    return min(roots) if roots else math.inf


def odi_coefficients(params: ModelParams, indices: EnergyIndices,
                     epsilon: float, C_GN: float) -> OdiCoefficients:
    """Assemble (m, m_0..m_3, mu1, c) for the given epsilon and C_GN.

    A NaN epsilon (unset) is half the admissible supremum."""
    n = params.dim
    eps_max = max_admissible_epsilon(params, indices)
    if math.isnan(epsilon):
        epsilon = 0.5 * eps_max
    if not 0 < epsilon < eps_max:
        raise ParameterError(
            f"epsilon={epsilon} outside admissible range (0, {eps_max})")
    if not C_GN > 0:
        raise ParameterError(f"C_GN must be positive, got {C_GN}")
    if params.delta != params.beta or params.gamma != params.alpha:
        warnings.warn(
            "assembled constants use (alpha, beta) in both gradient "
            "estimates; delta/gamma of the repellent equation differ and do "
            "not enter them", CoefficientConventionWarning, stacklevel=2)
    p, q = float(indices.p), float(indices.q)
    etas = tuple(float(e) for e in indices.eta)
    ks = tuple(float(k_exponent(e, n)) for e in etas)
    M = max(p * (params.xi ** 2 + params.chi ** 2),
            (n / 4.0 + q - 2.0) * (params.alpha ** 2 + params.beta ** 2))
    m = C_GN * M
    m_i = tuple(M * C3_coef(e, n, C_GN) * epsilon ** (-float(h_exponent(e, n)))
                for e in etas)
    c = 0.0 if params.domain.convex else 2.0 * params.boundary_c
    return OdiCoefficients(m=m, m_i=m_i, mu1=params.mu1, c=c,
                           eta_exponents=etas, k_exponents=ks,
                           epsilon=epsilon, C_GN=C_GN)


def odi_rhs(coeffs: OdiCoefficients, E):
    """F(E); nonnegative E expected."""
    return coeffs.denominator()(E)


def _dominant_term(den: Denominator):
    by_expo: dict[float, float] = {}
    for coef, expo in den.terms:
        if coef > 0:
            by_expo[expo] = by_expo.get(expo, 0.0) + coef
    superlinear = {a: A for a, A in by_expo.items() if a > 1.0}
    if not superlinear:
        raise DivergenceError(
            "no superlinear power term with positive coefficient; "
            "the bound integral diverges")
    a_dom = max(superlinear)
    return superlinear[a_dom], a_dom


def lower_bound_integral(den: Denominator, E0: float,
                         quad_cfg: QuadConfig = QuadConfig()) -> BoundResult:
    """Truncated integral of 1/F from E0, with an analytic tail budget.

    The truncation point S makes the tail estimate S**(1-a)/(A(a-1)) of the
    dominant power term (coefficient A, exponent a) fall below tail_tol.
    The reported value excludes the tail, so it always under-estimates the
    exact improper integral.
    """
    if not E0 > 0:
        raise ParameterError(f"E0 must be positive, got {E0}")
    if den(E0) <= 0:
        raise NonpositiveDenominatorError(
            f"denominator nonpositive at E0={E0}", root=E0)
    A_dom, a_dom = _dominant_term(den)

    flags: list[str] = []
    tail_factor = 1.0
    S = (A_dom * (a_dom - 1.0) * quad_cfg.tail_tol) ** (-1.0 / (a_dom - 1.0))
    if den.mu1 < 0:
        # keep the linear drain below half the dominant term at S
        S = max(S, (2.0 * abs(den.mu1) / A_dom) ** (1.0 / (a_dom - 1.0)))
        tail_factor = 2.0
        flags.append("negative_linear_term")
    S = max(S, 10.0 * E0)
    if quad_cfg.truncation_point is not None:
        if quad_cfg.truncation_point <= E0:
            raise ParameterError("truncation_point must exceed E0")
        S = quad_cfg.truncation_point

    if den.mu1 < 0:
        s_scan = np.geomspace(E0, S, 512)
        vals = den(s_scan)
        if np.any(vals <= 0):
            idx = int(np.argmax(vals <= 0))
            root = optimize.brentq(den, s_scan[idx - 1], s_scan[idx]) \
                if idx > 0 else E0
            raise NonpositiveDenominatorError(
                f"denominator vanishes at s={root}", root=root)

    # integrate in log space: s = exp(x) keeps the long upper range tame
    def integrand(x):
        s = math.exp(x)
        return s / den(s)

    val, err = integrate.quad(integrand, math.log(E0), math.log(S),
                              epsabs=0.0, epsrel=quad_cfg.rel_tol, limit=500)
    tail_upper = tail_factor * S ** (1.0 - a_dom) / (A_dom * (a_dom - 1.0))
    return BoundResult(t_lower=val, S=S, quadrature_error=err,
                       tail_upper=tail_upper, flags=tuple(flags))


def bound_at_indices(params: ModelParams, indices: EnergyIndices, E0: float,
                     C_GN: float, epsilon: float = math.nan,
                     quad_cfg: QuadConfig = QuadConfig()) -> BoundResult:
    """Bound at fixed indices; a NaN epsilon is half the admissible
    supremum."""
    coeffs = odi_coefficients(params, indices, epsilon, C_GN)
    return replace(lower_bound_integral(coeffs.denominator(), E0, quad_cfg),
                   indices=indices, coeffs=coeffs)


@dataclass(frozen=True)
class OptConfig:
    coarse_grid: int = 7        # points per (s1, s2) axis
    eps_grid: int = 7           # epsilon fractions per candidate
    refine_iters: int = 60
    boundary_margin: float = 1e-3  # fraction of box width kept off each edge
    quad: QuadConfig = field(default_factory=QuadConfig)

    def __post_init__(self):
        # 0 reaches the open box's edge and epsilon = 0; 0.5 collapses the box
        if not 0 < self.boundary_margin < 0.5:
            raise ParameterError(f"boundary_margin must lie in (0, 0.5), "
                                 f"got {self.boundary_margin}")


def optimize_bound(params: ModelParams, p: float, q: float, E0: float,
                   C_GN: float, opt_cfg: OptConfig = OptConfig()):
    """Maximize the bound over admissible (s1, s2) and epsilon.

    Coarse grid search followed by shrinking pattern search; candidates on
    the (open) box boundary are excluded by the configured margin.  Returns
    (s1, s2, epsilon, BoundResult).
    """
    n = params.dim
    (s1_lo, s1_hi), (s2_lo, s2_hi) = feasible_box(n, float(p), float(q))
    w1, w2 = s1_hi - s1_lo, s2_hi - s2_lo
    mar = opt_cfg.boundary_margin
    lo1, hi1 = s1_lo + mar * w1, s1_hi - mar * w1
    lo2, hi2 = s2_lo + mar * w2, s2_hi - mar * w2
    # each clause of Condition C bounds s1 alone, s2 alone or neither, so the
    # two opposite corners cover every candidate clamped into [lo, hi]
    if not (check_condition_C(n, p, q, lo1, lo2).admissible
            and check_condition_C(n, p, q, hi1, hi2).admissible):
        raise InfeasibleError(
            f"empty admissible (s1, s2) box for n={n}, p={p}, q={q}")

    def evaluate(s1, s2, eps_frac):
        s1 = min(max(s1, lo1), hi1)
        s2 = min(max(s2, lo2), hi2)
        eps_frac = min(max(eps_frac, mar), 1.0 - mar)
        indices = EnergyIndices(p, q, s1, s2)
        eps = eps_frac * max_admissible_epsilon(params, indices)
        try:
            result = bound_at_indices(params, indices, E0, C_GN, eps,
                                      opt_cfg.quad)
        except OverflowError:
            # eta close to the singular point makes eps**(-h) blow past
            # float range; such candidates give a worthless bound anyway
            return None
        return (s1, s2, eps_frac, eps, result)

    candidates = []
    g1 = np.linspace(lo1, hi1, opt_cfg.coarse_grid)
    g2 = np.linspace(lo2, hi2, opt_cfg.coarse_grid)
    gf = np.linspace(0.1, 0.9, opt_cfg.eps_grid)
    for s1 in g1:
        for s2 in g2:
            for f in gf:
                candidates.append((float(s1), float(s2), float(f)))
    if q == 2 * p:
        # the collapsed selection is an interior feasible point; seed it so
        # the search never does worse than the closed-form route
        _, s1c, s2c = corollary1_parameters(p, n)
        candidates.append((float(s1c), float(s2c), 0.5))

    best = None
    for s1, s2, f in candidates:
        out = evaluate(s1, s2, f)
        if out is None:
            continue
        if best is None or out[4].t_lower > best[4].t_lower:
            best = out

    if best is None:
        raise InfeasibleError("no admissible candidate found in the box")

    steps = np.array([0.25 * w1, 0.25 * w2, 0.2])
    for _ in range(opt_cfg.refine_iters):
        s1, s2, f = best[:3]
        improved = False
        for axis in range(3):
            for sign in (+1.0, -1.0):
                trial = [s1, s2, f]
                trial[axis] += sign * steps[axis]
                out = evaluate(*trial)
                if out is not None and out[4].t_lower > best[4].t_lower:
                    best = out
                    improved = True
        if not improved:
            steps *= 0.5
            if steps.max() < 1e-10:
                break

    s1, s2, _, eps, result = best
    return (s1, s2, eps, result)

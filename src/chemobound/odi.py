"""Coefficient assembly and evaluation of the blow-up time lower bound.

The energy E satisfies a differential inequality E' <= F(E) with

    F(E) = m * sum_i E**eta_i + sum_i m_i * E**k(eta_i) + mu1 * E + c

once the auxiliary epsilon is small enough to make both gradient-term
prefactors (zeta1, zeta2) negative.  Separation of variables then gives
T >= integral_{E0}^{infinity} ds / F(s); this module assembles the
coefficients, picks epsilon, evaluates the truncated integral with an
explicit tail budget, and searches the free parameters (s1, s2) for the
best bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from typing import Sequence

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


# numpy takes a scalar power s ** e with one of these e by the paired
# function, which can differ in the last bit from its power of arrays
_FAST_POWERS = {2.0: np.square, 0.5: np.sqrt, -1.0: np.reciprocal}


def _power_table(dens):
    """(coefficients, exponents, fast exponents) of K denominators with J
    terms each: two contiguous (J, K) arrays, term first, and the exponents
    of _FAST_POWERS among the terms."""
    terms = np.fromiter(
        chain.from_iterable(chain.from_iterable([d.terms for d in dens])),
        float).reshape(len(dens), -1, 2)
    coefs, expos = terms.T.copy()
    used = {e for d in dens for _, e in d.terms}
    return coefs, expos, tuple(e for e in _FAST_POWERS if e in used)


def _power_sums(s, coefs, expos, fast, c, mu1):
    """c + sum_j coefs[j] * s**expos[j] + mu1 * s.

    Every power is taken in one call and every product in another, and the
    terms are added one at a time in that order (numpy's sum would add
    pairwise; its cumsum would not, but is slower on these shapes), so each
    value is the one a loop over the terms gives, bit for bit.  coefs and
    expos hold the J terms on their first axis; the rest of their shape, s,
    c and mu1 broadcast together.
    """
    powers = s ** expos
    for e in fast:
        np.copyto(powers, _FAST_POWERS[e](s), where=expos == e)
    out = c
    for term in np.multiply(coefs, powers, out=powers):
        out = out + term
    return out + mu1 * s


@dataclass(frozen=True)
class Denominator:
    """Power-sum denominator F(s) = sum A_j s**a_j + mu1*s + c."""

    terms: tuple[tuple[float, float], ...]  # (coefficient, exponent)
    mu1: float = 0.0
    c: float = 0.0

    @cached_property
    def _table(self):
        return _power_table([self])

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        coefs, expos, fast = self._table
        shape = (-1,) + (1,) * s.ndim  # the terms on an axis before s's
        out = _power_sums(s, coefs.reshape(shape), expos.reshape(shape), fast,
                          self.c, self.mu1)
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
    return OdiCoefficients(m=m, m_i=m_i, mu1=params.mu1,
                           c=2.0 * params.boundary_c,
                           eta_exponents=etas, k_exponents=ks,
                           epsilon=epsilon, C_GN=C_GN)


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


# QUADPACK's 21-point Gauss-Kronrod rule (dqk21) on [-1, 1]: the Kronrod
# nodes with their weights, and the weights of the 10-point Gauss rule on
# the odd-position nodes
GK21_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
    -0.148874338981631210884826001129720, -0.294392862701460198131126603103866,
    -0.433395394129247190799265943165784, -0.562757134668604683339000099272694,
    -0.679409568299024406234327365114874, -0.780817726586416897063717578345042,
    -0.865063366688984510732096688423493, -0.930157491355708226001207180059508,
    -0.973906528517171720077964012084452, -0.995657163025808080735527280689003])
GK21_KRONROD_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068, 0.142775938577060080797094273138717,
    0.134709217311473325928054001771707, 0.123491976262065851077958109831074,
    0.109387158802297641899210590325805, 0.093125454583697605535065465083366,
    0.075039674810919952767043140916190, 0.054755896574351996031381300244580,
    0.032558162307964727478818972459390, 0.011694638867371874278064396062192])
GK21_GAUSS_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
    0.295524224714752870173892994651338, 0.269266719309996355091226921569469,
    0.219086362515982043995534934228163, 0.149451349150580593145776339657697,
    0.066671344308688137593568809893332])


# dqk21 folds each node with its mirror, g(x_j) + g(-x_j), then adds the
# terms of each sum one at a time: the Kronrod sums take the centre, the
# Gauss pairs, then the other pairs; the spread sum takes the centre, then
# the pairs outside in.  Positions index the folded rule, whose centre is
# last; folding counts the centre twice, so its weight is halved (exactly).
_FOLDED_WEIGHTS = np.append(GK21_KRONROD_WEIGHTS[:10],
                            0.5 * GK21_KRONROD_WEIGHTS[10])
_KRONROD_ORDER = [10, 1, 3, 5, 7, 9, 0, 2, 4, 6, 8]
_SPREAD_ORDER = [10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]


def _fold(g):
    """g at the 21 nodes of its last axis folded onto positions 0..10
    (g[..., :9:-1] runs from the last node back to the centre)."""
    return g[..., :11] + g[..., :9:-1]


def _ordered_sum(terms, order=None):
    """The terms on the last axis added one at a time, taken in `order` if
    given (np.add.accumulate adds in order; np.sum would add pairwise)."""
    if order is not None:
        terms = terms.take(order, axis=-1)
    return np.add.accumulate(terms, axis=-1)[..., -1]


# dqk21 floors its error estimate at 50 eps * resabs above this resabs
_FLOORED_RESABS = np.finfo(float).tiny / QUADPACK_REL_FLOOR


def _gk21_first_pass(table, x_lo: float, x_hi: list[float],
                     rel_tol: float) -> list[tuple[float, float] | None]:
    """The first step of QUADPACK's dqagse on the integral of e^x / F(e^x)
    over [x_lo, x_hi[k]] for each of K rows F: one dqk21 pass with its
    error estimate, with F at all K x 21 nodes taken in one call.

    `table` holds the rows' (coefs, expos, fast, c, mu1): the (J, K) term
    arrays and fast exponents of _power_table, and (K,) arrays of c and
    mu1.  The integrand values and the order of every sum are those of
    integrate.quad, so an accepted pass returns quad's value and error bit
    for bit.  A row's entry is (value, error) when dqagse would accept its
    pass at epsabs = 0, else None.  A non-finite F or integrand at a node
    also gives None, so integrate.quad meets an overflowing candidate,
    warnings included, as it always has.
    """
    coefs, expos, fast, c, mu1 = table
    x_hi = np.array(x_hi)
    centre, half = 0.5 * (x_lo + x_hi), 0.5 * (x_hi - x_lo)
    x = (centre[:, None] + half[:, None] * GK21_NODES).ravel().tolist()
    w = _FOLDED_WEIGHTS
    with np.errstate(all="ignore"):
        # math.exp, not np.exp: the two differ in the last bit at some nodes
        s = np.fromiter(map(math.exp, x), float, len(x)).reshape(-1, 21)
        F = _power_sums(s, coefs[..., None], expos[..., None], fast,
                        c[:, None], mu1[:, None])
        finite = np.isfinite(F).all(axis=1).tolist()
        f = s / F
        pairs = _fold(f)
        res_k = _ordered_sum(w * pairs, _KRONROD_ORDER)
        res_g = _ordered_sum(GK21_GAUSS_WEIGHTS[:5] * pairs[:, 1:10:2])
        res_abs = _ordered_sum(w * _fold(np.abs(f)), _KRONROD_ORDER)
        res_asc = _ordered_sum(w * _fold(np.abs(f - 0.5 * res_k[:, None])),
                               _SPREAD_ORDER)
    values = (res_k * half).tolist()  # half > 0: S exceeds E0
    errs = np.abs((res_k - res_g) * half).tolist()
    res_abs, res_asc = (half * res_abs).tolist(), (half * res_asc).tolist()
    passes = []
    for ok, value, err, r_abs, r_asc in zip(finite, values, errs, res_abs,
                                            res_asc):
        if not ok:
            passes.append(None)
            continue
        if r_asc != 0 and err != 0:
            err = r_asc * min(1.0, (200.0 * err / r_asc) ** 1.5)
        # dqk21's round-off floor is the same 50 eps that bounds epsrel
        if r_abs > _FLOORED_RESABS:
            err = max(QUADPACK_REL_FLOOR * r_abs, err)
        # dqagse's first-pass test; its `abserr != resabs` is dqk21's res_asc
        accepted = (math.isfinite(value) and err <= rel_tol * abs(value)
                    and err != r_asc)
        passes.append((value, float(err)) if accepted else None)
    return passes


def _truncation(den: Denominator, E0: float, F0: float,
                quad_cfg: QuadConfig) -> tuple[float, float, tuple[str, ...]]:
    """Check F(E0) = F0 and pick the truncation point S; returns S, the
    tail budget and the flags."""
    if F0 <= 0:
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
    tail_upper = tail_factor * S ** (1.0 - a_dom) / (A_dom * (a_dom - 1.0))
    return S, tail_upper, tuple(flags)


def lower_bound_integral(den: Denominator | Sequence[Denominator], E0: float,
                         quad_cfg: QuadConfig = QuadConfig(),
                         skip: type[Exception] | tuple = ()):
    """Truncated integral of 1/F from E0, with an analytic tail budget.

    The truncation point S makes the tail estimate S**(1-a)/(A(a-1)) of the
    dominant power term (coefficient A, exponent a) fall below tail_tol.
    The reported value excludes the tail, so it always under-estimates the
    exact improper integral.  The integral is taken in ln s: QUADPACK's first
    21-point Gauss-Kronrod pass, evaluated in numpy, when dqagse would accept
    it, else integrate.quad; quadrature_error is the error estimate of
    whichever ran.

    `den` is one Denominator, and the result its BoundResult.  Or it is a
    sequence of K denominators with one number of terms, and the result is
    the list of their K BoundResults, each bit for bit the one its
    denominator gets alone: F(E0) of every row is one call, the
    Gauss-Kronrod pass over every row is another, and a row that pass does
    not settle goes to integrate.quad on its own.  The rows are checked and
    given their S in order before any is integrated, and the first that
    fails raises what it raises alone; a row whose set-up raises one of the
    exception types `skip` gives None instead.
    """
    single = isinstance(den, Denominator)
    dens = [den] if single else list(den)
    if not dens:
        return []
    if not 0 < E0 < math.inf:
        raise ParameterError(f"E0 must be positive and finite, got {E0}")
    if len({len(d.terms) for d in dens}) > 1:
        raise ParameterError("the denominators of a batch need one number "
                             "of terms")
    coefs, expos, fast = _power_table(dens)
    c = np.array([d.c for d in dens])
    mu1 = np.array([d.mu1 for d in dens])
    F0 = _power_sums(np.asarray(E0, dtype=float), coefs, expos, fast, c, mu1)
    setups = []
    for d, f0 in zip(dens, F0.tolist()):
        try:
            setups.append(_truncation(d, E0, f0, quad_cfg))
        except skip:
            setups.append(None)
    kept = [i for i, setup in enumerate(setups) if setup is not None]
    if len(kept) < len(dens):
        coefs, expos = coefs[:, kept], expos[:, kept]
        c, mu1 = c[kept], mu1[kept]

    # integrate in log space: s = exp(x) keeps the long upper range tame
    x_lo = math.log(E0)
    x_his = [math.log(setups[i][0]) for i in kept]
    passes = iter(_gk21_first_pass((coefs, expos, fast, c, mu1), x_lo, x_his,
                                   quad_cfg.rel_tol))
    results = []
    for d, setup in zip(dens, setups):
        if setup is None:
            results.append(None)
            continue
        S, tail_upper, flags = setup
        accepted = next(passes)
        if accepted is not None:
            val, err = accepted
        else:
            val, err = integrate.quad(_log_integrand(d), x_lo, math.log(S),
                                      epsabs=0.0, epsrel=quad_cfg.rel_tol,
                                      limit=500)
        results.append(BoundResult(t_lower=val, S=S, quadrature_error=err,
                                   tail_upper=tail_upper, flags=flags))
    return results[0] if single else results


def _log_integrand(den: Denominator):
    """x -> e^x / F(e^x), the bound's integrand in ln s."""
    def integrand(x):
        s = math.exp(x)
        return s / den(s)
    return integrand


def bound_at_indices(params: ModelParams, indices: EnergyIndices, E0: float,
                     C_GN: float, epsilon: float = math.nan,
                     quad_cfg: QuadConfig = QuadConfig()) -> BoundResult:
    """Bound at fixed indices; a NaN epsilon is half the admissible
    supremum."""
    coeffs = odi_coefficients(params, indices, epsilon, C_GN)
    return replace(lower_bound_integral(coeffs.denominator(), E0, quad_cfg),
                   indices=indices, coeffs=coeffs)


COARSE_GRID = 7     # points per (s1, s2) axis of the starting grid
REFINE_ITERS = 60   # pattern-search sweeps after the grid


@dataclass(frozen=True)
class OptConfig:
    boundary_margin: float = 1e-3  # fraction of box width and of sup epsilon
    quad: QuadConfig = field(default_factory=QuadConfig)

    def __post_init__(self):
        # 0 reaches the open box's edge and sup epsilon; 0.5 collapses the box
        if not 0 < self.boundary_margin < 0.5:
            raise ParameterError(f"boundary_margin must lie in (0, 0.5), "
                                 f"got {self.boundary_margin}")


def optimize_bound(params: ModelParams, p: float, q: float, E0: float,
                   C_GN: float, opt_cfg: OptConfig = OptConfig()):
    """Maximize the bound over admissible (s1, s2): a coarse grid, then a
    shrinking pattern search, clamped off the open box's edges by the margin.

    The bound cannot fall as epsilon grows (every m_i falls like
    epsilon**(-h) and the truncation point rises), so each candidate takes
    epsilon = (1 - margin) * its supremum.  The grid is scored as one
    batch of lower_bound_integral, and so is each sweep's four trials; the
    best is picked in candidate order with a strict `>`, as one at a time.
    The result's indices and coeffs carry the optimal s1, s2 and epsilon.
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

    def assemble(s1, s2):
        indices = EnergyIndices(p, q, min(max(s1, lo1), hi1),
                                min(max(s2, lo2), hi2))
        eps = (1.0 - mar) * max_admissible_epsilon(params, indices)
        try:
            return indices, odi_coefficients(params, indices, eps, C_GN)
        except OverflowError:
            # eta close to the singular point makes eps**(-h) blow past
            # float range; such candidates give a worthless bound anyway
            return None

    def score(candidates):
        """The bounds of the candidates, in order, as one batch; a candidate
        whose coefficients or truncation point overflow is left out."""
        rows = [row for row in (assemble(*c) for c in candidates)
                if row is not None]
        bounds = lower_bound_integral(
            [coeffs.denominator() for _, coeffs in rows], E0, opt_cfg.quad,
            skip=OverflowError)
        return [replace(out, indices=indices, coeffs=coeffs)
                for (indices, coeffs), out in zip(rows, bounds)
                if out is not None]

    candidates = [(float(s1), float(s2))
                  for s1 in np.linspace(lo1, hi1, COARSE_GRID)
                  for s2 in np.linspace(lo2, hi2, COARSE_GRID)]
    if q == 2 * p:
        # the collapsed selection is an interior feasible point; seed it so
        # the search never does worse than the closed-form route
        _, s1c, s2c = corollary1_parameters(p, n)
        candidates.append((float(s1c), float(s2c)))
    scored = score(candidates)
    if not scored:
        raise InfeasibleError("no admissible candidate found in the box")
    best = max(scored, key=lambda out: out.t_lower)

    d1, d2 = 0.25 * w1, 0.25 * w2
    for _ in range(REFINE_ITERS):
        s1, s2 = best.indices.s1, best.indices.s2
        improved = False
        for out in score(((s1 + d1, s2), (s1 - d1, s2), (s1, s2 + d2),
                          (s1, s2 - d2))):
            if out.t_lower > best.t_lower:
                best, improved = out, True
        if not improved:
            d1, d2 = 0.5 * d1, 0.5 * d2
            if max(d1, d2) < 1e-10:
                break

    return best

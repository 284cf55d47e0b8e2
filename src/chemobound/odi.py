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
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import (DivergenceError, InfeasibleError,
                     NonpositiveDenominatorError, ParameterError)
from .exponents import (C1_coef, EnergyIndices, ModelParams,
                        check_condition_C, corollary1_parameters,
                        eta_formulas, etas_in_range, feasible_box,
                        h_exponent, k_exponent)


class CoefficientConventionWarning(UserWarning):
    """The assembled constants use (alpha, beta) for both gradient estimates;
    raised when (gamma, delta) differ from (alpha, beta) so the repellent
    equation's own coefficients would not reproduce them."""


# numpy takes a scalar power s ** e with one of these e by the paired
# function, which can differ in the last bit from its power of arrays
_FAST_POWERS = {2.0: np.square, 0.5: np.sqrt, -1.0: np.reciprocal}


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
        return DenominatorTable.of([self])

    def __call__(self, s):
        s, t = np.asarray(s, dtype=float), self._table
        shape = (-1,) + (1,) * s.ndim  # the terms on an axis before s's
        out = _power_sums(s, t.coefs.reshape(shape), t.expos.reshape(shape),
                          t.fast, self.c, self.mu1)
        return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)
class DenominatorTable:
    """K denominators of J terms as arrays: row k is F_k(s) =
    sum_j coefs[j, k] * s**expos[j, k] + mu1[k] * s + c[k]."""

    coefs: np.ndarray  # (J, K), as expos
    expos: np.ndarray
    mu1: np.ndarray    # (K,), as c
    c: np.ndarray

    @classmethod
    def of(cls, dens: Sequence[Denominator]) -> DenominatorTable:
        if len({len(d.terms) for d in dens}) > 1:
            raise ParameterError("the denominators of a batch need one "
                                 "number of terms")
        terms = np.fromiter(
            chain.from_iterable(chain.from_iterable([d.terms for d in dens])),
            float).reshape(len(dens), -1, 2)
        return cls(*terms.T.copy(), np.array([d.mu1 for d in dens], float),
                   np.array([d.c for d in dens], float))

    @cached_property
    def fast(self) -> tuple[float, ...]:
        """The exponents of _FAST_POWERS among the terms."""
        used = set(self.expos.ravel().tolist())
        return tuple(e for e in _FAST_POWERS if e in used)

    def row(self, k: int) -> Denominator:
        return Denominator(tuple(zip(self.coefs[:, k].tolist(),
                                     self.expos[:, k].tolist())),
                           self.mu1[k].item(), self.c[k].item())


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
REL_TOL = 1e-10    # relative error the bound integral must meet
TAIL_TOL = 1e-12   # tail budget that sets the truncation point S


@dataclass(frozen=True)
class BoundResult:
    """A truncated bound integral; `bound_at_indices` and `optimize_bound`
    attach the indices and coefficients it was assembled from."""

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


def _index_row(params: ModelParams, indices: EnergyIndices):
    """(p, q, s1, etas) of the indices as one row of _zeta_split's arrays,
    and the one check that they are admissible: each eta in (1, 1 + 2/n)."""
    n, p, q, s1 = params.dim, *map(float, (indices.p, indices.q, indices.s1))
    etas = tuple(float(e) for e in indices.eta)
    if not etas_in_range(indices.eta, n):
        raise ParameterError(
            f"indices p={p}, q={q}, s1={s1}, s2={float(indices.s2)} are not "
            f"admissible for n={n}: eta={etas} must lie in (1, 1 + 2/{n})")
    return p, q, np.array([s1]), np.array(etas)[:, None]


def _zeta_split(params: ModelParams, p: float, q: float, s1, etas):
    """Constant terms (negative) and epsilon slopes of (zeta1, zeta2), and the
    epsilon supremum keeping both negative; elementwise on s1 and (4, K) etas.
    """
    n = params.dim
    c0, c1, c2, c3 = C1_coef(etas, n)
    ab2 = params.alpha ** 2 + params.beta ** 2
    cx2 = params.chi ** 2 + params.xi ** 2
    gq = n / 4.0 + q - 2.0
    slope1 = ab2 * gq * c0 + p * cx2 * ((s1 - 1.0) / s1) * c1
    slope2 = c2 * ab2 * gq + c3 * (1.0 / s1) * cx2 * p
    const1 = -2.0 * (p - 1.0) / p ** 2
    const2 = -(q - 2.0) / q ** 2
    # no slope is negative, and a zero one puts its root at infinity
    with np.errstate(divide="ignore"):
        sup = np.minimum(-const1 / slope1, -const2 / slope2)
    return (const1, const2), (slope1, slope2), sup


def zeta_coefficients(params: ModelParams, indices: EnergyIndices,
                      epsilon: float) -> tuple[float, float]:
    """Gradient-term prefactors, both affine and increasing in epsilon."""
    if epsilon < 0:
        raise ParameterError(f"epsilon must be nonnegative, got {epsilon}")
    (c1, c2), (b1, b2), _ = _zeta_split(params, *_index_row(params, indices))
    return (c1 + b1 * epsilon).item(), (c2 + b2 * epsilon).item()


def max_admissible_epsilon(params: ModelParams, indices: EnergyIndices) -> float:
    """Supremum of epsilon keeping both zeta prefactors negative."""
    return _zeta_split(params, *_index_row(params, indices))[2].item()


def odi_coefficients(params: ModelParams, indices: EnergyIndices,
                     epsilon: float, C_GN: float) -> OdiCoefficients:
    """Assemble (m, m_0..m_3, mu1, c) for the given epsilon and C_GN, one row
    of _coefficient_table; a NaN epsilon (unset) is half its supremum."""
    p, q, s1, etas = _index_row(params, indices)
    eps_max = _zeta_split(params, p, q, s1, etas)[2]
    if math.isnan(epsilon):
        epsilon = 0.5 * eps_max.item()
    table, (error,) = _coefficient_table(
        params, p, q, etas, np.array([epsilon], float), eps_max, C_GN)
    if error:
        raise error
    if params.delta != params.beta or params.gamma != params.alpha:
        warnings.warn(
            "assembled constants use (alpha, beta) in both gradient "
            "estimates; delta/gamma of the repellent equation differ and do "
            "not enter them", CoefficientConventionWarning, stacklevel=2)
    coefs, expos = table.coefs[:, 0].tolist(), table.expos[:, 0].tolist()
    return OdiCoefficients(coefs[0], tuple(coefs[4:]), params.mu1,
                           2.0 * params.boundary_c, tuple(expos[:4]),
                           tuple(expos[4:]), epsilon, C_GN)


def _powers(bases, exps, errors: list):
    """bases ** exps by Python's float power, element by element (numpy's
    power of arrays differs in the last bit on some inputs), for exps (K,) or
    (J, K) and bases a number or (K,).  A row k with an error in errors[k]
    gives nan, and a power that raises records its error there."""
    e = exps.ravel().tolist()
    b = bases.tolist() if isinstance(bases, np.ndarray) else [bases]
    out = []
    for i, (x, y) in enumerate(zip(b * (len(e) // len(b)), e)):
        try:
            out.append(math.nan if errors[i % len(errors)] else x ** y)
        except ArithmeticError as exc:
            errors[i % len(errors)] = exc
            out.append(math.nan)
    return np.array(out).reshape(exps.shape)


def _coefficient_table(params: ModelParams, p: float, q: float, etas,
                       epsilon, eps_max, C_GN: float):
    """The one assembly of F's coefficients, for K rows of (4, K) etas at one
    (p, q) with (K,) arrays of epsilon and its supremum: the rows' table (m
    at the etas, then the m_i at the k exponents) and the OverflowError of
    each, or None.  Python takes the powers and numpy every other step in
    the order of a row alone, so each row is bit for bit the row alone."""
    for e, e_max in zip(epsilon.tolist(), eps_max.tolist()):
        if not 0 < e < e_max:
            raise ParameterError(
                f"epsilon={e} outside admissible range (0, {e_max})")
    if not 0 < C_GN < math.inf:
        raise ParameterError(f"C_GN must be positive and finite, got {C_GN}")
    n, K, errors = params.dim, len(epsilon), [None] * len(epsilon)
    M = max(p * (params.xi ** 2 + params.chi ** 2),
            (n / 4.0 + q - 2.0) * (params.alpha ** 2 + params.beta ** 2))
    with np.errstate(all="ignore"):  # nan rows, and products past float range
        denom = n + 2 - n * etas
        c3 = (denom / 2.0) * _powers(C_GN, 2.0 / denom, errors)
        m_i = M * c3 * _powers(epsilon, -h_exponent(etas, n), errors)
        expos = np.concatenate((etas, k_exponent(etas, n)))
    return DenominatorTable(
        np.concatenate((np.full(etas.shape, C_GN * M), m_i)), expos,
        np.full(K, params.mu1, float), np.full(K, 2.0 * params.boundary_c)), \
        errors


# QUADPACK's 21-point Gauss-Kronrod rule (dqk21) on [-1, 1]: the Kronrod
# nodes with their weights, and the weights of the 10-point Gauss rule on
# the odd-position nodes, to double precision.  The rule is symmetric, so
# half of it is written: the nodes down to the centre and their weights.
_NODES = [
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
    0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
    0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
    0.14887433898163122, 0.0]
GK21_NODES = np.array(_NODES + [-x for x in _NODES[9::-1]])
_KRONROD = [
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
    0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
    0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
    0.14773910490133849, 0.1494455540029169]
_GAUSS = np.array([
    0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
    0.26926671930999635, 0.29552422471475287])

# dqk21 folds each node with its mirror, g(x_j) + g(-x_j), then adds the
# terms of each sum one at a time: the Kronrod sums take the centre, the
# Gauss pairs, then the other pairs; the spread sum takes the centre, then
# the pairs outside in.  Positions index the folded rule, whose centre is
# last; folding counts the centre twice, so its weight is halved (exactly).
_FOLDED_WEIGHTS = np.array(_KRONROD[:10] + [0.5 * _KRONROD[10]])
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


def _gk21_first_pass(table: DenominatorTable, x_lo: float, x_hi: list[float],
                     rel_tol: float) -> list[tuple[float, float] | None]:
    """The first step of QUADPACK's dqagse on the integral of e^x / F(e^x)
    over [x_lo, x_hi[k]] for each of the K rows F of `table`: one dqk21 pass
    with its error estimate, with F at all K x 21 nodes taken in one call.
    The integrand values and the order of every sum are those of
    integrate.quad, so an accepted pass returns quad's value and error bit
    for bit.  A row's entry is (value, error) when dqagse would accept its
    pass at epsabs = 0, else None, as when F or the integrand is not finite
    at a node."""
    x_hi = np.array(x_hi)
    centre, half = 0.5 * (x_lo + x_hi), 0.5 * (x_hi - x_lo)
    x = (centre[:, None] + half[:, None] * GK21_NODES).ravel().tolist()
    w = _FOLDED_WEIGHTS
    with np.errstate(all="ignore"):
        # math.exp, not np.exp: the two differ in the last bit at some nodes
        s = np.fromiter(map(math.exp, x), float, len(x)).reshape(-1, 21)
        F = _power_sums(s, table.coefs[..., None], table.expos[..., None],
                        table.fast, table.c[:, None], table.mu1[:, None])
        finite = np.isfinite(F).all(axis=1).tolist()
        f = s / F
        pairs = _fold(f)
        res_k = _ordered_sum(w * pairs, _KRONROD_ORDER)
        res_g = _ordered_sum(_GAUSS * pairs[:, 1:10:2])
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


def _truncation(table: DenominatorTable, E0: float, F0,
                truncation_point: float | None):
    """Check each row's F(E0) = F0[k] and pick its truncation point S, or take
    the given one: lists of the rows' S, tail budgets, flags and the error
    each raises alone, or None.  The dominant term A s**a of a row sums, in
    term order, its positive terms at its largest exponent a > 1 with one."""
    errors = [None if 0 < f0 < math.inf else NonpositiveDenominatorError(
        f"denominator nonpositive at E0={E0}", root=E0) if f0 <= 0 else
        OverflowError(f"F(E0) overflows at E0={E0!r}") for f0 in F0.tolist()]
    live = (table.coefs > 0) & (table.expos > 1.0)
    a_dom = np.where(live, table.expos, -math.inf).max(axis=0)
    A_dom = np.add.accumulate(np.where(live & (table.expos == a_dom),
                                       table.coefs, 0.0))[-1]
    for k in [k for k, a in enumerate(a_dom.tolist()) if a == -math.inf]:
        errors[k] = errors[k] or DivergenceError(
            "no superlinear power term with positive coefficient; "
            "the bound integral diverges")
    drain = table.mu1 < 0
    with np.errstate(all="ignore"):  # in rows that have an error
        scale = A_dom * (a_dom - 1.0)
        S = _powers(scale * TAIL_TOL, -1.0 / (a_dom - 1.0), errors)
        if drain.any():
            # keep the linear drain below half the dominant term at S (the
            # other rows take 1 ** x, which never raises)
            S = np.where(drain, np.maximum(S, _powers(
                np.where(drain, 2.0 * np.abs(table.mu1) / A_dom, 1.0),
                1.0 / (a_dom - 1.0), errors)), S)
    S = np.maximum(S, 10.0 * E0) if truncation_point is None else \
        np.full(len(errors), float(truncation_point))
    for k in [k for k, d in enumerate(drain.tolist()) if d and not errors[k]]:
        den, s_scan = table.row(k), np.geomspace(E0, S[k], 512)
        vals = den(s_scan) <= 0
        if vals.any():
            idx = int(np.argmax(vals))
            # imported here: no other path needs scipy.optimize
            from scipy.optimize import brentq
            root = brentq(den, s_scan[idx - 1], s_scan[idx]) if idx else E0
            errors[k] = NonpositiveDenominatorError(
                f"denominator vanishes at s={root}", root=root)
    tail_upper = (1.0 + drain) * _powers(S, 1.0 - a_dom, errors) / scale
    flags = [("negative_linear_term",) * d for d in drain.tolist()]
    return S.tolist(), tail_upper.tolist(), flags, errors


def lower_bound_integral(den: Denominator | Sequence[Denominator]
                         | DenominatorTable, E0: float,
                         truncation_point: float | None = None,
                         skip: type[Exception] | tuple = ()):
    """Truncated integral of 1/F from E0, with an analytic tail budget.

    The truncation point S makes the tail estimate S**(1-a)/(A(a-1)) of the
    dominant power term (coefficient A, exponent a) fall below TAIL_TOL,
    unless `truncation_point` fixes it.  The reported value excludes the
    tail, so it always under-estimates the exact improper integral.  The
    integral is taken in ln s, to a relative error of REL_TOL: QUADPACK's
    first 21-point Gauss-Kronrod pass, evaluated in numpy, when dqagse would
    accept it, else integrate.quad; quadrature_error is the error estimate
    of whichever ran.

    `den` is one Denominator, whose BoundResult is the result, or a batch of
    one number of terms: a sequence of denominators, giving their list of
    BoundResults, or a DenominatorTable, giving the list of its rows'
    (t_lower, S, quadrature_error, tail_upper, flags).  Each row's result is
    bit for bit its own alone, and the rows are checked in order before any
    is integrated: the first that fails raises what it raises alone, unless
    it raises one of the types `skip`, which gives None.  F(E0) overflowing
    in every row is a ParameterError, and in one row an OverflowError."""
    single, table = isinstance(den, Denominator), den
    if not isinstance(den, DenominatorTable):
        den = [den] if single else list(den)
        if not den:
            return []
        table = DenominatorTable.of(den)
    if not 0 < E0 < math.inf:
        raise ParameterError(f"E0 must be positive and finite, got {E0}")
    if not 10.0 * E0 < math.inf:
        raise ParameterError(f"E0={E0!r} puts the truncation point 10*E0 "
                             f"past float range")
    if truncation_point is not None and not truncation_point > E0:
        raise ParameterError("truncation_point must exceed E0")
    with np.errstate(over="ignore"):
        F0 = _power_sums(np.asarray(E0, dtype=float), table.coefs,
                         table.expos, table.fast, table.c, table.mu1)
    if not np.isfinite(F0).any():
        raise ParameterError(f"F(E0) overflows at E0={E0!r}")
    S, tail_upper, flags, errors = _truncation(table, E0, F0,
                                               truncation_point)
    for error in errors:
        if error is not None and not isinstance(error, skip):
            raise error
    kept = [k for k, error in enumerate(errors) if error is None]

    # integrate in log space: s = exp(x) keeps the long upper range tame
    x_lo = math.log(E0)
    passes = _gk21_first_pass(table if len(kept) == len(errors) else
                              DenominatorTable(table.coefs[:, kept],
                                               table.expos[:, kept],
                                               table.mu1[kept], table.c[kept]),
                              x_lo, [math.log(S[k]) for k in kept], REL_TOL)
    rows = [None] * len(errors)
    for k, accepted in zip(kept, passes):
        if accepted is None:
            # imported at the first fallback: an accepted pass needs no scipy
            from scipy import integrate
            # an overflowing F makes the integrand 0, as in the pass above
            with np.errstate(over="ignore"):
                accepted = integrate.quad(
                    lambda x, den=table.row(k): (s := math.exp(x)) / den(s),
                    x_lo, math.log(S[k]), epsabs=0.0, epsrel=REL_TOL,
                    limit=500)
        rows[k] = (accepted[0], S[k], accepted[1], tail_upper[k], flags[k])
    if table is not den:
        rows = [row and BoundResult(*row[:4], flags=row[4]) for row in rows]
    return rows[0] if single else rows


def bound_at_indices(params: ModelParams, indices: EnergyIndices, E0: float,
                     C_GN: float, epsilon: float = math.nan) -> BoundResult:
    """Bound at fixed indices; a NaN epsilon is half its supremum."""
    coeffs = odi_coefficients(params, indices, epsilon, C_GN)
    return replace(lower_bound_integral(coeffs.denominator(), E0),
                   indices=indices, coeffs=coeffs)


COARSE_GRID = 7     # points per (s1, s2) axis of the starting grid
REFINE_ITERS = 60   # pattern-search sweeps after the grid
BOUNDARY_MARGIN = 1e-3  # fraction of box width and of sup epsilon kept off
SWEEP_LEVELS = 3    # sweeps (steps d, d/2, d/4) scored as one batch


def optimize_bound(params: ModelParams, p: float, q: float, E0: float,
                   C_GN: float):
    """Maximize the bound over admissible (s1, s2): a coarse grid, then a
    shrinking pattern search, clamped off the open box's edges by
    BOUNDARY_MARGIN.  The bound cannot fall as epsilon grows (every m_i
    falls like epsilon**(-h) and S rises), so each candidate takes epsilon
    = (1 - BOUNDARY_MARGIN) * its supremum.  The grid is scored as one
    lower_bound_integral batch, and a sweep's four trials at step d as one
    with those of the sweeps after it at d/2 and d/4, taken in order until
    one improves; each that does not halves d.  Only the winner's indices,
    coefficients and result are built."""
    n, p, q = params.dim, float(p), float(q)
    (s1_lo, s1_hi), (s2_lo, s2_hi) = feasible_box(n, p, q)
    w1, w2, mar = s1_hi - s1_lo, s2_hi - s2_lo, BOUNDARY_MARGIN
    lo1, hi1 = s1_lo + mar * w1, s1_hi - mar * w1
    lo2, hi2 = s2_lo + mar * w2, s2_hi - mar * w2
    # each clause of Condition C bounds s1 alone, s2 alone or neither, so the
    # two opposite corners cover every candidate clamped into [lo, hi]
    if not (check_condition_C(n, p, q, lo1, lo2).admissible
            and check_condition_C(n, p, q, hi1, hi2).admissible):
        raise InfeasibleError(
            f"empty admissible (s1, s2) box for n={n}, p={p}, q={q}")

    def score(s1, s2):
        """(t_lower, s1, s2, epsilon, bound row) of each candidate clamped
        into [lo, hi], or None if its coefficients, S or F(E0) overflow."""
        s1, s2 = np.clip(s1, lo1, hi1), np.clip(s2, lo2, hi2)
        etas = np.array(eta_formulas(p, q, s1, s2))
        for k in np.flatnonzero(~((1.0 < etas) & (etas < 1.0 + 2.0 / n))
                                .all(axis=0)).tolist():
            raise ParameterError(f"s1={s1[k]}, s2={s2[k]} are not "
                                 f"admissible for n={n}, p={p}, q={q}")
        eps_max = _zeta_split(params, p, q, s1, etas)[2]
        eps = (1.0 - mar) * eps_max
        table, errors = _coefficient_table(params, p, q, etas, eps, eps_max,
                                           C_GN)
        # a row whose eps**(-h) or C_GN power overflows is left out, not all
        if all(errors):
            raise ParameterError(f"C_GN={C_GN!r} overflows the bound's "
                                 f"coefficients at every candidate")
        # a row left out has nan coefficients: its nan F(E0) is skipped
        rows = lower_bound_integral(table, E0, skip=OverflowError)
        return [row and (row[0], *point, row) for point, row in
                zip(zip(s1.tolist(), s2.tolist(), eps.tolist()), rows)]

    s1 = np.repeat(np.linspace(lo1, hi1, COARSE_GRID), COARSE_GRID)
    s2 = np.tile(np.linspace(lo2, hi2, COARSE_GRID), COARSE_GRID)
    if q == 2 * p:
        # the collapsed selection is an interior feasible point; seed it so
        # the search never does worse than the closed-form route
        _, s1c, s2c = corollary1_parameters(p, n)
        s1, s2 = np.append(s1, float(s1c)), np.append(s2, float(s2c))
    # max keeps the first of equal bounds: candidate order, strict `>`
    best = max(filter(None, score(s1, s2)), key=lambda c: c[0], default=None)
    if best is None:
        raise InfeasibleError("no admissible candidate found in the box")

    d1, d2 = 0.25 * w1, 0.25 * w2
    sweeps = []  # the scored sweeps of the batch still to be taken
    for _ in range(REFINE_ITERS):
        if not sweeps:
            s1, s2 = best[1], best[2]
            trials = [[[s1 + d1 / 2 ** i, s1 - d1 / 2 ** i, s1, s1],
                       [s2, s2, s2 + d2 / 2 ** i, s2 - d2 / 2 ** i]]
                      for i in range(SWEEP_LEVELS)]
            try:
                batch = score(*np.concatenate(trials, axis=1))
                sweeps = [batch[i:i + 4] for i in range(0, len(batch), 4)]
            except (ValueError, ArithmeticError):
                try:  # a trial fails: score this sweep alone
                    sweeps = [score(*np.array(trials[0]))]
                except ParameterError:
                    # e.g. F(E0) overflows at all four trials: E0 passed
                    # every other check in the grid's batch
                    sweeps = [[]]
        new = max([best, *filter(None, sweeps.pop(0))], key=lambda c: c[0])
        if new is not best:
            best, sweeps = new, []
        else:
            d1, d2 = 0.5 * d1, 0.5 * d2
            if max(d1, d2) < 1e-10:
                break

    _, s1, s2, eps, row = best
    indices = EnergyIndices(p, q, s1, s2)
    return BoundResult(*row[:4], indices,
                       odi_coefficients(params, indices, eps, C_GN), row[4])

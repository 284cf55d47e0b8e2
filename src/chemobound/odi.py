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

import numpy as np

from .errors import (DivergenceError, EpsilonError, InfeasibleError,
                     NonpositiveDenominatorError, ParameterError,
                     QuadratureError)
from .exponents import (C1_coef, EnergyIndices, ModelParams,
                        check_condition_C, corollary1_parameters,
                        eta_formulas, etas_in_range, feasible_box,
                        h_exponent, k_exponent)


class CoefficientConventionWarning(UserWarning):
    """The assembled constants use (alpha, beta) for both gradient estimates;
    raised when (gamma, delta) differ from (alpha, beta) so the repellent
    equation's own coefficients would not reproduce them."""


def _power_sums(s, coefs, expos, c, mu1):
    """c + sum_j coefs[j] * s**expos[j] + mu1 * s.

    Every power is taken in one call and every product in another, and the
    terms are added one at a time in that order (numpy's sum would add
    pairwise), so each value is the one a loop over the terms gives, bit for
    bit.  coefs and expos hold the J terms on their first axis; the rest of
    their shape, s, c and mu1 broadcast together.
    """
    # the exponents as an array of the powers' shape: numpy takes a power by
    # square, sqrt or reciprocal, which can differ from its power in the last
    # bit, for an exponent it broadcasts over some shapes but not others
    terms = np.multiply(coefs, s ** np.array(np.broadcast_to(
        expos, np.broadcast_shapes(np.shape(s), expos.shape))))
    out = c + terms[0]
    for term in terms[1:]:
        out += term
    out += mu1 * s
    return out


@dataclass(frozen=True, eq=False)
class Denominator:
    """K power-sum denominators of J terms as arrays: row k is F_k(s) =
    sum_j coefs[j, k] * s**expos[j, k] + mu1[k] * s + c[k]."""

    coefs: np.ndarray  # (J, K), as expos
    expos: np.ndarray
    mu1: np.ndarray    # (K,), as c
    c: np.ndarray

    @classmethod
    def of(cls, terms, mu1: float = 0.0, c: float = 0.0) -> Denominator:
        """The one row F(s) = sum A s**a + mu1 * s + c of (A, a) `terms`."""
        terms = np.array(terms, float).reshape(-1, 2)
        return cls(terms[:, :1], terms[:, 1:], np.array([mu1], float),
                   np.array([c], float))

    def take(self, rows) -> Denominator:
        """The sub-batch of the given rows, in their order."""
        return Denominator(self.coefs[:, rows], self.expos[:, rows],
                           self.mu1[rows], self.c[rows])

    def __call__(self, s):
        """F at s, a number or an array, of a one-row denominator."""
        if len(self.c) != 1:
            raise ValueError(f"a denominator of {len(self.c)} rows has no "
                             f"one value; take a row first")
        s = np.asarray(s, dtype=float)
        shape = (-1,) + (1,) * s.ndim  # the terms on an axis before s's
        out = _power_sums(s, self.coefs.reshape(shape),
                          self.expos.reshape(shape), self.c.item(),
                          self.mu1.item())
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
        terms = [(self.m, float(e)) for e in self.eta_exponents]
        terms += [(mi, float(k)) for mi, k in zip(self.m_i, self.k_exponents)]
        return Denominator.of(terms, self.mu1, self.c)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "m_i": list(self.m_i), "mu1": self.mu1, "c": self.c}


REL_TOL = 1e-10    # relative error the bound integral must meet
TAIL_TOL = 1e-12   # tail budget that sets the truncation point S


@dataclass(slots=True)
class BoundResult:
    """A truncated bound integral; `bound_at_indices` and `optimize_bound`
    attach the indices and coefficients it was assembled from.  Not frozen:
    the search builds one for every candidate it scores, and a frozen one
    costs four times as much to build."""

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
        raise EpsilonError(f"epsilon must be nonnegative, got {epsilon}")
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
    with np.errstate(all="ignore"):
        den, (error,) = _coefficient_table(
            _Assembly(params, p, q, C_GN), etas, np.array([epsilon], float),
            eps_max)
    if error:
        raise error
    if params.delta != params.beta or params.gamma != params.alpha:
        warnings.warn(
            "assembled constants use (alpha, beta) in both gradient "
            "estimates; delta/gamma of the repellent equation differ and do "
            "not enter them", CoefficientConventionWarning, stacklevel=2)
    coefs, expos = den.coefs[:, 0].tolist(), den.expos[:, 0].tolist()
    return OdiCoefficients(coefs[0], tuple(coefs[4:]), params.mu1,
                           2.0 * params.boundary_c, tuple(expos[:4]),
                           tuple(expos[4:]), epsilon, C_GN)


def _powers(bases: list, exps, errors: list):
    """bases[i] ** exps.flat[i] by Python's float power, element by element
    (numpy's power of arrays differs in the last bit on some inputs), for
    exps (K,) or (J, K), as an array of its shape.  Element i is in row
    i % K: a row with an error in errors[k] gives nan, and a power that
    raises records its error there."""
    e = exps.ravel().tolist()
    if not any(errors):
        try:
            return np.array([x ** y for x, y in zip(bases, e)]
                            ).reshape(exps.shape)
        except ArithmeticError:
            pass  # take them one at a time to record which rows raise
    out = []
    for i, (x, y) in enumerate(zip(bases, e)):
        try:
            out.append(math.nan if errors[i % len(errors)] else x ** y)
        except ArithmeticError as exc:
            errors[i % len(errors)] = exc
            out.append(math.nan)
    return np.array(out).reshape(exps.shape)


class _Assembly:
    """What the coefficient tables at one (params, p, q, C_GN) share, worked
    out once: the C_GN check, M, the etas' coefficient m = C_GN * M, and the
    mu1 and c columns of each number of rows."""

    def __init__(self, params: ModelParams, p: float, q: float, C_GN: float):
        if not 0 < C_GN < math.inf:
            raise ParameterError(
                f"C_GN must be positive and finite, got {C_GN}")
        self.params, self.n, self.C_GN = params, params.dim, C_GN
        self.M = max(p * (params.xi ** 2 + params.chi ** 2),
                     (self.n / 4.0 + q - 2.0)
                     * (params.alpha ** 2 + params.beta ** 2))
        self.m, self._columns = C_GN * self.M, {}

    def columns(self, K: int):
        if K not in self._columns:
            self._columns[K] = (np.full(K, self.params.mu1, float),
                                np.full(K, 2.0 * self.params.boundary_c))
        return self._columns[K]


def _coefficient_table(asm: _Assembly, etas, epsilon, eps_max):
    """The one assembly of F's coefficients, for K rows of (4, K) etas, each
    in (1, 1 + 2/n), with (K,) arrays of epsilon and its supremum: the rows'
    Denominator (m at the etas, then the m_i at the k exponents) and the
    OverflowError of each, or None.  Python takes the powers and numpy every
    other step in the order of a row alone, so each row is bit for bit the
    row alone.  The caller ignores numpy's floating-point errors: nan rows,
    and products past float range."""
    if not ((0 < epsilon) & (epsilon < eps_max)).all():
        for e, e_max in zip(epsilon.tolist(), eps_max.tolist()):
            if not 0 < e < e_max:
                raise EpsilonError(
                    f"epsilon={e} outside admissible range (0, {e_max})")
    n, K, errors = asm.n, len(epsilon), [None] * len(epsilon)
    denom = n + 2 - n * etas
    # C_GN**(2/denom), then epsilon**(-h), in one call
    powers = _powers([asm.C_GN] * etas.size + epsilon.tolist() * 4,
                     np.concatenate((2.0 / denom, -h_exponent(etas, n))),
                     errors)
    coefs = np.empty((8, K))
    coefs[:4] = asm.m
    np.multiply(asm.M * ((denom / 2.0) * powers[:4]), powers[4:],
                out=coefs[4:])
    return Denominator(coefs, np.concatenate((etas, k_exponent(etas, n))),
                       *asm.columns(K)), errors


# The 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK's dqk21), written from
# the outermost node down to the centre: the Kronrod nodes and weights, and
# the weights of the 10-point Gauss rule on the nodes at odd positions.
_HALF_NODES = [
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
    0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
    0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
    0.14887433898163122, 0.0]
_HALF_KRONROD = [
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
    0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
    0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
    0.14773910490133849, 0.1494455540029169]
_HALF_GAUSS = [0.0] * 11
_HALF_GAUSS[1::2] = [0.06667134430868814, 0.1494513491505806,
                     0.21908636251598204, 0.26926671930999635,
                     0.29552422471475287]
# the 21 nodes in ascending order, and the Kronrod weights above the Kronrod
# less the Gauss weights at them
_NODES = np.array([-x for x in _HALF_NODES[:-1]] + _HALF_NODES[::-1])
_WEIGHTS = np.array([w[:-1] + w[::-1] for w in (
    _HALF_KRONROD, [k - g for k, g in zip(_HALF_KRONROD, _HALF_GAUSS)])])
MAX_PANELS = 500  # Kronrod panels a row may take before it is an error row


def _kronrod(den: Denominator, lo, hi):
    """The 21-point Kronrod sum of e^x / F_i(e^x) over [lo[i], hi[i]] for
    each row F_i of `den`, and its distance from the 10-point Gauss sum on
    the same nodes, the error estimate.  Each sum is one ordered reduction
    along the contiguous node axis, not a matrix product, so a panel's sums
    do not depend on the other panels of the batch."""
    half = 0.5 * (hi - lo)
    s = np.exp((lo + half)[:, None] + half[:, None] * _NODES)
    f = s / _power_sums(s, den.coefs[..., None], den.expos[..., None],
                        den.c[:, None], den.mu1[:, None])
    value, spread = np.add.reduce(f[:, None] * _WEIGHTS, axis=-1).T * half
    return value, np.abs(spread)


def _integrate(den: Denominator, x_lo: float, x_hi: np.ndarray):
    """The integral of e^x / F(e^x) over [x_lo, x_hi[k]] for each row F of
    `den`, to REL_TOL of its value: (K,) arrays of the values and error
    estimates, NaN in a row whose integrand or sums leave float range, and
    the rows that still miss the tolerance when their next level would take
    them past MAX_PANELS panels.

    A row is the Kronrod sum on its range when its estimate is within the
    tolerance.  Else its range is bisected, level by level: the
    row takes every new panel if their summed estimate is within the
    tolerance of their summed value, else each panel whose estimate is
    within its width's share of it, and bisects the others.  A row's panels
    stay in order and every sum over them adds one term at a time, so each
    row is bit for bit the row alone."""
    K = len(x_hi)
    value, error = _kronrod(den, np.full(K, x_lo), x_hi)
    rows = np.flatnonzero(~(error <= REL_TOL * np.abs(value)))
    if not rows.size:  # most batches: they skip the set-up below
        return value, error, rows
    broken = ~(np.isfinite(value) & np.isfinite(error))
    rows = rows[~broken[rows]]
    value[rows] = error[rows] = 0.0
    width, lo, hi = x_hi - x_lo, np.full(len(rows), x_lo), x_hi[rows]
    panels, capped = np.ones(K, int), np.zeros(K, bool)
    while rows.size:
        panels += 2 * np.bincount(rows, minlength=K)
        over = panels[rows] > MAX_PANELS
        capped[rows[over]] = True
        lo, hi, rows = lo[~over], hi[~over], rows[~over]
        mid = 0.5 * (lo + hi)
        lo, hi = np.stack((lo, mid), 1).ravel(), np.stack((mid, hi), 1).ravel()
        rows = np.repeat(rows, 2)
        v, e = _kronrod(den.take(rows), lo, hi)
        broken[rows[~(np.isfinite(v) & np.isfinite(e))]] = True
        tol = REL_TOL * np.abs(value + np.bincount(rows, v, K))
        whole = error + np.bincount(rows, e, K) <= tol
        done = whole[rows] | (e <= tol[rows] * ((hi - lo) / width[rows]))
        value += np.bincount(rows, v * done, K)
        error += np.bincount(rows, e * done, K)
        split = ~(done | broken[rows])
        lo, hi, rows = lo[split], hi[split], rows[split]
    value[broken] = math.nan
    return value, error, np.flatnonzero(capped)


def _truncation(den: Denominator, E0: float, F0,
                truncation_point: float | None):
    """Check each row's F(E0) = F0[k] and pick its truncation point S, or take
    the given one: lists of the rows' S, tail budgets, flags and the error
    each raises alone, or None.  The dominant term A s**a of a row sums, in
    term order, its positive terms at its largest exponent a > 1 with one."""
    F0 = F0.tolist()
    errors = [None if 0 < f0 < math.inf else NonpositiveDenominatorError(
        f"denominator nonpositive at E0={E0}", root=E0) if f0 <= 0 else
        OverflowError(f"F(E0) overflows at E0={E0!r}") for f0 in F0]
    if 0.0 in F0:
        # a zero sum of nonnegative terms, some of them positive, underflowed
        positive = ((den.coefs >= 0).all(axis=0) & (den.coefs > 0).any(axis=0)
                    & (den.mu1 >= 0) & (den.c >= 0)).tolist()
        for k in [k for k, f0 in enumerate(F0) if f0 == 0 and positive[k]]:
            errors[k] = ParameterError(f"F(E0) underflows at E0={E0!r}")
    live = (den.coefs > 0) & (den.expos > 1.0)
    a_dom = np.where(live, den.expos, -math.inf).max(axis=0)
    A_dom = np.add.accumulate(np.where(live & (den.expos == a_dom),
                                       den.coefs, 0.0))[-1]
    for k in [k for k, a in enumerate(a_dom.tolist()) if a == -math.inf]:
        errors[k] = errors[k] or DivergenceError(
            "no superlinear power term with positive coefficient; "
            "the bound integral diverges")
    drains = den.mu1 < 0
    drain = drains.tolist()
    am1 = a_dom - 1.0
    scale = A_dom * am1
    S = _powers((scale * TAIL_TOL).tolist(), -1.0 / am1, errors)
    if any(drain):
        # keep the linear drain below half the dominant term at S (the other
        # rows take 1 ** x, which never raises)
        S = np.where(drains, np.maximum(S, _powers(
            np.where(drains, 2.0 * np.abs(den.mu1) / A_dom, 1.0).tolist(),
            1.0 / am1, errors)), S)
    S = np.maximum(S, 10.0 * E0) if truncation_point is None else \
        np.full(len(errors), float(truncation_point))
    S = S.tolist()
    for k in [k for k, d in enumerate(drain) if d and not errors[k]]:
        row, s_scan = den.take([k]), np.geomspace(E0, S[k], 512)
        vals = row(s_scan) <= 0
        if vals.any():
            idx = int(np.argmax(vals))
            # imported here: no other path needs scipy.optimize
            from scipy.optimize import brentq
            root = brentq(row, s_scan[idx - 1], s_scan[idx]) if idx else E0
            errors[k] = NonpositiveDenominatorError(
                f"denominator vanishes at s={root}", root=root)
    tail_upper = _powers(S, -am1, errors)  # -am1 is 1 - a, exactly
    if any(drain):
        tail_upper = (1.0 + drains) * tail_upper
    tail_upper = tail_upper / scale
    flags = [("negative_linear_term",) * d for d in drain]
    return S, tail_upper.tolist(), flags, errors


def lower_bound_integral(den: Denominator, E0: float,
                         truncation_point: float | None = None,
                         skip: type[Exception] | tuple = ()
                         ) -> list[BoundResult | None]:
    """Truncated integral of 1/F from E0, with an analytic tail budget, for
    each row F of `den`: a list of one BoundResult per row.

    The truncation point S makes the tail estimate S**(1-a)/(A(a-1)) of the
    dominant power term (coefficient A, exponent a) fall below TAIL_TOL,
    unless `truncation_point` fixes it.  The reported value excludes the
    tail, so it always under-estimates the exact improper integral.  The
    truncated integral from E0 to S is taken in ln s, to a relative error of
    REL_TOL, by _integrate: the 21-point
    Gauss-Kronrod rule on the range, bisected where its estimate misses the
    tolerance; quadrature_error is the summed |Kronrod - Gauss| estimate of
    the panels taken.

    Each row's result is bit for bit its own alone, and the rows are checked
    in order: the first that fails raises what it raises alone, unless it
    raises one of the types `skip`, which gives None.  F(E0) overflowing in
    every row is a ParameterError, and in one row of several an
    OverflowError, as is an F that is NaN at a node or an integral that is
    not finite; a zero F(E0) of nonnegative terms, some positive,
    underflowed, and is a ParameterError too.  A row that misses its
    tolerance within MAX_PANELS panels is a QuadratureError."""
    if not 0 < E0 < math.inf:
        raise ParameterError(f"E0 must be positive and finite, got {E0}")
    if not 10.0 * E0 < math.inf:
        raise ParameterError(f"E0={E0!r} puts the truncation point 10*E0 "
                             f"past float range")
    if truncation_point is not None and not truncation_point > E0:
        raise ParameterError("truncation_point must exceed E0")
    with np.errstate(all="ignore"):  # an F out of float range is checked
        F0 = _power_sums(np.asarray(E0, dtype=float), den.coefs, den.expos,
                         den.c, den.mu1)
        if not np.isfinite(F0).any():
            raise ParameterError(f"F(E0) overflows at E0={E0!r}")
        S, tail_upper, flags, errors = _truncation(den, E0, F0,
                                                   truncation_point)
        kept = [k for k, error in enumerate(errors) if error is None]
        # integrate in log space: s = exp(x) keeps the long upper range tame
        value, error, capped = _integrate(
            den if len(kept) == len(errors) else den.take(kept),
            math.log(E0), np.array([math.log(S[k]) for k in kept]))
    rows, capped = [None] * len(errors), set(capped.tolist())
    for i, (k, v, e) in enumerate(zip(kept, value.tolist(), error.tolist())):
        if i in capped:
            errors[k] = QuadratureError(
                f"the bound integral from E0={E0!r} to S={S[k]!r} misses "
                f"REL_TOL={REL_TOL} within MAX_PANELS={MAX_PANELS} panels")
        elif not math.isfinite(v):
            errors[k] = OverflowError(
                f"F leaves float range on the bound integral from E0={E0!r}")
        else:
            rows[k] = BoundResult(v, S[k], e, tail_upper[k], None, None,
                                  flags[k])
    for error in errors:
        if error is not None and not isinstance(error, skip):
            raise error
    return rows


def bound_at_indices(params: ModelParams, indices: EnergyIndices, E0: float,
                     C_GN: float, epsilon: float = math.nan) -> BoundResult:
    """Bound at fixed indices; a NaN epsilon is half its supremum."""
    coeffs = odi_coefficients(params, indices, epsilon, C_GN)
    [row] = lower_bound_integral(coeffs.denominator(), E0)
    return replace(row, indices=indices, coeffs=coeffs)


COARSE_GRID = 7     # points per (s1, s2) axis of the starting grid
REFINE_ITERS = 60   # pattern-search sweeps after the grid
BOUNDARY_MARGIN = 1e-3  # fraction of box width and of sup epsilon kept off
SWEEP_LEVELS = 3    # sweeps (steps d, d/2, d/4) scored as one batch


@np.errstate(all="ignore")  # nan rows, and products past float range
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

    asm, top = _Assembly(params, p, q, C_GN), 1.0 + 2.0 / n

    def score(s1, s2):
        """(BoundResult, s1, s2, epsilon) of each candidate clamped into
        [lo, hi], or None if its coefficients, S or F(E0) overflow or its
        integral misses its tolerance."""
        # np.clip's value, at a third of its cost
        s1 = np.minimum(np.maximum(s1, lo1), hi1)
        s2 = np.minimum(np.maximum(s2, lo2), hi2)
        etas = np.array(eta_formulas(p, q, s1, s2))
        inside = (1.0 < etas) & (etas < top)
        if not inside.all():
            k = inside.all(axis=0).tolist().index(False)
            raise ParameterError(f"s1={s1[k]}, s2={s2[k]} are not "
                                 f"admissible for n={n}, p={p}, q={q}")
        eps_max = _zeta_split(params, p, q, s1, etas)[2]
        eps = (1.0 - mar) * eps_max
        den, errors = _coefficient_table(asm, etas, eps, eps_max)
        # a row whose eps**(-h) or C_GN power overflows is left out, not all
        if all(errors):
            raise ParameterError(f"C_GN={C_GN!r} overflows the bound's "
                                 f"coefficients at every candidate")
        # a row left out has nan coefficients: its nan F(E0) is skipped
        rows = lower_bound_integral(den, E0,
                                    skip=(OverflowError, QuadratureError))
        return [row and (row, *point) for row, point in
                zip(rows, zip(s1.tolist(), s2.tolist(), eps.tolist()))]

    s1 = np.repeat(np.linspace(lo1, hi1, COARSE_GRID), COARSE_GRID)
    s2 = np.tile(np.linspace(lo2, hi2, COARSE_GRID), COARSE_GRID)
    if q == 2 * p:
        # the collapsed selection is an interior feasible point; seed it so
        # the search never does worse than the closed-form route
        _, s1c, s2c = corollary1_parameters(p, n)
        s1, s2 = np.append(s1, float(s1c)), np.append(s2, float(s2c))
    # max keeps the first of equal bounds: candidate order, strict `>`
    best = max(filter(None, score(s1, s2)), key=lambda c: c[0].t_lower,
               default=None)
    if best is None:
        # every candidate was left out: its coefficients, S, F(E0) or the
        # integral leave float range
        raise InfeasibleError(f"C_GN={C_GN!r} overflows the bound at every "
                              f"(s1, s2) candidate in the box")

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
                    # e.g. F(E0) overflows at all four trials, or
                    # underflows at one: E0 passed every other check in
                    # the grid's batch
                    sweeps = [[]]
        new = max([best, *filter(None, sweeps.pop(0))],
                  key=lambda c: c[0].t_lower)
        if new is not best:
            best, sweeps = new, []
        else:
            d1, d2 = 0.5 * d1, 0.5 * d2
            if max(d1, d2) < 1e-10:
                break

    row, s1, s2, eps = best
    indices = EnergyIndices(p, q, s1, s2)
    return replace(row, indices=indices,
                   coeffs=odi_coefficients(params, indices, eps, C_GN))

"""Parameter algebra for the energy-method blow-up bound.

Everything here is exact arithmetic on the exponent quadruple (p, q, s1, s2):
the four derived eta exponents, the clause table and (s1, s2) box of
Condition C (equivalent to eta_i in (1, 1 + 2/n)), the exponent/coefficient
maps k, h, C1, C3 entering the differential inequality, and the two
closed-form parameter selections that collapse all four eta to one value.

All operations are pure and stateless.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

from .errors import ParameterError

Number = int | float | Fraction


def _is_exact(*values: Number) -> bool:
    # a float, the common case, decides at the first value: no float is exact
    if isinstance(values[0], float):
        return False
    return all(isinstance(v, (int, Fraction)) and not isinstance(v, bool)
               for v in values)


@dataclass(frozen=True)
class ModelParams:
    """Physical coefficients of the chemotaxis system.

    chi: attraction strength, xi: repulsion strength; (alpha, beta) couple
    the attractant equation, (gamma, delta) the repellent equation.
    The logistic source is mu1*u - mu2*u**k_logistic.  boundary_c is the
    constant absorbing the boundary trace term, which vanishes on a convex
    domain such as the ball (boundary_c = 0); F carries 2*boundary_c.
    """

    chi: float
    xi: float
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    delta: float = 1.0
    mu1: float = 0.0
    mu2: float = 0.0
    k_logistic: float = 1.1
    dim: int = 3
    boundary_c: float = 0.0

    def __post_init__(self):
        # chi = xi = 0 is allowed so pure-diffusion control runs can share
        # the same parameter type; each test is False for NaN
        for names, rule, ok in (
                (("chi", "xi", "mu2", "boundary_c"), "nonnegative and finite",
                 lambda x: 0 <= x < math.inf),
                (("alpha", "beta", "gamma", "delta"), "positive and finite",
                 lambda x: 0 < x < math.inf),
                (("mu1",), "finite", math.isfinite)):
            for name in names:
                if not ok(getattr(self, name)):
                    raise ParameterError(f"{name} must be {rule}, "
                                         f"got {getattr(self, name)}")
        if self.dim < 3:
            raise ParameterError(f"dim must be >= 3, got {self.dim}")
        if self.mu2 > 0:
            k_hi = 7.0 / 6.0 if self.dim == 3 else 1.0 + 1.0 / (2 * (self.dim - 1))
            if not (1.0 < self.k_logistic < k_hi):
                raise ParameterError(
                    f"k_logistic must lie in (1, {k_hi}) for dim={self.dim} "
                    f"when mu2 > 0, got {self.k_logistic}")


def eta_formulas(p, q, s1, s2) -> tuple:
    """(2*s2/p, s1/(s1-1), s2*(q-2)/(q*(s2-1)), 2*s1/q), unchecked;
    elementwise on arrays."""
    return (2 * s2 / p, s1 / (s1 - 1), s2 * (q - 2) / (q * (s2 - 1)),
            2 * s1 / q)


def compute_etas(p: Number, q: Number, s1: Number, s2: Number):
    """The four derived exponents of eta_formulas, for finite p, q > 0 and
    s1, s2 > 1.

    Exact when all inputs are int/Fraction, float otherwise.
    """
    if not (p > 0 and q > 0):
        raise ParameterError(f"p, q must be positive, got p={p}, q={q}")
    if not (s1 > 1 and s2 > 1):
        raise ParameterError(f"s1, s2 must exceed 1, got s1={s1}, s2={s2}")
    if math.inf in (p, q, s1, s2):  # the checks above let no other through
        raise ParameterError(f"p, q, s1, s2 must be finite, got "
                             f"p={p}, q={q}, s1={s1}, s2={s2}")
    if _is_exact(p, q, s1, s2):
        p, q, s1, s2 = (Fraction(x) for x in (p, q, s1, s2))
    try:
        return eta_formulas(p, q, s1, s2)
    except ZeroDivisionError:  # a float q * (s2 - 1) underflows to 0.0
        raise ParameterError(f"indices p={p}, q={q}, s1={s1}, s2={s2}: "
                             f"q*(s2-1) underflows to 0 in eta_2 = "
                             f"s2(q-2)/(q(s2-1))") from None


def etas_in_range(etas: Sequence[Number], n: int) -> bool:
    """True iff every eta lies strictly inside (1, 1 + 2/n)."""
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    if _is_exact(*etas):
        lo, hi = 1, Fraction(n + 2, n)  # keep comparisons in exact arithmetic
    else:
        lo, hi = 1.0, 1.0 + 2.0 / n
    return all(lo < e < hi for e in etas)


@dataclass(frozen=True)
class EnergyIndices:
    """Exponent quadruple with its derived eta values."""

    p: float
    q: float
    s1: float
    s2: float
    eta: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "eta", compute_etas(self.p, self.q, self.s1, self.s2))


@dataclass(frozen=True)
class Clause:
    name: str
    passed: bool
    margin: float


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    clauses: tuple[Clause, ...]
    etas: tuple | None
    etas_in_range: bool      # every eta strictly inside (1, 1 + 2/n)
    margin: float

    def to_json_dict(self) -> dict:
        return {
            "admissible": self.admissible,
            "clauses": {c.name: {"passed": c.passed, "margin": c.margin}
                        for c in self.clauses},
            "etas": None if self.etas is None else [float(e) for e in self.etas],
            "etas_in_range": self.etas_in_range,
            "margin": self.margin,
        }


def feasible_box(n, p, q):
    """((s1_lo, s1_hi), (s2_lo, s2_hi)): the open (s1, s2) box of Condition C
    at (p, q); exact on Fractions (n too), float otherwise, scalars only."""
    return ((max(1 + n / 2, q / 2), (1 + 2 / n) * q / 2),
            (max(q * (n + 2) / (2 * (q + n)), p / 2),
             min((1 + 2 / n) * p / 2, q / 2)))


def condition_C_clauses(n, p, q, s1, s2) -> tuple:
    """Condition C as seven (name, lower, value) triples, each requiring
    lower < value; exact on Fractions (n too), float otherwise, scalars only.

    The (s1, s2) clauses, as feasible_box, are the eta intervals (each
    in (1, 1 + 2/n); p > 0, s1, s2 > 1, q > 2) solved for s1 and s2:
      eta0 = 2 s2/p  <=>  p/2 < s2 < (1 + 2/n) p/2;
      eta1 = s1/(s1 - 1)  <=>  s1 > 1 + n/2;
      eta2 = s2 (q - 2)/(q (s2 - 1))  <=>  q(n+2)/(2(q+n)) < s2 < q/2;
      eta3 = 2 s1/q  <=>  q/2 < s1 < (1 + 2/n) q/2.
    q > n is exactly a non-empty s1 interval, and q > 2 and p > nq/(n+q)
    exactly put the s2 end q(n+2)/(2(q+n)) below both upper ends (p/2 also
    needs p < q, which the s2 clauses enforce), so these three clauses
    change no verdict: they say why an empty box is empty.
    check_condition_C's `admissible` also ANDs the eta check, so it is no
    test of this table; verify.check_equivalence compares the two.
    """
    (s1_lo, s1_hi), (s2_lo, s2_hi) = feasible_box(n, p, q)
    return (("q > n", n, q),
            ("q > 2", 2, q),
            ("s1 > max(1 + n/2, q/2)", s1_lo, s1),
            ("s1 < (1 + 2/n) q/2", s1, s1_hi),
            ("s2 > max(q(n+2)/(2(q+n)), p/2)", s2_lo, s2),
            ("s2 < min((1 + 2/n) p/2, q/2)", s2, s2_hi),
            ("p > nq/(n+q)", n * q / (n + q), p))


def check_condition_C(n: int, p: Number, q: Number, s1: Number,
                      s2: Number) -> AdmissibilityReport:
    """Condition C on (p, q, s1, s2), clause by clause.

    All inequalities are strict; boundary equality is inadmissible.  The
    number domain is decided once, here: n and the indices become Fractions
    if every index is int/Fraction, floats otherwise (a nonfinite one is
    rejected), and nothing called converts them again.  Admissibility also
    requires every eta inside (1, 1 + 2/n): in floats a clause can pass by
    an ulp while an eta rounds onto an end of that interval, where the bound
    is singular.  The etas are those compute_etas would give, else None
    (as where compute_etas raises).
    """
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    exact = _is_exact(p, q, s1, s2)
    n, p, q, s1, s2 = map(Fraction if exact else float, (n, p, q, s1, s2))
    if not (exact or all(map(math.isfinite, (p, q, s1, s2)))):
        raise ParameterError(f"p, q, s1, s2 must be finite, got "
                             f"p={p}, q={q}, s1={s1}, s2={s2}")
    table = condition_C_clauses(n, p, q, s1, s2)
    clauses = tuple(Clause(name, value > lower, float(value - lower))
                    for name, lower, value in table)
    try:
        etas = (eta_formulas(p, q, s1, s2)
                if p > 0 and q > 0 and s1 > 1 and s2 > 1 else None)
    except ZeroDivisionError:  # a float q * (s2 - 1) underflows to 0.0
        etas = None
    in_range = etas is not None and etas_in_range(etas, n)
    return AdmissibilityReport(all(c.passed for c in clauses) and in_range,
                               clauses, etas, in_range,
                               min(c.margin for c in clauses))


def k_exponent(eta: Number, n: int):
    """(n - eta(n-2)) / (n + 2 - n eta); the higher companion exponent.
    Unchecked, exact on Fraction input and elementwise on arrays."""
    return (n - eta * (n - 2)) / (n + 2 - n * eta)


def h_exponent(eta: Number, n: int):
    """2(eta - 1) n / (n + 2 - n eta); the inverse-epsilon power.
    Unchecked, exact on Fraction input and elementwise on arrays."""
    return 2 * (eta - 1) * n / (n + 2 - n * eta)


def C1_coef(eta: Number, n: int):
    """n (eta - 1) / 2; weight of the gradient term.  Unchecked, exact on
    Fraction input and elementwise on arrays."""
    return n * (eta - 1) / 2


def C3_coef(eta: Number, n: int, C_GN: float) -> float:
    """((n + 2 - n eta)/2) * C_GN**(2/(n + 2 - n eta)); rejects a C_GN that
    is not positive and finite (the bound takes its C3 as arrays, in odi)."""
    if not 0 < C_GN < math.inf:
        raise ParameterError(f"C_GN must be positive and finite, got {C_GN}")
    eta = float(eta)
    denom = n + 2 - n * eta
    return (denom / 2.0) * C_GN ** (2.0 / denom)


def corollary1_parameters(p: Number, n: int):
    """Selection (q, s1, s2) = (2p, p+1, (p+1)/2) collapsing all eta to (p+1)/p.

    Requires p > n/2.
    """
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    if not 2 * p > n:
        raise ParameterError(f"p must exceed n/2 = {n/2}, got {p}")
    if _is_exact(p):
        p = Fraction(p)
    return (2 * p, p + 1, (p + 1) / 2)


def corollary2_parameters(n: int):
    """Selection (p, q, s1, s2) = (n-1, 2(n-1), n, n/2); all eta equal n/(n-1)."""
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    return (n - 1, 2 * (n - 1), n, Fraction(n, 2))


@dataclass(frozen=True)
class RegionRow:
    p: float
    q_low: float   # max(n, p)
    q_high: float  # inf when p >= n


def feasible_region_samples(n: int, p_grid: Iterable[Number]) -> list[RegionRow]:
    """Admissible q interval (max(n, p), n p/(n-p)) per p; unbounded above
    for p >= n.  q > n opens the s1 interval, q > p the s2 interval (its
    ends p/2 and q/2), and q < n p/(n-p) is p > nq/(n+q).

    Grid points with p <= n/2 are dropped (empty interval there).
    """
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    rows = []
    for p in p_grid:
        if 2 * p <= n:
            continue
        if p >= n:
            rows.append(RegionRow(float(p), float(p), math.inf))
        else:
            rows.append(RegionRow(float(p), float(n), float(n * p / (n - p))))
    return rows


def write_region_csv(rows: Sequence[RegionRow], stream: TextIO) -> None:
    """Emit rows as `p,q_low,q_high`; repr writes no upper bound as `inf`."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["p", "q_low", "q_high"])
    for row in rows:
        writer.writerow([repr(row.p), repr(row.q_low), repr(row.q_high)])

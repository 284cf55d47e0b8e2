"""Coefficient assembly and lower-bound quadrature."""

import hashlib
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from chemobound import cli, odi
from chemobound import config as cfgmod
from chemobound.errors import (DivergenceError, InfeasibleError,
                               NonpositiveDenominatorError, ParameterError)
from chemobound.exponents import (C3_coef, EnergyIndices, ModelParams,
                                  check_condition_C, corollary1_parameters,
                                  corollary2_parameters, eta_formulas,
                                  feasible_box, h_exponent, k_exponent)
from chemobound.odi import (BOUNDARY_MARGIN, COARSE_GRID, REFINE_ITERS,
                            REL_TOL, SWEEP_LEVELS,
                            CoefficientConventionWarning,
                            BoundResult, Denominator, OdiCoefficients,
                            bound_at_indices, lower_bound_integral,
                            max_admissible_epsilon, odi_coefficients,
                            optimize_bound, zeta_coefficients)

# the Corollary-1.3 selection for n = 3; all four derived exponents are 3/2
IDX_C13 = EnergyIndices(2.0, 4.0, 3.0, 1.5)
PARAMS = ModelParams(chi=1.0, xi=1.0, dim=3)

# high-precision reference for integral_1^inf ds / (s^(3/2) + s^3)
REF_C13_INTEGRAL = 0.3287023034705578933257931


def corollary1_bound(p, E0, C_GN):
    """The program's corollary-1 route: resolved indices, then the bound."""
    q, s1, s2 = corollary1_parameters(p, PARAMS.dim)
    indices = EnergyIndices(float(p), float(q), float(s1), float(s2))
    return bound_at_indices(PARAMS, indices, E0, C_GN)


def corollary2_bound(E0, C_GN):
    p, q, s1, s2 = corollary2_parameters(PARAMS.dim)
    indices = EnergyIndices(float(p), float(q), float(s1), float(s2))
    return bound_at_indices(PARAMS, indices, E0, C_GN)


def plain_quad(den, E0, S, **kwargs):
    """integrate.quad on the log-space integrand, called as the fallback
    calls it."""
    return integrate.quad(lambda x: math.exp(x) / den(math.exp(x)),
                          math.log(E0), math.log(S), epsabs=0.0,
                          epsrel=REL_TOL, limit=500, **kwargs)


def quad_calls(monkeypatch):
    """Route integrate.quad, which odi looks up at each fallback, through a
    spy; returns the list of calls."""
    calls = []
    quad = integrate.quad

    def spy(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(integrate, "quad", spy)
    return calls


@st.composite
def admissible_indices(draw):
    """(n, indices) admissible under Condition C, with p, q, s1 and s2
    drawn off the edges of their ranges."""
    n = draw(st.integers(3, 6))
    q = n + 3.0 * n * draw(st.floats(0.02, 1))
    p_lo = n * q / (n + q)
    p = p_lo + (3.0 * n - p_lo) * draw(st.floats(0.02, 0.98))
    (a, b), (c, d) = feasible_box(n, p, q)
    assume(b > a and d > c)
    indices = EnergyIndices(p, q, a + draw(st.floats(0.02, 0.98)) * (b - a),
                            c + draw(st.floats(0.02, 0.98)) * (d - c))
    assume(check_condition_C(n, p, q, indices.s1, indices.s2).admissible)
    return n, indices


class TestZeta:
    def test_epsilon_zero_constants(self):
        z1, z2 = zeta_coefficients(PARAMS, IDX_C13, 0.0)
        assert z1 == pytest.approx(-0.5)
        assert z2 == pytest.approx(-0.125)

    def test_small_epsilon_values(self):
        # slopes are 6.125 and 5.125 at this selection with unit coefficients
        z1, z2 = zeta_coefficients(PARAMS, IDX_C13, 1e-3)
        assert z1 == pytest.approx(-0.493875, rel=1e-12)
        assert z2 == pytest.approx(-0.119875, rel=1e-12)

    def test_strictly_increasing_in_epsilon(self):
        za = zeta_coefficients(PARAMS, IDX_C13, 0.01)
        zb = zeta_coefficients(PARAMS, IDX_C13, 0.02)
        assert zb[0] > za[0] and zb[1] > za[1]

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ParameterError):
            zeta_coefficients(PARAMS, IDX_C13, -1.0)


class TestMaxEpsilon:
    def test_affine_roots(self):
        eps = max_admissible_epsilon(PARAMS, IDX_C13)
        assert eps == pytest.approx(min(0.5 / 6.125, 0.125 / 5.125))

    def test_doubling_coefficients_quarters_epsilon(self):
        doubled = ModelParams(chi=2.0, xi=2.0, alpha=2.0, beta=2.0, dim=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CoefficientConventionWarning)
            assert max_admissible_epsilon(doubled, IDX_C13) == pytest.approx(
                max_admissible_epsilon(PARAMS, IDX_C13) / 4.0)

    def test_midpoint_keeps_both_negative(self):
        eps = 0.5 * max_admissible_epsilon(PARAMS, IDX_C13)
        z1, z2 = zeta_coefficients(PARAMS, IDX_C13, eps)
        assert z1 < 0 and z2 < 0


class TestCoefficients:
    def test_convex_domain_zero_constant(self):
        eps = 0.5 * max_admissible_epsilon(PARAMS, IDX_C13)
        assert odi_coefficients(PARAMS, IDX_C13, eps, 1.0).c == 0.0

    def test_boundary_constant_enters_twice(self):
        params = ModelParams(chi=1.0, xi=1.0, dim=3, boundary_c=0.5)
        eps = 0.5 * max_admissible_epsilon(params, IDX_C13)
        assert odi_coefficients(params, IDX_C13, eps, 1.0).c == 1.0

    def test_epsilon_power_law(self):
        eps = 0.25 * max_admissible_epsilon(PARAMS, IDX_C13)
        a = odi_coefficients(PARAMS, IDX_C13, eps, 1.0)
        b = odi_coefficients(PARAMS, IDX_C13, eps / 2.0, 1.0)
        for mi_a, mi_b, eta in zip(a.m_i, b.m_i, a.eta_exponents):
            h = 2.0 * (eta - 1.0) * 3 / (5.0 - 3 * eta)
            assert mi_b == pytest.approx(mi_a * 2.0 ** h)

    def test_collapsed_exponents(self):
        eps = 0.5 * max_admissible_epsilon(PARAMS, IDX_C13)
        coeffs = odi_coefficients(PARAMS, IDX_C13, eps, 1.0)
        assert coeffs.eta_exponents == (1.5,) * 4
        assert coeffs.k_exponents == pytest.approx((3.0,) * 4)

    def test_nan_epsilon_is_half_the_supremum(self):
        eps = 0.5 * max_admissible_epsilon(PARAMS, IDX_C13)
        assert odi_coefficients(PARAMS, IDX_C13, math.nan, 1.0) == \
            odi_coefficients(PARAMS, IDX_C13, eps, 1.0)

    def test_epsilon_out_of_range(self):
        eps_max = max_admissible_epsilon(PARAMS, IDX_C13)
        with pytest.raises(ParameterError):
            odi_coefficients(PARAMS, IDX_C13, 2.0 * eps_max, 1.0)

    def test_warns_on_asymmetric_couplings(self):
        params = ModelParams(chi=1.0, xi=1.0, delta=2.0, dim=3)
        eps = 0.5 * max_admissible_epsilon(params, IDX_C13)
        with pytest.warns(CoefficientConventionWarning):
            odi_coefficients(params, IDX_C13, eps, 1.0)
        # and on the optimizer's path, which assembles without
        # odi_coefficients
        with pytest.warns(CoefficientConventionWarning):
            optimize_bound(params, 2.0, 4.0, 1.0, 1.0)

    def test_warns_once_per_optimize_query(self):
        params = ModelParams(chi=1.0, xi=1.0, delta=2.0, dim=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            optimize_bound(params, 2.0, 4.0, 1.0, 1.0)
        assert [w.category for w in caught] == [CoefficientConventionWarning]


class TestRhs:
    def _coeffs(self, mu1=0.0, c=0.0):
        return OdiCoefficients(m=2.0, m_i=(1.0, 2.0, 3.0, 4.0), mu1=mu1, c=c,
                               eta_exponents=(1.5,) * 4,
                               k_exponents=(3.0,) * 4, epsilon=0.01, C_GN=1.0)

    def test_at_zero(self):
        assert self._coeffs(c=0.7).denominator()(0.0) == pytest.approx(0.7)

    def test_at_one(self):
        coeffs = self._coeffs(mu1=0.3, c=0.7)
        assert coeffs.denominator()(1.0) == pytest.approx(
            4 * 2.0 + 10.0 + 0.3 + 0.7)

    def test_monotone(self):
        coeffs = self._coeffs(mu1=0.1)
        vals = [coeffs.denominator()(e) for e in (0.0, 0.5, 1.0, 5.0)]
        assert vals == sorted(vals)


class TestLowerBoundIntegral:
    def test_square_denominator(self):
        [result] = lower_bound_integral(Denominator.of(((1.0, 2.0),)), 1.0)
        assert result.t_lower == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("A,a,E0", [(1.0, 1.5, 0.1), (2.0, 5 / 3, 1.0),
                                        (0.5, 3.0, 10.0)])
    def test_single_power_closed_form(self, A, a, E0):
        [result] = lower_bound_integral(Denominator.of(((A, a),)), E0)
        exact = E0 ** (1.0 - a) / (A * (a - 1.0))
        assert result.t_lower == pytest.approx(exact, rel=1e-8)
        assert result.t_lower <= exact  # truncation is conservative

    def test_corollary13_denominator_reference(self):
        den = Denominator.of(((1.0, 1.5), (1.0, 3.0)))
        [result] = lower_bound_integral(den, 1.0)
        assert result.t_lower == pytest.approx(REF_C13_INTEGRAL, rel=1e-8)

    def test_truncation_monotone_in_S(self):
        den = Denominator.of(((1.0, 1.5), (1.0, 3.0)))
        values = []
        for S in (10.0, 1e2, 1e3, 1e4, 1e6):
            [result] = lower_bound_integral(den, 1.0, S)
            values.append(result.t_lower)
        assert values == sorted(values)

    def test_monotone_in_E0(self):
        den = Denominator.of(((1.0, 1.5), (1.0, 3.0)))
        [a], [b] = (lower_bound_integral(den, E0) for E0 in (0.5, 2.0))
        assert a.t_lower > b.t_lower

    # F overflows to inf far out on the range, where 1/F is below 1e-308
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(ni=admissible_indices(), frac=st.floats(0.01, 0.999),
           chi=st.floats(0, 20), mu1=st.floats(-5, 5),
           log_C_GN=st.floats(-1, 1), log_E0=st.floats(-2, 2))
    def test_scaling_inverse(self, ni, frac, chi, mu1, log_C_GN, log_E0):
        """Over admissible coefficients, the integral agrees with plain
        integrate.quad, and 3F integrates to a third of it on the same
        range."""
        n, indices = ni
        params = ModelParams(chi=chi, xi=1.0, mu1=mu1, dim=n)
        E0 = 10.0 ** log_E0
        try:
            den = odi_coefficients(
                params, indices, frac * max_admissible_epsilon(params, indices),
                10.0 ** log_C_GN).denominator()
            [base] = lower_bound_integral(den, E0)
        except (OverflowError, NonpositiveDenominatorError):
            assume(False)  # eps**(-h) out of float range, or F hits zero
        except ParameterError as exc:  # F(E0) out of float range
            assert "F(E0) overflows" in str(exc)
            assume(False)
        assert base.t_lower == pytest.approx(plain_quad(den, E0, base.S)[0],
                                             rel=REL_TOL, abs=0)
        scaled = Denominator(3.0 * den.coefs, den.expos, 3.0 * den.mu1,
                             3.0 * den.c)
        with np.errstate(over="ignore"):
            in_range = math.isfinite(scaled(base.S))
        if in_range:  # 1/(3F) is (1/F)/3 only where 3F does not overflow
            [third] = lower_bound_integral(scaled, E0, base.S)
            assert third.t_lower == pytest.approx(base.t_lower / 3.0,
                                                  rel=1e-9, abs=0)

    def test_divergence_without_superlinear_term(self):
        with pytest.raises(DivergenceError):
            lower_bound_integral(Denominator.of(((2.0, 1.0),), c=1.0), 1.0)

    def test_negative_mu1_root_reported(self):
        den = Denominator.of(((1.0, 2.0),), mu1=-10.0)
        with pytest.raises(NonpositiveDenominatorError) as exc_info:
            lower_bound_integral(den, 0.001)
        assert exc_info.value.root is not None

    def test_negative_mu1_root_bracketed(self, monkeypatch):
        # F(s) = s^2 - 3s + 2 is positive at E0 = 0.5 and vanishes at s = 1
        den = Denominator.of(((1.0, 2.0),), mu1=-3.0, c=2.0)
        brackets = []
        brentq = optimize.brentq

        def spy(f, a, b):
            brackets.append((a, b))
            return brentq(f, a, b)

        monkeypatch.setattr(optimize, "brentq", spy)
        with pytest.raises(NonpositiveDenominatorError) as exc_info:
            lower_bound_integral(den, 0.5)
        assert exc_info.value.root == pytest.approx(1.0)
        [(a, b)] = brackets
        assert a < 1.0 < b

    def test_negative_mu1_flagged_when_positive(self):
        den = Denominator.of(((1.0, 2.0),), mu1=-0.1)
        [result] = lower_bound_integral(den, 1.0)
        assert "negative_linear_term" in result.flags
        assert result.t_lower > 0

    def test_underflowing_F0_is_a_parameter_error(self):
        # (1e-200)**2 underflows to 0, though every term of F is positive
        with pytest.raises(ParameterError,
                           match=r"F\(E0\) underflows at E0=1e-200"):
            lower_bound_integral(Denominator.of(((1.0, 2.0),)), 1e-200)
        # a negative mu1 makes F(E0) negative; no positive term makes it 0
        for den in (Denominator.of(((1.0, 2.0),), mu1=-1.0),
                    Denominator.of(((0.0, 2.0),))):
            with pytest.raises(NonpositiveDenominatorError):
                lower_bound_integral(den, 1e-200)

    def test_rejects_nonpositive_E0(self):
        with pytest.raises(ParameterError):
            lower_bound_integral(Denominator.of(((1.0, 2.0),)), 0.0)

    def test_json_keys(self):
        result = corollary2_bound(1.0, 1.0)
        d = result.to_json_dict()
        assert set(d) >= {"t_lower", "S", "quad_error", "tail_upper",
                          "epsilon", "C_GN", "indices", "coeffs"}
        assert d["indices"]["eta"] == [1.5] * 4
        assert d["epsilon"] == result.coeffs.epsilon
        assert d["C_GN"] == 1.0


class TestGaussKronrodPass:
    """lower_bound_integral first tries QUADPACK's first 21-point
    Gauss-Kronrod pass in numpy and calls integrate.quad only when dqagse
    would not accept that pass."""

    @pytest.mark.parametrize("frac", [0.5, 0.999])
    @pytest.mark.parametrize("E0", [0.1, 1.0, 10.0])
    def test_accepted_pass_matches_quadpack(self, monkeypatch, frac, E0):
        eps = frac * max_admissible_epsilon(PARAMS, IDX_C13)
        den = odi_coefficients(PARAMS, IDX_C13, eps, 1.0).denominator()
        calls = quad_calls(monkeypatch)
        [result] = lower_bound_integral(den, E0)
        assert calls == []
        value, err, info = plain_quad(den, E0, result.S, full_output=1)
        assert info["neval"] == 21  # QUADPACK stops after its first pass too
        assert result.t_lower == pytest.approx(value, rel=1e-14, abs=0)
        assert result.quadrature_error == pytest.approx(err, rel=1e-6, abs=0)

    @pytest.mark.parametrize("den, E0, exact", [
        # slow decay over a long range
        (Denominator.of(((1.0, 1.5), (1.0, 3.0))), 1.0, REF_C13_INTEGRAL),
        # a negative linear term near the root of F = s**2 - s
        (Denominator.of(((1.0, 2.0),), mu1=-1.0), 1.05, math.log(21.0)),
    ], ids=["c13_reference", "near_root"])
    def test_rejected_pass_falls_back_to_quad(self, monkeypatch, den, E0,
                                              exact):
        calls = quad_calls(monkeypatch)
        [result] = lower_bound_integral(den, E0)
        assert len(calls) == 1
        assert result.quadrature_error == plain_quad(den, E0, result.S)[1]
        assert result.t_lower == pytest.approx(exact, rel=REL_TOL, abs=0)

    def test_overflowing_denominator_falls_back_to_quad(self, monkeypatch):
        # 100**300 overflows at the top of the range [10, 100]; the fallback
        # takes the integrand there as 0, without a RuntimeWarning
        den = Denominator.of(((1.0, 1.5), (1.0, 300.0)))
        calls = quad_calls(monkeypatch)
        [result] = lower_bound_integral(den, 10.0)
        assert len(calls) == 1
        with np.errstate(over="ignore"):
            assert result.t_lower == plain_quad(den, 10.0, result.S)[0]


def per_term_loop(den, s):
    """F with one power call per term, added in the same order."""
    s = np.asarray(s, dtype=float)
    out = np.full_like(s, den.c.item(), dtype=float)
    for coef, expo in zip(den.coefs[:, 0].tolist(), den.expos[:, 0].tolist()):
        out += coef * s ** expo
    out += den.mu1.item() * s
    return out if out.ndim else float(out)


class TestDenominator:
    # numpy takes s ** 2.0, s ** 0.5 and s ** -1.0 by square, sqrt and
    # reciprocal for a scalar exponent; 300 overflows
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("expos", [
        (1.47, 1.61, 1.57, 1.32, 4.81, 1.93, 2.5, 3.0),
        (1.5, 300.0),
        (2.0, 0.5, -1.0, 1.0, 1.7),
    ], ids=["eight_terms", "overflowing", "numpy_fast_powers"])
    def test_one_power_call_matches_per_term_loop(self, expos):
        rng = np.random.default_rng(7)
        for _ in range(40):
            coefs = (10.0 ** rng.uniform(-4, 4, len(expos))).tolist()
            den = Denominator.of(tuple(zip(coefs, expos)),
                                 float(rng.uniform(-3, 3)),
                                 float(rng.choice([0.0, rng.uniform(0, 5)])))
            for s in (float(rng.uniform(0.01, 100)),
                      np.exp(rng.uniform(-3, 8, 21)),
                      np.exp(rng.uniform(-3, 3, (3, 4)))):
                value, expected = den(s), per_term_loop(den, s)
                assert type(value) is type(expected)
                assert np.shape(value) == np.shape(expected)
                assert np.asarray(value).tobytes() == \
                    np.asarray(expected).tobytes()


# rows of one number of terms (zero coefficients pad them to eight), each
# taking one path of lower_bound_integral at E0 = 10
_PAD = ((0.0, 1.5),) * 6
BATCH_ROWS = {
    # the first Gauss-Kronrod pass is accepted
    "accepted": odi_coefficients(
        PARAMS, IDX_C13, 0.5 * max_admissible_epsilon(PARAMS, IDX_C13),
        1.0).denominator(),
    # the pass is rejected and integrate.quad runs
    "quad": Denominator.of(((1.0, 1.5), (1.0, 3.0)) + _PAD),
    # 100**300 overflows at the top of the range [10, 100]
    "overflowing": Denominator.of(((1.0, 1.5), (1.0, 300.0)) + _PAD),
    # a negative linear term, scanned for a root and flagged
    "negative_mu1": Denominator.of(((1.0, 1.5), (1.0, 2.0)) + _PAD, mu1=-0.5),
}
# F(10) = 100 - 100 = 0
NONPOSITIVE = Denominator.of(((1.0, 2.0), (0.0, 1.5)) + _PAD, mu1=-10.0)
# no superlinear term with a positive coefficient
DIVERGENT = Denominator.of(((2.0, 1.0), (0.0, 1.5)) + _PAD, c=1.0)
# S = (2e-17)**(-100) is past float range
OVERFLOWING_S = Denominator.of(((1e-3, 1.01), (1e-3, 1.01)) + _PAD)
# F(10) = 10**400 + ... is past float range
OVERFLOWING_F0 = Denominator.of(((1.0, 1.5), (1.0, 400.0)) + _PAD)


def concat(dens) -> Denominator:
    """The rows of `dens`, one number of terms, as one Denominator."""
    return Denominator(*(np.concatenate([getattr(d, name) for d in dens],
                                        axis=-1)
                         for name in ("coefs", "expos", "mu1", "c")))


def batch(dens, *args, **kwargs):
    """lower_bound_integral on the rows of `dens` as one Denominator."""
    return lower_bound_integral(concat(dens), *args, **kwargs)


def solo(dens, E0):
    """Each denominator's one row, integrated alone."""
    return [row for d in dens for row in lower_bound_integral(d, E0)]


class TestBatchedIntegral:
    """A Denominator of K rows is one batch, and each row's result is bit
    for bit the one it gets alone."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_batch_matches_solo_calls(self, monkeypatch):
        dens = list(BATCH_ROWS.values())
        alone = solo(dens, 10.0)
        calls = quad_calls(monkeypatch)
        rows = batch(dens * 2, 10.0)
        assert len(calls) == 6  # quad, overflowing and negative_mu1, twice
        assert rows == alone * 2  # every field, compared with ==
        assert [row.flags for row in rows[:4]] == \
            [(), (), (), ("negative_linear_term",)]

    def test_lone_denominator_is_a_batch_of_one(self):
        den = BATCH_ROWS["accepted"]
        [row] = lower_bound_integral(den, 10.0)
        assert isinstance(row, BoundResult)
        assert batch([den], 10.0) == [row]

    def test_take_gives_the_rows_alone(self):
        dens = list(BATCH_ROWS.values())
        both = concat(dens)
        for k, den in enumerate(dens):
            row = both.take([k])
            for name in ("coefs", "expos", "mu1", "c"):
                assert getattr(row, name).tolist() == \
                    getattr(den, name).tolist()
            assert row(3.0) == den(3.0)
        assert both.take([3, 1]).mu1.tolist() == [-0.5, 0.0]

    def test_only_one_row_is_called(self):
        with pytest.raises(ValueError, match="4 rows"):
            concat(BATCH_ROWS.values())(1.0)

    @pytest.mark.parametrize("rows, error", [
        ([NONPOSITIVE, DIVERGENT], NonpositiveDenominatorError),
        ([DIVERGENT, NONPOSITIVE], DivergenceError),
        ([OVERFLOWING_S, NONPOSITIVE], OverflowError),
    ], ids=["nonpositive_first", "divergent_first", "overflow_first"])
    def test_first_failing_row_raises_its_solo_error(self, rows, error):
        with pytest.raises(error) as solo:
            lower_bound_integral(rows[0], 10.0)
        good = list(BATCH_ROWS.values())[:2]
        with pytest.raises(error) as batched:
            batch(good + rows + good, 10.0)
        assert str(batched.value) == str(solo.value)
        if error is NonpositiveDenominatorError:
            assert batched.value.root == solo.value.root == 10.0

    def test_skipped_rows_give_none(self):
        good = BATCH_ROWS["accepted"]
        assert batch([OVERFLOWING_S, good, OVERFLOWING_S], 10.0,
                     skip=OverflowError) == \
            [None, *lower_bound_integral(good, 10.0), None]
        assert batch([OVERFLOWING_S], 10.0, skip=OverflowError) == [None]
        # only the exception types named are skipped
        with pytest.raises(NonpositiveDenominatorError):
            batch([good, NONPOSITIVE], 10.0, skip=OverflowError)

    def test_row_with_overflowing_F0_is_skipped(self):
        # alone, such a row is an E0 error; in a batch it is one bad row
        dens = list(BATCH_ROWS.values())
        assert batch([OVERFLOWING_F0, *dens, OVERFLOWING_F0], 10.0,
                     skip=OverflowError) == [None, *solo(dens, 10.0), None]
        with pytest.raises(OverflowError, match=r"F\(E0\) overflows"):
            batch(dens + [OVERFLOWING_F0], 10.0)
        with pytest.raises(ParameterError,
                           match=r"F\(E0\) overflows at E0=10.0"):
            lower_bound_integral(OVERFLOWING_F0, 10.0, skip=OverflowError)
        with pytest.raises(ParameterError,
                           match=r"F\(E0\) overflows at E0=10.0"):
            batch([OVERFLOWING_F0] * 2, 10.0, skip=OverflowError)


class TestOptimize:
    def test_dominates_corollary1_selection(self):
        result = optimize_bound(PARAMS, 2.0, 4.0, 1.0, 1.0)
        reference = corollary1_bound(2.0, 1.0, 1.0)
        assert result.t_lower >= reference.t_lower * (1.0 - 1e-12)

    def test_returns_interior_admissible_point(self):
        result = optimize_bound(PARAMS, 2.0, 4.0, 1.0, 1.0)
        idx = result.indices
        # open box for (n=3, p=2, q=4): s1 in (5/2, 10/3), s2 in (10/7, 5/3)
        assert 2.5 < idx.s1 < 10.0 / 3.0
        assert 10.0 / 7.0 < idx.s2 < 5.0 / 3.0
        assert 0 < result.coeffs.epsilon < max_admissible_epsilon(PARAMS, idx)

    def test_infeasible_box(self):
        # q = n: the s1 interval is empty
        for p in (2.0, 2.5):
            with pytest.raises(InfeasibleError, match="empty admissible"):
                optimize_bound(PARAMS, p, 3.0, 1.0, 1.0)

    def test_condition_C_checked_once_per_query(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return check_condition_C(*args)

        monkeypatch.setattr(odi, "check_condition_C", counted)
        optimize_bound(PARAMS, 2.0, 4.0, 1.0, 1.0)
        assert len(calls) == 2

    def _scored(self, monkeypatch):
        """The (s1, s2) arrays of every batch optimize_bound scores, each
        call of the coefficient assembly as (etas, epsilon, table, errors),
        the tables it integrates, and the result it returns.  The last
        assembly is the winner's, rebuilt as one row."""
        candidates, assembled, tables = [], [], []

        def etas(p, q, s1, s2):
            candidates.append((s1.tolist(), s2.tolist()))
            return eta_formulas(p, q, s1, s2)

        def coefficients(params, p, q, etas, epsilon, eps_max, C_GN):
            table, errors = table_of(params, p, q, etas, epsilon, eps_max,
                                     C_GN)
            assembled.append((etas, epsilon, table, errors))
            return table, errors

        def integral(den, *args, **kwargs):
            tables.append(den)
            return lower_bound_integral(den, *args, **kwargs)

        table_of = odi._coefficient_table
        monkeypatch.setattr(odi, "eta_formulas", etas)
        monkeypatch.setattr(odi, "_coefficient_table", coefficients)
        monkeypatch.setattr(odi, "lower_bound_integral", integral)
        best = optimize_bound(PARAMS, 2.0, 4.0, 1.0, 1.0)
        return candidates, assembled, tables, best

    def test_every_scored_candidate_admissible(self, monkeypatch):
        candidates, assembled, tables, _ = self._scored(monkeypatch)
        assert sum(len(s1) for s1, _ in candidates) > COARSE_GRID ** 2
        # every assembled batch is integrated whole, in order, and then the
        # winner alone is assembled again
        assert len(assembled) == len(tables) + 1 == len(candidates) + 1
        assert all(table is den for (_, _, table, _), den
                   in zip(assembled, tables))
        assert assembled[-1][2].coefs.shape == (8, 1)
        for s1s, s2s in candidates:
            for s1, s2 in zip(s1s, s2s):
                assert check_condition_C(3, 2.0, 4.0, s1, s2).admissible

    @pytest.mark.parametrize("margin", [BOUNDARY_MARGIN])
    def test_epsilon_at_top_of_its_range(self, monkeypatch, margin):
        candidates, assembled, _, best = self._scored(monkeypatch)
        for (s1s, s2s), (_, epsilon, _, _) in zip(candidates, assembled):
            for s1, s2, eps in zip(s1s, s2s, epsilon.tolist()):
                eps_max = max_admissible_epsilon(
                    PARAMS, EnergyIndices(2.0, 4.0, s1, s2))
                assert eps == (1.0 - margin) * eps_max
        # the winner is a scored row, and its one-row rebuild is that row
        idx = best.indices
        batch, k = next((i, k) for i, (s1s, s2s) in enumerate(candidates)
                        for k, s12 in enumerate(zip(s1s, s2s))
                        if s12 == (idx.s1, idx.s2))
        etas, epsilon, table, _ = assembled[batch]
        assert best.coeffs.epsilon == epsilon[k] == \
            (1.0 - margin) * max_admissible_epsilon(PARAMS, idx)
        assert assembled[-1][2].coefs[:, 0].tolist() == \
            table.coefs[:, k].tolist() == \
            [best.coeffs.m] * 4 + list(best.coeffs.m_i)
        assert etas[:, k].tolist() == list(best.coeffs.eta_exponents)

    def test_scores_grid_and_sweeps_in_batches(self, monkeypatch):
        _, _, tables, _ = self._scored(monkeypatch)
        rows = [table.coefs.shape[1] for table in tables]
        # the grid and the seed q = 2p adds, as one table
        assert rows[0] == COARSE_GRID ** 2 + 1
        assert 1 < len(rows) <= 1 + REFINE_ITERS
        # each sweep's four trials with those of the next halvings of d
        assert all(1 <= k <= 4 * SWEEP_LEVELS for k in rows[1:])

    # (t_lower, s1, s2, epsilon) with chi = xi = 1, E0 = 1 and C_GN = 1 at
    # the optimize-bound points of the benchmark, as scored one candidate at
    # a time before the batches
    @pytest.mark.parametrize("n, p, q, expected", [
        (3, 2.0, 4.0, (2.0517899031969823e-11, 2.9948191425452637,
                       1.5018063608357415, 0.024524521543859236)),
        (3, 3.0, 6.0, (3.459702702452726e-05, 3.951780788600445,
                       2.0051780048913006, 0.02046608053939534)),
        (4, 3.0, 6.0, (3.529300603464041e-09, 3.984252443537116,
                       2.0011257491074494, 0.014529145331343803)),
        (5, 4.0, 8.0, (1.2856767899389032e-08, 4.974202286824585,
                       2.498762570608121, 0.009312803328412021)),
    ])
    def test_pinned_optimum(self, n, p, q, expected):
        best = optimize_bound(ModelParams(chi=1.0, xi=1.0, dim=n), p, q, 1.0,
                              1.0)
        assert (best.t_lower, best.indices.s1, best.indices.s2,
                best.coeffs.epsilon) == expected

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_truncation_point_is_left_out(self, monkeypatch):
        """At p = 50, q = 100 some candidates' S overflows float range; they
        are left out, as when each candidate was scored alone."""
        left_out = []

        def integral(dens, *args, **kwargs):
            out = lower_bound_integral(dens, *args, **kwargs)
            left_out.extend(row for row in out if row is None)
            return out

        monkeypatch.setattr(odi, "lower_bound_integral", integral)
        best = optimize_bound(PARAMS, 50.0, 100.0, 1.0, 1.0)
        assert left_out
        assert (best.t_lower, best.indices.s1, best.indices.s2,
                best.coeffs.epsilon) == (0.020927072452845925,
                                         51.67631658534195,
                                         25.016666666666666,
                                         0.001563730734606484)


def scored_alone(params, indices, E0, C_GN):
    """One candidate's bound as the search scored it alone: bound_at_indices
    at epsilon = (1 - BOUNDARY_MARGIN) * its supremum, whose coefficients
    must be the scalar formulas' with Python's powers; None where they, S
    or F(E0) overflow, as a batch leaves such a candidate out."""
    n = params.dim
    eps = (1.0 - BOUNDARY_MARGIN) * max_admissible_epsilon(params, indices)
    try:
        out = bound_at_indices(params, indices, E0, C_GN, eps)
    except OverflowError:
        return None
    except ParameterError as exc:
        assert "F(E0) overflows" in str(exc)
        return None
    p, q = float(indices.p), float(indices.q)
    M = max(p * (params.xi ** 2 + params.chi ** 2),
            (n / 4.0 + q - 2.0) * (params.alpha ** 2 + params.beta ** 2))
    etas = tuple(float(e) for e in indices.eta)
    assert out.coeffs.m_i == tuple(
        M * C3_coef(e, n, C_GN) * eps ** -h_exponent(e, n) for e in etas)
    assert out.coeffs.k_exponents == tuple(k_exponent(e, n) for e in etas)
    return out


def one_at_a_time(params, p, q, E0, C_GN):
    """optimize_bound's search with each candidate scored alone: the grid,
    then sweeps of four trials, each that does not improve the best point
    halving the step; the best is taken with a strict `>` in candidate
    order."""
    n = params.dim
    (a, b), (c, d) = feasible_box(n, p, q)
    w1, w2, mar = b - a, d - c, BOUNDARY_MARGIN
    lo1, hi1, lo2, hi2 = a + mar * w1, b - mar * w1, c + mar * w2, d - mar * w2
    if not (check_condition_C(n, p, q, lo1, lo2).admissible
            and check_condition_C(n, p, q, hi1, hi2).admissible):
        raise InfeasibleError(
            f"empty admissible (s1, s2) box for n={n}, p={p}, q={q}")

    def bound(s1, s2):
        indices = EnergyIndices(p, q, min(max(s1, lo1), hi1),
                                min(max(s2, lo2), hi2))
        return scored_alone(params, indices, E0, C_GN)

    grid = [(float(s1), float(s2))
            for s1 in np.linspace(lo1, hi1, COARSE_GRID)
            for s2 in np.linspace(lo2, hi2, COARSE_GRID)]
    if q == 2 * p:
        grid.append(tuple(map(float, corollary1_parameters(p, n)[1:])))
    best = None
    for cand in grid:
        out = bound(*cand)
        if out is not None and (best is None or out.t_lower > best.t_lower):
            best = out
    if best is None:
        raise InfeasibleError("no admissible candidate found in the box")
    d1, d2 = 0.25 * w1, 0.25 * w2
    for _ in range(REFINE_ITERS):
        s1, s2 = best.indices.s1, best.indices.s2
        improved = False
        for trial in ((s1 + d1, s2), (s1 - d1, s2), (s1, s2 + d2),
                      (s1, s2 - d2)):
            out = bound(*trial)
            if out is not None and out.t_lower > best.t_lower:
                best, improved = out, True
        if not improved:
            d1, d2 = 0.5 * d1, 0.5 * d2
            if max(d1, d2) < 1e-10:
                break
    return best


def assert_matches_one_at_a_time(params, p, q, E0, C_GN):
    """optimize_bound gives the one-at-a-time search's result bit for bit,
    or raises what it raises."""
    try:
        expected = one_at_a_time(params, p, q, E0, C_GN)
    except (InfeasibleError, NonpositiveDenominatorError,
            DivergenceError) as exc:
        with pytest.raises(type(exc)) as raised:
            optimize_bound(params, p, q, E0, C_GN)
        assert str(raised.value) == str(exc)
        return
    assert optimize_bound(params, p, q, E0, C_GN) == expected


class TestOneAtATimeOracle:
    """Scoring the grid, and each sweep with the next two halvings of its
    step, as arrays takes the path and gives the bound of scoring one
    candidate at a time with the scalar assembly."""

    @pytest.mark.parametrize("n, p, q", [(3, 2.0, 4.0), (3, 3.0, 6.0),
                                         (4, 3.0, 6.0), (5, 4.0, 8.0)])
    def test_pinned_points(self, n, p, q):
        assert_matches_one_at_a_time(ModelParams(chi=1.0, xi=1.0, dim=n),
                                     p, q, 1.0, 1.0)

    def test_failing_sweep_is_scored_alone(self, monkeypatch):
        """F vanishes on the range of some trials here: a batch holding one
        raises, so its first sweep is scored alone, and the query raises
        what the search one candidate at a time raises."""
        batches = []

        def integral(den, *args, **kwargs):
            batches.append(den.coefs.shape[1])
            return lower_bound_integral(den, *args, **kwargs)

        monkeypatch.setattr(odi, "lower_bound_integral", integral)
        params = ModelParams(chi=0.9409039742962038, xi=0.14323718870529378,
                             mu1=-0.18510462519544782, dim=4)
        with pytest.raises(NonpositiveDenominatorError):
            optimize_bound(params, 7.124632584217193, 12.157047534999112,
                           0.011107270348609331, 0.002244929109070634)
        assert 4 in batches
        assert_matches_one_at_a_time(params, 7.124632584217193,
                                     12.157047534999112,
                                     0.011107270348609331,
                                     0.002244929109070634)

    # F overflows to inf far out on the range, where 1/F is below 1e-308
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(3, 5), fq=st.floats(0.02, 1), fp=st.floats(0.02, 0.98),
           log_E0=st.floats(-1, 2), chi=st.floats(0, 20), xi=st.floats(0, 20),
           mu1=st.floats(-1, 1))
    def test_admissible_points(self, n, fq, fp, log_E0, chi, xi, mu1):
        q = n + 3.0 * n * fq
        p_lo = n * q / (n + q)
        p = p_lo + (3.0 * n - p_lo) * fp
        (a, b), (c, d) = feasible_box(n, p, q)
        assume(b > a and d > c)
        assert_matches_one_at_a_time(
            ModelParams(chi=chi, xi=xi, mu1=mu1, dim=n), p, q,
            10.0 ** log_E0, 1.0)


class TestEpsilonMonotone:
    """The search pins epsilon at the top of its range because the bound
    cannot fall as epsilon grows: each m_i falls and S rises."""

    # F overflows to inf far out on the range, where 1/F is below 1e-308
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(ni=admissible_indices(),
           fa=st.floats(0.01, 0.999), fb=st.floats(0.01, 0.999),
           boundary_c=st.one_of(st.just(0.0), st.floats(0.01, 10)),
           mu1=st.floats(-5, 5), chi=st.floats(0, 20), xi=st.floats(0, 20),
           log_E0=st.floats(-2, 2))
    def test_t_lower_nondecreasing_in_epsilon(self, ni, fa, fb, boundary_c,
                                              mu1, chi, xi, log_E0):
        n, indices = ni
        params = ModelParams(chi=chi, xi=xi, mu1=mu1, dim=n,
                             boundary_c=boundary_c)
        eps_max = max_admissible_epsilon(params, indices)
        lo, hi = sorted((fa, fb))
        try:
            t_lo, t_hi = (
                bound_at_indices(params, indices, 10.0 ** log_E0, 1.0,
                                 float(f * eps_max)).t_lower
                for f in (lo, hi))
        except (OverflowError, NonpositiveDenominatorError):
            assume(False)  # eps**(-h) out of float range, or F hits zero
        except ParameterError as exc:  # F(E0) out of float range
            assert "F(E0) overflows" in str(exc)
            assume(False)
        assert t_hi >= t_lo * (1.0 - 1e-9)


class TestCorollaries:
    def test_corollary2_matches_generic_pipeline(self):
        eps = 0.5 * max_admissible_epsilon(PARAMS, IDX_C13)
        coeffs = odi_coefficients(PARAMS, IDX_C13, eps, 1.0)
        [generic] = lower_bound_integral(coeffs.denominator(), 1.0)
        shortcut = corollary2_bound(1.0, 1.0)
        assert shortcut.t_lower == generic.t_lower
        assert shortcut.S == generic.S
        assert shortcut.coeffs == coeffs

    def test_corollary13_exponents(self):
        result = corollary2_bound(1.0, 1.0)
        assert set(result.coeffs.eta_exponents) == {1.5}
        assert result.coeffs.k_exponents == pytest.approx((3.0,) * 4)

    def test_convex_g_zero_denominator_has_no_affine_part(self):
        result = corollary1_bound(2.0, 1.0, 1.0)
        assert result.coeffs.mu1 == 0.0
        assert result.coeffs.c == 0.0

    def test_corollary1_rejects_small_p(self):
        with pytest.raises(ParameterError):
            corollary1_bound(1.0, 1.0, 1.0)


# SHA-256 of repr of every BoundResult field, recorded at commit f9ee73d:
# the 48 corollary bound queries of the benchmark (its 8 points at its 6
# E0), each through the command line's bound path with C_GN estimated on
# the default grid, then optimize_bound at the four points of
# test_pinned_optimum
BOUND_RESULTS_SHA256 = \
    "004e3d167d585a95e4c334da537239424a734a6339a0c76c481ef91b0276347d"


def test_bound_results_pinned():
    digest, memo = hashlib.sha256(), {}
    results = []
    for text in [f"model.dim = {n}\nbound.corollary = 1\nindices.p = {p}\n"
                 for n, p in ((3, 3), (3, 4), (4, 4), (5, 5))] + \
                [f"model.dim = {n}\nbound.corollary = 2\n"
                 for n in (3, 4, 5, 6)]:
        cfg, _ = cfgmod.parse_config_text(text)
        for E0 in (0.1, 0.3, 1.0, 3.0, 10.0, 100.0):
            results.append(cli.bound_from_config(
                cfg, cfgmod.build_model(cfg), cfgmod.build_grid(cfg),
                cli.resolve_indices(cfg), E0, memo)[0])
    for n, p, q in ((3, 2.0, 4.0), (3, 3.0, 6.0), (4, 3.0, 6.0),
                    (5, 4.0, 8.0)):
        results.append(optimize_bound(ModelParams(chi=1.0, xi=1.0, dim=n),
                                      p, q, 1.0, 1.0))
    for result in results:
        for field in fields(BoundResult):
            digest.update(repr(getattr(result, field.name)).encode() + b"\n")
    assert digest.hexdigest() == BOUND_RESULTS_SHA256

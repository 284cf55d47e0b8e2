"""Coefficient assembly and lower-bound quadrature."""

import math
import warnings

import pytest

from chemobound import odi
from chemobound.errors import (DivergenceError, InfeasibleError,
                               NonpositiveDenominatorError, ParameterError)
from chemobound.exponents import (EnergyIndices, ModelParams,
                                  check_condition_C, corollary1_parameters,
                                  corollary2_parameters)
from chemobound.odi import (CoefficientConventionWarning, Denominator,
                            OdiCoefficients, OptConfig, QuadConfig,
                            bound_at_indices, lower_bound_integral,
                            max_admissible_epsilon, odi_coefficients, odi_rhs,
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


class TestRhs:
    def _coeffs(self, mu1=0.0, c=0.0):
        return OdiCoefficients(m=2.0, m_i=(1.0, 2.0, 3.0, 4.0), mu1=mu1, c=c,
                               eta_exponents=(1.5,) * 4,
                               k_exponents=(3.0,) * 4, epsilon=0.01, C_GN=1.0)

    def test_at_zero(self):
        assert odi_rhs(self._coeffs(c=0.7), 0.0) == pytest.approx(0.7)

    def test_at_one(self):
        coeffs = self._coeffs(mu1=0.3, c=0.7)
        assert odi_rhs(coeffs, 1.0) == pytest.approx(4 * 2.0 + 10.0 + 0.3 + 0.7)

    def test_monotone(self):
        coeffs = self._coeffs(mu1=0.1)
        vals = [odi_rhs(coeffs, e) for e in (0.0, 0.5, 1.0, 5.0)]
        assert vals == sorted(vals)


class TestLowerBoundIntegral:
    def test_square_denominator(self):
        result = lower_bound_integral(Denominator(((1.0, 2.0),)), 1.0)
        assert result.t_lower == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("A,a,E0", [(1.0, 1.5, 0.1), (2.0, 5 / 3, 1.0),
                                        (0.5, 3.0, 10.0)])
    def test_single_power_closed_form(self, A, a, E0):
        result = lower_bound_integral(Denominator(((A, a),)), E0)
        exact = E0 ** (1.0 - a) / (A * (a - 1.0))
        assert result.t_lower == pytest.approx(exact, rel=1e-8)
        assert result.t_lower <= exact  # truncation is conservative

    def test_corollary13_denominator_reference(self):
        den = Denominator(((1.0, 1.5), (1.0, 3.0)))
        result = lower_bound_integral(den, 1.0)
        assert result.t_lower == pytest.approx(REF_C13_INTEGRAL, rel=1e-8)

    def test_truncation_monotone_in_S(self):
        den = Denominator(((1.0, 1.5), (1.0, 3.0)))
        values = []
        for S in (10.0, 1e2, 1e3, 1e4, 1e6):
            cfg = QuadConfig(truncation_point=S)
            values.append(lower_bound_integral(den, 1.0, cfg).t_lower)
        assert values == sorted(values)

    def test_monotone_in_E0(self):
        den = Denominator(((1.0, 1.5), (1.0, 3.0)))
        a = lower_bound_integral(den, 0.5).t_lower
        b = lower_bound_integral(den, 2.0).t_lower
        assert a > b

    def test_scaling_inverse(self):
        den = odi_coefficients(PARAMS, IDX_C13, math.nan, 1.0).denominator()
        scaled = Denominator(tuple((3.0 * A, a) for A, a in den.terms),
                             3.0 * den.mu1, 3.0 * den.c)
        base = lower_bound_integral(den, 1.0).t_lower
        assert lower_bound_integral(scaled, 1.0).t_lower == pytest.approx(
            base / 3.0, rel=1e-9)

    def test_divergence_without_superlinear_term(self):
        with pytest.raises(DivergenceError):
            lower_bound_integral(Denominator(((2.0, 1.0),), c=1.0), 1.0)

    def test_negative_mu1_root_reported(self):
        den = Denominator(((1.0, 2.0),), mu1=-10.0)
        with pytest.raises(NonpositiveDenominatorError) as exc_info:
            lower_bound_integral(den, 0.001)
        assert exc_info.value.root is not None

    def test_negative_mu1_flagged_when_positive(self):
        den = Denominator(((1.0, 2.0),), mu1=-0.1)
        result = lower_bound_integral(den, 1.0)
        assert "negative_linear_term" in result.flags
        assert result.t_lower > 0

    def test_rejects_nonpositive_E0(self):
        with pytest.raises(ParameterError):
            lower_bound_integral(Denominator(((1.0, 2.0),)), 0.0)

    def test_json_keys(self):
        result = corollary2_bound(1.0, 1.0)
        d = result.to_json_dict()
        assert set(d) >= {"t_lower", "S", "quad_error", "tail_upper",
                          "epsilon", "C_GN", "indices", "coeffs"}
        assert d["indices"]["eta"] == [1.5] * 4
        assert d["epsilon"] == result.coeffs.epsilon
        assert d["C_GN"] == 1.0


class TestOptimize:
    OPT = OptConfig(coarse_grid=4, eps_grid=4, refine_iters=25)

    def test_dominates_corollary1_selection(self):
        s1, s2, eps, result = optimize_bound(PARAMS, 2.0, 4.0, 1.0, 1.0,
                                             self.OPT)
        reference = corollary1_bound(2.0, 1.0, 1.0)
        assert result.t_lower >= reference.t_lower * (1.0 - 1e-12)

    def test_returns_interior_admissible_point(self):
        s1, s2, eps, result = optimize_bound(PARAMS, 2.0, 4.0, 1.0, 1.0,
                                             self.OPT)
        # open box for (n=3, p=2, q=4): s1 in (5/2, 10/3), s2 in (10/7, 5/3)
        assert 2.5 < s1 < 10.0 / 3.0
        assert 10.0 / 7.0 < s2 < 5.0 / 3.0
        idx = EnergyIndices(2.0, 4.0, s1, s2)
        assert 0 < eps < max_admissible_epsilon(PARAMS, idx)

    def test_infeasible_box(self):
        # q = n: the s1 interval is empty
        for p in (2.0, 2.5):
            with pytest.raises(InfeasibleError, match="empty admissible"):
                optimize_bound(PARAMS, p, 3.0, 1.0, 1.0, self.OPT)

    def test_condition_C_checked_once_per_query(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return check_condition_C(*args)

        monkeypatch.setattr(odi, "check_condition_C", counted)
        optimize_bound(PARAMS, 2.0, 4.0, 1.0, 1.0, self.OPT)
        assert len(calls) == 2

    def test_every_scored_candidate_admissible(self, monkeypatch):
        scored = []

        def spy(params, indices, *args, **kwargs):
            scored.append(indices)
            return bound_at_indices(params, indices, *args, **kwargs)

        monkeypatch.setattr(odi, "bound_at_indices", spy)
        optimize_bound(PARAMS, 2.0, 4.0, 1.0, 1.0, self.OPT)
        assert len(scored) > self.OPT.coarse_grid ** 2 * self.OPT.eps_grid
        for idx in scored:
            assert check_condition_C(3, idx.p, idx.q, idx.s1, idx.s2).admissible

    @pytest.mark.parametrize("margin", [0.0, 0.5, 0.6, -0.1])
    def test_boundary_margin_outside_open_half_interval(self, margin):
        with pytest.raises(ParameterError, match="boundary_margin"):
            OptConfig(boundary_margin=margin)


class TestQuadConfig:
    @pytest.mark.parametrize("field, value", [
        ("rel_tol", -1.0), ("rel_tol", 0.0), ("rel_tol", 1e-15),
        ("rel_tol", math.nan), ("tail_tol", 0.0)])
    def test_rejects_value_quadpack_cannot_use(self, field, value):
        with pytest.raises(ParameterError, match=field):
            QuadConfig(**{field: value})


class TestCorollaries:
    def test_corollary2_matches_generic_pipeline(self):
        eps = 0.5 * max_admissible_epsilon(PARAMS, IDX_C13)
        coeffs = odi_coefficients(PARAMS, IDX_C13, eps, 1.0)
        generic = lower_bound_integral(coeffs.denominator(), 1.0)
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

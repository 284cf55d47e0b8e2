"""Exact-arithmetic checks of the exponent algebra."""

import hashlib
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemobound.errors import ParameterError
from chemobound.exponents import (EnergyIndices, ModelParams,
                                  C1_coef, C3_coef, check_condition_C,
                                  compute_etas, corollary1_parameters,
                                  corollary2_parameters, etas_in_range,
                                  feasible_box, feasible_region_samples,
                                  h_exponent,
                                  k_exponent, write_region_csv)
from chemobound.odi import odi_coefficients
from chemobound.verify import equivalence_lattice

F = Fraction


class TestComputeEtas:
    def test_collapsed_selection_p3(self):
        assert compute_etas(3, 6, 4, 2) == (F(4, 3),) * 4

    def test_collapsed_selection_p2(self):
        assert compute_etas(2, 4, 3, F(3, 2)) == (F(3, 2),) * 4

    def test_inadmissible_tuple(self):
        assert compute_etas(2, 4, 2, 2) == (2, 2, 1, 1)

    def test_exact_on_rational_inputs(self):
        etas = compute_etas(F(5, 2), 5, F(7, 2), F(9, 5))
        assert all(isinstance(e, Fraction) for e in etas)

    def test_rejects_s_at_one(self):
        with pytest.raises(ParameterError):
            compute_etas(2, 4, 1, 2)
        with pytest.raises(ParameterError):
            compute_etas(2, 4, 3, 1)

    def test_rejects_nonpositive_pq(self):
        with pytest.raises(ParameterError):
            compute_etas(0, 4, 3, 2)

    def test_underflowing_eta_2_denominator_named(self):
        # q * (s2 - 1) underflows to 0.0 in floats
        args = (1.0, 5e-324, 2.0, 1.0000000000000002)
        for build in (compute_etas, EnergyIndices):
            with pytest.raises(ParameterError, match=r"indices p=1\.0, "
                               r"q=5e-324, s1=2\.0, s2=1\.0000000000000002"):
                build(*args)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("slot", range(4))
    def test_rejects_nonfinite_float(self, slot, bad):
        args = [3.0, 6.0, 4.0, 2.0]
        args[slot] = bad
        with pytest.raises(ParameterError):
            compute_etas(*args)
        with pytest.raises(ParameterError):
            EnergyIndices(*args)


class TestConditionC:
    def test_corollary13_selection_admissible(self):
        report = check_condition_C(3, 2, 4, 3, F(3, 2))
        assert report.admissible
        assert all(c.passed for c in report.clauses)

    def test_q_equal_n_inadmissible(self):
        report = check_condition_C(3, 2, 3, 3, F(3, 2))
        assert not report.admissible
        failed = {c.name for c in report.clauses if not c.passed}
        assert "q > n" in failed

    def test_corollary12_selection_admissible(self):
        assert check_condition_C(3, 3, 6, 4, 2).admissible

    def test_boundary_equality_inadmissible(self):
        # s1 exactly at the upper end (1 + 2/n) q / 2 = 10/3 for n=3, q=4
        report = check_condition_C(3, 2, 4, F(10, 3), F(3, 2))
        assert not report.admissible

    def test_underflowing_eta_2_denominator_gives_no_etas(self):
        report = check_condition_C(3, 1.0, 5e-324, 2.0, 1.0000000000000002)
        assert report.etas is None
        assert not report.etas_in_range
        assert not report.admissible

    def test_float_eta_on_singular_point_inadmissible(self):
        # p two ulps above nq/(n+q): every clause passes by an ulp, yet
        # eta_2 rounds to exactly 1 + 2/n, where k and h are singular
        report = check_condition_C(6, 4.285714285714288, 15.0, 8.75,
                                   2.8571428571428577)
        assert all(c.passed for c in report.clauses)
        assert report.etas[2] == 1.0 + 2.0 / 6
        assert not report.etas_in_range
        assert not report.admissible

    def test_reports_on_lattice_pinned(self):
        # every report on the exact and the float form of each point of
        # equivalence_lattice(3): verdict, clauses, etas and margin
        digest = hashlib.sha256()
        for point in equivalence_lattice(3):
            for args in (point, tuple(map(float, point))):
                r = check_condition_C(3, *args)
                digest.update(repr((
                    r.admissible,
                    [(c.passed, repr(c.margin)) for c in r.clauses],
                    r.etas, r.etas_in_range, repr(r.margin))).encode())
        assert digest.hexdigest() == ("664099364b35d723537f65e3893640fa"
                                      "3c51d8b1a471d25275a566fa6c5ac07b")

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("slot", range(4))
    def test_nonfinite_float_rejected(self, slot, bad):
        # the float comparisons would read inf as a passing or failing
        # clause and report an infinite margin
        args = [2.0, 4.0, 3.0, 1.5]
        args[slot] = bad
        with pytest.raises(ParameterError, match="must be finite"):
            check_condition_C(3, *args)

    def test_margin_is_smallest_clause_slack(self):
        report = check_condition_C(3, 2, 4, 3, F(3, 2))
        assert report.margin == min(c.margin for c in report.clauses)
        assert report.margin > 0

    def test_json_round_trip_fields(self):
        d = check_condition_C(3, 2, 4, 3, 1.5).to_json_dict()
        assert d["admissible"] is True
        assert d["etas_in_range"] is True
        assert len(d["etas"]) == 4
        assert json.loads(json.dumps(d)) == d  # plain bools and floats


class TestFeasibleBox:
    def test_exact_on_rationals(self):
        # n=3, p=2, q=4: s1 in (5/2, 10/3), s2 in (10/7, 5/3)
        box = feasible_box(F(3), F(2), F(4))
        assert box == ((F(5, 2), F(10, 3)), (F(10, 7), F(5, 3)))
        assert all(isinstance(x, Fraction) for pair in box for x in pair)

    def test_float_on_floats(self):
        box = feasible_box(3, 2.0, 4.0)
        exact = feasible_box(F(3), F(2), F(4))
        for pair, exact_pair in zip(box, exact):
            for x, y in zip(pair, exact_pair):
                assert type(x) is float
                assert x == pytest.approx(float(y), rel=1e-15)


class TestEtasInRange:
    def test_interior_point(self):
        assert etas_in_range((F(4, 3),) * 4, 3)

    def test_upper_endpoint_excluded(self):
        assert not etas_in_range((F(5, 3), F(4, 3), F(4, 3), F(4, 3)), 3)

    def test_endpoint_excluded_n4(self):
        assert not etas_in_range((F(3, 2),) * 4, 4)


class TestExponentMaps:
    def test_k_at_one(self):
        assert k_exponent(1, 5) == 1

    def test_k_at_four_thirds(self):
        assert k_exponent(F(4, 3), 3) == F(5, 3)

    def test_k_at_three_halves(self):
        assert k_exponent(F(3, 2), 3) == 3

    def test_k_singularity(self):
        # the maps are unchecked formulas: a bound's indices are checked
        # where they meet the model, and eta_3 = 5/3 is k's singular point
        with pytest.raises(ParameterError, match="not admissible"):
            odi_coefficients(ModelParams(chi=1.0, xi=1.0, dim=3),
                             EnergyIndices(3, 6, 5, 2), math.nan, 1.0)

    def test_h_and_c1_at_one(self):
        assert h_exponent(1, 4) == 0
        assert C1_coef(1, 4) == 0

    def test_h_and_c1_at_four_thirds(self):
        assert h_exponent(F(4, 3), 3) == 2
        assert C1_coef(F(4, 3), 3) == F(1, 2)

    def test_c3_value(self):
        # (n + 2 - n eta)/2 = 1/4 at eta = 3/2, n = 3; unit constant
        assert C3_coef(F(3, 2), 3, 1.0) == pytest.approx(0.25)

    def test_c3_exponent(self):
        # 2/(n + 2 - n eta) = 4 at eta = 3/2, n = 3
        assert C3_coef(F(3, 2), 3, 2.0) == pytest.approx(0.25 * 2.0 ** 4)

    def test_c3_rejects_nonpositive_constant(self):
        # C3_coef checks C_GN, as the bound's assembly does; inf is rejected
        for C_GN in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ParameterError,
                               match="C_GN must be positive and finite"):
                C3_coef(1.2, 3, C_GN)


class TestCorollarySelections:
    def test_corollary1_p3(self):
        assert corollary1_parameters(3, 3) == (6, 4, 2)

    def test_corollary1_p2(self):
        assert corollary1_parameters(2, 3) == (4, 3, F(3, 2))

    def test_corollary1_rejects_small_p(self):
        with pytest.raises(ParameterError):
            corollary1_parameters(1, 3)

    def test_corollary2_n3(self):
        assert corollary2_parameters(3) == (2, 4, 3, F(3, 2))

    def test_corollary2_n4(self):
        assert corollary2_parameters(4) == (3, 6, 4, 2)

    def test_corollary2_selection_admissible(self):
        p, q, s1, s2 = corollary2_parameters(3)
        etas = compute_etas(p, q, s1, s2)
        assert etas == (F(3, 2),) * 4
        assert etas_in_range(etas, 3)


class TestFeasibleRegion:
    def test_bounded_interval(self):
        rows = feasible_region_samples(3, [2])
        assert rows[0].q_low == 3 and rows[0].q_high == 6

    def test_unbounded_interval(self):
        rows = feasible_region_samples(3, [3])
        assert rows[0].q_low == 3 and math.isinf(rows[0].q_high)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rows_agree_with_condition_C(self, n):
        # a q just inside each end of a row is admissible at the centre of
        # its (s1, s2) box, and a q just below q_low is not; a row with
        # p >= n needs q > p, where the s2 interval (p/2, q/2) opens
        def admissible(p, q):
            (a, b), (c, d) = feasible_box(n, p, q)
            return check_condition_C(n, p, q, 0.5 * (a + b),
                                     0.5 * (c + d)).admissible

        rows = feasible_region_samples(n, np.arange(n / 2 + 0.25, 3 * n,
                                                    0.25).tolist())
        assert any(row.p > n for row in rows)
        for row in rows:
            q_high = 100 * row.q_low if math.isinf(row.q_high) else row.q_high
            assert admissible(row.p, row.q_low * (1 + 1e-6))
            assert admissible(row.p, q_high * (1 - 1e-6))
            assert not admissible(row.p, row.q_low * (1 - 1e-6))

    def test_boundary_p_excluded(self):
        assert feasible_region_samples(3, [1.5]) == []

    def test_csv_sentinel(self):
        # a row with p >= n has no upper bound, which repr writes as inf
        buf = io.StringIO()
        write_region_csv(feasible_region_samples(3, [2, 3, 4.5]), buf)
        assert buf.getvalue().splitlines() == [
            "p,q_low,q_high", "2.0,3.0,6.0", "3.0,3.0,inf", "4.5,4.5,inf"]


class TestModelParams:
    def test_rejects_negative_chi(self):
        with pytest.raises(ParameterError):
            ModelParams(chi=-1.0, xi=1.0)

    def test_zero_chi_xi_allowed(self):
        ModelParams(chi=0.0, xi=0.0)

    def test_rejects_dim_2(self):
        with pytest.raises(ParameterError):
            ModelParams(chi=1.0, xi=1.0, dim=2)

    def test_logistic_exponent_window(self):
        ModelParams(chi=1.0, xi=1.0, mu2=0.5, k_logistic=1.1, dim=3)
        with pytest.raises(ParameterError):
            ModelParams(chi=1.0, xi=1.0, mu2=0.5, k_logistic=1.2, dim=3)
        # window is (1, 1 + 1/(2(n-1))) = (1, 9/8) for n = 5
        ModelParams(chi=1.0, xi=1.0, mu2=0.5, k_logistic=1.12, dim=5)
        with pytest.raises(ParameterError):
            ModelParams(chi=1.0, xi=1.0, mu2=0.5, k_logistic=1.13, dim=5)

    @pytest.mark.parametrize("name", ["chi", "xi", "alpha", "beta", "gamma",
                                      "delta", "mu1", "mu2"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_coefficient(self, name, bad):
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            ModelParams(**{"chi": 1.0, "xi": 1.0, name: bad})

    def test_boundary_constant_nonnegative(self):
        assert ModelParams(chi=1.0, xi=1.0).boundary_c == 0.0
        ModelParams(chi=1.0, xi=1.0, boundary_c=0.5)
        for bad in (-0.5, math.inf, math.nan):
            with pytest.raises(ParameterError, match="boundary_c"):
                ModelParams(chi=1.0, xi=1.0, boundary_c=bad)


rationals = st.fractions(min_value=F(1, 10), max_value=10,
                         max_denominator=40)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 6),
           eta=st.fractions(min_value=1, max_value=F(3, 2),
                            max_denominator=60))
    def test_k_and_h_monotone(self, n, eta):
        if not (n + 2 - n * eta > 0):
            return
        bump = F(1, 1000)
        if n + 2 - n * (eta + bump) > 0:
            assert k_exponent(eta + bump, n) > k_exponent(eta, n)
            assert h_exponent(eta + bump, n) > h_exponent(eta, n)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 6), p=rationals)
    def test_corollary1_always_admissible(self, n, p):
        if 2 * p <= n:
            return
        q, s1, s2 = corollary1_parameters(p, n)
        assert check_condition_C(n, p, q, s1, s2).admissible
        etas = compute_etas(p, q, s1, s2)
        assert len(set(etas)) == 1 and etas[0] == (p + 1) / p

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(3, 8))
    def test_corollary2_always_admissible(self, n):
        p, q, s1, s2 = corollary2_parameters(n)
        assert check_condition_C(n, float(p), float(q), float(s1),
                                 float(s2)).admissible

"""Empirical inequality checks and trajectory monitoring."""

import numpy as np
import pytest

from chemobound import exponents
from chemobound.errors import ParameterError
from chemobound.exponents import EnergyIndices, ModelParams
from chemobound.odi import (max_admissible_epsilon, odi_coefficients)
from chemobound.pde import (ConstantProfile, GaussianBump, SolverConfig,
                            init_state, make_grid, run)
from chemobound.verify import (ConcurrenceThresholds, MonitorConfig,
                               SamplerConfig, check_embed_inequality,
                               check_remark_ordering, concurrence_diagnostic,
                               equivalence_bruteforce, estimate_gn_constant,
                               estimate_gn_for_eta, odi_monitor)

GRID = make_grid(3, 1.0, 48)


class TestGnEstimate:
    def test_at_least_constant_ratio(self):
        # f = 1 gives ratio exactly 1 when p = s, so the estimate is >= 1
        cfg = SamplerConfig(n_samples=50, ascent_steps=10, seed=1)
        assert estimate_gn_constant(GRID, 3.0, 2.0, 2.0, 3.0, cfg) >= 1.0

    def test_monotone_in_sample_budget(self):
        small = estimate_gn_constant(
            GRID, 3.0, 2.0, 2.0, 2.0,
            SamplerConfig(n_samples=100, ascent_steps=0, seed=0))
        large = estimate_gn_constant(
            GRID, 3.0, 2.0, 2.0, 2.0,
            SamplerConfig(n_samples=1000, ascent_steps=0, seed=0))
        assert large >= small

    def test_deterministic_given_seed(self):
        cfg = SamplerConfig(n_samples=200, ascent_steps=15, seed=7)
        a = estimate_gn_constant(GRID, 3.0, 2.0, 2.0, 2.0, cfg)
        b = estimate_gn_constant(GRID, 3.0, 2.0, 2.0, 2.0, cfg)
        assert a == b

    def test_safety_inflation(self):
        # the estimate comes back uninflated; callers apply bound.gn_safety
        cfg = SamplerConfig(n_samples=100, ascent_steps=0, seed=0)
        raw = estimate_gn_constant(GRID, 3.0, 2.0, 2.0, 2.0, cfg)
        assert 2.0 * estimate_gn_for_eta(GRID, 1.5, cfg) == 2.0 * raw

    def test_rejects_bad_exponents(self):
        with pytest.raises(ParameterError):
            estimate_gn_constant(GRID, 2.0, 3.0, 2.0, 2.0)  # q > p


class TestEmbed:
    @pytest.mark.parametrize("eta", [1.1, 1.5, 4.0 / 3.0])
    def test_no_violations_with_inflated_constant(self, eta):
        cfg = SamplerConfig(n_samples=200, ascent_steps=20, seed=3)
        C = 2.0 * estimate_gn_for_eta(GRID, eta, cfg)
        report = check_embed_inequality(GRID, eta, 1.0, C, cfg)
        assert report.violations == 0
        assert report.worst_margin >= -cfg.report_tol

    def test_rejects_eta_out_of_interval(self):
        with pytest.raises(ParameterError):
            check_embed_inequality(GRID, 1.7, 1.0, 10.0)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ParameterError):
            check_embed_inequality(GRID, 1.5, 0.0, 10.0)

    def test_report_records_configuration(self):
        cfg = SamplerConfig(n_samples=50, ascent_steps=0, seed=5)
        report = check_embed_inequality(GRID, 1.5, 0.5, 10.0, cfg)
        assert report.seed == 5
        assert report.config["eta"] == 1.5


class TestRemarkOrdering:
    def test_equality_point_n3(self):
        report = check_remark_ordering(3, [1.5])
        assert report.violations == 0

    def test_strict_chain_interior(self):
        report = check_remark_ordering(3, [1.2])
        assert report.violations == 0
        # at eta = 1.2, n = 3: k = 9/7, eta/(2-eta) = 1.5, n/(n-2) = 3
        from chemobound.exponents import k_exponent
        assert float(k_exponent(1.2, 3)) == pytest.approx(9.0 / 7.0)

    def test_dense_grid_all_dims(self):
        for n in (3, 4, 5):
            eta_star = n / (n - 1.0)
            grid = np.linspace(1.0 + 1e-4, eta_star - 1e-6, 200)
            assert check_remark_ordering(n, grid).violations == 0

    def test_rejects_eta_past_equality_point(self):
        with pytest.raises(ParameterError):
            check_remark_ordering(3, [1.6])


class TestEquivalence:
    def test_no_mismatches_small_run(self):
        report = equivalence_bruteforce(3, 5000, seed=2)
        assert report.violations == 0

    def test_known_admissible_tuple(self):
        from chemobound.exponents import check_condition_C, compute_etas, \
            etas_in_range
        assert check_condition_C(3, 3, 6, 4, 2).admissible
        assert etas_in_range(compute_etas(3, 6, 4, 2), 3)

    def test_known_inadmissible_tuple(self):
        from chemobound.exponents import check_condition_C, compute_etas, \
            etas_in_range
        assert not check_condition_C(3, 2, 3, 3, 1.5).admissible
        assert not etas_in_range(compute_etas(2, 3, 3, 1.5), 3)

    def test_defect_in_clause_table_is_caught(self, monkeypatch):
        # the brute force checks the table check_condition_C uses, so a
        # box 10% too wide in s1 must show up as mismatches
        true_box = exponents.feasible_box

        def widened(n, p, q):
            (s1_lo, s1_hi), s2_box = true_box(n, p, q)
            return (s1_lo, 1.1 * s1_hi), s2_box

        monkeypatch.setattr(exponents, "feasible_box", widened)
        assert equivalence_bruteforce(3, 20000, seed=1).violations > 0

    def test_deterministic(self):
        a = equivalence_bruteforce(4, 1000, seed=9)
        b = equivalence_bruteforce(4, 1000, seed=9)
        assert a == b


def _coeffs_for(params, indices, C_GN=5.0):
    eps = 0.5 * max_admissible_epsilon(params, indices)
    return odi_coefficients(params, indices, eps, C_GN)


class TestOdiMonitor:
    IDX = EnergyIndices(2.0, 4.0, 3.0, 1.5)

    def test_steady_state_never_violates(self):
        params = ModelParams(chi=1.0, xi=1.0, dim=3)
        state = init_state(GRID, ConstantProfile(1.0, 1.0, 1.0))
        cfg = SolverConfig(t_final=0.02, dt_max=1e-3, sample_every=1)
        traj = run(GRID, params, state, 2.0, 4.0, cfg)
        report = odi_monitor(traj, _coeffs_for(params, self.IDX))
        assert report.violations == 0

    def test_diffusion_decay_never_violates(self):
        params = ModelParams(chi=0.0, xi=0.0, dim=3)
        state = init_state(GRID, GaussianBump(5.0, 0.2))
        cfg = SolverConfig(t_final=0.02, dt_max=1e-3, sample_every=1)
        traj = run(GRID, params, state, 2.0, 4.0, cfg)
        report = odi_monitor(traj, _coeffs_for(params, self.IDX))
        assert report.violations == 0
        assert "conditional" in report.config["caveat"]

    def test_short_trajectory_rejected(self):
        params = ModelParams(chi=0.0, xi=0.0, dim=3)
        state = init_state(GRID, ConstantProfile(1.0, 0.0, 0.0))
        cfg = SolverConfig(t_final=1e-6, dt_init=1e-6)
        traj = run(GRID, params, state, 2.0, 4.0, cfg)
        with pytest.raises(ParameterError):
            odi_monitor(traj, _coeffs_for(params, self.IDX))


class TestConcurrence:
    def test_no_crossing_on_quiet_run(self):
        params = ModelParams(chi=0.0, xi=0.0, dim=3)
        state = init_state(GRID, GaussianBump(5.0, 0.2))
        cfg = SolverConfig(t_final=0.01, dt_max=1e-3, sample_every=2)
        traj = run(GRID, params, state, 2.0, 4.0, cfg)
        report = concurrence_diagnostic(
            traj, ConcurrenceThresholds(energy=1e9, linf=1e9))
        assert not report.blew_up
        assert not report.crossed_energy and not report.crossed_linf
        assert report.lag is None

    def test_blowup_run_reports_lag(self):
        params = ModelParams(chi=10.0, xi=0.5, dim=3)
        state = init_state(GRID, GaussianBump(1e4, 0.15))
        cfg = SolverConfig(t_final=1.0, grow_after=1, cfl=0.2,
                           blowup_threshold=1e6, sample_every=2)
        traj = run(GRID, params, state, 2.0, 4.0, cfg)
        assert traj.report.blew_up
        report = concurrence_diagnostic(
            traj, ConcurrenceThresholds(energy=10.0 * traj.E_pq[0],
                                        linf=10.0 * traj.Linf_u[0]))
        assert report.crossed_energy and report.crossed_linf
        assert report.lag is not None
        assert report.t_energy <= report.t_detect
        assert report.t_linf <= report.t_detect

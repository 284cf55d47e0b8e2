"""Empirical inequality checks and trajectory monitoring."""

import dataclasses
import math

import numpy as np
import pytest

from chemobound import exponents, verify
from chemobound.errors import ParameterError
from chemobound.exponents import EnergyIndices, ModelParams
from chemobound.odi import (max_admissible_epsilon, odi_coefficients)
from chemobound.pde import (ConstantProfile, GaussianBump, SolverConfig,
                            init_state, make_grid, run)
from chemobound.verify import (REPORT_TOL, MonitorConfig, check_concurrence,
                               check_embed_inequality, check_remark_ordering,
                               equivalence_bruteforce, estimate_gn_constant,
                               odi_monitor, profile_set)

GRID = make_grid(3, 1.0, 48)


# (n, eta, R, M, lower estimate from 999 seeded random profiles plus 60
# random ascent steps); the profile set must never fall below these
SAMPLER_ESTIMATES = [
    (3, 1.5, 0.5, 16, 1.381976597885342),
    (3, 1.5, 0.5, 48, 1.3819765978853418),
    (3, 1.5, 0.5, 64, 1.3819765978853418),
    (3, 1.5, 1.0, 16, 0.4886025119029199),
    (3, 1.5, 1.0, 48, 0.48860251190292),
    (3, 1.5, 1.0, 64, 0.48860251190292),
    (3, 1.5, 3.0, 16, 0.2215520473763439),
    (3, 1.5, 3.0, 48, 0.16766481862971547),
    (3, 1.5, 3.0, 64, 0.1654914714927984),
    (3, 1.5, 5.0, 16, 0.2079915382641672),
    (3, 1.5, 5.0, 48, 0.15929564718173694),
    (3, 1.5, 5.0, 64, 0.15733387195383927),
    (4, 1.3333333333333333, 0.5, 16, 1.4800739366147124),
    (4, 1.3333333333333333, 0.5, 48, 1.4800739366147124),
    (4, 1.3333333333333333, 0.5, 64, 1.4800739366147124),
    (4, 1.3333333333333333, 1.0, 16, 0.5873677309932273),
    (4, 1.3333333333333333, 1.0, 48, 0.5873677309932273),
    (4, 1.3333333333333333, 1.0, 64, 0.5873677309932273),
    (4, 1.3333333333333333, 3.0, 16, 0.17211880727890116),
    (4, 1.3333333333333333, 3.0, 48, 0.15865294006501082),
    (4, 1.3333333333333333, 3.0, 64, 0.15784312578541146),
    (4, 1.3333333333333333, 5.0, 16, 0.16333148085291943),
    (4, 1.3333333333333333, 5.0, 48, 0.15103835194888318),
    (4, 1.3333333333333333, 5.0, 64, 0.1503055973462265),
    (5, 1.25, 0.5, 16, 1.5702285745221936),
    (5, 1.25, 0.5, 48, 1.5702285745221933),
    (5, 1.25, 0.5, 64, 1.5702285745221936),
    (5, 1.25, 1.0, 16, 0.6601997897223313),
    (5, 1.25, 1.0, 48, 0.6601997897223312),
    (5, 1.25, 1.0, 64, 0.6601997897223313),
    (5, 1.25, 3.0, 16, 0.16721445329690157),
    (5, 1.25, 3.0, 48, 0.16721445329690157),
    (5, 1.25, 3.0, 64, 0.16721445329690157),
    (5, 1.25, 5.0, 16, 0.13466937419939642),
    (5, 1.25, 5.0, 48, 0.14228291276410207),
    (5, 1.25, 5.0, 64, 0.14246223575435893)]

# the (n, eta) pairs the benchmark's bound queries estimate C_GN at (M = 64)
BOUND_QUERY_ETAS = [
    (3, 1.25), (3, 1.282051282051282), (3, 4.0 / 3.0), (3, 1.388888888888889),
    (3, 1.4130434782608698), (3, 1.4583333333333333), (3, 1.5),
    (3, 1.5217391304347827), (3, 1.5476190476190474), (4, 1.25),
    (4, 1.3170731707317074), (4, 4.0 / 3.0), (4, 1.3499999999999999),
    (4, 1.3636363636363635), (5, 1.2), (5, 1.2384615384615385), (5, 1.25),
    (5, 1.2578125), (5, 1.263157894736842), (6, 1.2)]


def gn_ratios(grid, eta):
    """||f||_{2 eta}^{2 eta} / (||f'||_2^{2 eta a} ||f||_2^{2 eta (1-a)}
    + ||f||_2^{2 eta}) for each row f of profile_set, a = n (eta - 1)/(2 eta),
    by plain sums over the shells."""
    F = profile_set(grid)
    dF = np.diff(F, axis=1) / grid.dr
    grad = 0.5 * (np.pad(dF, ((0, 0), (1, 0))) + np.pad(dF, ((0, 0), (0, 1))))
    V = grid.shell_measures
    a = grid.n * (eta - 1.0) / (2.0 * eta)
    f2 = (F ** 2) @ V
    return (F ** (2.0 * eta)) @ V / (
        ((grad ** 2) @ V) ** (eta * a) * f2 ** (eta * (1.0 - a)) + f2 ** eta)


class TestGnEstimate:
    def test_at_least_constant_ratio(self):
        # f = 1 has no gradient and gives the ratio |Omega|^(1 - eta)
        assert estimate_gn_constant(GRID, 1.5) >= \
            GRID.volume ** -0.5 * (1.0 - 1e-13)

    def test_deterministic(self):
        a = estimate_gn_constant(GRID, 1.5)
        b = estimate_gn_constant(GRID, 1.5)
        assert a == b

    def test_safety_inflation(self):
        # the estimate is the largest ratio over the profile set, not yet
        # multiplied by bound.gn_safety
        for n, eta, R in ((3, 1.5, 3.0), (4, 1.3, 1.0), (5, 1.6, 5.0)):
            grid = make_grid(n, R, 32)
            assert estimate_gn_constant(grid, eta) == pytest.approx(
                gn_ratios(grid, eta).max(), rel=1e-12, abs=0)

    def test_dominates_random_sampler(self):
        for n, eta, R, M, old in SAMPLER_ESTIMATES:
            new = estimate_gn_constant(make_grid(n, R, M), eta)
            if R > 1.0:
                assert new > old, (n, R, M)
            else:  # the constant profile wins on small balls
                assert new == pytest.approx(old, rel=1e-14, abs=0), (n, R, M)

    @pytest.mark.parametrize("n, eta", BOUND_QUERY_ETAS)
    def test_constant_profile_wins_on_unit_ball(self, n, eta):
        grid = make_grid(n, 1.0, 64)
        assert estimate_gn_constant(grid, eta) == pytest.approx(
            grid.volume ** (1.0 - eta), rel=1e-13, abs=0)

    def test_profile_set_shape(self):
        profiles = profile_set(GRID)
        assert profiles.shape == (1 + 5 * 40 + 47, 48)
        assert np.all(profiles[0] == 1.0)
        assert np.all(profiles >= 0.0)

    def test_rejects_bad_exponents(self):
        for eta in (0.5, 0.999, np.nan):
            with pytest.raises(ParameterError, match="eta must be >= 1"):
                estimate_gn_constant(GRID, eta)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rejects_eta_past_n_over_n_minus_2(self, n):
        # the interpolation weight a = n (eta - 1)/(2 eta) passes 1 there
        grid = make_grid(n, 1.0, 16)
        estimate_gn_constant(grid, 0.99 * n / (n - 2))
        for eta in (1.01 * n / (n - 2), np.inf):
            with pytest.raises(ParameterError, match="past n/\\(n-2\\)"):
                estimate_gn_constant(grid, eta)


class TestEmbed:
    @pytest.mark.parametrize("eta", [1.1, 1.5, 4.0 / 3.0])
    def test_no_violations_with_inflated_constant(self, eta):
        C = 2.0 * estimate_gn_constant(GRID, eta)
        report = check_embed_inequality(GRID, eta, 1.0, C)
        assert report.violations == 0
        assert report.worst_margin >= -REPORT_TOL

    @pytest.mark.parametrize("eta", [1.1, 1.5, 4.0 / 3.0])
    def test_halved_constant_reports_violations(self, eta):
        # the check can fail: half the estimate is too small a constant
        C = 0.5 * estimate_gn_constant(GRID, eta)
        report = check_embed_inequality(GRID, eta, 1.0, C)
        assert report.violations > 0
        assert report.worst_margin < -REPORT_TOL

    def test_rejects_eta_out_of_interval(self):
        with pytest.raises(ParameterError):
            check_embed_inequality(GRID, 1.7, 1.0, 10.0)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ParameterError):
            check_embed_inequality(GRID, 1.5, 0.0, 10.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_rejects_nonfinite_epsilon(self, epsilon):
        with pytest.raises(ParameterError, match="positive and finite"):
            check_embed_inequality(GRID, 1.5, epsilon, 10.0)

    def test_nan_margin_is_a_violation(self, monkeypatch):
        # every profile at a NaN amplitude has a NaN margin; each counts
        C = 2.0 * estimate_gn_constant(GRID, 1.5)
        monkeypatch.setattr(verify, "EMBED_AMPLITUDES", np.array([1.0, np.nan]))
        report = check_embed_inequality(GRID, 1.5, 1.0, C)
        assert report.samples == 2 * profile_set(GRID).shape[0]
        assert report.violations == profile_set(GRID).shape[0]
        assert math.isnan(report.worst_margin)

    def test_report_records_configuration(self):
        report = check_embed_inequality(GRID, 1.5, 0.5, 10.0)
        assert report.seed is None
        assert report.samples == 9 * profile_set(GRID).shape[0]
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

    def test_nan_margin_is_a_violation(self):
        params = ModelParams(chi=0.0, xi=0.0, dim=3)
        state = init_state(GRID, GaussianBump(5.0, 0.2))
        cfg = SolverConfig(t_final=0.02, dt_max=1e-3, sample_every=1)
        traj = run(GRID, params, state, 2.0, 4.0, cfg)
        E = traj.E_pq.copy()
        # a NaN energy at sample 5 enters the centred differences at
        # samples 4 and 6 and F(E) at sample 5
        E[5] = np.nan
        report = odi_monitor(dataclasses.replace(traj, E_pq=E),
                             _coeffs_for(params, self.IDX))
        assert report.violations == 3
        assert math.isnan(report.worst_margin)
        assert report.witness == f"t={traj.t[4]}"

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_slack(self, slack):
        with pytest.raises(ParameterError, match="slack must be finite"):
            MonitorConfig(slack=slack)

    def test_short_trajectory_rejected(self):
        params = ModelParams(chi=0.0, xi=0.0, dim=3)
        state = init_state(GRID, ConstantProfile(1.0, 0.0, 0.0))
        cfg = SolverConfig(t_final=1e-6, dt_init=1e-6)
        traj = run(GRID, params, state, 2.0, 4.0, cfg)
        with pytest.raises(ParameterError):
            odi_monitor(traj, _coeffs_for(params, self.IDX))


class TestConcurrence:
    @staticmethod
    def _blowup_run():
        params = ModelParams(chi=10.0, xi=0.5, dim=3)
        state = init_state(GRID, GaussianBump(1e4, 0.15))
        cfg = SolverConfig(t_final=1.0, grow_after=1, cfl=0.2,
                           blowup_threshold=1e6, sample_every=2)
        traj = run(GRID, params, state, 2.0, 4.0, cfg)
        assert traj.report.blew_up
        return traj

    def test_no_crossing_on_quiet_run(self):
        # a run that does not blow up checks nothing
        params = ModelParams(chi=0.0, xi=0.0, dim=3)
        state = init_state(GRID, GaussianBump(5.0, 0.2))
        cfg = SolverConfig(t_final=0.01, dt_max=1e-3, sample_every=2)
        traj = run(GRID, params, state, 2.0, 4.0, cfg)
        report = check_concurrence(traj, 1e9, 1e9)
        assert not traj.report.blew_up
        assert report.samples == 0 and report.violations == 0
        assert report.config["t_energy"] is None
        assert report.config["t_linf"] is None
        assert report.config["lag"] is None

    def test_blowup_run_reports_lag(self):
        traj = self._blowup_run()
        report = check_concurrence(traj, 10.0 * traj.E_pq[0],
                                   10.0 * traj.Linf_u[0])
        assert report.samples == 2 and report.violations == 0
        assert report.witness is None and report.worst_margin > 0
        config = report.config
        assert config["lag"] == config["t_linf"] - config["t_energy"]
        assert config["t_energy"] <= config["t_detect"]
        assert config["t_linf"] <= config["t_detect"]

    def test_level_above_peak_energy_is_a_violation(self):
        traj = self._blowup_run()
        report = check_concurrence(traj, 2.0 * traj.E_pq.max(),
                                   10.0 * traj.Linf_u[0])
        assert report.samples == 2 and report.violations == 1
        assert report.witness == "E_pq"
        assert report.worst_margin == pytest.approx(-0.5, rel=1e-12)
        assert report.config["t_energy"] is None

    def test_nan_margin_is_a_violation(self):
        traj = self._blowup_run()
        report = check_concurrence(traj, 10.0 * traj.E_pq[0], math.nan)
        assert report.violations == 1
        assert report.witness == "Linf_u"
        assert math.isnan(report.worst_margin)

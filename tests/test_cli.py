"""Command-line interface: dispatch, exit codes, persistence, determinism."""

import collections
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chemobound
from chemobound import cli, pde, verify
from chemobound import config as cfgmod
from chemobound.cli import FLAGS, bound_from_config, main
from chemobound.config import (KNOWN_KEYS, apply_overrides, build_grid,
                               build_model, build_solver, config_hash,
                               parse_config_text)
from chemobound.errors import ChemoboundError, ConfigError
from chemobound.exponents import EnergyIndices
from chemobound.odi import bound_at_indices
from chemobound.pde import SolverConfig

BLOWUP_CONFIG = """
model.chi = 10.0
model.xi = 0.5
grid.shells = 48
profile.kind = gaussian
profile.amplitude = 1e4
profile.width = 0.15
solver.t_final = 1.0
solver.grow_after = 1
solver.cfl = 0.2
solver.blowup_threshold = 1e6
solver.sample_every = 5
bound.corollary = 2
"""


class TestConfigParsing:
    def test_defaults_filled(self):
        cfg, axes = parse_config_text("")
        assert cfg["model.dim"] == 3
        assert axes == {}

    def test_comments_and_blanks(self):
        cfg, _ = parse_config_text("# comment\n\nmodel.chi = 2.5 # inline\n")
        assert cfg["model.chi"] == 2.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("model.typo = 1\n")

    @pytest.mark.parametrize("text, flags, message", [
        ("thresholds.energy = 1\n", [],
         "config error: line 1: unknown key 'thresholds.energy'"),
        ("sweep.jobs = 2\n", [],
         "config error: line 1: unknown sweep key 'jobs'"),
        ("sweep.model.chi = 5, 10\n", ["--jobs", "2"],
         "error: unrecognized arguments: --jobs 2"),
        ("opt.eps_grid = 4\n", [],
         "config error: line 1: unknown key 'opt.eps_grid'"),
        ("sweep.opt.coarse_grid = 4, 7\n", [],
         "config error: line 1: unknown sweep key 'opt.coarse_grid'"),
        ("sweep.model.chi = 5, 10\n", ["--set", "opt.refine_iters=20"],
         "config error: unknown key 'opt.refine_iters'"),
        ("sweep.model.chi = 5, 10\n", ["--seed", "5"],
         "error: unrecognized arguments: --seed 5"),
        ("model.convex = false\n", [],
         "config error: line 1: unknown key 'model.convex'"),
        # the bound's tolerances and margin are constants of odi, and the
        # monitor adds no slack
        ("sweep.model.chi = 5, 10\n", ["--set", "quad.rel_tol=-1"],
         "config error: unknown key 'quad.rel_tol'"),
        ("quad.tail_tol = 0\n", [],
         "config error: line 1: unknown key 'quad.tail_tol'"),
        ("sweep.opt.boundary_margin = 0, 0.5, 0.6, -0.1\n", [],
         "config error: line 1: unknown sweep key 'opt.boundary_margin'"),
        ("sweep.monitor.slack = nan, inf, -inf\n", [],
         "config error: line 1: unknown sweep key 'monitor.slack'"),
    ], ids=["thresholds.energy", "sweep.jobs", "--jobs", "opt.eps_grid",
            "opt.coarse_grid", "opt.refine_iters", "--seed", "model.convex",
            "quad.rel_tol", "quad.tail_tol", "opt.boundary_margin",
            "monitor.slack"])
    def test_removed_knob_rejected(self, capsys, tmp_path, text, flags,
                                   message):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(text + f"output.dir = {tmp_path / 'out'}\n")
        try:
            code = main(["sweep", "--config", str(cfg_file), *flags])
        except SystemExit as exc:  # argparse usage error
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_removed_scheme_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("solver.scheme = imex1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("grid.shells = many\n")

    def test_sweep_axis(self):
        _, axes = parse_config_text("sweep.model.chi = 5, 10, 20\n")
        assert axes == {"model.chi": [5.0, 10.0, 20.0]}

    def test_unknown_sweep_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("sweep.model.typo = 1,2\n")

    def test_overrides(self):
        cfg, _ = parse_config_text("")
        apply_overrides(cfg, ["model.chi=7"])
        assert cfg["model.chi"] == 7.0
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["nonsense=1"])

    def test_schema_pinned(self):
        # a new dataclass field must not silently become a config key
        # seed is read by nothing but stays known, so that configs that
        # set it parse
        assert len(KNOWN_KEYS) == 46
        assert config_hash(parse_config_text("")[0]) == "59b247c190eb2641"
        assert "seed" in KNOWN_KEYS
        for key in ("verify.bump_fraction", "monitor.rel_floor",
                    "quad.truncation_point", "verify.n_samples",
                    "verify.samples", "verify.max_modes",
                    "verify.ascent_steps", "verify.report_tol",
                    "opt.coarse_grid", "opt.eps_grid", "opt.refine_iters",
                    "quad.rel_tol", "quad.tail_tol", "opt.boundary_margin",
                    "monitor.slack", "verify.trials"):
            assert key not in KNOWN_KEYS

    def test_build_functions_give_dataclass_defaults(self):
        cfg, _ = parse_config_text("")
        assert build_solver(cfg) == SolverConfig()

    @pytest.mark.parametrize("argv, path, expected", [
        (["verify-gn", "--eta", "1.5", "--set", "verify.eta=1.2"],
         ("eta",), 1.5),
        (["verify-equivalence", "-n", "4", "--set", "model.dim=5"],
         ("config", "n"), 4),
    ], ids=["--eta", "--dim"])
    def test_flag_wins_over_set(self, capsys, argv, path, expected):
        assert main(argv + ["--set", "grid.shells=16"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in path:
            payload = payload[key]
        assert payload == expected

    # the equivalence check is exact on a fixed lattice: it has no seed and
    # no trial count
    @pytest.mark.parametrize("flags, message", [
        (["--seed", "1"], "error: unrecognized arguments: --seed 1"),
        (["--set", "verify.trials=10"],
         "config error: unknown key 'verify.trials'"),
    ], ids=["--seed", "verify.trials"])
    def test_equivalence_rng_knob_rejected(self, capsys, flags, message):
        try:
            code = main(["verify-equivalence", "-n", "3", *flags])
        except SystemExit as exc:  # argparse usage error
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err

    def test_hash_stability(self):
        a, _ = parse_config_text("model.chi = 1.0\n")
        b, _ = parse_config_text("model.chi = 1.0\n")
        c, _ = parse_config_text("model.chi = 2.0\n")
        assert config_hash(a) == config_hash(b) != config_hash(c)

    def test_hash_ignores_output_dir(self, capsys, tmp_path):
        # one query written to two directories is one computation
        hashes = []
        for name in ("hA", "hB"):
            assert main(["bound", "-n", "3", "--corollary", "2", "--E0", "1",
                         "-o", str(tmp_path / name)]) == 0
            capsys.readouterr()
            payload = json.loads((tmp_path / name / "bound.json").read_text())
            hashes.append(payload["config_hash"])
        assert hashes[0] == hashes[1]


class TestCheckParams:
    def test_admissible_exit_zero(self, capsys):
        code = main(["check-params", "-n", "3", "-p", "3", "-q", "6",
                     "--s1", "4", "--s2", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["admissible"] is True
        assert "config_hash" in payload

    def test_inadmissible_exit_one(self, capsys):
        code = main(["check-params", "-n", "3", "-p", "2", "-q", "3",
                     "--s1", "3", "--s2", "1.5"])
        assert code == 1

    def test_eta_rounded_onto_singular_point_exit_one(self, capsys):
        # every clause passes in floats, but eta_2 is exactly 1 + 2/6
        code = main(["check-params", "-n", "6", "-p", "4.285714285714288",
                     "-q", "15", "--s1", "8.75", "--s2", "2.8571428571428577"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["admissible"] is False
        # the payload names the check that failed
        assert all(c["passed"] for c in payload["clauses"].values())
        assert payload["etas_in_range"] is False

    def test_undefined_etas_exit_one(self, capsys):
        # s1 = 0.5 leaves eta_1 = s1/(s1-1) undefined: no etas to report
        code = main(["check-params", "-n", "3", "-p", "3", "-q", "6",
                     "--s1", "0.5", "--s2", "2"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["etas"] is None
        assert payload["etas_in_range"] is False

    def test_underflowing_eta_exit_one(self, capsys):
        # q * (s2 - 1) underflows to 0.0: no etas, and q > n fails anyway
        code = main(["check-params", "-n", "3", "-p", "1", "-q", "5e-324",
                     "--s1", "2", "--s2", "1.0000000000000002"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["etas"] is None
        assert payload["admissible"] is False
        assert payload["clauses"]["q > n"]["passed"] is False

    def test_missing_indices_usage_error(self, capsys):
        assert main(["check-params", "-n", "3"]) == 2

    def test_bad_override_usage_error(self, capsys):
        code = main(["check-params", "-n", "3", "-p", "2", "-q", "4",
                     "--s1", "3", "--s2", "1.5", "--set", "model.nope=1"])
        assert code == 2


class TestBound:
    def test_corollary2_exponents(self, capsys):
        code = main(["bound", "-n", "3", "--corollary", "2", "--E0", "1",
                     "--set", "bound.C_GN=1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["indices"]["eta"] == [1.5] * 4
        assert payload["indices"]["k_eta"] == pytest.approx([3.0] * 4)
        assert payload["t_lower"] > 0

    def test_explicit_indices(self, capsys):
        # bound.corollary = 0 by default: the bound is at the given indices
        code = main(["bound", "-n", "3", "-p", "3", "-q", "6", "--s1", "4",
                     "--s2", "2", "--E0", "1", "--set", "bound.C_GN=1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        direct = bound_at_indices(build_model(parse_config_text("")[0]),
                                  EnergyIndices(3.0, 6.0, 4.0, 2.0), 1.0, 1.0)
        expected = json.loads(json.dumps(direct.to_json_dict()))
        assert {k: payload[k] for k in expected} == expected

    def test_boundary_constant_on_the_ball(self, capsys):
        # boundary_c needs no convexity switch; F carries 2 * boundary_c
        code = main(["bound", "-n", "3", "--corollary", "2", "--E0", "1",
                     "--set", "model.boundary_c=0.5"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["coeffs"]["c"] == 1.0

    def test_failing_bound_runtime_error(self, capsys):
        # valid inputs at which the bound fails exit 3, not 2
        code = main(["bound", "--corollary", "2", "-n", "3", "--E0", "1e-12",
                     "--set", "model.mu1=-1", "--set", "bound.C_GN=1"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: denominator nonpositive at E0=1e-12\n")

    @pytest.mark.parametrize("command", [
        ["bound", "-n", "3", "--corollary", "2"],
        ["optimize-bound", "-n", "3", "-p", "2", "-q", "4"]],
        ids=["bound", "optimize-bound"])
    def test_negative_F_at_tiny_E0_runtime_error(self, capsys, command):
        # with mu1 = -1, F(1e-250) is negative, not an underflowed zero
        code = main([*command, "--E0", "1e-250", "--set", "model.mu1=-1",
                     "--set", "bound.C_GN=1"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: denominator nonpositive at E0=1e-250\n")

    def test_negative_linear_term_flagged(self, capsys):
        code = main(["bound", "-n", "3", "--corollary", "2", "--E0", "1",
                     "--set", "model.mu1=-0.5", "--set", "bound.C_GN=1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flags"] == ["negative_linear_term"]
        assert payload["t_lower"] > 0

    def test_missing_E0_usage_error(self, capsys):
        code = main(["bound", "-n", "3", "--corollary", "2",
                     "--set", "bound.C_GN=1"])
        assert code == 2

    def test_estimated_constant_recorded(self, capsys):
        code = main(["bound", "-n", "3", "--corollary", "2", "--E0", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["C_GN_source"] == "estimated"
        assert payload["C_GN_safety"] == 2.0

    # the margin is odi.BOUNDARY_MARGIN, a constant: any value is rejected
    @pytest.mark.parametrize("margin", ["0", "0.5", "0.6", "-0.1"])
    def test_bad_boundary_margin_named(self, capsys, margin):
        code = main(["optimize-bound", "-n", "3", "-p", "2", "-q", "4",
                     "--E0", "1", "--set", "bound.C_GN=1",
                     "--set", f"opt.boundary_margin={margin}"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: unknown key 'opt.boundary_margin'\n")

    @pytest.mark.parametrize("override, message", [
        ("model.alpha=0", "config error: alpha must be positive"),
        ("model.radius=-1", "config error: need R > 0 and finite"),
        ("model.chi=nan", "config error: chi must be nonnegative and finite"),
        ("model.alpha=inf", "config error: alpha must be positive and finite"),
        ("model.mu1=-inf", "config error: mu1 must be finite")],
        ids=["alpha", "radius", "chi=nan", "alpha=inf", "mu1=-inf"])
    def test_rejected_model_value_usage_error(self, capsys, override, message):
        code = main(["bound", "-n", "3", "--corollary", "2", "--E0", "1",
                     "--set", override])
        assert code == 2
        assert capsys.readouterr().err.startswith(message)

    # the tolerance is odi.REL_TOL, a constant: any value is rejected
    def test_rejected_quad_value_usage_error(self, capsys):
        code = main(["bound", "-n", "3", "--corollary", "2", "--E0", "1",
                     "--set", "bound.C_GN=1", "--set", "quad.rel_tol=-1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: unknown key 'quad.rel_tol'\n")

    # epsilon**(-h) in the m_i, C_GN**(2/denom) in C3, and the truncation
    # point S of the integral (verify-odi builds no integral) overflow
    @pytest.mark.parametrize("command, epsilon, C_GN", [
        ("bound", "1e-300", "1"), ("verify-odi", "1e-300", "1"),
        ("bound", "nan", "1e300"), ("verify-odi", "nan", "1e300"),
        ("bound", "nan", "1e-300")])
    def test_overflowing_value_usage_error(self, capsys, command, epsilon,
                                           C_GN):
        # verify-odi reads no E0: it takes no --E0
        E0 = ["--E0", "1"] if command == "bound" else []
        code = main([command, "-n", "3", "--corollary", "2", *E0,
                     "--set", f"bound.C_GN={C_GN}", "--set", "grid.shells=8",
                     "--set", "solver.max_steps=5",
                     "--set", f"indices.epsilon={epsilon}"])
        assert code == 2
        named = ("indices.epsilon unset (half its supremum)"
                 if epsilon == "nan" else f"indices.epsilon={float(epsilon)!r}")
        assert capsys.readouterr().err == (
            f"config error: {named} with C_GN={float(C_GN)!r} overflows the "
            "bound\n")

    @pytest.mark.parametrize("command", ["bound", "verify-odi"])
    def test_overflow_with_unset_epsilon_says_unset(self, capsys, command):
        # epsilon never set is half its supremum, not "nan"; C_GN's power
        # is what overflows
        E0 = ["--E0", "1"] if command == "bound" else []
        code = main([command, "-n", "3", "--corollary", "2", *E0,
                     "--set", "bound.C_GN=1e300", "--set", "grid.shells=8",
                     "--set", "solver.max_steps=5"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: indices.epsilon unset (half its supremum) with "
            "C_GN=1e+300 overflows the bound\n")

    def test_optimize_dominates_corollary1(self, capsys):
        common = ["-n", "3", "-p", "2", "--E0", "1", "--set", "bound.C_GN=1"]
        assert main(["bound", "--corollary", "1"] + common) == 0
        reference = json.loads(capsys.readouterr().out)["t_lower"]
        code = main(["optimize-bound", "-q", "4"] + common)
        assert code == 0
        optimized = json.loads(capsys.readouterr().out)["t_lower"]
        assert optimized >= reference * (1.0 - 1e-12)


class TestRegion:
    def test_row_values(self, capsys, tmp_path):
        code = main(["region", "-n", "3", "-o", str(tmp_path),
                     "--set", "region.p_min=2", "--set", "region.p_max=3",
                     "--set", "region.p_step=1"])
        assert code == 0
        lines = (tmp_path / "region.csv").read_text().splitlines()
        assert lines[0] == "p,q_low,q_high"
        assert lines[1] == "2.0,3.0,6.0"
        assert lines[2] == "3.0,3.0,inf"

    def test_default_p_range(self, capsys):
        # p runs from n/2 + p_step to 3n
        assert main(["region", "-n", "3", "--set", "region.p_step=0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == [
            repr(2.0 + 0.5 * i) for i in range(15)]


# id -> (argv, the value its config error line names): a huge E0 puts the
# truncation point 10*E0, or F(E0) at every candidate, past float range, a
# tiny epsilon (its epsilon**(-h)) or a huge C_GN (C3's C_GN**(2/denom))
# overflows the embed inequality, a huge C_GN overflows the coefficients of
# every optimize-bound candidate, an epsilon outside its range is named by
# its key, and indices with eta_0 = 1 (and eta_3 = 5/3, the singular point,
# with s1 = 5) are not admissible
NAMED = {
    "E0=1e308": (["bound", "-n", "3", "--corollary", "2", "--E0", "1e308",
                  "--set", "grid.shells=8"], "E0=1e+308"),
    "optimize-E0=1e308": (["optimize-bound", "-n", "3", "-p", "2", "-q", "4",
                           "--E0", "1e308", "--set", "grid.shells=8"],
                          "E0=1e+308"),
    "E0=1e100": (["bound", "-n", "3", "--corollary", "2", "--E0", "1e100",
                  "--set", "grid.shells=8"], "E0=1e+100"),
    "optimize-E0=1e100": (["optimize-bound", "-n", "3", "-p", "2", "-q", "4",
                           "--E0", "1e100", "--set", "grid.shells=8"],
                          "E0=1e+100"),
    "eta_0=1": (["bound", "-n", "3", "-p", "4", "-q", "6", "--s1", "4",
                 "--s2", "2", "--E0", "1", "--set", "bound.C_GN=1"],
                "p=4.0, q=6.0, s1=4.0, s2=2.0 are not admissible"),
    "eta_3=5/3": (["bound", "-n", "3", "-p", "4", "-q", "6", "--s1", "5",
                   "--s2", "2", "--E0", "1", "--set", "bound.C_GN=1"],
                  "p=4.0, q=6.0, s1=5.0, s2=2.0 are not admissible"),
    "embed-epsilon=1e-300": (["verify-embed", "-n", "3", "--eta", "1.5",
                              "--set", "verify.epsilon=1e-300",
                              "--set", "grid.shells=8"],
                             "verify.epsilon=1e-300"),
    "embed-C_GN=1e300": (["verify-embed", "-n", "3", "--eta", "1.5",
                          "--set", "bound.C_GN=1e300",
                          "--set", "grid.shells=8"], "verify.epsilon=1.0"),
    "optimize-C_GN=1e300": (["optimize-bound", "-n", "3", "-p", "2", "-q",
                             "4", "--E0", "1", "--set", "bound.C_GN=1e300",
                             "--set", "grid.shells=8"], "C_GN=1e+300"),
    "embed-epsilon=nan": (["verify-embed", "-n", "3", "--eta", "1.5",
                           "--set", "verify.epsilon=nan"],
                          "verify.epsilon must be positive and finite"),
    "epsilon=-1": (["bound", "-n", "3", "--corollary", "2", "--E0", "1",
                    "--set", "bound.C_GN=1", "--set", "indices.epsilon=-1"],
                   "indices.epsilon=-1.0 outside admissible range"),
    "odi-epsilon=1": (["verify-odi", "-n", "3", "--corollary", "2",
                       "--set", "grid.shells=8", "--set", "solver.max_steps=5",
                       "--set", "bound.C_GN=1", "--set", "indices.epsilon=1"],
                      "indices.epsilon=1.0 outside admissible range"),
    # a run reads only (p, q), so p = inf is what is rejected
    "simulate-p=inf": (["simulate", "-n", "3", "-p", "inf", "-q", "6",
                        "--set", "grid.shells=8",
                        "--set", "solver.max_steps=5"], "p=inf"),
    # q * (s2 - 1) underflows to 0 in eta_2
    "eta_2-underflow": (["bound", "-n", "3", "-p", "1", "-q", "5e-324",
                         "--s1", "2", "--s2", "1.0000000000000002", "--E0",
                         "1", "--set", "bound.C_GN=1"], "q=5e-324"),
    # a radius whose shell measures or couplings floats cannot hold
    "simulate-radius=1e-300": (["simulate", "-n", "3", "--corollary", "2",
                                "--set", "grid.shells=8",
                                "--set", "solver.max_steps=3",
                                "--set", "model.radius=1e-300"],
                               "R=1e-300 with M=8"),
    "simulate-radius=1e100": (["simulate", "-n", "3", "--corollary", "2",
                               "--set", "grid.shells=8",
                               "--set", "solver.max_steps=3",
                               "--set", "model.radius=1e100"],
                              "R=1e+100 with M=8"),
    "bound-radius=1e300": (["bound", "-n", "3", "--corollary", "2", "--E0",
                            "1", "--set", "model.radius=1e300"],
                           "R=1e+300 with M=64"),
    # every term of F(E0) is positive, and their sum underflows to 0
    "E0=1e-250": (["bound", "-n", "3", "--corollary", "2", "--E0", "1e-250",
                   "--set", "bound.C_GN=1"], "F(E0) underflows at E0=1e-250"),
    "optimize-E0=1e-250": (["optimize-bound", "-n", "3", "-p", "2", "-q", "4",
                            "--E0", "1e-250", "--set", "bound.C_GN=1"],
                           "F(E0) underflows at E0=1e-250"),
    # a box not empty in floats whose clamped corners fail Condition C
    "optimize-p=1e200": (["optimize-bound", "-n", "3", "-p", "1e200", "-q",
                          "2e200", "--E0", "1", "--set", "bound.C_GN=1"],
                         "empty admissible (s1, s2) box"),
}


class TestExitCodes:
    """Every value the package rejects exits 2 with one config error line."""

    @pytest.mark.parametrize("argv", [
        ["region", "-n", "3", "--set", "region.p_step=0"],
        ["region", "-n", "3", "--set", "region.p_step=-0.1"],
        ["region", "-n", "3", "--set", "region.p_step=nan"],
        # verify-equivalence has no trial count: verify.trials is an unknown
        # key
        ["verify-equivalence", "-n", "3", "--set", "verify.trials=0"],
        ["verify-equivalence", "-n", "3", "--set", "verify.trials=-1"],
        ["bound", "-n", "3", "--corollary", "2", "--E0", "0",
         "--set", "bound.C_GN=1"],
        ["bound", "-n", "3", "--corollary", "2", "--E0", "1",
         "--set", "bound.gn_safety=-1", "--set", "grid.shells=8"],
        ["simulate", "-n", "3", "--corollary", "2",
         "--set", "profile.amplitude=-1", "--set", "grid.shells=8"],
        ["verify-embed", "-n", "3", "--eta", "1.5",
         "--set", "verify.epsilon=0", "--set", "grid.shells=8"],
        ["verify-gn", "-n", "3", "--eta", "0.5", "--set", "grid.shells=8"],
        ["bound", "-n", "3", "--corollary", "2", "--E0", "inf",
         "--set", "bound.C_GN=1"],
        ["optimize-bound", "-n", "3", "-p", "2", "-q", "4", "--E0", "inf",
         "--set", "bound.C_GN=1"],
        ["bound", "-n", "3", "--corollary", "2", "--E0", "1",
         "--set", "bound.C_GN=inf"],
        ["bound", "-n", "3", "--corollary", "2", "--E0", "1",
         "--set", "bound.gn_safety=inf", "--set", "grid.shells=8"],
        ["optimize-bound", "-n", "3", "-p", "2", "-q", "4", "--E0", "1",
         "--set", "bound.C_GN=inf"],
        ["check-params", "-n", "3", "-p", "inf", "-q", "4", "--s1", "1",
         "--s2", "1"],
        ["bound", "-n", "3", "-p", "3", "-q", "inf", "--s1", "4", "--s2", "2",
         "--E0", "1", "--set", "bound.C_GN=1"],
        ["bound", "-n", "3", "-p", "3", "-q", "6", "--s1", "inf", "--s2", "2",
         "--E0", "1", "--set", "bound.C_GN=1"],
        ["bound", "-n", "3", "-p", "3", "-q", "6", "--s1", "4", "--s2", "inf",
         "--E0", "1", "--set", "bound.C_GN=1"],
        ["bound", "-n", "3", "-p", "inf", "--corollary", "1", "--E0", "1",
         "--set", "bound.C_GN=1"],
        ["verify-gn", "-n", "3", "--eta", "1.5", "--set", "bound.gn_safety=-1",
         "--set", "grid.shells=8"],
        ["verify-gn", "-n", "3", "--eta", "1.5", "--set", "bound.gn_safety=0",
         "--set", "grid.shells=8"],
        ["verify-gn", "-n", "3", "--eta", "1.5", "--set",
         "bound.gn_safety=inf", "--set", "grid.shells=8"],
        ["verify-gn", "-n", "3", "--eta", "1.5", "--set",
         "bound.gn_safety=nan", "--set", "grid.shells=8"],
        ["bound", "-n", "3", "--corollary", "2", "--E0", "1",
         "--set", "bound.gn_safety=nan", "--set", "grid.shells=8"],
        ["bound", "-n", "3", "--corollary", "2", "--E0", "1",
         "--set", "bound.C_GN=1", "--set", "model.mu1=nan"],
        ["bound", "-n", "3", "--corollary", "2", "--E0", "1",
         "--set", "bound.C_GN=1", "--set", "model.mu1=inf"],
        ["bound", "-n", "3", "--corollary", "2", "--E0", "1",
         "--set", "bound.C_GN=1", "--set", "model.chi=nan"],
        ["bound", "-n", "3", "--corollary", "2", "--E0", "1",
         "--set", "bound.C_GN=1", "--set", "model.alpha=inf"],
        ["simulate", "-n", "3", "--corollary", "2", "--set", "grid.shells=8",
         "--set", "model.chi=nan", "--set", "solver.max_steps=5"],
        # verify-odi has no slack: monitor.slack is an unknown key
        ["verify-odi", "-n", "3", "--corollary", "2", "--set", "grid.shells=8",
         "--set", "solver.t_final=0.001", "--set", "monitor.slack=nan"],
        ["verify-odi", "-n", "3", "--corollary", "2", "--set", "grid.shells=8",
         "--set", "solver.t_final=0.001", "--set", "monitor.slack=inf"],
        ["verify-odi", "-n", "3", "--corollary", "2", "--set", "grid.shells=8",
         "--set", "solver.t_final=0.001", "--set", "monitor.slack=-inf"],
        ["verify-embed", "-n", "3", "--eta", "1.5", "--set", "grid.shells=8",
         "--set", "verify.epsilon=nan"],
        ["verify-embed", "-n", "3", "--eta", "1.5", "--set", "grid.shells=8",
         "--set", "verify.epsilon=inf"],
        ["simulate", "-n", "3", "--corollary", "2", "--set", "grid.shells=8",
         "--set", "solver.max_steps=5", "--set", "solver.t_final=inf"],
        ["simulate", "-n", "3", "--corollary", "2", "--set", "grid.shells=8",
         "--set", "solver.max_steps=5", "--set", "solver.dt_max=inf"],
        ["simulate", "-n", "3", "--corollary", "2", "--set", "grid.shells=8",
         "--set", "solver.max_steps=5", "--set", "profile.width=0"],
        ["simulate", "-n", "3", "--corollary", "2", "--set", "grid.shells=8",
         "--set", "solver.max_steps=5", "--set", "profile.width=-1"],
        ["simulate", "-n", "3", "--corollary", "2", "--set", "grid.shells=8",
         "--set", "solver.max_steps=5", "--set", "profile.width=inf"],
        ["region", "-n", "3", "--set", "region.p_max=inf"],
        ["region", "-n", "3", "--set", "region.p_min=-inf"],
        ["region", "-n", "3", "--set", "region.p_max=1e300"],
        ["region", "-n", "3", "--set", "region.p_min=-1e300"],
        *(argv for argv, _ in NAMED.values()),
    ], ids=["p_step=0", "p_step<0", "p_step=nan", "trials=0", "trials<0",
            "E0=0", "gn_safety<0", "amplitude<0", "epsilon=0",
            "eta=0.5", "E0=inf", "optimize-E0=inf", "C_GN=inf",
            "gn_safety=inf", "optimize-C_GN=inf", "check-p=inf", "q=inf",
            "s1=inf", "s2=inf", "corollary1-p=inf",
            "verify-gn-gn_safety<0", "verify-gn-gn_safety=0",
            "verify-gn-gn_safety=inf", "verify-gn-gn_safety=nan",
            "gn_safety=nan", "mu1=nan", "mu1=inf", "chi=nan", "alpha=inf",
            "simulate-chi=nan", "slack=nan", "slack=inf", "slack=-inf",
            "epsilon=nan", "epsilon=inf", "t_final=inf", "dt_max=inf",
            "width=0", "width<0", "width=inf", "p_max=inf", "p_min=-inf",
            "p_max=1e300", "p_min=-1e300", *NAMED])
    def test_rejected_value_exits_2(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1
        # the line names the value that overflows or is not admissible
        for named_argv, named in NAMED.values():
            if argv == named_argv:
                assert named in err

    def test_bad_corollary_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["bound", "-n", "3", "--E0", "1", "--corollary", "5"])
        assert exc_info.value.code == 2
        assert "invalid choice: 5" in capsys.readouterr().err


# the runs of the flag table: few shells and steps, and a configured C_GN
RUN = ["--set", "grid.shells=8", "--set", "solver.max_steps=5",
       "--set", "solver.sample_every=1", "--set", "bound.C_GN=1"]

# command -> (its base query's flags, by FLAGS name, and the rest of its
# argv); each query also takes -n 3 and -o out, and runs in a fresh
# directory next to sweep.cfg
FLAG_BASES = {
    "check-params": ({"p": "3", "q": "6", "s1": "4", "s2": "2"}, []),
    "bound": ({"p": "3", "q": "6", "s1": "4", "s2": "2", "E0": "1"}, RUN),
    "optimize-bound": ({"p": "2", "q": "4", "E0": "1"}, RUN),
    "simulate": ({"p": "2", "q": "4"}, RUN),
    "verify-gn": ({"eta": "1.5"}, RUN),
    "verify-embed": ({"eta": "1.5"}, RUN),
    "verify-equivalence": ({}, []),
    "verify-odi": ({"p": "3", "q": "6", "s1": "4", "s2": "2"}, RUN),
    "region": ({}, ["--set", "region.p_step=0.5"]),
    "sweep": ({"p": "3", "q": "6", "s1": "4", "s2": "2"},
              [*RUN, "--config", "../sweep.cfg"]),
}
# flag -> the value that replaces its base value, or is added to the query
FLAG_CHANGES = {"output": "elsewhere", "dim": "4", "p": "2.5", "q": "5",
                "s1": "3.5", "s2": "1.75", "E0": "2", "corollary": "2",
                "eta": "1.25"}
FLAG_CASES = [(name, flag) for name, _, _, flags in cli.COMMANDS
              for flag in ("output", "dim", *flags)]


class TestInputSurface:
    """Each command takes only the flags of the keys it reads, and a
    corollary that fixes an index whose key is set is a config error."""

    @staticmethod
    def observe(tmp_path, monkeypatch, capsys, command, flags):
        """Exit code, stdout less config_hash, and every file written less
        metadata and config_hash, of one query run in a fresh directory."""
        flags = {"dim": "3", "output": "out", **flags}
        _, rest = FLAG_BASES[command]
        argv = [command, *rest]
        for flag, value in flags.items():
            argv += [FLAGS[flag][0][-1], value]
        (tmp_path / "sweep.cfg").write_text("sweep.model.chi = 5, 10\n")
        run_dir = tmp_path / f"run{len(list(tmp_path.glob('run*')))}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        monkeypatch.delenv(cli.OUTPUT_ROOT_ENV, raising=False)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage error
            code = exc.code

        def less_hash(text, *keys):
            try:
                payload = json.loads(text)
            except ValueError:
                return text
            for key in keys:
                payload.pop(key, None)
            return payload

        files = {str(path.relative_to(run_dir)): less_hash(
                     path.read_text(), "config_hash", "metadata")
                 for path in sorted(run_dir.rglob("*")) if path.is_file()}
        return code, less_hash(capsys.readouterr().out, "config_hash"), files

    @pytest.mark.parametrize(
        "command, flag", FLAG_CASES,
        ids=[f"{c} {FLAGS[f][0][-1]}" for c, f in FLAG_CASES])
    def test_every_flag_is_read(self, tmp_path, monkeypatch, capsys,
                                command, flag):
        # changing the flag alone changes the exit code, stdout or a file
        base = FLAG_BASES[command][0]
        before = self.observe(tmp_path, monkeypatch, capsys, command, base)
        after = self.observe(tmp_path, monkeypatch, capsys, command,
                             {**base, flag: FLAG_CHANGES[flag]})
        assert after != before

    def test_flag_cases_cover_every_command(self):
        assert {c for c, _ in FLAG_CASES} == set(FLAG_BASES)
        assert len(FLAG_CASES) == 2 * len(cli.COMMANDS) + 28

    @pytest.mark.parametrize("argv", [
        ["verify-gn", "--eta", "1.5", "-p", "7"],
        ["verify-embed", "--eta", "1.5", "--corollary", "2"],
        ["verify-odi", "--corollary", "2", "--eta", "1.5"],
        ["verify-odi", "--corollary", "2", "--E0", "1"],
        ["optimize-bound", "-p", "2", "-q", "4", "--E0", "1", "--s1", "3"],
        ["optimize-bound", "-p", "2", "-q", "4", "--E0", "1",
         "--corollary", "2"],
        ["simulate", "-p", "2", "-q", "4", "--s2", "1.5"],
        ["simulate", "--corollary", "2", "--E0", "1"],
        ["sweep", "--corollary", "2", "--E0", "1"],
    ], ids=["verify-gn -p", "verify-embed --corollary", "verify-odi --eta",
            "verify-odi --E0", "optimize-bound --s1",
            "optimize-bound --corollary", "simulate --s2", "simulate --E0",
            "sweep --E0"])
    def test_unread_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc_info:
            main([argv[0], "-n", "3", *argv[1:]])
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        name for name, _, _, _ in cli.COMMANDS if name != "sweep"])
    def test_sweep_axes_outside_sweep_exit_2(self, capsys, tmp_path, command):
        cfg_file = tmp_path / "axes.cfg"
        cfg_file.write_text("bound.corollary = 2\ngrid.shells = 8\n"
                            "solver.max_steps = 5\nbound.C_GN = 1\n"
                            "sweep.model.chi = 5, 10\n")
        assert main([command, "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1
        assert "sweep.model.chi" in err

    def test_help_names_each_flags_key(self, capsys):
        for name, _, _, flags in cli.COMMANDS:
            with pytest.raises(SystemExit):
                main([name, "--help"])
            out = capsys.readouterr().out
            for flag in ("output", "dim", *flags):
                assert f"sets {FLAGS[flag][2]}" in out

    @pytest.mark.parametrize("argv, key", [
        (["bound", "--E0", "1", "--corollary", "2", "-p", "5"], "indices.p"),
        (["bound", "--E0", "1", "--corollary", "1", "-p", "3", "--s1", "3"],
         "indices.s1"),
        (["bound", "--E0", "1", "--corollary", "2", "--set", "indices.q=4"],
         "indices.q"),
        (["bound", "--E0", "1", "--config", "run.cfg"], "indices.s2"),
        (["simulate", "--corollary", "1", "-p", "3", "-q", "6"], "indices.q"),
        (["verify-odi", "--corollary", "2", "--s1", "3"], "indices.s1"),
    ], ids=["corollary2-p", "corollary1-s1", "corollary2-set-q",
            "config-file-s2", "simulate-q", "verify-odi-s1"])
    def test_corollary_with_a_set_index_exits_2(self, capsys, tmp_path,
                                                monkeypatch, argv, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("bound.corollary = 1\n"
                                          "indices.p = 3\nindices.s2 = 2\n")
        assert main([argv[0], "-n", "3", *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1
        assert "bound.corollary" in err and key in err

    def test_conflicting_cell_is_recorded_not_fatal(self, capsys, tmp_path):
        # the config's corollary 2 fixes q: the cell that sets it errs alone
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(BLOWUP_CONFIG + "sweep.indices.q = nan, 4\n"
                            + f"output.dir = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", str(cfg_file)]) == 0
        assert json.loads(capsys.readouterr().out)["failures"] == 1
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert lines[1].startswith("run_000,true,")
        assert lines[2] == "run_001,error,,,"
        error = (tmp_path / "out" / "run_001" / "error.txt").read_text()
        assert error == ("ConfigError: bound.corollary=2 fixes indices.q, "
                         "which is also set (indices.q=4.0)\n")

    def test_run_reads_only_p_and_q(self, capsys, tmp_path):
        # under corollary 0 a run needs indices.p and indices.q alone, and
        # s1 and s2 change nothing but the config hash; corollary 2 at n = 3
        # is (p, q) = (2, 4) too
        run = ["simulate", "-n", "3", "--set", "grid.shells=16",
               "--set", "solver.t_final=0.001"]
        for name, extra in (("pq", ["-p", "2", "-q", "4"]),
                            ("s", ["-p", "2", "-q", "4", "--set",
                                   "indices.s1=3", "--set", "indices.s2=1.5"]),
                            ("corollary", ["--corollary", "2"])):
            assert main([*run, *extra, "-o", str(tmp_path / name)]) == 0
        capsys.readouterr()
        csvs = {(tmp_path / name / "trajectory.csv").read_bytes()
                for name in ("pq", "s", "corollary")}
        assert len(csvs) == 1
        for name in ("pq", "s", "corollary"):
            report = json.loads((tmp_path / name / "report.json").read_text())
            assert report["energy_indices"] == {"p": 2.0, "q": 4.0}

    def test_sweep_cell_report_names_its_indices(self, capsys, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(BLOWUP_CONFIG + "solver.max_steps = 5\n"
                            "sweep.model.dim = 3, 4\n"
                            + f"output.dir = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", str(cfg_file)]) == 0
        assert [json.loads((tmp_path / "out" / cell / "report.json")
                           .read_text())["energy_indices"]
                for cell in ("run_000", "run_001")] == [
                    {"p": 2.0, "q": 4.0}, {"p": 3.0, "q": 6.0}]


class TestSimulate:
    def test_blowup_report_and_csv(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(BLOWUP_CONFIG)
        code = main(["simulate", "--config", str(cfg_file),
                     "-o", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["blew_up"] is True
        assert payload["trigger"] == "linf_threshold"
        csv_text = (tmp_path / "out" / "trajectory.csv").read_text()
        assert csv_text.startswith("t,E_pq,")
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "timestamp" in report["metadata"]

    def test_acceptance_run_telemetry(self, capsys, tmp_path):
        # the acceptance run (threshold 5e6, every step sampled): no step
        # retried, and u passes a tenth of the grid's cap at step 197
        (tmp_path / "run.cfg").write_text(
            BLOWUP_CONFIG + "solver.blowup_threshold = 5e6\n"
            "solver.sample_every = 1\n")
        assert main(["simulate", "--config", str(tmp_path / "run.cfg"),
                     "-o", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["rejected_steps"] == 0
        assert report["grid_cap"] == pytest.approx(1.4056469491729e7,
                                                   rel=1e-13)
        assert report["t_cap_tenth"] == 5.344901769104772e-4
        with open(tmp_path / "out" / "trajectory.csv") as stream:
            rows = list(csv.DictReader(stream))
        assert float(rows[197]["t"]) == report["t_cap_tenth"]
        assert (float(rows[196]["Linf_u"]) <= 0.1 * report["grid_cap"]
                < float(rows[197]["Linf_u"]))

    def test_stop_reason_names_the_step_budget(self, capsys, tmp_path):
        # the README's example of a run that ends without blowing up
        assert main(["simulate", "-n", "3", "--corollary", "2",
                     "--set", "model.xi=0.5",
                     "--set", "solver.max_steps=300"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["blew_up"], payload["trigger"], payload["steps"],
                payload["stop_reason"]) == (False, None, 300, "max_steps")
        (tmp_path / "sweep.cfg").write_text(
            BLOWUP_CONFIG + "solver.max_steps = 50\n"
            f"output.dir = {tmp_path / 'out'}\nsweep.model.chi = 0, 10\n")
        assert main(["sweep", "--config", str(tmp_path / "sweep.cfg")]) == 0
        assert [json.loads((tmp_path / "out" / cell / "report.json")
                           .read_text())["stop_reason"]
                for cell in ("run_000", "run_001")] == ["max_steps"] * 2

    def test_output_root_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CHEMOBOUND_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(BLOWUP_CONFIG + "solver.t_final = 1e-4\n"
                            "solver.blowup_threshold = 1e12\n")
        assert main(["simulate", "--config", str(cfg_file)]) == 0
        assert (tmp_path / "root" / "report.json").exists()


    def test_rejected_solver_value_usage_error(self, capsys):
        # cfl = 0 would take no step and report a blow-up at t = 0
        code = main(["simulate", "-n", "3", "--corollary", "2",
                     "--set", "solver.cfl=0", "--set", "grid.shells=8"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "config error: solver cfl must be > 0")


class TestVerifySubcommands:
    @pytest.mark.parametrize("override", ["grid.shells=0", "model.radius=-1",
                                          "model.radius=nan",
                                          "model.radius=inf"])
    def test_rejected_grid_value_usage_error(self, capsys, override):
        code = main(["verify-gn", "-n", "3", "--eta", "1.5",
                     "--set", override])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: need R > 0")

    def test_verify_equivalence(self, capsys):
        code = main(["verify-equivalence", "-n", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["samples"] > 0
        assert payload["violations"] == 0
        assert "seed" not in payload

    def test_verify_gn(self, capsys):
        code = main(["verify-gn", "-n", "3", "--eta", "1.5",
                     "--set", "grid.shells=32"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["inflated"] == pytest.approx(2.0 * payload["estimate"])
        assert "seed" not in payload

    def test_verify_embed(self, capsys):
        code = main(["verify-embed", "-n", "3", "--eta", "1.5",
                     "--set", "grid.shells=32"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["violations"] == 0

    def test_verify_odi_decay_run(self, capsys):
        code = main(["verify-odi", "-n", "3", "--corollary", "2",
                     "--set", "model.chi=0", "--set", "model.xi=0",
                     "--set", "grid.shells=32",
                     "--set", "profile.amplitude=5",
                     "--set", "profile.width=0.2",
                     "--set", "solver.t_final=0.02",
                     "--set", "solver.dt_max=1e-3",
                     "--set", "solver.sample_every=1"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["violations"] == 0

    def test_verify_odi_short_run_names_the_sample_keys(self, capsys):
        # sample_every defaults to 20, so 5 steps record 2 samples
        code = main(["verify-odi", "-n", "3", "-p", "3", "-q", "6",
                     "--s1", "4", "--s2", "2", "--set", "grid.shells=8",
                     "--set", "solver.max_steps=5", "--set", "bound.C_GN=1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1
        for part in ("2 samples", "solver.sample_every", "solver.max_steps",
                     "solver.t_final"):
            assert part in err


class TestSweep:
    def _run(self, tmp_path, name):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(BLOWUP_CONFIG
                            + "sweep.model.chi = 5, 10, 20\n"
                            + f"output.dir = {tmp_path / name}\n")
        assert main(["sweep", "--config", str(cfg_file)]) == 0
        return (tmp_path / name / "summary.csv").read_text()

    def test_summary_shape_and_margin(self, capsys, tmp_path):
        summary = self._run(tmp_path, "a")
        lines = summary.splitlines()
        assert lines[0] == "run_id,blew_up,t_detect,t_lower,margin"
        assert len(lines) == 4
        for line in lines[1:]:
            run_id, blew_up, t_detect, t_lower, margin = line.split(",")
            if blew_up == "true":
                assert float(margin) >= 0.0

    def test_deterministic_summary(self, capsys, tmp_path):
        assert self._run(tmp_path, "a") == self._run(tmp_path, "b")

    def test_cell_report_matches_simulate_report(self, capsys, tmp_path):
        cfg_text = BLOWUP_CONFIG
        (tmp_path / "run.cfg").write_text(cfg_text)
        assert main(["simulate", "--config", str(tmp_path / "run.cfg"),
                     "-o", str(tmp_path / "solo")]) == 0
        (tmp_path / "sweep.cfg").write_text(
            cfg_text + "sweep.model.chi = 10.0\n"
            + f"output.dir = {tmp_path / 'sweep'}\n")
        assert main(["sweep", "--config", str(tmp_path / "sweep.cfg")]) == 0
        solo = json.loads((tmp_path / "solo" / "report.json").read_text())
        cell = json.loads(
            (tmp_path / "sweep" / "run_000" / "report.json").read_text())
        del solo["metadata"]
        assert solo.keys() == cell.keys()
        del solo["config_hash"], cell["config_hash"]
        assert solo == cell

    def test_overflowing_cell_is_recorded_not_fatal(self, capsys, tmp_path):
        # epsilon = 1e-300 overflows epsilon**(-h) while the bound is built
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(BLOWUP_CONFIG
                            + "sweep.indices.epsilon = 0.001, 1e-300\n"
                            + f"output.dir = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", str(cfg_file)]) == 0
        assert json.loads(capsys.readouterr().out)["failures"] == 1
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert lines[1].startswith("run_000,true,")
        assert lines[2] == "run_001,error,,,"
        error = (tmp_path / "out" / "run_001" / "error.txt").read_text()
        assert error.startswith("ConfigError: indices.epsilon=1e-300 with")

    def test_rejected_config_value_cell_is_recorded(self, capsys, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(BLOWUP_CONFIG
                            + "sweep.model.alpha = 1.0, 0.0\n"
                            + "bound.C_GN = 1.0\n"
                            + f"output.dir = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", str(cfg_file)]) == 0
        assert json.loads(capsys.readouterr().out)["failures"] == 1
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert lines[2] == "run_001,error,,,"
        error = (tmp_path / "out" / "run_001" / "error.txt").read_text()
        assert error == ("ParameterError: alpha must be positive and "
                         "finite, got 0.0\n")

    def test_rejected_solver_value_cell_is_recorded(self, capsys, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(BLOWUP_CONFIG
                            + "sweep.solver.cfl = 0.2, 0.0\n"
                            + "bound.C_GN = 1.0\n"
                            + f"output.dir = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", str(cfg_file)]) == 0
        assert json.loads(capsys.readouterr().out)["failures"] == 1
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert lines[1].startswith("run_000,true,")
        assert lines[2] == "run_001,error,,,"
        error = (tmp_path / "out" / "run_001" / "error.txt").read_text()
        assert error == "ParameterError: solver cfl must be > 0, got 0.0\n"

    def _sweep_and_solo_runs(self, tmp_path, axis, solo_lines):
        """Run the sweep over `axis`; then, for each config line of
        solo_lines, the simulate run of that cell alone.  Returns the
        summary lines and (cell, solo) pairs of trajectory.csv bytes."""
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(BLOWUP_CONFIG + axis + "bound.C_GN = 1.0\n"
                            + f"output.dir = {tmp_path / 'out'}\n")
        assert main(["sweep", "--config", str(cfg_file)]) == 0
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        pairs = []
        for idx, line in solo_lines.items():
            solo_cfg = tmp_path / f"solo{idx}.cfg"
            solo_cfg.write_text(BLOWUP_CONFIG + line)
            assert main(["simulate", "--config", str(solo_cfg),
                         "-o", str(tmp_path / f"solo{idx}")]) == 0
            pairs.append((
                (tmp_path / "out" / f"run_{idx:03d}" / "trajectory.csv"
                 ).read_bytes(),
                (tmp_path / f"solo{idx}" / "trajectory.csv").read_bytes()))
        return lines, pairs

    def test_error_cell_mid_axis_leaves_the_batch_alone(self, capsys,
                                                         tmp_path):
        lines, pairs = self._sweep_and_solo_runs(
            tmp_path, "sweep.model.chi = 5, -1, 10\n",
            {0: "model.chi = 5\n", 2: "model.chi = 10\n"})
        assert lines[2] == "run_001,error,,,"
        assert lines[1].startswith("run_000,true,")
        assert lines[3].startswith("run_002,true,")
        for cell, solo in pairs:
            assert cell == solo

    def test_cell_failing_in_the_batch_runs_alone(self, capsys, tmp_path,
                                                  monkeypatch):
        # a batch that raises is run again cell by cell: only the failing
        # cell gets an error row
        real_step = pde.step

        def failing_step(state, dt, grid, params, vel=None, ws=None):
            models = getattr(params, "models", (params,))
            if any(m.chi == 20.0 for m in models):
                raise ChemoboundError("solver failure")
            return real_step(state, dt, grid, params, vel, ws)

        monkeypatch.setattr(pde, "step", failing_step)
        lines, pairs = self._sweep_and_solo_runs(
            tmp_path, "sweep.model.chi = 5, 20, 10\n",
            {0: "model.chi = 5\n", 2: "model.chi = 10\n"})
        assert lines[2] == "run_001,error,,,"
        error = (tmp_path / "out" / "run_001" / "error.txt").read_text()
        assert error == "ChemoboundError: solver failure\n"
        for cell, solo in pairs:
            assert cell == solo

    def test_each_batch_is_written_before_the_next_runs(self, capsys,
                                                        tmp_path,
                                                        monkeypatch):
        # cells 0 and 2 share a grid, cell 1 has its own: two batches, and
        # the rows stay in axis order
        real_run = pde.run
        written = []

        def run(grid, *args):
            out = tmp_path / "out"
            written.append(sorted(p.name for p in out.iterdir())
                           if out.exists() else [])
            return real_run(grid, *args)

        monkeypatch.setattr(pde, "run", run)
        lines, pairs = self._sweep_and_solo_runs(
            tmp_path, "sweep.grid.shells = 40, 56, 40\n",
            {i: f"grid.shells = {m}\n" for i, m in enumerate((40, 56, 40))})
        assert written[:2] == [[], ["run_000", "run_002"]]
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["run_000", "true"], ["run_001", "true"], ["run_002", "true"]]
        for cell, solo in pairs:
            assert cell == solo

    def _counted_sweep(self, tmp_path, monkeypatch, axis):
        calls = []
        estimate = verify.estimate_gn_constant

        def counting(*args, **kwargs):
            calls.append(args)
            return estimate(*args, **kwargs)

        monkeypatch.setattr(verify, "estimate_gn_constant", counting)
        cfg_text = BLOWUP_CONFIG + f"output.dir = {tmp_path / 'out'}\n"
        (tmp_path / "sweep.cfg").write_text(cfg_text + axis)
        assert main(["sweep", "--config", str(tmp_path / "sweep.cfg")]) == 0
        bounds = [json.loads(path.read_text()) for path in
                  sorted((tmp_path / "out").glob("run_*/bound.json"))]
        return cfg_text, calls, bounds

    def test_missing_etas_estimated_in_one_call(self, monkeypatch):
        calls = []
        estimate = verify.estimate_gn_constant

        def counting(grid, etas):
            calls.append(etas)
            return estimate(grid, etas)

        monkeypatch.setattr(verify, "estimate_gn_constant", counting)
        cfg, _ = parse_config_text("")
        grid, memo = build_grid(cfg), {}
        _, first = cli.resolve_gn_constant(cfg, (1.5, 1.2, 1.5), grid, memo)
        _, second = cli.resolve_gn_constant(cfg, (1.3, 1.2), grid, memo)
        assert calls == [[1.2, 1.5], [1.3]]
        per_eta = {**first["C_GN_per_eta"], **second["C_GN_per_eta"]}
        assert per_eta == {str(eta): estimate(grid, eta)
                           for eta in (1.2, 1.3, 1.5)}

    def test_one_constant_shared_along_chi(self, capsys, tmp_path,
                                           monkeypatch):
        _, calls, bounds = self._counted_sweep(
            tmp_path, monkeypatch, "sweep.model.chi = 5, 10, 20\n")
        assert len(calls) == 1
        assert len(bounds) == 3
        for bound in bounds:
            assert bound["C_GN_source"] == "estimated"
            assert bound["C_GN"] == bounds[0]["C_GN"]
            assert bound["C_GN_per_eta"] == bounds[0]["C_GN_per_eta"]

    def test_safety_axis_shares_one_estimate(self, capsys, tmp_path,
                                             monkeypatch):
        # the safety factor scales the estimate but does not change it
        _, calls, bounds = self._counted_sweep(
            tmp_path, monkeypatch, "sweep.bound.gn_safety = 2, 3\n")
        assert len(calls) == 1
        assert bounds[1]["C_GN"] == 3.0 * bounds[0]["C_GN_per_eta"]["1.5"]

    def test_seed_axis_shares_one_estimate(self, capsys, tmp_path,
                                           monkeypatch):
        # the estimate has no seed, so cells that differ only in it share it
        _, calls, bounds = self._counted_sweep(
            tmp_path, monkeypatch, "sweep.seed = 0, 1\n")
        assert len(calls) == 1
        assert len(bounds) == 2
        assert bounds[0]["C_GN"] == bounds[1]["C_GN"]

    def test_cell_bound_matches_solo_bound(self, capsys, tmp_path,
                                           monkeypatch):
        cfg_text, _, bounds = self._counted_sweep(
            tmp_path, monkeypatch, "sweep.model.chi = 5, 10, 20\n")
        cell_cfg, _ = parse_config_text(cfg_text)
        cell_cfg["model.chi"] = 20.0
        with open(tmp_path / "out" / "run_002" / "trajectory.csv") as stream:
            E0 = float(stream.read().splitlines()[1].split(",")[1])
        solo, meta = bound_from_config(
            cell_cfg, build_model(cell_cfg), build_grid(cell_cfg),
            cli.resolve_indices(cell_cfg), E0)
        assert bounds[2]["t_lower"] == solo.t_lower
        assert bounds[2]["C_GN"] == meta["C_GN_safety"] * max(
            meta["C_GN_per_eta"].values())

    def test_each_cell_built_once(self, capsys, tmp_path, monkeypatch):
        # the model, grid and indices a cell runs with serve its bound too
        calls = collections.Counter()
        for module, name in ((cfgmod, "build_model"), (cfgmod, "build_grid"),
                             (cli, "resolve_indices")):
            def counting(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
        self._counted_sweep(tmp_path, monkeypatch,
                            "sweep.model.chi = 5, 10, 20\n")
        assert calls == {"build_model": 3, "build_grid": 3,
                         "resolve_indices": 3}

    def test_sweep_without_axes_is_usage_error(self, capsys, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text(f"output.dir = {tmp_path / 'x'}\n")
        assert main(["sweep", "--config", str(cfg_file)]) == 2


# the scipy submodules a command loads only on the paths that call them
LAZY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.special",
              "scipy.linalg")

FRESH_RUN = """
import contextlib, io, json, sys
from chemobound import cli
runs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    runs.append({"code": code, "out": out.getvalue(), "loaded": [
        m for m in json.loads(sys.argv[2]) if m in sys.modules]})
print(json.dumps(runs))
"""

# solves one tridiagonal system through pde._gtsv after importing `first`,
# then compares the dgtsv it bound with scipy.linalg.lapack's
DGTSV_IDENTITY = """
import inspect, json, sys
import numpy as np
if sys.argv[1] == "scipy.linalg":
    import scipy.linalg
from chemobound import pde
x = pde._gtsv(np.full(2, 1.0), np.full(3, 2.0), np.full(2, 1.0),
              np.array([1.0, 1.0, 1.0]))
linalg_loaded = "scipy.linalg" in sys.modules
import scipy.linalg.lapack
bound = inspect.getclosurevars(pde._gtsv).nonlocals["dgtsv"]
print(json.dumps({"linalg_loaded": linalg_loaded,
                  "same": bound is scipy.linalg.lapack.dgtsv,
                  "x": x.tolist()}))
"""


class TestColdStart:
    """A fresh interpreter loads a scipy submodule only on a path that
    calls it; one subprocess per test."""

    @staticmethod
    def fresh_python(tmp_path, script, *args):
        """The stdout of `script` run with `args` in a fresh interpreter
        that imports chemobound from this checkout, in `tmp_path`."""
        env = {k: v for k, v in os.environ.items()
               if k != cli.OUTPUT_ROOT_ENV}
        src = str(Path(chemobound.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", script, *args],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @classmethod
    def fresh_run(cls, tmp_path, *argvs):
        """Run each argv through cli.main, in order, in one fresh
        interpreter; returns each one's exit code, stdout and the modules
        of LAZY_SCIPY loaded once it has returned."""
        return json.loads(cls.fresh_python(
            tmp_path, FRESH_RUN, json.dumps(argvs), json.dumps(LAZY_SCIPY)))

    def test_bound_and_check_params_load_no_scipy(self, tmp_path):
        runs = self.fresh_run(
            tmp_path, ["bound", "-n", "3", "--corollary", "2", "--E0", "1"],
            ["check-params", "-n", "3", "-p", "3", "-q", "6", "--s1", "4",
             "--s2", "2"])
        assert [run["code"] for run in runs] == [0, 0]
        assert [run["loaded"] for run in runs] == [[], []]

    # the tridiagonal solve binds LAPACK's dgtsv without scipy.linalg
    @pytest.mark.parametrize("argv", [
        ["simulate", "-n", "3", "--corollary", "2", "--set", "grid.shells=16",
         "--set", "solver.t_final=0.001"],
        ["sweep", "--config", "sweep.cfg"],
        ["verify-odi", "-n", "3", "--corollary", "2",
         "--set", "grid.shells=16", "--set", "solver.t_final=0.001"]],
        ids=["simulate", "sweep", "verify-odi"])
    def test_solving_command_loads_no_scipy_submodule(self, tmp_path, argv):
        (tmp_path / "sweep.cfg").write_text(
            BLOWUP_CONFIG + "solver.max_steps = 200\noutput.dir = out\n"
            "sweep.model.chi = 5, 10\n")
        [run] = self.fresh_run(tmp_path, argv)
        assert run["code"] == 0
        assert run["loaded"] == []

    @pytest.mark.parametrize("first", ["chemobound", "scipy.linalg"])
    def test_solver_calls_scipy_dgtsv(self, tmp_path, first):
        # the dgtsv the solver binds is the object scipy.linalg.lapack
        # exports, whichever of the two is imported first
        out = json.loads(self.fresh_python(tmp_path, DGTSV_IDENTITY, first))
        assert out == {"linalg_loaded": first == "scipy.linalg",
                       "same": True, "x": [0.5, 0.0, 0.5]}

    def test_quad_fallback_matches_in_process(self, tmp_path, capsys):
        # some of this query's rows fall back to integrate.quad
        argv = ["optimize-bound", "-n", "3", "-p", "2", "-q", "4",
                "--E0", "1"]
        [run] = self.fresh_run(tmp_path, argv)
        assert run["code"] == 0
        assert "scipy.integrate" in run["loaded"]
        assert main(argv) == 0
        in_process = json.loads(capsys.readouterr().out)["t_lower"]
        assert json.loads(run["out"])["t_lower"] == in_process

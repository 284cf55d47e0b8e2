"""Finite-volume solver: conservation, steady states, convergence, blow-up."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from chemobound.errors import ParameterError
from chemobound.exponents import ModelParams
from chemobound.pde import (SAMPLE_BLOCK, ConstantProfile, FieldState,
                            GaussianBump, ParamStack, SolverConfig,
                            cell_gradients, energy, face_gradients,
                            init_state, make_grid, mass, norms, run, step,
                            unit_sphere_area)

DIFFUSION_ONLY = ModelParams(chi=0.0, xi=0.0, dim=3)


def _banded_reference(grid, dt, decay):
    """I + dt*decay - dt*L in solve_banded's (1, 1) layout, assembled from
    the face areas and shell measures on every call."""
    A, V, dr, M = grid.face_areas, grid.shell_measures, grid.dr, grid.M
    lower = A[1:-1] / (V[1:] * dr)
    upper = A[1:-1] / (V[:-1] * dr)
    diag = np.zeros(M)
    diag[:-1] += upper
    diag[1:] += lower
    ab = np.zeros((3, M))
    ab[0, 1:] = -dt * upper
    ab[1, :] = 1.0 + dt * decay + dt * diag
    ab[2, :-1] = -dt * lower
    return ab


def _reference_step(state, dt, grid, params):
    """Independent IMEX step: padded face gradients, np.diff divergence and
    scipy's solve_banded, with the same clipping rule as step."""
    def grad(f):
        g = np.zeros(grid.M + 1)
        g[1:-1] = np.diff(f) / grid.dr
        return g

    vel = (params.chi * grad(state.v) - params.xi * grad(state.w))[1:-1]
    flux = np.zeros(grid.M + 1)
    up = np.where(vel >= 0.0, state.u[:-1], state.u[1:])
    flux[1:-1] = grid.face_areas[1:-1] * vel * up
    source = params.mu1 * state.u
    if params.mu2 > 0:
        source = source - params.mu2 * state.u ** params.k_logistic
    expl = -np.diff(flux) / grid.shell_measures + source
    fields = [
        solve_banded((1, 1), _banded_reference(grid, dt, 0.0),
                     state.u + dt * expl),
        solve_banded((1, 1), _banded_reference(grid, dt, params.alpha),
                     state.v + dt * params.beta * state.u),
        solve_banded((1, 1), _banded_reference(grid, dt, params.gamma),
                     state.w + dt * params.delta * state.u)]
    clips = 0
    for i, f in enumerate(fields):
        floor = -1e-10 * max(float(np.max(np.abs(f))), 1.0)
        clips += int(np.count_nonzero(f < floor))
        fields[i] = np.maximum(f, 0.0)
    return FieldState(state.t + dt, *fields), clips


def _step_one(state, dt, grid, params):
    """step on the one-state stack of `state`: the new state at t + dt, as
    run advances a cell's time, and its clip count."""
    new, clips = step(state.fields[None], [dt], grid, ParamStack([params]))
    return FieldState.from_fields(state.t + dt, new[0]), clips[0]


def _nonneg_fields(M):
    return st.lists(st.floats(0.0, 1e3), min_size=M, max_size=M).map(
        lambda xs: np.array(xs))


class TestGrid:
    @pytest.mark.parametrize("n,R,M", [(3, 1.0, 16), (4, 2.0, 33), (5, 0.7, 8)])
    def test_shell_measures_sum_to_volume(self, n, R, M):
        grid = make_grid(n, R, M)
        total = float(np.sum(grid.shell_measures))
        assert total == pytest.approx(grid.volume, rel=1e-12)

    def test_origin_face_has_zero_area(self):
        grid = make_grid(3, 1.0, 16)
        assert grid.face_areas[0] == 0.0

    def test_unit_sphere_area(self):
        assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi)

    def test_rejects_low_dimension(self):
        with pytest.raises(ParameterError):
            make_grid(2, 1.0, 16)


class TestInitState:
    def test_gaussian_mass(self):
        grid = make_grid(3, 1.0, 400)
        A, w = 5.0, 0.05
        state = init_state(grid, GaussianBump(A, w))
        assert mass(state, grid) == pytest.approx(
            A * (2.0 * math.pi * w ** 2) ** 1.5, rel=1e-2)

    def test_negative_table_rejected(self):
        grid = make_grid(3, 1.0, 8)
        with pytest.raises(ParameterError):
            init_state(grid, GaussianBump(-0.1, 0.2))


class TestStep:
    def test_constant_steady_state_per_step(self):
        params = ModelParams(chi=2.0, xi=1.0, alpha=2.0, beta=1.0,
                             gamma=3.0, delta=1.5, dim=3)
        grid = make_grid(3, 1.0, 32)
        state = init_state(grid, ConstantProfile(
            1.0, params.beta / params.alpha, params.delta / params.gamma))
        new, clips = _step_one(state, 1e-3, grid, params)
        assert clips == 0
        assert np.max(np.abs(new.u - state.u)) < 1e-12
        assert np.max(np.abs(new.v - state.v)) < 1e-12
        assert np.max(np.abs(new.w - state.w)) < 1e-12

    def test_mass_conserved_without_sources(self):
        grid = make_grid(3, 1.0, 24)
        state = init_state(grid, GaussianBump(3.0, 0.2))
        m0 = mass(state, grid)
        for _ in range(200):
            state, _ = _step_one(state, 5e-4, grid, DIFFUSION_ONLY)
        assert abs(mass(state, grid) - m0) / m0 < 1e-12

    def test_logistic_mass_growth(self):
        params = ModelParams(chi=0.0, xi=0.0, mu1=2.0, dim=3)
        grid = make_grid(3, 1.0, 16)
        state = init_state(grid, ConstantProfile(1.0, 0.5, 0.5))
        m0 = mass(state, grid)
        dt, nsteps = 1e-4, 500
        for _ in range(nsteps):
            state, _ = _step_one(state, dt, grid, params)
        expected = m0 * math.exp(params.mu1 * dt * nsteps)
        assert mass(state, grid) == pytest.approx(expected, rel=1e-3)

    def test_rejects_nonpositive_dt(self):
        grid = make_grid(3, 1.0, 8)
        state = init_state(grid, ConstantProfile(1.0, 0.0, 0.0))
        with pytest.raises(ParameterError):
            _step_one(state, 0.0, grid, DIFFUSION_ONLY)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("M", [8, 48])
    def test_bitwise_equal_to_banded_reference(self, n, M):
        rng = np.random.default_rng(100 * n + M)
        grid = make_grid(n, 1.0, M)
        cases = [
            ModelParams(chi=10.0, xi=0.5, alpha=1.3, beta=0.7, gamma=2.1,
                        delta=1.9, dim=n),
            ModelParams(chi=50.0, xi=5.0, alpha=0.4, beta=3.0, gamma=5.0,
                        delta=0.2, mu1=1.5, mu2=0.8, k_logistic=1.05, dim=n),
        ]
        clipped = 0
        for params in cases:
            for dt in (1e-6, 1e-4, 1e-2):
                for _ in range(5):
                    state = FieldState(0.25, *(rng.uniform(0.0, 10.0, M)
                                               * rng.choice([1.0, 100.0])
                                               for _ in range(3)))
                    new, clips = _step_one(state, dt, grid, params)
                    ref, ref_clips = _reference_step(state, dt, grid, params)
                    assert new.t == ref.t
                    assert clips == ref_clips
                    clipped += clips
                    for a, b in ((new.u, ref.u), (new.v, ref.v),
                                 (new.w, ref.w)):
                        assert np.array_equal(a, b)
        # the large-dt cases drive u negative, so the clip path is covered
        assert clipped > 0

    def test_nonfinite_state_returned_not_raised(self):
        grid = make_grid(3, 1.0, 16)
        params = ModelParams(chi=10.0, xi=0.5, mu1=100.0, dim=3)
        state = init_state(grid, ConstantProfile(1e308, 0.0, 0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            new, clips = _step_one(state, 1e-2, grid, params)
        assert not np.all(np.isfinite(new.u))
        assert clips == 0

    def test_nonfinite_steps_reach_retry_and_trigger(self):
        grid = make_grid(3, 1.0, 16)
        params = ModelParams(chi=10.0, xi=0.5, mu1=100.0, dim=3)
        state = init_state(grid, ConstantProfile(1e308, 0.0, 0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            traj = run(grid, params, state, 2.0, 4.0,
                       SolverConfig(dt_init=1e-2, blowup_threshold=math.inf))
        assert traj.report.blew_up
        assert traj.report.trigger == "nonfinite_state"
        assert traj.steps == 0


class TestStepProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(3, 5), M=st.integers(2, 24),
           chi=st.floats(0.0, 50.0), xi=st.floats(0.0, 50.0),
           decay=st.floats(0.1, 5.0), dt=st.floats(1e-7, 1e-2))
    def test_fields_stay_nonnegative(self, data, n, M, chi, xi, decay, dt):
        grid = make_grid(n, 1.0, M)
        params = ModelParams(chi=chi, xi=xi, alpha=decay, gamma=decay,
                             dim=n)
        state = FieldState(0.0, *(data.draw(_nonneg_fields(M))
                                  for _ in range(3)))
        new, clips = _step_one(state, dt, grid, params)
        assert clips >= 0
        for f in (new.u, new.v, new.w):
            assert np.all(np.isfinite(f)) and np.all(f >= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(3, 5), M=st.integers(2, 24),
           dt=st.floats(1e-7, 1e-2))
    def test_mass_conserved_without_advection_or_source(self, data, n, M,
                                                         dt):
        grid = make_grid(n, 1.0, M)
        params = ModelParams(chi=0.0, xi=0.0, mu1=0.0, mu2=0.0, dim=n)
        u = data.draw(_nonneg_fields(M).filter(lambda f: f.sum() > 1e-3))
        state = FieldState(0.0, u, np.zeros(M), np.zeros(M))
        m0 = mass(state, grid)
        new, _ = _step_one(state, dt, grid, params)
        assert abs(mass(new, grid) - m0) / m0 < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 5), M=st.integers(2, 48),
           u0=st.floats(1e-3, 1e3), chi=st.floats(0.0, 50.0),
           xi=st.floats(0.0, 50.0), alpha=st.floats(0.1, 5.0),
           gamma=st.floats(0.1, 5.0), dt=st.floats(1e-7, 1e-2))
    def test_constant_steady_state_preserved(self, n, M, u0, chi, xi, alpha,
                                             gamma, dt):
        grid = make_grid(n, 1.0, M)
        params = ModelParams(chi=chi, xi=xi, alpha=alpha, beta=1.0,
                             gamma=gamma, delta=1.0, dim=n)
        state = init_state(grid, ConstantProfile(u0, u0 / alpha, u0 / gamma))
        new, clips = _step_one(state, dt, grid, params)
        assert clips == 0
        for a, b in ((new.u, state.u), (new.v, state.v), (new.w, state.w)):
            assert np.max(np.abs(a - b)) <= 1e-12 * b[0]


TRIGGERS = (None, "linf_threshold", "dt_underflow", "nonfinite_state")


class TestRunProperties:
    @settings(max_examples=60, deadline=None)
    @given(M=st.integers(2, 16), chi=st.floats(0.0, 40.0),
           mu1=st.sampled_from([0.0, 100.0]),
           u0=st.sampled_from([1.0, 1e2, 1e4, 1e308]),
           width=st.floats(0.05, 0.5),
           threshold=st.sampled_from([10.0, 1e4, 1e6, math.inf]),
           dt_min=st.sampled_from([1e-12, 1e-8, 1e-5, 1e-3]),
           t_final=st.floats(1e-4, 1e-2))
    def test_trigger_taxonomy(self, M, chi, mu1, u0, width, threshold,
                              dt_min, t_final):
        grid = make_grid(3, 1.0, M)
        params = ModelParams(chi=chi, xi=0.5, mu1=mu1, dim=3)
        profile = (ConstantProfile(u0, 0.0, 0.0) if u0 == 1e308
                   else GaussianBump(u0, width))
        cfg = SolverConfig(t_final=t_final, dt_init=max(1e-6, dt_min),
                           dt_min=dt_min, blowup_threshold=threshold,
                           max_steps=300, sample_every=7)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = run(grid, params, init_state(grid, profile), 2.0, 4.0, cfg)
        report = traj.report
        assert report.trigger in TRIGGERS
        assert report.blew_up == (report.trigger is not None)
        if report.blew_up:
            assert report.t_detect == traj.final_state.t == traj.t[-1]
        else:
            assert report.t_detect is None

    def test_overflowing_speed_is_dt_underflow(self):
        # round-off gradients of a 1e308 state give a face speed whose
        # square overflows in the dt limiter; run reports it, not raises
        grid = make_grid(3, 1.0, 15)
        params = ModelParams(chi=16.0, xi=0.5, dim=3)
        state = init_state(grid, ConstantProfile(1e308, 0.0, 0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            traj = run(grid, params, state, 2.0, 4.0,
                       SolverConfig(t_final=1e-2, blowup_threshold=math.inf))
        assert traj.report.trigger == "dt_underflow"
        assert traj.report.t_detect == traj.final_state.t

    def test_nonfinite_chemical_field_start(self):
        # u and v finite, an inf in w: run reports the start as it is,
        # before the infinite face speed sends dt below dt_min
        grid = make_grid(3, 1.0, 16)
        params = ModelParams(chi=10.0, xi=0.5, dim=3)
        w = np.zeros(16)
        w[5] = math.inf
        state = FieldState(0.0, np.ones(16), np.zeros(16), w)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = run(grid, params, state, 2.0, 4.0, SolverConfig())
        assert traj.report.trigger == "nonfinite_state"
        assert traj.report.blew_up
        assert traj.steps == 0
        assert traj.report.t_detect == 0.0


class TestSolverConfig:
    @pytest.mark.parametrize("field, value", [
        ("t_final", 0.0), ("cfl", 0.0), ("cfl", math.nan), ("dt_min", 0.0),
        ("dt_min", 1e-5), ("dt_max", 1e-13), ("growth", 0.5),
        ("grow_after", 0), ("blowup_threshold", 0.0), ("max_steps", 0),
        ("sample_every", 0)])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ParameterError, match=f"solver {field} must be"):
            SolverConfig(**{field: value})

    def test_accepts_boundary_values(self):
        SolverConfig(dt_init=1e-6, dt_min=1e-6, dt_max=1e-6, growth=1.0,
                     grow_after=1, max_steps=1, sample_every=1)


class TestDiagnostics:
    def test_energy_of_constant_state(self):
        grid = make_grid(3, 1.0, 32)
        state = init_state(grid, ConstantProfile(2.0, 1.0, 1.0))
        p, q = 2.0, 4.0
        assert energy(state, p, q, grid) == pytest.approx(
            grid.volume * 2.0 ** p / p, rel=1e-12)

    def test_energy_homogeneity(self):
        grid = make_grid(3, 1.0, 32)
        a = init_state(grid, ConstantProfile(1.0, 0.0, 0.0))
        b = init_state(grid, ConstantProfile(2.0, 0.0, 0.0))
        assert energy(b, 3.0, 4.0, grid) == pytest.approx(
            2.0 ** 3 * energy(a, 3.0, 4.0, grid))

    def test_energy_against_trapezoid_oracle(self):
        grid = make_grid(3, 1.0, 256)
        r = grid.r_centers
        u = 1.0 + np.cos(math.pi * r)
        state = FieldState(0.0, u, np.zeros_like(u), np.zeros_like(u))
        # independent quadrature of (1/2) int u^2 over the ball
        omega = unit_sphere_area(3)
        rr = np.linspace(0.0, 1.0, 20001)
        uu = 1.0 + np.cos(math.pi * rr)
        oracle = 0.5 * omega * np.trapezoid(uu ** 2 * rr ** 2, rr)
        assert energy(state, 2.0, 4.0, grid) == pytest.approx(oracle, rel=1e-3)

    def test_norms_of_constant_state(self):
        grid = make_grid(3, 1.0, 16)
        state = init_state(grid, ConstantProfile(2.0, 1.0, 1.0))
        lp, linf, gv, gw = norms(state, grid, 3.0)
        assert lp == pytest.approx((2.0 ** 3 * grid.volume) ** (1 / 3.0))
        assert linf == 2.0
        assert gv == 0.0 and gw == 0.0

    def test_mass_of_unit_state(self):
        grid = make_grid(4, 1.5, 16)
        state = init_state(grid, ConstantProfile(1.0, 0.0, 0.0))
        assert mass(state, grid) == pytest.approx(grid.volume, rel=1e-12)

    def test_stack_of_states_matches_one_by_one(self):
        # a leading sample axis gives each state's value bit for bit, and
        # the shell integrals are plain dot products with the shell measures
        grid = make_grid(4, 1.3, 21)
        rng = np.random.default_rng(7)
        fields = rng.uniform(0.0, 5.0, (40, 3, 21)) ** 3
        stack = FieldState.from_fields(np.arange(40.0), fields)
        singles = [FieldState(float(t), *f) for t, f in zip(stack.t, fields)]
        assert np.array_equal(energy(stack, 2.5, 4.5, grid),
                              [energy(s, 2.5, 4.5, grid) for s in singles])
        assert np.array_equal(np.transpose(norms(stack, grid, 2.5)),
                              [norms(s, grid, 2.5) for s in singles])
        assert np.array_equal(mass(stack, grid),
                              [np.dot(grid.shell_measures, f[0])
                               for f in fields])
        assert all(type(mass(s, grid)) is float for s in singles)

    def test_face_gradient_boundaries_zero(self):
        grid = make_grid(3, 1.0, 16)
        g = face_gradients(grid, np.linspace(0.0, 1.0, 16))
        assert g[0] == 0.0 and g[-1] == 0.0
        # a stack of profiles is differentiated along its last axis, row by
        # row with the same bits
        stack = np.random.default_rng(0).standard_normal((5, 16))
        for grad in (face_gradients, cell_gradients):
            rows = np.array([grad(grid, f) for f in stack])
            assert np.array_equal(grad(grid, stack), rows)


class TestRun:
    def test_diffusion_decay_no_blowup(self):
        grid = make_grid(3, 1.0, 32)
        state = init_state(grid, GaussianBump(5.0, 0.2))
        cfg = SolverConfig(t_final=0.05, dt_max=1e-3, sample_every=10)
        traj = run(grid, DIFFUSION_ONLY, state, 2.0, 4.0, cfg)
        assert not traj.report.blew_up
        assert traj.clip_count == 0
        assert np.all(np.diff(traj.t) > 0)
        # heat-equation decay: energy nonincreasing after the first samples
        tail = traj.E_pq[2:]
        assert np.all(np.diff(tail) <= 1e-12 * tail[0])

    def test_blowup_detected_and_reported(self):
        params = ModelParams(chi=10.0, xi=0.5, dim=3)
        grid = make_grid(3, 1.0, 48)
        state = init_state(grid, GaussianBump(1e4, 0.15))
        cfg = SolverConfig(t_final=1.0, grow_after=1, cfl=0.2,
                           blowup_threshold=1e6, sample_every=5)
        traj = run(grid, params, state, 2.0, 4.0, cfg)
        assert traj.report.blew_up
        assert traj.report.trigger == "linf_threshold"
        assert traj.report.t_detect is not None and traj.report.t_detect > 0
        assert traj.clip_count == 0

    def test_start_above_threshold_takes_no_step(self):
        grid = make_grid(3, 1.0, 16)
        state = init_state(grid, ConstantProfile(1e9, 0.0, 0.0))
        traj = run(grid, DIFFUSION_ONLY, state, 2.0, 4.0,
                   SolverConfig(dt_init=1e-2))
        assert traj.report.blew_up
        assert traj.report.trigger == "linf_threshold"
        assert traj.report.t_detect == 0.0
        assert traj.steps == 0
        assert len(traj.t) == 1

    def test_acceptance_blowup_run_pinned(self):
        # the acceptance blow-up run: every adaptive step decision and the
        # summed dt are pinned, so a change in the step arithmetic shows
        params = ModelParams(chi=10.0, xi=0.5, dim=3)
        grid = make_grid(3, 1.0, 48)
        state = init_state(grid, GaussianBump(1e4, 0.15))
        cfg = SolverConfig(t_final=1.0, grow_after=1, cfl=0.2,
                           blowup_threshold=5e6, sample_every=1)
        traj = run(grid, params, state, 2.0, 4.0, cfg)
        assert traj.report.trigger == "linf_threshold"
        assert traj.steps == 6100
        assert traj.report.t_detect == 7.302412897739794e-4
        assert len(traj.t) == 6101

    def test_detection_time_grid_stability(self):
        # refinement moves the detection time by less than the configured
        # stability tolerance (numerical blow-up time is scheme-dependent)
        params = ModelParams(chi=10.0, xi=0.5, dim=3)
        detections = []
        for M in (48, 96):
            grid = make_grid(3, 1.0, M)
            state = init_state(grid, GaussianBump(1e4, 0.15))
            cfg = SolverConfig(t_final=1.0, grow_after=1, cfl=0.2,
                               blowup_threshold=1e6, sample_every=5)
            traj = run(grid, params, state, 2.0, 4.0, cfg)
            assert traj.report.blew_up
            detections.append(traj.report.t_detect)
        rel_change = abs(detections[1] - detections[0]) / detections[0]
        assert rel_change < 0.5

    def test_batched_samples_match_stepwise_reference(self):
        # more samples than one reduction block; a fixed dt that the limiter
        # never cuts, so a plain loop over step repeats run's states
        grid = make_grid(3, 1.0, 16)
        params = ModelParams(chi=2.0, xi=0.5, mu1=0.5, mu2=0.2, dim=3)
        state = init_state(grid, GaussianBump(5.0, 0.3, 0.1, 0.2, 0.3))
        n_steps = SAMPLE_BLOCK + 60
        cfg = SolverConfig(dt_init=1e-4, dt_max=1e-4, growth=1.0,
                           max_steps=n_steps, sample_every=1)
        p, q = 2.5, 4.5
        traj = run(grid, params, state, p, q, cfg)
        assert traj.steps == n_steps and not traj.report.blew_up
        rows = []
        for k in range(n_steps + 1):
            if k:
                state, _ = _step_one(state, 1e-4, grid, params)
            rows.append((state.t, energy(state, p, q, grid),
                         *norms(state, grid, p), mass(state, grid)))
        columns = np.array(rows).T
        for name, expected in zip(("t", "E_pq", "Lp_u", "Linf_u",
                                   "gradinf_v", "gradinf_w", "mass"),
                                  columns):
            assert np.array_equal(getattr(traj, name), expected), name
        assert np.array_equal(traj.final_state.fields, state.fields)

    def test_samples_filling_the_last_block_exactly(self):
        # the start and SAMPLE_BLOCK - 1 steps: the last sample completes a
        # block, and no sample is left over at the end
        grid = make_grid(3, 1.0, 16)
        state = init_state(grid, GaussianBump(2.0, 0.3))
        cfg = SolverConfig(max_steps=SAMPLE_BLOCK - 1, sample_every=1)
        traj = run(grid, DIFFUSION_ONLY, state, 2.0, 4.0, cfg)
        assert traj.steps == SAMPLE_BLOCK - 1
        assert len(traj.t) == SAMPLE_BLOCK and traj.t[-1] == traj.final_state.t

    def test_trajectory_csv_format(self):
        grid = make_grid(3, 1.0, 16)
        state = init_state(grid, GaussianBump(2.0, 0.3))
        cfg = SolverConfig(t_final=0.01, dt_max=1e-3)
        traj = run(grid, DIFFUSION_ONLY, state, 2.0, 4.0, cfg)
        buf = io.StringIO()
        traj.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,E_pq,Lp_u,Linf_u,gradinf_v,gradinf_w,mass"
        assert len(lines) == len(traj.t) + 1
        # every value as the repr of its float
        columns = (traj.t, traj.E_pq, traj.Lp_u, traj.Linf_u, traj.gradinf_v,
                   traj.gradinf_w, traj.mass)
        assert lines[1:] == [",".join(repr(float(x)) for x in row)
                             for row in zip(*columns)]


# cells of one batch on one grid: each stops its own way.  The threshold
# 2e5 is under the grid's cap on u, mass/|shell 0| (5e5 for the first cell)
BATCH_CELLS = (
    # blow-up through the threshold, at two sampling rates
    (ModelParams(chi=10.0, xi=0.5, dim=3), GaussianBump(1e4, 0.15),
     SolverConfig(t_final=1.0, grow_after=1, cfl=0.2, blowup_threshold=2e5,
                  sample_every=5)),
    (ModelParams(chi=20.0, xi=1.0, dim=3), GaussianBump(3e4, 0.2),
     SolverConfig(t_final=1.0, grow_after=2, cfl=0.2, blowup_threshold=2e5,
                  sample_every=3)),
    # a linear source; stops at t_final
    (ModelParams(chi=5.0, xi=0.25, mu1=2.0, dim=3), GaussianBump(2e3, 0.3),
     SolverConfig(t_final=2e-3, dt_max=1e-4, sample_every=7)),
    # a logistic term with its own exponent; stops at max_steps
    (ModelParams(chi=2.0, xi=0.5, mu1=0.5, mu2=0.2, k_logistic=1.05, dim=3),
     GaussianBump(5.0, 0.3, 0.1, 0.2, 0.3),
     SolverConfig(max_steps=40, sample_every=1)),
    # mu1 * u overflows at every dt: retries until dt_min
    (ModelParams(chi=10.0, xi=0.5, mu1=100.0, dim=3),
     ConstantProfile(1e308, 0.0, 0.0),
     SolverConfig(dt_init=1e-2, blowup_threshold=math.inf)),
    # above the threshold from the start
    (DIFFUSION_ONLY, ConstantProfile(1e9, 0.0, 0.0),
     SolverConfig(dt_init=1e-2)),
)


def _assert_same_trajectory(a, b):
    for name in ("t", "E_pq", "Lp_u", "Linf_u", "gradinf_v", "gradinf_w",
                 "mass"):
        assert np.array_equal(getattr(a, name), getattr(b, name),
                              equal_nan=True), name
    assert a.report == b.report
    assert (a.steps, a.clip_count, a.solver) == (b.steps, b.clip_count,
                                                 b.solver)
    assert a.final_state.t == b.final_state.t
    assert np.array_equal(a.final_state.fields, b.final_state.fields)


class TestBatchedRun:
    def test_stack_step_matches_lone_steps(self):
        # a zero coupling between blocks keeps each finite block's solve,
        # clip and count bit for bit, at dt up to 1e-2 where u clips
        grid = make_grid(4, 1.0, 24)
        rng = np.random.default_rng(11)
        models = [ModelParams(chi=50.0, xi=5.0, alpha=0.4, beta=3.0,
                              gamma=5.0, delta=0.2, mu1=1.5, mu2=0.8,
                              k_logistic=1.05, dim=4),
                  ModelParams(chi=10.0, xi=0.5, dim=4),
                  ModelParams(chi=1.0, xi=20.0, mu1=-2.0, dim=4),
                  ModelParams(chi=30.0, xi=0.0, mu2=0.3, k_logistic=1.02,
                              dim=4)]
        clipped = 0
        for _ in range(20):
            states = [FieldState(float(t), *(rng.uniform(0.0, 10.0, 24)
                                             * rng.choice([1.0, 100.0])
                                             for _ in range(3)))
                      for t in rng.uniform(0.0, 1.0, len(models))]
            dts = rng.choice([1e-6, 1e-4, 1e-2], len(models)).tolist()
            stack = np.array([s.fields for s in states])
            new, clips = step(stack, dts, grid, ParamStack(models))
            for i, (state, dt, params) in enumerate(zip(states, dts, models)):
                alone, alone_clips = _step_one(state, dt, grid, params)
                assert clips[i] == alone_clips
                assert np.array_equal(new[i], alone.fields)
                clipped += alone_clips
        assert clipped > 0

    def test_logistic_term_stays_on_its_row(self):
        # u ** k of a mu2 > 0 state is not taken on a mu2 = 0 state's row,
        # where it would overflow at u = 1e300 and give 0 * inf = NaN
        grid = make_grid(3, 1.0, 8)
        models = [ModelParams(chi=0.0, xi=0.0, dim=3),
                  ModelParams(chi=0.0, xi=0.0, mu2=0.5, k_logistic=1.05,
                              dim=3)]
        states = [init_state(grid, ConstantProfile(1e300, 0.0, 0.0)),
                  init_state(grid, ConstantProfile(1.0, 0.0, 0.0))]
        stack = np.array([s.fields for s in states])
        new, _ = step(stack, [1e-6, 1e-6], grid, ParamStack(models))
        for i, (state, params) in enumerate(zip(states, models)):
            alone, _ = _step_one(state, 1e-6, grid, params)
            assert np.all(np.isfinite(alone.fields))
            assert np.array_equal(new[i], alone.fields)

    def test_zero_source_left_out_to_the_bit(self):
        # a state without a logistic source skips mu1*u, which a stack with
        # a source takes on every row: the two agree to the bit, signed
        # zeros included (mu1 = -0.0 takes the source path)
        grid = make_grid(3, 1.0, 8)
        u = np.array([0.0, -0.0, 1.0, 0.0, 2.0, -0.0, 0.0, 3.0])
        state = FieldState(0.0, u, np.zeros(8), np.zeros(8))
        source = ModelParams(chi=0.0, xi=0.0, mu1=1.0)
        for params in (ModelParams(chi=0.0, xi=0.0),
                       ModelParams(chi=0.0, xi=0.0, mu1=-0.0),
                       ModelParams(chi=1.0, xi=0.5)):
            alone, _ = _step_one(state, 1e-3, grid, params)
            stack = np.array([state.fields, state.fields])
            new, _ = step(stack, [1e-3, 1e-3], grid,
                          ParamStack([params, source]))
            assert new[0].tobytes() == alone.fields.tobytes()

    def test_nonfinite_block_spreads_to_the_stack(self):
        # why run solves a nonfinite step again cell by cell
        grid = make_grid(3, 1.0, 16)
        models = [ModelParams(chi=10.0, xi=0.5, mu1=100.0, dim=3),
                  ModelParams(chi=10.0, xi=0.5, dim=3)]
        states = [init_state(grid, ConstantProfile(1e308, 0.0, 0.0)),
                  init_state(grid, GaussianBump(5.0, 0.2))]
        stack = np.array([s.fields for s in states])
        with np.errstate(over="ignore", invalid="ignore"):
            new, _ = step(stack, [1e-2, 1e-4], grid, ParamStack(models))
        alone, _ = _step_one(states[1], 1e-4, grid, models[1])
        assert np.all(np.isfinite(alone.fields))
        assert not np.any(np.isfinite(new[1]))

    def test_batch_matches_solo_runs(self):
        grid = make_grid(3, 1.0, 16)
        params, profiles, cfgs = zip(*BATCH_CELLS)
        states = [init_state(grid, profile) for profile in profiles]
        with np.errstate(over="ignore", invalid="ignore"):
            batch = run(grid, params, states, 2.0, 4.0, cfgs)
            solo = [run(grid, m, state, 2.0, 4.0, cfg)
                    for m, state, cfg in zip(params, states, cfgs)]
        triggers = [traj.report.trigger for traj in solo]
        assert triggers == ["linf_threshold", "linf_threshold", None, None,
                            "nonfinite_state", "linf_threshold"]
        assert solo[2].final_state.t == cfgs[2].t_final
        assert solo[3].steps == cfgs[3].max_steps
        assert solo[5].steps == 0
        assert len(batch) == len(solo)
        for a, b in zip(batch, solo):
            _assert_same_trajectory(a, b)
        # a batch does not touch its initial states
        for state, profile in zip(states, profiles):
            assert np.array_equal(state.fields,
                                  init_state(grid, profile).fields)

"""Radially symmetric finite-volume solver for the chemotaxis system.

Method of lines on a ball in dimension n >= 3 with zero-flux boundaries.
Cell-centered unknowns on uniform radial shells; diffusion and the linear
decay of the two chemical fields are implicit (backward Euler), the
chemotactic advection of the cell density and the logistic source are
explicit with upwinding by the sign of the face velocity.  The face at
r = 0 has zero area, so the geometric 1/r factor is never evaluated.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from typing import TextIO

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import ChemoboundError, ParameterError
from .exponents import ModelParams


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit (n-1)-sphere."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    n: int
    R: float
    M: int
    r_faces: np.ndarray      # M+1
    r_centers: np.ndarray    # M
    face_areas: np.ndarray   # M+1; zero at r=0
    shell_measures: np.ndarray  # M; sums to |Omega|
    dr: float
    # finite-volume Laplacian, independent of dt and of the decay rates:
    # (L f)_i = lap_lower[i-1]*f[i-1] - lap_diag[i]*f[i] + lap_upper[i]*f[i+1]
    lap_lower: np.ndarray    # M-1
    lap_upper: np.ndarray    # M-1
    lap_diag: np.ndarray     # M

    @property
    def volume(self) -> float:
        return unit_sphere_area(self.n) * self.R ** self.n / self.n


def make_grid(n: int, R: float, M: int) -> RadialGrid:
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    if R <= 0 or M < 2:
        raise ParameterError(f"need R > 0 and M >= 2, got R={R}, M={M}")
    omega = unit_sphere_area(n)
    r_faces = np.linspace(0.0, R, M + 1)
    r_centers = 0.5 * (r_faces[:-1] + r_faces[1:])
    face_areas = omega * r_faces ** (n - 1)
    shell_measures = omega * np.diff(r_faces ** n) / n
    dr = R / M
    lower = face_areas[1:-1] / (shell_measures[1:] * dr)
    upper = face_areas[1:-1] / (shell_measures[:-1] * dr)
    diag = np.zeros(M)
    diag[:-1] += upper
    diag[1:] += lower
    return RadialGrid(n=n, R=R, M=M, r_faces=r_faces, r_centers=r_centers,
                      face_areas=face_areas, shell_measures=shell_measures,
                      dr=dr, lap_lower=lower, lap_upper=upper, lap_diag=diag)


@dataclass
class FieldState:
    t: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray


# --- initial profiles -------------------------------------------------------

@dataclass(frozen=True)
class ConstantProfile:
    u0: float
    v0: float
    w0: float


@dataclass(frozen=True)
class GaussianBump:
    amplitude: float
    width: float
    u_background: float = 0.0
    v0: float = 0.0
    w0: float = 0.0


@dataclass(frozen=True)
class TableProfile:
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray


def init_state(grid: RadialGrid, profile) -> FieldState:
    if isinstance(profile, ConstantProfile):
        fields = [np.full(grid.M, x, dtype=float)
                  for x in (profile.u0, profile.v0, profile.w0)]
    elif isinstance(profile, GaussianBump):
        r = grid.r_centers
        u = profile.u_background + profile.amplitude * np.exp(
            -r ** 2 / (2.0 * profile.width ** 2))
        fields = [u, np.full(grid.M, profile.v0), np.full(grid.M, profile.w0)]
    elif isinstance(profile, TableProfile):
        fields = [np.asarray(x, dtype=float) for x in
                  (profile.u, profile.v, profile.w)]
        for f in fields:
            if f.shape != (grid.M,):
                raise ParameterError(
                    f"table profile must have {grid.M} entries, got {f.shape}")
    else:
        raise ParameterError(f"unknown profile type {type(profile).__name__}")
    for f in fields:
        if np.any(f < 0) or not np.all(np.isfinite(f)):
            raise ParameterError("initial profile must be nonnegative and finite")
    return FieldState(t=0.0, u=fields[0], v=fields[1], w=fields[2])


# --- spatial operators ------------------------------------------------------

def face_gradients(grid: RadialGrid, f: np.ndarray) -> np.ndarray:
    """One-sided radial gradients at faces along the last axis of f; zero
    at both boundaries."""
    g = np.zeros(f.shape[:-1] + (grid.M + 1,))
    g[..., 1:-1] = (f[..., 1:] - f[..., :-1]) / grid.dr
    return g


def _face_to_cell(g: np.ndarray) -> np.ndarray:
    return 0.5 * (g[..., :-1] + g[..., 1:])


def cell_gradients(grid: RadialGrid, f: np.ndarray) -> np.ndarray:
    return _face_to_cell(face_gradients(grid, f))


def _gtsv(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
          rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system with LAPACK's gtsv, overwriting all four
    arrays.  There is no finiteness check, so a nonfinite rhs gives a
    nonfinite solution for the caller to reject."""
    _, _, _, x, info = dgtsv(lower, diag, upper, rhs, 1, 1, 1, 1)
    if info != 0:
        raise ChemoboundError(f"tridiagonal solve failed (gtsv info={info})")
    return x


def _face_velocity(grid: RadialGrid, params: ModelParams,
                   state: FieldState) -> np.ndarray:
    """chi*grad v - xi*grad w at the M-1 interior faces; the velocity at
    both boundary faces is zero."""
    gv = (state.v[1:] - state.v[:-1]) / grid.dr
    gw = (state.w[1:] - state.w[:-1]) / grid.dr
    return params.chi * gv - params.xi * gw


def _advective_divergence(grid: RadialGrid, u, vel):
    """Divergence of the upwinded advective flux u * vel (interior faces)."""
    flux = np.zeros(grid.M + 1)
    up = np.where(vel >= 0.0, u[:-1], u[1:])
    flux[1:-1] = grid.face_areas[1:-1] * vel * up
    return -(flux[1:] - flux[:-1]) / grid.shell_measures


def _logistic(params: ModelParams, u):
    out = params.mu1 * u
    if params.mu2 > 0:
        out = out - params.mu2 * u ** params.k_logistic
    return out


def step(state: FieldState, dt: float, grid: RadialGrid, params: ModelParams,
         vel: np.ndarray | None = None) -> tuple[FieldState, int]:
    """One IMEX step; returns the new state and the negativity clip count.

    `vel` is the face velocity of `state` if the caller already has it.  A
    field that comes out nonfinite is returned as it is, unclipped."""
    if dt <= 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    u = state.u
    if vel is None:
        vel = _face_velocity(grid, params, state)
    u_star = u + dt * (_advective_divergence(grid, u, vel)
                       + _logistic(params, u))
    # backward Euler: (I + dt*decay - dt*L) f_new = rhs
    lower, upper = -dt * grid.lap_lower, -dt * grid.lap_upper
    diag = dt * grid.lap_diag
    clips = 0
    out = []
    for decay, rhs in ((0.0, u_star),
                       (params.alpha, state.v + dt * params.beta * u),
                       (params.gamma, state.w + dt * params.delta * u)):
        f = _gtsv(lower.copy(), 1.0 + dt * decay + diag, upper.copy(), rhs)
        lo, hi = float(f.min()), float(f.max())
        if math.isfinite(lo) and math.isfinite(hi):
            floor = -1e-10 * max(-lo, hi, 1.0)
            if lo < floor:
                clips += int(np.count_nonzero(f < floor))
            np.maximum(f, 0.0, out=f)
        out.append(f)
    return FieldState(t=state.t + dt, u=out[0], v=out[1], w=out[2]), clips


# --- diagnostics ------------------------------------------------------------

def mass(state: FieldState, grid: RadialGrid) -> float:
    return float(np.dot(grid.shell_measures, state.u))


def _sample_terms(state: FieldState, grid: RadialGrid, p: float):
    """|u|^p and the face gradients of v and w: what energy and norms both
    need, so one sample can compute them once and pass them to both."""
    return (np.abs(state.u) ** p, face_gradients(grid, state.v),
            face_gradients(grid, state.w))


def energy(state: FieldState, p: float, q: float, grid: RadialGrid,
           terms=None) -> float:
    """(1/p) int |u|^p + (1/q) int |grad v|^q + (1/q) int |grad w|^q.

    `terms` is _sample_terms(state, grid, p) if the caller already has it."""
    if p <= 0 or q <= 0:
        raise ParameterError(f"p, q must be positive, got p={p}, q={q}")
    up, fv, fw = _sample_terms(state, grid, p) if terms is None else terms
    V = grid.shell_measures
    term_u = float(np.dot(V, up)) / p
    gv = np.abs(_face_to_cell(fv))
    gw = np.abs(_face_to_cell(fw))
    return term_u + (float(np.dot(V, gv ** q)) + float(np.dot(V, gw ** q))) / q


def norms(state: FieldState, grid: RadialGrid, p: float, terms=None):
    """(||u||_p, ||u||_inf, max face gradient of v, of w).

    `terms` is _sample_terms(state, grid, p) if the caller already has it."""
    up, fv, fw = _sample_terms(state, grid, p) if terms is None else terms
    lp = float(np.dot(grid.shell_measures, up)) ** (1.0 / p)
    linf = float(np.abs(state.u).max())
    return (lp, linf, float(np.abs(fv).max()), float(np.abs(fw).max()))


# --- time stepping driver ---------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    t_final: float = 1.0
    dt_init: float = 1e-6
    dt_min: float = 1e-12
    dt_max: float = 1e-2
    cfl: float = 0.5
    growth: float = 1.2
    grow_after: int = 5
    blowup_threshold: float = 1e8
    max_steps: int = 2_000_000
    sample_every: int = 20

    def __post_init__(self):
        # each test is False for NaN
        for name, rule, ok in (
                ("t_final", "> 0", self.t_final > 0),
                ("cfl", "> 0", self.cfl > 0),
                ("dt_min", "in (0, dt_init]", 0 < self.dt_min <= self.dt_init),
                ("dt_max", ">= dt_min", self.dt_max >= self.dt_min),
                ("growth", ">= 1", self.growth >= 1),
                ("grow_after", ">= 1", self.grow_after >= 1),
                ("blowup_threshold", "> 0", self.blowup_threshold > 0),
                ("max_steps", ">= 1", self.max_steps >= 1),
                ("sample_every", ">= 1", self.sample_every >= 1)):
            if not ok:
                raise ParameterError(f"solver {name} must be {rule}, "
                                     f"got {getattr(self, name)}")

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BlowupReport:
    blew_up: bool
    t_detect: float | None
    trigger: str | None

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class Trajectory:
    t: np.ndarray
    E_pq: np.ndarray
    Lp_u: np.ndarray
    Linf_u: np.ndarray
    gradinf_v: np.ndarray
    gradinf_w: np.ndarray
    mass: np.ndarray
    p: float
    q: float
    report: BlowupReport
    solver: SolverConfig
    clip_count: int
    steps: int
    final_state: FieldState

    def to_csv(self, stream: TextIO) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["t", "E_pq", "Lp_u", "Linf_u", "gradinf_v",
                         "gradinf_w", "mass"])
        for row in zip(self.t, self.E_pq, self.Lp_u, self.Linf_u,
                       self.gradinf_v, self.gradinf_w, self.mass):
            writer.writerow([repr(float(x)) for x in row])


def _stable_dt(grid: RadialGrid, params: ModelParams, state: FieldState,
               cfg: SolverConfig, vel: np.ndarray) -> float:
    """Largest dt the limiter allows; `vel` is _face_velocity(state)."""
    vel_max = float(np.abs(vel).max())
    # chemical gradients grow at up to (chi*beta + xi*delta)*|grad u| within
    # the step, so solve dt*(vel + dt*accel) = cfl*dr instead of using the
    # instantaneous velocity alone (vital while v, w are still flat).
    # Division by dr is monotone, so it can follow the max.
    gu_max = float(np.abs(state.u[1:] - state.u[:-1]).max()) / grid.dr
    accel = (params.chi * params.beta + params.xi * params.delta) * gu_max
    limits = [cfg.dt_max]
    target = cfg.cfl * grid.dr
    if accel > 0:
        limits.append((math.sqrt(vel_max ** 2 + 4.0 * accel * target)
                       - vel_max) / (2.0 * accel))
    elif vel_max > 0:
        limits.append(target / vel_max)
    umax = float(state.u.max())
    rate = abs(params.mu1)
    if params.mu2 > 0 and umax > 0:
        rate += params.mu2 * params.k_logistic * umax ** (params.k_logistic - 1)
    if rate > 0:
        limits.append(cfg.cfl / rate)
    return min(limits)


def run(grid: RadialGrid, params: ModelParams, state0: FieldState,
        p: float, q: float, cfg: SolverConfig = SolverConfig()) -> Trajectory:
    """Adaptive time stepping with numerical blow-up detection.

    Blow-up is a reported outcome: the sup norm crossing blowup_threshold,
    a nonfinite state, or the step size falling below dt_min all set the
    flag with the corresponding trigger.
    """
    state = state0
    dt = cfg.dt_init
    samples = []
    clip_total = 0
    smooth = 0
    steps = 0

    def record(s: FieldState):
        terms = _sample_terms(s, grid, p)
        lp, linf, gv, gw = norms(s, grid, p, terms)
        samples.append((s.t, energy(s, p, q, grid, terms), lp, linf, gv, gw,
                        mass(s, grid)))

    record(state)
    # a start already above the threshold is reported before any step
    blew_up = float(state.u.max()) > cfg.blowup_threshold
    t_detect, trigger = (state.t, "linf_threshold") if blew_up else (None, None)
    while not blew_up and state.t < cfg.t_final and steps < cfg.max_steps:
        vel = _face_velocity(grid, params, state)
        try:
            dt_cap = _stable_dt(grid, params, state, cfg, vel)
        except OverflowError:
            # a squared speed or a rate beyond the float range: no dt is
            # stable, so the step size underflows below
            dt_cap = 0.0
        while dt > dt_cap:
            dt *= 0.5
        if dt < cfg.dt_min:
            blew_up, t_detect, trigger = True, state.t, "dt_underflow"
            break
        dt = min(dt, cfg.t_final - state.t)
        new_state, clips = step(state, dt, grid, params, vel=vel)
        if not (np.isfinite(new_state.u).all() and
                np.isfinite(new_state.v).all() and
                np.isfinite(new_state.w).all()):
            dt *= 0.5
            smooth = 0
            if dt < cfg.dt_min:
                blew_up, t_detect, trigger = True, state.t, "nonfinite_state"
                break
            continue
        state = new_state
        clip_total += clips
        steps += 1
        smooth += 1
        if smooth >= cfg.grow_after:
            dt = min(dt * cfg.growth, cfg.dt_max)
            smooth = 0
        if steps % cfg.sample_every == 0:
            record(state)
        if float(state.u.max()) > cfg.blowup_threshold:
            blew_up, t_detect, trigger = True, state.t, "linf_threshold"
            break

    if not samples or samples[-1][0] != state.t:
        record(state)
    cols = list(zip(*samples))
    return Trajectory(
        t=np.asarray(cols[0]), E_pq=np.asarray(cols[1]),
        Lp_u=np.asarray(cols[2]), Linf_u=np.asarray(cols[3]),
        gradinf_v=np.asarray(cols[4]), gradinf_w=np.asarray(cols[5]),
        mass=np.asarray(cols[6]), p=p, q=q,
        report=BlowupReport(blew_up, t_detect, trigger),
        solver=cfg, clip_count=clip_total, steps=steps, final_state=state)

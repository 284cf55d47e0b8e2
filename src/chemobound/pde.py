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
    # (L f)_i = lower[i-1]*f[i-1] - diag[i]*f[i] + upper[i]*f[i+1].  The
    # fields u, v, w are the blocks of one 3M block-diagonal system with
    # zero couplings between the blocks, and lap_band holds its bands
    # -lower (3M-1), -upper (3M-1) and diag (3M) in that order, so that
    # dt * lap_band is the dt-dependent part of the backward-Euler matrix
    lap_band: np.ndarray     # 9M-2

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
    band = np.concatenate([-lower, [0.0], -lower, [0.0], -lower,
                           -upper, [0.0], -upper, [0.0], -upper,
                           diag, diag, diag])
    return RadialGrid(n=n, R=R, M=M, r_faces=r_faces, r_centers=r_centers,
                      face_areas=face_areas, shell_measures=shell_measures,
                      dr=dr, lap_band=band)


class FieldState:
    """The fields u, v, w at time t, held as the rows of one (3, M) array
    `fields`.  FieldState(t, u, v, w) copies the three fields into one.

    A stack of K states has t of shape (K,) and fields of shape (K, 3, M);
    the diagnostics reduce such a stack state by state."""

    __slots__ = ("t", "fields")

    def __init__(self, t, u, v, w):
        self.t = t
        self.fields = np.array((u, v, w), dtype=float)

    @classmethod
    def from_fields(cls, t, fields: np.ndarray) -> FieldState:
        """The state with `fields` as its (..., 3, M) array, not copied."""
        state = cls.__new__(cls)
        state.t, state.fields = t, fields
        return state

    @property
    def u(self) -> np.ndarray:
        return self.fields[..., 0, :]

    @property
    def v(self) -> np.ndarray:
        return self.fields[..., 1, :]

    @property
    def w(self) -> np.ndarray:
        return self.fields[..., 2, :]


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
    inner = g[..., 1:-1]
    np.subtract(f[..., 1:], f[..., :-1], out=inner)
    np.divide(inner, grid.dr, out=inner)
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


def _face_velocity(params: ModelParams, grads: np.ndarray) -> np.ndarray:
    """chi*grad v - xi*grad w at the M-1 interior faces, from the (3, M+1)
    face gradients of a state; the velocity at both boundary faces is
    zero."""
    return params.chi * grads[1, 1:-1] - params.xi * grads[2, 1:-1]


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

    `vel` is the face velocity of `state` if the caller already has it.  The
    three backward-Euler systems are solved as one block-diagonal system;
    the new u, v and w are the rows of its (3, M) solution.  A field that
    comes out nonfinite is returned as it is, unclipped, and it also makes
    the other two nonfinite: the solve multiplies it by the zero couplings
    between the blocks, and 0 * inf is NaN.  run rejects any nonfinite
    state."""
    if dt <= 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    fields = state.fields
    u = fields[0]
    if vel is None:
        vel = _face_velocity(params, face_gradients(grid, fields))
    # backward Euler: (I + dt*decay - dt*L) f_new = rhs, field by field
    M = grid.M
    rhs = np.empty((3, M))
    np.add(u, dt * (_advective_divergence(grid, u, vel)
                    + _logistic(params, u)), out=rhs[0])
    np.add(fields[1:], np.array([[dt * params.beta], [dt * params.delta]]) * u,
           out=rhs[1:])
    band = dt * grid.lap_band
    diag = band[6 * M - 2:].reshape(3, M)
    diag += np.array([[1.0], [1.0 + dt * params.alpha],
                      [1.0 + dt * params.gamma]])
    new = _gtsv(band[:3 * M - 1], diag.reshape(-1), band[3 * M - 1:6 * M - 2],
                rhs.reshape(-1)).reshape(3, M)
    clips = 0
    if np.minimum.reduce(new, axis=None) > 0.0:
        # nothing to clip, the common case (False if any value is NaN)
        return FieldState.from_fields(state.t + dt, new), clips
    for f, lo, hi in zip(new, np.minimum.reduce(new, axis=1).tolist(),
                         np.maximum.reduce(new, axis=1).tolist()):
        if math.isfinite(lo) and math.isfinite(hi):
            floor = -1e-10 * max(-lo, hi, 1.0)
            if lo < floor:
                clips += int(np.count_nonzero(f < floor))
            np.maximum(f, 0.0, out=f)
    return FieldState.from_fields(state.t + dt, new), clips


# --- diagnostics ------------------------------------------------------------
# Each takes one state or a stack of K states (FieldState) and returns a
# float or an array of K values.

def _per_state(x):
    """A float for one state, the array for a stack of states."""
    return float(x) if np.ndim(x) == 0 else x


def _integral(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Shell-quadrature integral along the last axis.  np.vecdot takes one
    BLAS dot product per row, the same bits as np.dot(V, row); a
    matrix-vector product rounds differently in the last bit."""
    return np.vecdot(values, grid.shell_measures)


def mass(state: FieldState, grid: RadialGrid):
    return _per_state(_integral(grid, state.u))


def _sample_terms(state: FieldState, grid: RadialGrid, p: float, grads=None):
    """The integral of |u|^p and the (..., 2, M+1) face gradients of v and
    w: what energy and norms both need, so one sample can compute them once
    and pass them to both.  `grads` is those gradients if the caller
    already has them."""
    if grads is None:
        grads = face_gradients(grid, state.fields[..., 1:, :])
    return _integral(grid, np.abs(state.u) ** p), grads


def energy(state: FieldState, p: float, q: float, grid: RadialGrid,
           terms=None):
    """(1/p) int |u|^p + (1/q) int |grad v|^q + (1/q) int |grad w|^q.

    `terms` is _sample_terms(state, grid, p) if the caller already has it."""
    if p <= 0 or q <= 0:
        raise ParameterError(f"p, q must be positive, got p={p}, q={q}")
    int_up, grads = _sample_terms(state, grid, p) if terms is None else terms
    int_g = _integral(grid, np.abs(_face_to_cell(grads)) ** q)
    return _per_state(int_up / p + (int_g[..., 0] + int_g[..., 1]) / q)


def norms(state: FieldState, grid: RadialGrid, p: float, terms=None):
    """(||u||_p, ||u||_inf, max face gradient of v, of w).

    `terms` is _sample_terms(state, grid, p) if the caller already has it."""
    int_up, grads = _sample_terms(state, grid, p) if terms is None else terms
    # Python's float power: numpy's vectorised one can differ in the last bit
    lp = np.reshape([s ** (1.0 / p) for s in np.ravel(int_up).tolist()],
                    np.shape(int_up))
    linf = np.abs(state.u).max(axis=-1)
    gmax = np.abs(grads).max(axis=-1)
    return tuple(_per_state(x) for x in (lp, linf, gmax[..., 0],
                                         gmax[..., 1]))


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
        # csv writes a float as its repr
        writer.writerows(zip(*(col.tolist() for col in (
            self.t, self.E_pq, self.Lp_u, self.Linf_u, self.gradinf_v,
            self.gradinf_w, self.mass))))


# states whose diagnostics run reduces together: ~0.5 MB of fields and
# gradients at M = 48
SAMPLE_BLOCK = 256


def _stable_dt(grid: RadialGrid, params: ModelParams, cfg: SolverConfig,
               vel: np.ndarray, grad_u: np.ndarray, umax: float) -> float:
    """Largest dt the limiter allows at a state with face velocity `vel`,
    face gradients `grad_u` of u and largest u value `umax`."""
    # the ufuncs' own reduce: ndarray.max adds a Python-level call
    vel_max = float(np.maximum.reduce(np.abs(vel)))
    # chemical gradients grow at up to (chi*beta + xi*delta)*|grad u| within
    # the step, so solve dt*(vel + dt*accel) = cfl*dr instead of using the
    # instantaneous velocity alone (vital while v, w are still flat).
    gu_max = float(np.maximum.reduce(np.abs(grad_u)))
    accel = (params.chi * params.beta + params.xi * params.delta) * gu_max
    limits = [cfg.dt_max]
    target = cfg.cfl * grid.dr
    if accel > 0:
        limits.append((math.sqrt(vel_max ** 2 + 4.0 * accel * target)
                       - vel_max) / (2.0 * accel))
    elif vel_max > 0:
        limits.append(target / vel_max)
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

    Each accepted state's face gradients serve the dt limiter, the face
    velocity and, at a sample, the diagnostics, which are reduced over
    blocks of SAMPLE_BLOCK sampled states.
    """
    state = state0
    dt = cfg.dt_init
    columns = []   # per block of samples: (t, E_pq, Lp_u, Linf_u, ...)
    pending = []   # sampled (t, fields, face gradients of v and w)
    clip_total = 0
    smooth = 0
    steps = 0

    def reduce_pending():
        ts, fields, grads = zip(*pending)
        block = FieldState.from_fields(np.array(ts), np.array(fields))
        terms = _sample_terms(block, grid, p, np.array(grads))
        columns.append((block.t, energy(block, p, q, grid, terms),
                        *norms(block, grid, p, terms), mass(block, grid)))
        pending.clear()

    def record(s: FieldState, grads: np.ndarray):
        pending.append((s.t, s.fields, grads[1:]))
        if len(pending) == SAMPLE_BLOCK:
            reduce_pending()

    grads = face_gradients(grid, state.fields)
    umax = float(np.maximum.reduce(state.fields[0]))
    record(state, grads)
    t_recorded = state.t
    # a start above the threshold or nonfinite is reported before any step
    if umax > cfg.blowup_threshold:
        blew_up, t_detect, trigger = True, state.t, "linf_threshold"
    elif not np.isfinite(state.fields).all():
        blew_up, t_detect, trigger = True, state.t, "nonfinite_state"
    else:
        blew_up, t_detect, trigger = False, None, None
    while not blew_up and state.t < cfg.t_final and steps < cfg.max_steps:
        vel = _face_velocity(params, grads)
        try:
            dt_cap = _stable_dt(grid, params, cfg, vel, grads[0], umax)
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
        if not np.isfinite(new_state.fields).all():
            dt *= 0.5
            smooth = 0
            if dt < cfg.dt_min:
                blew_up, t_detect, trigger = True, state.t, "nonfinite_state"
                break
            continue
        state = new_state
        grads = face_gradients(grid, state.fields)
        umax = float(np.maximum.reduce(state.fields[0]))
        clip_total += clips
        steps += 1
        smooth += 1
        if smooth >= cfg.grow_after:
            dt = min(dt * cfg.growth, cfg.dt_max)
            smooth = 0
        if steps % cfg.sample_every == 0:
            record(state, grads)
            t_recorded = state.t
        if umax > cfg.blowup_threshold:
            blew_up, t_detect, trigger = True, state.t, "linf_threshold"
            break

    if t_recorded != state.t:
        record(state, grads)
    if pending:
        reduce_pending()
    cols = [np.concatenate(col) for col in zip(*columns)]
    return Trajectory(
        t=cols[0], E_pq=cols[1], Lp_u=cols[2], Linf_u=cols[3],
        gradinf_v=cols[4], gradinf_w=cols[5], mass=cols[6], p=p, q=q,
        report=BlowupReport(blew_up, t_detect, trigger),
        solver=cfg, clip_count=clip_total, steps=steps, final_state=state)

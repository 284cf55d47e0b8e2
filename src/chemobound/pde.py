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
    # fields u, v, w of a state are the blocks of one 3M block-diagonal
    # system, and the states of a stack are the blocks of one K*3M system,
    # with zero couplings between all blocks.  lap_rows holds one block's
    # rows of the bands -lower, -upper and diag, for each field; the last
    # entry of -lower and -upper is the zero coupling to the next block
    lap_rows: np.ndarray     # (3 bands, 3 fields, 1, M)
    # the areas of the M-1 interior faces and the negated shell measures,
    # for the advective divergence; x / -V is -(x / V) to the bit
    inner_areas: np.ndarray
    neg_measures: np.ndarray

    @property
    def volume(self) -> float:
        return unit_sphere_area(self.n) * self.R ** self.n / self.n


def make_grid(n: int, R: float, M: int) -> RadialGrid:
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    if not 0 < R < math.inf or M < 2:
        raise ParameterError(
            f"need R > 0 and finite and M >= 2, got R={R}, M={M}")
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
    rows = np.zeros((3, M))
    rows[0, :-1], rows[1, :-1], rows[2] = -lower, -upper, diag
    return RadialGrid(n=n, R=R, M=M, r_faces=r_faces, r_centers=r_centers,
                      face_areas=face_areas, shell_measures=shell_measures,
                      dr=dr, lap_rows=np.stack([rows] * 3, axis=1)[:, :, None],
                      inner_areas=face_areas[1:-1],
                      neg_measures=-shell_measures)


class FieldState:
    """The fields u, v, w at time t, held as the rows of one (3, M) array
    `fields`.  FieldState(t, u, v, w) copies the three fields into one.

    A stack of K states has K times t and fields of shape (K, 3, M); the
    diagnostics reduce such a stack state by state.  step takes a stack as
    its bare fields array, without times: run keeps each cell's time."""

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
# the field defaults are the defaults of the profile.* config keys

@dataclass(frozen=True)
class ConstantProfile:
    u0: float = 1.0
    v0: float = 0.0
    w0: float = 0.0


@dataclass(frozen=True)
class GaussianBump:
    amplitude: float = 100.0
    width: float = 0.2
    background: float = 0.0
    v0: float = 0.0
    w0: float = 0.0


def init_state(grid: RadialGrid, profile) -> FieldState:
    if isinstance(profile, ConstantProfile):
        fields = [np.full(grid.M, x, dtype=float)
                  for x in (profile.u0, profile.v0, profile.w0)]
    elif isinstance(profile, GaussianBump):
        r = grid.r_centers
        u = profile.background + profile.amplitude * np.exp(
            -r ** 2 / (2.0 * profile.width ** 2))
        fields = [u, np.full(grid.M, profile.v0), np.full(grid.M, profile.w0)]
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


class ParamStack:
    """The coefficients of K cells' models, shaped to broadcast over the
    fields of a stack of states field by field, (3, K, M), as step holds
    them.  For K = 1 they have no stack axis: step drops the stack axis of
    a one-state stack, because numpy combines the smaller arrays, and
    floats, with less call overhead.  This lone-cell layout (these floats,
    step's dropped axis and run's 1-D reductions) is chosen by the stack
    size alone.  On the benchmark's `blowup` workload (K = 1) its removal
    raised op_s from 0.324-0.353 to 0.378-0.403 machine-scaled seconds,
    about 16 %, over 6 alternating pairs of 10 s runs; `sweep` runs
    K = 36, the other side of the choice."""

    __slots__ = ("models", "chi", "xi", "mu1", "rates", "logistic",
                 "source")

    def __init__(self, models):
        self.models = tuple(models)
        cols = np.array([(m.chi, m.xi, m.mu1) for m in self.models])
        # per field: the rate at which u feeds it, and its linear decay;
        # (2, 3, K)
        rates = np.moveaxis(np.array(
            [((1.0, m.beta, m.delta), (0.0, m.alpha, m.gamma))
             for m in self.models]), 0, -1)
        if len(self.models) == 1:
            self.chi, self.xi, self.mu1 = cols[0].tolist()
            self.rates, rows = rates, [...]   # ... indexes a lone state
        else:
            self.chi, self.xi, self.mu1 = (
                np.ascontiguousarray(cols[:, i:i + 1]) for i in range(3))
            self.rates, rows = rates[..., None], range(len(self.models))
        # (row, mu2, k) of each cell with a logistic term: its u ** k is
        # taken on its own row, with the float exponent of a lone cell
        self.logistic = [(i, m.mu2, m.k_logistic)
                         for i, m in zip(rows, self.models) if m.mu2 > 0]
        # whether some cell has a source term, mu2 > 0 or mu1 other than
        # +0.0.  Without one, step leaves out mu1*u: u + dt*(a + 0.0*u) is
        # u + dt*a to the bit, signed zeros included, for every finite u
        # (a nonfinite u makes the right-hand side nonfinite either way)
        self.source = bool(self.logistic) or any(
            m.mu1 or math.copysign(1.0, m.mu1) < 0 for m in self.models)

    def take(self, rows) -> ParamStack:
        return ParamStack([self.models[i] for i in rows])


def _face_velocity(params: ParamStack, grads: np.ndarray) -> np.ndarray:
    """chi*grad v - xi*grad w at the M-1 interior faces, from the (..., 3,
    M+1) face gradients of a state or stack of states; the velocity at both
    boundary faces is zero."""
    return (params.chi * grads[..., 1, 1:-1]
            - params.xi * grads[..., 2, 1:-1])


def _advective_divergence(grid: RadialGrid, u, vel):
    """Divergence of the upwinded advective flux u * vel (interior faces),
    along the last axis."""
    flux = np.zeros(u.shape[:-1] + (grid.M + 1,))
    up = np.where(vel >= 0.0, u[..., :-1], u[..., 1:])
    np.multiply(grid.inner_areas * vel, up, out=flux[..., 1:-1])
    return (flux[..., 1:] - flux[..., :-1]) / grid.neg_measures


def _logistic(params: ParamStack, u):
    out = params.mu1 * u
    for i, mu2, k in params.logistic:
        out[i] = out[i] - mu2 * u[i] ** k
    return out


def step(fields: np.ndarray, dt, grid: RadialGrid, params: ParamStack,
         vel: np.ndarray | None = None):
    """One IMEX step of a stack of K states: `fields` is their (K, 3, M)
    array, `dt` a sequence of K per-state steps and `params` their
    ParamStack.  Returns the new (K, 3, M) fields and a list of K clip
    counts.  `vel` is the (K, M-1) face velocity of `fields`, if the caller
    already has it.

    All backward-Euler systems of the step are solved as one block-diagonal
    system with zero couplings between the blocks (one per field and
    state).  A zero coupling gives an exact zero multiplier, so each finite
    block solves to the same values as it would alone.  A field that comes
    out nonfinite is returned as it is, unclipped, and it makes every other
    block nonfinite too, since 0 * inf is NaN; run rejects such a step and
    solves it again state by state."""
    if vel is None:
        vel = _face_velocity(params, face_gradients(grid, fields))
    # the fields come first, (3, K, M), and the blocks of the solve are
    # ordered field by field; no stack axis for one state, as in ParamStack
    if len(dt) == 1:
        fields, vel, dt_col = fields[0], vel[0], dt[0]
        positive = dt_col > 0
    else:
        fields = fields.transpose(1, 0, 2)
        dt_col = np.array(dt, dtype=float)[:, None]
        positive = (dt_col > 0).all()
    if not positive:
        raise ParameterError(f"dt must be positive, got {dt}")
    u = fields[0]
    # backward Euler: (I + dt*decay - dt*L) f_new = f + dt*source, block by
    # block, with u's source its advection and logistic terms and the
    # chemicals' source beta*u and delta*u
    dt_rates = params.rates * dt_col
    rhs = np.empty(fields.shape)
    du = _advective_divergence(grid, u, vel)
    if params.source:
        du = du + _logistic(params, u)
    np.add(u, dt_col * du, out=rhs[0])
    np.add(fields[1:], dt_rates[0, 1:] * u, out=rhs[1:])
    bands, n = (grid.lap_rows * dt_col).reshape(-1), rhs.size
    blocks = bands[2 * n:].reshape(fields.shape)
    blocks += 1.0 + dt_rates[1]
    new = _gtsv(bands[:n - 1], bands[2 * n:], bands[n:2 * n - 1],
                rhs.reshape(-1)).reshape(fields.shape)
    new = new[None] if new.ndim == 2 else new.transpose(1, 0, 2)  # (K, 3, M)
    clips = [0] * len(new)
    if not np.minimum.reduce(new, axis=None) > 0.0:
        # something to clip, or a NaN; not the common case
        lows = np.minimum.reduce(new, axis=-1).tolist()
        highs = np.maximum.reduce(new, axis=-1).tolist()
        for i, state_new in enumerate(new):
            for f, lo, hi in zip(state_new, lows[i], highs[i]):
                if math.isfinite(lo) and math.isfinite(hi) and lo <= 0.0:
                    floor = -1e-10 * max(-lo, hi, 1.0)
                    if lo < floor:
                        clips[i] += int(np.count_nonzero(f < floor))
                    np.maximum(f, 0.0, out=f)
    return new, clips


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


# states whose diagnostics run reduces together: up to ~0.6 MB of pending
# arrays at M = 48
SAMPLE_BLOCK = 256


class _Samples:
    """The sampled states of a run's cells, whose diagnostics are reduced
    together in blocks of SAMPLE_BLOCK states, whatever cell each came
    from: the diagnostics of a stack of states are each state's own."""

    def __init__(self, grid: RadialGrid, p: float, q: float):
        self.grid, self.p, self.q = grid, p, q
        self.pending = []   # (cell, t, u, face gradients of v and w)
        # the fields and face gradients of the stack of run's live cells
        self.fields = self.grads = None

    def add(self, cell: _Cell) -> None:
        """Sample the cell's state: its u and face gradients of v and w, a
        view of its row of the stack if the stack holds it alone, and a
        copy otherwise, so that the sample does not keep the stack alive."""
        u, g = self.fields[cell.row, :1], self.grads[cell.row, 1:]
        if len(self.fields) > 1:
            u, g = u.copy(), g.copy()
        self.pending.append((cell, cell.t, u, g))
        if len(self.pending) == SAMPLE_BLOCK:
            self.reduce()

    def reduce(self) -> None:
        """Append each pending sample's (t, E_pq, Lp_u, ...) column to its
        cell's columns."""
        grid, p, q = self.grid, self.p, self.q
        cells, ts, us, grads = zip(*self.pending)
        self.pending.clear()
        # a block of states whose fields hold u alone; the samples' own
        # arrays are freed once they are copied into it
        us, grads = np.array(us), np.array(grads)
        block = FieldState.from_fields(np.array(ts), us)
        terms = _sample_terms(block, grid, p, grads)
        cols = np.array((block.t, energy(block, p, q, grid, terms),
                         *norms(block, grid, p, terms), mass(block, grid)))
        rows = {}
        for j, cell in enumerate(cells):
            rows.setdefault(cell, []).append(j)
        for cell, js in rows.items():
            cell.columns.append(cols[:, js])


class _Cell:
    """One cell's adaptive-step control in run: the float code of a run of
    that cell alone.  `row` is the cell's row of the stack."""

    __slots__ = ("params", "cfg", "samples", "row", "accel_rate", "target",
                 "t", "dt", "smooth", "steps", "clips", "t_recorded",
                 "columns", "report", "final_state")

    def __init__(self, params: ModelParams, cfg: SolverConfig,
                 grid: RadialGrid, samples: _Samples, t, row: int):
        self.params, self.cfg, self.samples = params, cfg, samples
        self.row = row
        # chemical gradients grow at up to (chi*beta + xi*delta)*|grad u|
        # within the step, so the dt limiter solves dt*(vel + dt*accel) =
        # cfl*dr instead of using the instantaneous velocity alone (vital
        # while v, w are still flat)
        self.accel_rate = params.chi * params.beta + params.xi * params.delta
        self.target = cfg.cfl * grid.dr
        self.t, self.dt = t, cfg.dt_init
        self.smooth = self.steps = self.clips = 0
        self.columns = []   # (7, n) blocks of (t, E_pq, Lp_u, ...) samples
        self.report = BlowupReport(False, None, None)

    def start(self, finite: bool, clips: int, umax: float, vel_max: float,
              gu_max: float):
        """Sample the initial state; the first step, or None if the cell does
        not step.  It takes advance's arguments (`clips` is 0)."""
        self.samples.add(self)
        self.t_recorded = self.t
        # a start above the threshold or nonfinite is reported before any
        # step
        if umax > self.cfg.blowup_threshold:
            return self.stop("linf_threshold")
        if not finite:
            return self.stop("nonfinite_state")
        if self.t < self.cfg.t_final:
            return self.advance(None, clips, umax, vel_max, gu_max)
        return None

    def advance(self, accepted, clips: int, umax: float, vel_max: float,
                gu_max: float):
        """Take the step of size dt, or retry it at half the step if it came
        out nonfinite (`accepted` False); the next step, or None if the cell
        stops.  `umax`, `vel_max` and `gu_max` are the peaks of u and of the
        absolute face velocity and u face gradient at the cell's state.
        With `accepted` None, only the next step at the state."""
        cfg = self.cfg
        if accepted:
            # the state's time, kept here alone
            self.t = t = self.t + self.dt
            self.clips += clips
            self.steps = steps = self.steps + 1
            smooth = self.smooth + 1
            if smooth >= cfg.grow_after:
                self.dt = min(self.dt * cfg.growth, cfg.dt_max)
                smooth = 0
            self.smooth = smooth
            if steps % cfg.sample_every == 0:
                self.samples.add(self)
                self.t_recorded = t
            if umax > cfg.blowup_threshold:
                return self.stop("linf_threshold")
            if not (t < cfg.t_final and steps < cfg.max_steps):
                return None
        elif accepted is not None:
            self.dt *= 0.5
            self.smooth = 0
            if self.dt < cfg.dt_min:
                return self.stop("nonfinite_state")
        # the step limiter
        params = self.params
        try:
            dt_cap = cfg.dt_max
            accel = self.accel_rate * gu_max
            if accel > 0:
                dt_cap = min(dt_cap, (math.sqrt(vel_max ** 2 + 4.0 * accel
                                                * self.target) - vel_max)
                             / (2.0 * accel))
            elif vel_max > 0:
                dt_cap = min(dt_cap, self.target / vel_max)
            rate = abs(params.mu1)
            if params.mu2 > 0 and umax > 0:
                rate += (params.mu2 * params.k_logistic
                         * umax ** (params.k_logistic - 1))
            if rate > 0:
                dt_cap = min(dt_cap, cfg.cfl / rate)
        except OverflowError:
            # a squared speed or a rate beyond the float range: no dt is
            # stable, so the step size underflows below
            dt_cap = 0.0
        dt = self.dt
        while dt > dt_cap:
            dt *= 0.5
        if dt < cfg.dt_min:
            return self.stop("dt_underflow")
        self.dt = dt = min(dt, cfg.t_final - self.t)
        return dt

    def stop(self, trigger: str) -> None:
        self.report = BlowupReport(True, self.t, trigger)

    def finish(self) -> None:
        """Stop at the cell's row of the stack: sample it unless it is
        sampled."""
        if self.t_recorded != self.t:
            self.samples.add(self)
        self.final_state = FieldState.from_fields(
            self.t, self.samples.fields[self.row].copy())

    def trajectory(self) -> Trajectory:
        """The trajectory, once every sample is reduced."""
        cols = np.concatenate(self.columns, axis=1)
        return Trajectory(
            t=cols[0], E_pq=cols[1], Lp_u=cols[2], Linf_u=cols[3],
            gradinf_v=cols[4], gradinf_w=cols[5], mass=cols[6],
            report=self.report, solver=self.cfg, clip_count=self.clips,
            steps=self.steps, final_state=self.final_state)


def run(grid: RadialGrid, params, state0, p: float, q: float,
        cfg=SolverConfig()):
    """Adaptive time stepping with numerical blow-up detection.

    Blow-up is a reported outcome: the sup norm crossing blowup_threshold,
    a nonfinite state, or the step size falling below dt_min all set the
    flag with the corresponding trigger.

    `params`, `state0` and `cfg` are one cell's ModelParams, FieldState and
    SolverConfig, and the result is its Trajectory.  Or they are sequences
    of K cells' on the one grid, and the result is the list of their K
    trajectories: the cells advance as one (K, 3, M) stack, with one step
    call per iteration for all of them and each with its own dt, and a cell
    leaves the stack as soon as it stops.  Each trajectory is the one the
    cell gets alone: a step that comes out nonfinite is solved again cell
    by cell, and each cell accepts or retries its own.

    Each accepted state's face gradients serve the dt limiter, the face
    velocity and, at a sample, the diagnostics, which are reduced over
    blocks of SAMPLE_BLOCK sampled states of any of the cells.
    """
    single = isinstance(state0, FieldState)
    if single:
        params, state0, cfg = [params], [state0], [cfg]
    samples = _Samples(grid, p, q)
    live = cells = [_Cell(m, c, grid, samples, s.t, i) for i, (m, c, s) in
                    enumerate(zip(params, cfg, state0, strict=True))]
    stack = ParamStack(params)
    fields = np.array([s.fields for s in state0], dtype=float)
    accepted = np.isfinite(fields).all(axis=(1, 2)).tolist()
    every = [True] * len(cells)
    advance, clips, peak = _Cell.start, [0] * len(cells), np.maximum.reduce
    while True:
        samples.fields = fields
        samples.grads = grads = face_gradients(grid, fields)
        vel = _face_velocity(stack, grads)
        # per cell: the largest u, absolute face velocity and absolute u
        # face gradient.  A lone cell takes plain 1-D reductions and one
        # call: against the per-cell lists, this branch alone moves the
        # `blowup` benchmark's median op_s from 0.3424 to 0.3355
        # machine-scaled seconds, about 2 % (5 alternating pairs of 10 s
        # runs)
        if len(live) > 1:
            dts = list(map(advance, live, accepted, clips,
                           peak(fields[:, 0], axis=-1).tolist(),
                           peak(np.abs(vel), axis=-1).tolist(),
                           peak(np.abs(grads[:, 0]), axis=-1).tolist()))
        else:
            dts = [advance(live[0], accepted[0], clips[0],
                           float(peak(fields[0, 0])),
                           float(peak(np.abs(vel[0]))),
                           float(peak(np.abs(grads[0, 0]))))]
        if None in dts:
            # the cells that stopped leave the stack
            keep = [i for i, dt in enumerate(dts) if dt is not None]
            for i in range(len(live)):
                if dts[i] is None:
                    live[i].finish()
            if not keep:
                break
            live, stack = [live[i] for i in keep], stack.take(keep)
            for i, cell in enumerate(live):
                cell.row = i
            fields, vel, dts = fields[keep], vel[keep], [dts[i] for i in keep]
        new, clips = step(fields, dts, grid, stack, vel=vel)
        accepted = every
        if not np.logical_and.reduce(np.isfinite(new), axis=None):
            if len(live) > 1:
                # a nonfinite block spreads NaN to every other block: solve
                # each cell alone
                alone = [step(fields[i:i + 1], dts[i:i + 1], grid,
                              stack.take([i]), vel=vel[i:i + 1])
                         for i in range(len(live))]
                new = np.concatenate([f for f, _ in alone])
                clips = [c[0] for _, c in alone]
            finite = np.isfinite(new).all(axis=(1, 2))
            # a rejected cell stays where it was
            new[~finite] = fields[~finite]
            accepted = finite.tolist()
        fields, advance = new, _Cell.advance
    if samples.pending:
        samples.reduce()
    result = [cell.trajectory() for cell in cells]
    return result[0] if single else result

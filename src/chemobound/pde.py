"""Radially symmetric finite-volume solver for the chemotaxis system.

Method of lines on a ball in dimension n >= 3 with zero-flux boundaries.
Cell-centered unknowns on uniform radial shells; diffusion and the linear
decay of the two chemical fields are implicit (backward Euler), the
chemotactic advection of the cell density and the logistic source are
explicit with upwinding by the sign of the face velocity.  The face at
r = 0 has zero area, so the geometric 1/r factor is never evaluated.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from typing import TextIO

import numpy as np

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
    with np.errstate(all="ignore"):  # an R that floats cannot hold: below
        face_areas = omega * r_faces ** (n - 1)
        shell_measures = omega * np.diff(r_faces ** n) / n
        dr = R / M
        lower = face_areas[1:-1] / (shell_measures[1:] * dr)
        upper = face_areas[1:-1] / (shell_measures[:-1] * dr)
        diag = np.zeros(M)
        diag[:-1] += upper
        diag[1:] += lower
    # a nan min or max fails its test
    if not all(0 < x.min() and x.max() < math.inf
               for x in (shell_measures, lower, upper, diag)):
        raise ParameterError(
            f"R={R} with M={M} shells is past float range: the shell "
            f"measures and Laplacian couplings must be positive and finite")
    rows = np.zeros((3, M))
    rows[0, :-1], rows[1, :-1], rows[2] = -lower, -upper, diag
    return RadialGrid(n=n, R=R, M=M, r_faces=r_faces, r_centers=r_centers,
                      face_areas=face_areas, shell_measures=shell_measures,
                      dr=dr, lap_rows=np.stack([rows] * 3, axis=1)[:, :, None],
                      inner_areas=face_areas[1:-1],
                      neg_measures=-shell_measures)


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

    def __post_init__(self):
        if not 0 < self.width < math.inf:
            raise ParameterError(
                f"profile width must be positive and finite, got {self.width}")


def init_state(grid: RadialGrid, profile) -> np.ndarray:
    """The profile's state: the (3, M) array of its u, v, w on the grid."""
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
    return np.array(fields, dtype=float)


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
    """Solve a tridiagonal system with LAPACK's gtsv in place: the four
    contiguous arrays are overwritten, the solution into `rhs`, which is
    also returned.  There is no finiteness check, so a nonfinite rhs gives
    a nonfinite solution for the caller to reject.

    The first call binds LAPACK's dgtsv and rebinds _gtsv to the solver
    below, so only a command that solves loads it and no step pays for the
    lookup.  dgtsv is the function of the f2py extension
    scipy.linalg._flapack, loaded straight from its file in the scipy
    package: the very object scipy.linalg.lapack.dgtsv re-exports, without
    the ~0.2 s import of the scipy.linalg package (whose array-API support
    loads numpy.testing, numpy.f2py, numpy.ma and numpy.random).  Importing
    scipy itself first is cheap, and runs scipy's platform set-up, such as
    the DLL directories it adds on Windows."""
    global _gtsv
    import scipy
    from importlib import machinery, util

    spec = machinery.FileFinder(
        os.path.join(scipy.__path__[0], "linalg"),
        (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)
    ).find_spec("scipy.linalg._flapack")
    flapack = util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    dgtsv = flapack.dgtsv

    def _gtsv(lower, diag, upper, rhs):
        _, _, _, x, info = dgtsv(lower, diag, upper, rhs, 1, 1, 1, 1)
        if info != 0:
            raise ChemoboundError(
                f"tridiagonal solve failed (gtsv info={info})")
        return x

    return _gtsv(lower, diag, upper, rhs)


class ParamStack:
    """The coefficients of K cells' models, shaped to broadcast over the
    fields of a stack of states field by field, (3, K, M), as step holds
    them.  For K = 1 they have no stack axis: step drops the stack axis of
    a one-state stack, because numpy combines the smaller arrays, and 0-d
    arrays, with less call overhead.  This lone-cell layout (these 0-d
    coefficients, and the dropped stack axis of a Workspace's step views)
    is chosen by the stack size alone, once per stack.  With the
    workspace, its removal raised the benchmark's `blowup` workload (K = 1)
    op_s from 0.271-0.277 to 0.316-0.331 machine-scaled seconds, medians
    0.274 and 0.321, about 17 %, over 6 alternating pairs of 30 s runs;
    `sweep` runs K = 36, the other side of the choice."""

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
            # a ufunc takes a 0-d array operand in ~2/3 the time of a float
            self.chi, self.xi, self.mu1 = (cols[0, i, ...] for i in range(3))
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


class _Buffer:
    """One of a Workspace's two right-hand-side buffers, (3, K, M) field
    first, and the views of it that an iteration reads or writes: `stack`,
    the (K, 3, M) stack step takes and returns; `rows`, the fields in
    step's layout (no stack axis for one state), with `u` and the chemical
    rows `chem`; u's left and right cells of the interior faces; the
    stack's right and left cells of the interior faces, for the face
    gradients; and `flat`, the whole buffer as gtsv's right-hand side."""

    __slots__ = ("full", "flat", "stack", "rows", "u", "chem", "u_lo",
                 "u_hi", "hi", "lo")

    def __init__(self, K: int, M: int):
        self.full = np.empty((3, K, M))
        self.flat = self.full.reshape(-1)
        self.stack = self.full.transpose(1, 0, 2)
        self.rows = self.full[:, 0] if K == 1 else self.full
        self.u, self.chem = self.rows[0], self.rows[1:]
        self.u_lo, self.u_hi = self.u[..., :-1], self.u[..., 1:]
        self.hi, self.lo = self.stack[..., 1:], self.stack[..., :-1]


# the constants of the ufunc calls of an iteration, as 0-d arrays (see
# ParamStack)
_ZERO, _ONE = np.zeros(()), np.ones(())
_ZERO.flags.writeable = _ONE.flags.writeable = False


class Workspace:
    """Every array that run's loop and step read or fill on an iteration of
    a stack of K states on one grid, and every view of them, bound once
    for the stack, so an iteration makes no array and no view of its own
    (a cell with a source term aside).

    The stack's fields live in one of two right-hand-side buffers (see
    _Buffer), `current`: run seats its initial fields there, and step
    solves in place into the other buffer and makes it the current one.
    So step's input may be its previous result, which it reads while it
    writes the other buffer, and each result stays valid until the second
    step after it.

    `faces` holds each state's face velocity (row 0) and face gradients of
    u, v, w (rows 1-3), all with zero end faces: `grads`, `inner` (the
    interior face gradients), `grad_v`, `grad_w` and `vel` are views of it,
    `vel_tmp` takes chi*grad v, and the peaks of |velocity| and |grad u|
    are one reduction over its first two rows (the zero ends change no
    peak) into `peaks`.  The views of the upwind flux, whose end faces are
    zero, `bands`, the tridiagonal bands of the solve, `dt` with its
    products `dt_rates` and `one_decay`, and `vel_rows` are in step's
    layout: field first, (3, K, M), with no stack axis for one state
    (ParamStack's lone-cell layout).  step also leaves here whether the
    new stack is finite and each state's largest u."""

    __slots__ = ("grid", "current", "other", "faces", "grads",
                 "inner", "grad_v", "grad_w", "vel", "vel_tmp", "vel_rows",
                 "upwind", "up", "peaked", "speeds", "peaks", "peak_cols",
                 "flux_inner", "flux_hi", "flux_lo", "dr", "dt", "dt_vec",
                 "dt_rates", "feed", "decay", "one_decay", "bands", "lower",
                 "upper", "diag", "diag_rows", "highs", "finite", "umax")

    def __init__(self, grid: RadialGrid, K: int):
        M, lone = grid.M, K == 1
        self.grid = grid
        self.current, self.other = _Buffer(K, M), _Buffer(K, M)
        self.faces = faces = np.zeros((K, 4, M + 1))
        self.grads, self.inner = faces[:, 1:], faces[:, 1:, 1:-1]
        self.grad_v, self.grad_w = faces[:, 2, 1:-1], faces[:, 3, 1:-1]
        self.vel, self.vel_tmp = faces[:, 0, 1:-1], np.empty((K, M - 1))
        self.vel_rows = self.vel[0] if lone else self.vel
        # the upwind side of each interior face, and u there
        self.upwind = np.empty(self.vel_rows.shape, dtype=bool)
        self.up = np.empty(self.vel_rows.shape)
        self.peaked, self.speeds = faces[:, :2], np.empty((K, 2, M + 1))
        self.peaks = np.empty((K, 2))
        self.peak_cols = self.peaks.T
        flux = np.zeros(self.vel_rows.shape[:-1] + (M + 1,))
        self.flux_inner, self.flux_hi, self.flux_lo = (
            flux[..., 1:-1], flux[..., 1:], flux[..., :-1])
        self.dr = np.array(grid.dr)
        # each state's dt, its products with the rates at which u feeds each
        # field and their decay rates, and 1 + dt*decay
        self.dt = np.empty(() if lone else (K, 1))
        self.dt_vec = self.dt.reshape(-1)
        self.dt_rates = np.empty((2, 3) + ((1,) if lone else (K, 1)))
        self.feed, self.decay = self.dt_rates[0, 1:], self.dt_rates[1]
        self.one_decay = np.empty(self.decay.shape)
        # the bands -lower, -upper and diag of the n = K*3M system, of which
        # gtsv takes the first n-1, n-1 and n entries
        self.bands = np.empty((3, 3, K, M))
        flat, n = self.bands.reshape(-1), 3 * K * M
        self.lower, self.upper, self.diag = (flat[:n - 1], flat[n:2 * n - 1],
                                             flat[2 * n:])
        self.diag_rows = self.diag.reshape(self.current.rows.shape)
        self.highs = np.empty((3, K))

    def take(self, rows) -> Workspace:
        """A workspace of the given rows of this stack, their fields and
        faces seated in it."""
        ws = Workspace(self.grid, len(rows))
        np.take(self.current.stack, rows, axis=0, out=ws.current.stack)
        np.take(self.faces, rows, axis=0, out=ws.faces)
        return ws


def _face_velocity(params: ParamStack, ws: Workspace) -> None:
    """The face gradients of the workspace's current fields, and chi*grad v
    - xi*grad w at the M-1 interior faces, written into the workspace; the
    velocity at both boundary faces is zero."""
    cur, inner = ws.current, ws.inner
    np.subtract(cur.hi, cur.lo, out=inner)
    np.divide(inner, ws.dr, out=inner)
    np.multiply(params.chi, ws.grad_v, out=ws.vel_tmp)
    np.multiply(params.xi, ws.grad_w, out=ws.vel)
    np.subtract(ws.vel_tmp, ws.vel, out=ws.vel)


def _advective_divergence(grid: RadialGrid, ws: Workspace, cur: _Buffer,
                          out: np.ndarray) -> np.ndarray:
    """Divergence of the upwinded advective flux u * vel at the interior
    faces, of the u of `cur` and the workspace's velocity, along the last
    axis, into `out`."""
    vel, up, inner = ws.vel_rows, ws.up, ws.flux_inner
    np.greater_equal(vel, _ZERO, out=ws.upwind)
    np.copyto(up, cur.u_hi)
    np.copyto(up, cur.u_lo, where=ws.upwind)
    np.multiply(grid.inner_areas, vel, out=inner)
    np.multiply(inner, up, out=inner)
    np.subtract(ws.flux_hi, ws.flux_lo, out=out)
    return np.divide(out, grid.neg_measures, out=out)


def _logistic(params: ParamStack, u):
    out = params.mu1 * u
    for i, mu2, k in params.logistic:
        out[i] = out[i] - mu2 * u[i] ** k
    return out


def step(fields: np.ndarray, dt, grid: RadialGrid, params: ParamStack,
         vel: np.ndarray | None = None, ws: Workspace | None = None):
    """One IMEX step of a stack of K states: `fields` is their (K, 3, M)
    array, `dt` a sequence of K per-state steps and `params` their
    ParamStack.  Returns the new (K, 3, M) fields and a list of K clip
    counts.  `vel` is the (K, M-1) face velocity of `fields`, if the caller
    already has it.

    `ws` is a Workspace of the stack to compute in, and the new fields are
    its new current buffer, solved in place (see Workspace).  Fields that
    are not the workspace's current stack are seated in it first, and so
    is a velocity that is not its own; with both seated, as run passes
    them, step makes no array and no view.  Without a workspace, step
    seats its fields in a fresh one, so the new fields share no memory
    with `fields`.

    All backward-Euler systems of the step are solved as one block-diagonal
    system with zero couplings between the blocks (one per field and
    state).  A zero coupling gives an exact zero multiplier, so each finite
    block solves to the same values as it would alone.  A field that comes
    out nonfinite is returned as it is, unclipped, and it makes every other
    block nonfinite too, since 0 * inf is NaN; run rejects such a step and
    solves it again state by state."""
    if not all(d > 0.0 for d in dt):
        raise ParameterError(f"dt must be positive, got {dt}")
    if ws is None:
        ws = Workspace(grid, len(dt))
    cur, new = ws.current, ws.other
    if fields is not cur.stack:
        np.copyto(cur.stack, fields)
    if vel is None:
        _face_velocity(params, ws)
    elif vel is not ws.vel:
        np.copyto(ws.vel, vel)
    ws.dt_vec[:] = dt
    dt_col, u, du, chem = ws.dt, cur.u, new.u, new.chem
    # backward Euler: (I + dt*decay - dt*L) f_new = f + dt*source, block by
    # block, with u's source its advection and logistic terms and the
    # chemicals' source beta*u and delta*u; u's source is summed in its
    # rhs row
    np.multiply(params.rates, dt_col, out=ws.dt_rates)
    _advective_divergence(grid, ws, cur, du)
    if params.source:
        np.add(du, _logistic(params, u), out=du)
    np.multiply(dt_col, du, out=du)
    np.add(u, du, out=du)
    np.multiply(ws.feed, u, out=chem)
    np.add(cur.chem, chem, out=chem)
    np.multiply(grid.lap_rows, dt_col, out=ws.bands)
    np.add(_ONE, ws.decay, out=ws.one_decay)
    np.add(ws.diag_rows, ws.one_decay, out=ws.diag_rows)
    _gtsv(ws.lower, ws.diag, ws.upper, new.flat)
    ws.current, ws.other = new, cur
    clips = [0] * len(dt)
    # one minimum and the per-field maxima decide both checks: the stack is
    # finite iff its smallest value is neither -inf nor NaN, which
    # np.minimum propagates (so the maxima hold no NaN when it passes), and
    # its largest value is below +inf; it has nothing to clip iff, in
    # addition, its smallest value is positive.  The minimum is one call
    # over the whole stack: minima per row cost ~0.1 us a row
    least = np.minimum.reduce(new.flat)
    highs = np.maximum.reduce(new.full, axis=-1, out=ws.highs).tolist()
    ws.finite = -math.inf < least and max(map(max, highs)) < math.inf
    if not (ws.finite and least > 0.0):
        # something to clip, or a nonfinite value; not the common case
        lows = np.minimum.reduce(new.stack, axis=-1).tolist()
        tops = np.maximum.reduce(new.stack, axis=-1).tolist()
        for i, state_new in enumerate(new.stack):
            for f, lo, hi in zip(state_new, lows[i], tops[i]):
                if math.isfinite(lo) and math.isfinite(hi) and lo <= 0.0:
                    floor = -1e-10 * max(-lo, hi, 1.0)
                    if lo < floor:
                        clips[i] += int(np.count_nonzero(f < floor))
                    np.maximum(f, 0.0, out=f)
        highs = np.maximum.reduce(new.full, axis=-1, out=ws.highs).tolist()
    ws.umax = highs[0]
    return new.stack, clips


# --- diagnostics ------------------------------------------------------------
# Each takes the (3, M) fields of one state or the (..., 3, M) fields of a
# stack of states and returns a float or an array of values, one per state.
# Given the gradients in `terms`, they read only u, the fields' row 0.

def _per_state(x):
    """A float for one state, the array for a stack of states."""
    return float(x) if np.ndim(x) == 0 else x


def _integral(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Shell-quadrature integral along the last axis.  np.vecdot takes one
    BLAS dot product per row, the same bits as np.dot(V, row); a
    matrix-vector product rounds differently in the last bit."""
    return np.vecdot(values, grid.shell_measures)


def mass(fields: np.ndarray, grid: RadialGrid):
    return _per_state(_integral(grid, fields[..., 0, :]))


def _sample_terms(fields: np.ndarray, grid: RadialGrid, p: float,
                  grads=None):
    """The integral of |u|^p and the (..., 2, M+1) face gradients of v and
    w: what energy and norms both need, so one sample can compute them once
    and pass them to both.  `grads` is those gradients if the caller
    already has them."""
    if grads is None:
        grads = face_gradients(grid, fields[..., 1:, :])
    return _integral(grid, np.abs(fields[..., 0, :]) ** p), grads


def energy(fields: np.ndarray, p: float, q: float, grid: RadialGrid,
           terms=None):
    """(1/p) int |u|^p + (1/q) int |grad v|^q + (1/q) int |grad w|^q.

    `terms` is _sample_terms(fields, grid, p) if the caller already has it."""
    if p <= 0 or q <= 0:
        raise ParameterError(f"p, q must be positive, got p={p}, q={q}")
    int_up, grads = _sample_terms(fields, grid, p) if terms is None else terms
    int_g = _integral(grid, np.abs(_face_to_cell(grads)) ** q)
    return _per_state(int_up / p + (int_g[..., 0] + int_g[..., 1]) / q)


def norms(fields: np.ndarray, grid: RadialGrid, p: float, terms=None):
    """(||u||_p, ||u||_inf, max face gradient of v, of w).

    `terms` is _sample_terms(fields, grid, p) if the caller already has it."""
    int_up, grads = _sample_terms(fields, grid, p) if terms is None else terms
    # Python's float power: numpy's vectorised one can differ in the last bit
    lp = np.reshape([s ** (1.0 / p) for s in np.ravel(int_up).tolist()],
                    np.shape(int_up))
    linf = np.abs(fields[..., 0, :]).max(axis=-1)
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
        # each test is False for NaN.  An infinite dt_init would halve for
        # ever in the step limiter
        for name, rule, ok in (
                ("t_final", "> 0 and finite", 0 < self.t_final < math.inf),
                ("cfl", "> 0", self.cfl > 0),
                ("dt_init", "finite", self.dt_init < math.inf),
                ("dt_min", "in (0, dt_init]", 0 < self.dt_min <= self.dt_init),
                ("dt_max", ">= dt_min and finite",
                 self.dt_min <= self.dt_max < math.inf),
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
    """How a run ended.  `stop_reason` is the trigger of a run that blew
    up, else "t_final" if it reached t_final and "max_steps" if its step
    budget ran out first."""
    blew_up: bool
    t_detect: float | None
    trigger: str | None
    stop_reason: str | None

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
    rejected_steps: int   # steps retried at half dt, their result nonfinite
    # mass / |shell 0|, the most u the grid can hold, for a cell without a
    # source term and with a finite start (else None), and the first t at
    # which u passed a tenth of it (None if it never did)
    grid_cap: float | None
    t_cap_tenth: float | None
    final_fields: np.ndarray   # the state at t[-1]

    def to_csv(self, stream: TextIO) -> None:
        stream.write("t,E_pq,Lp_u,Linf_u,gradinf_v,gradinf_w,mass\n")
        # the bytes of csv.writer, which writes a float as its repr and
        # never quotes one
        stream.writelines(",".join(map(repr, row)) + "\n" for row in zip(
            *(col.tolist() for col in (
                self.t, self.E_pq, self.Lp_u, self.Linf_u, self.gradinf_v,
                self.gradinf_w, self.mass))))


# states whose diagnostics run reduces together: up to ~0.6 MB of pending
# arrays at M = 48
SAMPLE_BLOCK = 256


class _Samples:
    """The sampled states of a run's cells, whose diagnostics are reduced
    together in blocks of SAMPLE_BLOCK states, whatever cell each came
    from: the diagnostics of a stack of states are each state's own.

    A sample is copied into the next row of two block arrays allocated
    once, since the stack's fields and gradients are workspace buffers that
    the next steps overwrite."""

    def __init__(self, grid: RadialGrid, p: float, q: float):
        self.grid, self.p, self.q = grid, p, q
        self.pending = []   # (cell, t) of the block's samples, in row order
        # each sample's u, as a (1, M) state whose fields hold u alone, and
        # its face gradients of v and w
        self.block_u = np.empty((SAMPLE_BLOCK, 1, grid.M))
        self.block_grads = np.empty((SAMPLE_BLOCK, 2, grid.M + 1))
        # the fields and face gradients of the stack of run's live cells
        self.fields = self.grads = None

    def add(self, cell: _Cell) -> None:
        """Sample the cell's state: copy its u and face gradients of v and
        w out of its row of the stack."""
        j = len(self.pending)
        self.block_u[j] = self.fields[cell.row, :1]
        self.block_grads[j] = self.grads[cell.row, 1:]
        self.pending.append((cell, cell.t))
        if j + 1 == SAMPLE_BLOCK:
            self.reduce()

    def reduce(self) -> None:
        """Append each pending sample's (t, E_pq, Lp_u, ...) column to its
        cell's columns."""
        grid, p, q = self.grid, self.p, self.q
        cells, ts = zip(*self.pending)
        block = self.block_u[:len(ts)]
        grads = self.block_grads[:len(ts)]
        self.pending.clear()
        terms = _sample_terms(block, grid, p, grads)
        cols = np.array((ts, energy(block, p, q, grid, terms),
                         *norms(block, grid, p, terms), mass(block, grid)))
        rows = {}
        for j, cell in enumerate(cells):
            rows.setdefault(cell, []).append(j)
        for cell, js in rows.items():
            cell.columns.append(cols[:, js])


class _Cell:
    """One cell's adaptive-step control in run: the float code of a run of
    that cell alone.  `row` is the cell's row of the stack, and `cap` its
    mass over the measure of shell 0."""

    __slots__ = ("params", "cfg", "samples", "row", "accel_rate", "target",
                 "t", "dt", "smooth", "steps", "clips", "rejected",
                 "grid_cap", "cap_watch", "t_cap_tenth", "t_recorded",
                 "columns", "report", "final_fields")

    def __init__(self, params: ModelParams, cfg: SolverConfig,
                 grid: RadialGrid, samples: _Samples, row: int, cap: float):
        self.params, self.cfg, self.samples = params, cfg, samples
        self.row = row
        # without a source term the mass is conserved, and no shell can hold
        # more than all of it: u <= cap on the grid.  cap_watch is the u
        # level whose first crossing sets t_cap_tenth, then +inf
        self.grid_cap = (cap if params.mu1 == params.mu2 == 0.0
                         and math.isfinite(cap) else None)
        self.cap_watch = (math.inf if self.grid_cap is None
                          else 0.1 * self.grid_cap)
        self.t_cap_tenth = None
        # chemical gradients grow at up to (chi*beta + xi*delta)*|grad u|
        # within the step, so the dt limiter solves dt*(vel + dt*accel) =
        # cfl*dr instead of using the instantaneous velocity alone (vital
        # while v, w are still flat)
        self.accel_rate = params.chi * params.beta + params.xi * params.delta
        self.target = cfg.cfl * grid.dr
        self.t, self.dt = 0.0, cfg.dt_init
        self.smooth = self.steps = self.clips = self.rejected = 0
        self.columns = []   # (7, n) blocks of (t, E_pq, Lp_u, ...) samples

    def start(self, finite: bool, clips: int, umax: float, vel_max: float,
              gu_max: float):
        """Sample the initial state; the first step, or None if the cell
        stops at its start.  It takes advance's arguments (`clips` is 0)."""
        self.samples.add(self)
        self.t_recorded = self.t
        if umax > self.cap_watch:
            self.t_cap_tenth, self.cap_watch = self.t, math.inf
        # a start above the threshold or nonfinite is reported before any
        # step
        if umax > self.cfg.blowup_threshold:
            return self.stop("linf_threshold")
        if not finite:
            return self.stop("nonfinite_state")
        return self.advance(None, clips, umax, vel_max, gu_max)

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
            if umax > self.cap_watch:
                self.t_cap_tenth, self.cap_watch = t, math.inf
            if umax > cfg.blowup_threshold:
                return self.stop("linf_threshold")
            if not t < cfg.t_final:
                return self.end("t_final")
            if not steps < cfg.max_steps:
                return self.end("max_steps")
        elif accepted is not None:
            self.rejected += 1
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

    # a cell's report is set where it stops: by stop if it blew up, else by
    # end
    def stop(self, trigger: str) -> None:
        self.report = BlowupReport(True, self.t, trigger, trigger)

    def end(self, reason: str) -> None:
        self.report = BlowupReport(False, None, None, reason)

    def finish(self) -> None:
        """Stop at the cell's row of the stack: sample it unless it is
        sampled."""
        if self.t_recorded != self.t:
            self.samples.add(self)
        self.final_fields = self.samples.fields[self.row].copy()

    def trajectory(self) -> Trajectory:
        """The trajectory, once every sample is reduced."""
        cols = np.concatenate(self.columns, axis=1)
        return Trajectory(
            t=cols[0], E_pq=cols[1], Lp_u=cols[2], Linf_u=cols[3],
            gradinf_v=cols[4], gradinf_w=cols[5], mass=cols[6],
            report=self.report, solver=self.cfg, clip_count=self.clips,
            steps=self.steps, rejected_steps=self.rejected,
            grid_cap=self.grid_cap, t_cap_tenth=self.t_cap_tenth,
            final_fields=self.final_fields)


def run(grid: RadialGrid, params, fields0, p: float, q: float,
        cfg=SolverConfig()):
    """Adaptive time stepping with numerical blow-up detection.

    Blow-up is a reported outcome: the sup norm crossing blowup_threshold,
    a nonfinite state, or the step size falling below dt_min all set the
    flag with the corresponding trigger.

    `params`, `fields0` and `cfg` are one cell's ModelParams, (3, M) initial
    fields and SolverConfig, and the result is its Trajectory.  Or they are
    sequences of K cells' on the one grid, and the result is the list of
    their K trajectories: the cells advance as one (K, 3, M) stack, with
    one step call per iteration for all of them and each with its own dt,
    and a cell leaves the stack as soon as it stops.  Each trajectory is
    the one the cell gets alone: a step that comes out nonfinite is solved
    again cell by cell, and each cell accepts or retries its own.  Every
    cell starts at t = 0, and its time is kept by its _Cell alone.

    The stack is stepped in one Workspace, whose current buffer holds its
    fields: run seats the initial fields there, a Workspace.take seats the
    rows of the cells that go on when others leave the stack, and the
    result of a cell-by-cell retry is seated in the buffer the step wrote.
    Each iteration computes the face gradients, the velocity and their
    peaks through the workspace's views, and passes step the current
    stack and the workspace's velocity, so step makes no array and no
    view; step solves in place into the other buffer and makes it the
    current one.  Each accepted state's face gradients serve the dt
    limiter, the face velocity and, at a sample, the diagnostics: a sample
    copies its u and gradients out of the workspace, and the samples of
    any of the cells are reduced in blocks of SAMPLE_BLOCK.  step's one
    minimum and per-field maxima of the new stack give its finiteness and
    each cell's largest u, and only a nonfinite stack takes a reduction of
    its own.
    """
    single = isinstance(params, ModelParams)
    if single:
        params, fields0, cfg = [params], [fields0], [cfg]
    fields = np.array(fields0, dtype=float)
    samples = _Samples(grid, p, q)
    caps = _integral(grid, fields[:, 0]) / grid.shell_measures[0]
    live = cells = [_Cell(m, c, grid, samples, i, cap) for i, (m, c, cap) in
                    enumerate(zip(params, cfg, caps.tolist(), strict=True))]
    stack, ws = ParamStack(params), Workspace(grid, len(cells))
    np.copyto(ws.current.stack, fields)
    accepted = np.isfinite(fields).all(axis=(1, 2)).tolist()
    umax = np.maximum.reduce(fields[:, 0], axis=-1).tolist()
    every = [True] * len(cells)
    advance, clips = _Cell.start, [0] * len(cells)
    while True:
        cur = ws.current
        _face_velocity(stack, ws)
        samples.fields, samples.grads = cur.stack, ws.grads
        # per cell: the largest absolute face velocity and u face gradient,
        # one reduction over the first two rows of the workspace's faces
        np.abs(ws.peaked, out=ws.speeds)
        np.maximum.reduce(ws.speeds, axis=-1, out=ws.peaks)
        dts = list(map(advance, live, accepted, clips, umax,
                       *ws.peak_cols.tolist()))
        if None in dts:
            # the cells that stopped leave the stack, and its workspace
            keep = [i for i, dt in enumerate(dts) if dt is not None]
            for i in range(len(live)):
                if dts[i] is None:
                    live[i].finish()
            if not keep:
                break
            live, stack = [live[i] for i in keep], stack.take(keep)
            for i, cell in enumerate(live):
                cell.row = i
            ws, dts = ws.take(keep), [dts[i] for i in keep]
            cur = ws.current
        new, clips = step(cur.stack, dts, grid, stack, vel=ws.vel, ws=ws)
        accepted, umax = every, ws.umax
        if not ws.finite:
            if len(live) > 1:
                # a nonfinite block spreads NaN to every other block: solve
                # each cell alone, and seat the results in the new buffer
                alone = [step(cur.stack[i:i + 1], dts[i:i + 1], grid,
                              stack.take([i]), vel=ws.vel[i:i + 1])
                         for i in range(len(live))]
                np.concatenate([f for f, _ in alone], out=new)
                clips = [c[0] for _, c in alone]
            finite = np.isfinite(new).all(axis=(1, 2))
            # a rejected cell stays where it was
            new[~finite] = cur.stack[~finite]
            accepted = finite.tolist()
            umax = np.maximum.reduce(new[:, 0], axis=-1).tolist()
        advance = _Cell.advance
    if samples.pending:
        samples.reduce()
    result = [cell.trajectory() for cell in cells]
    return result[0] if single else result

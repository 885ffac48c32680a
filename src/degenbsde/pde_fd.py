"""Explicit upwind finite differences for the backward value equation.

The scheme steps the terminal payoff backward with centered second
differences, drift-upwinded first differences, and coefficients frozen at
the upper time level of each step.  Under the advertised time-step bound
every update is a convex combination of old values, so the solver
inherits the discrete maximum principle exactly (for zero running cost):
no new extrema, ever.  Boundary nodes drop the second difference and any
one-sided difference whose upwind neighbor falls outside the domain,
which keeps the combination convex there too.

``make_grid`` applies two alignment tweaks that matter for accuracy on
irregular data: the node lattice is shifted so the first payoff jump
falls exactly midway between nodes (restoring second-order behavior for
symmetric jumps), and the step count is rounded so volatility
discontinuities in time land on grid levels.

The sweep evaluates the coefficients once per level: one ``sigma`` call,
whose values also give the drift with the linear-in-z cost absorbed.  For
a model that declares ``x_flat`` the level's ``sigma`` and drift are
Python floats from ``model._x_flat_at``: the coefficients' time
functions for a built-in model, with no closure call, and otherwise
``sigma``, ``b`` and ``f2`` called on the first node alone.  The level's
``0.5 * sigma**2`` is then a Python float too, and the drift's sign picks
the forward, backward or zero difference for every node at once.  The
stability check rejects such a declaration when a sampled level's
``sigma`` or drift varies across the lattice.

The sweep runs in place: the value, its differences and the right-hand
side live in buffers allocated once per solve, and each kept level is
copied straight into its row of the stored array.  Its ufuncs are bound
once per solve, and its constants ``2``, ``dx``, ``dx**2`` and ``dt`` are
0-d float64 arrays, which a ufunc takes with less per-call overhead than
a Python float and with the same bits; every operation keeps its order.
``make_grid`` sizes the step count from the same sampled levels that
``solve_fd``'s stability check samples, and checks its final grid, so
``solve_fd`` accepts every grid ``make_grid`` returns.  Those levels are
sampled once per model and lattice: the last sample is memoized, so on a
grid of 1024 or more steps ``solve_fd`` reuses the probe ``make_grid``
just ran.  They are sampled in blocks of at most 65,536 values (81 levels
at 801 nodes, and at least one level): each level's ``sigma`` and drift
are written into a row of a block buffer, and the block's maxima and its
finiteness and x-flat checks are taken once, along its rows; the first
failing level in time order still raises its own error.

``PdeSolution`` answers its own lookups, ``u`` and ``ux``: nearest stored
level in time, linear in space, each level's gradient built once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .model import CoefficientModel, _absorbed_drift, _x_flat_at
from .sde_sim import _check_count, _check_ends

__all__ = [
    "PdeGrid",
    "CflReport",
    "PdeSolution",
    "cfl_check",
    "make_grid",
    "solve_fd",
]

CFL_MARGIN = 0.9
MAX_STORED_LEVELS = 2001
_MAX_T_SAMPLES = 1025
# elements per block of sampled levels: 81 levels of 801 nodes
_SAMPLE_BLOCK = 65536
_MAX_JUMP_DENOMINATOR = 10000
_MAX_LEVEL_MULTIPLE = 1_000_000
_MAX_N_T = 2 ** 63  # step counts must fit an int64


@dataclass(frozen=True)
class PdeGrid:
    """Uniform space-time lattice: ``n_x`` nodes, ``n_t`` backward steps."""

    x_min: float
    x_max: float
    n_x: int
    t_min: float
    t_max: float
    n_t: int

    def __post_init__(self) -> None:
        _check_ends(self, "x_min", "x_max", "t_min", "t_max")
        if not (self.x_min < self.x_max):
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        _check_count(self.n_x, "n_x", 3)
        if not (self.t_min < self.t_max):
            raise ValueError(f"need t_min < t_max, got [{self.t_min}, {self.t_max}]")
        _check_count(self.n_t, "n_t")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def dt(self) -> float:
        return (self.t_max - self.t_min) / self.n_t

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    def times(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n_t + 1)


@dataclass(frozen=True)
class CflReport:
    """Stability accounting for an explicit sweep on a given grid."""

    dt: float
    dx: float
    dt_limit: float
    satisfied: bool
    max_sigma_sq: float
    max_abs_drift: float


# the last finished sample: (model, lattice key, (max_sig_sq, max_drift));
# holding the model keeps the ``is`` test on it sound
_last_sample = None


def _checked_maxima(model: CoefficientModel, grid: PdeGrid, ts: list,
                    sig: np.ndarray, drf: np.ndarray):
    """The largest ``|sigma|`` and ``|drift|`` over a block of sampled
    levels ``ts``, one row each, as Python floats (0.0 for no level).

    Raises ValueError for the first level in time order that fails a
    check; within a level the checks run in this order: ``sigma`` not
    finite, the drift not finite, and for an ``x_flat`` model ``sigma``
    varying in x, then the drift varying."""
    if not ts:
        return 0.0, 0.0
    sig_max = np.max(np.abs(sig), axis=1)
    drf_max = np.max(np.abs(drf), axis=1)
    names = ("sigma", "drift b + f2 * sigma")
    checks = [(name, "is not finite", "", ~np.isfinite(v))
              for name, v in zip(names, (sig_max, drf_max))]
    if model.x_flat:
        # the sweep evaluates an x-flat model at one node per level; the
        # values are compared by their bytes, so -0.0 and +0.0 differ
        why = f", but {model.name} declares x_flat"
        for name, rows in zip(names, (sig, drf)):
            bits = rows.view(np.uint64)
            checks.append((name, "varies in x", why,
                           np.any(bits != bits[:, :1], axis=1)))
    bad = np.any([c[3] for c in checks], axis=0)
    if bad.any():
        j = int(np.argmax(bad))
        name, what, why, _ = next(c for c in checks if c[3][j])
        raise ValueError(f"{name} {what} at t={ts[j]} on [{grid.x_min}, "
                         f"{grid.x_max}]{why}")
    return float(np.max(sig_max)), float(np.max(drf_max))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _coefficient_samples(model: CoefficientModel, grid: PdeGrid):
    """Sampled sup of sigma^2 and |drift| (with the z-cost absorbed).

    Raises ValueError naming the coefficient when a sample is not finite:
    a NaN would otherwise drop out of the running sup.  The levels are
    evaluated a block at a time and checked after each block, so the
    floating-point warnings of a block's evaluation are silenced: a level
    after the first failing one may be evaluated, but the first failing
    level's error is raised, as if each level were checked in turn.  The
    last result is memoized for its model object and sampled lattice, so
    the same model on a grid that samples the same levels is not sampled
    again.
    """
    global _last_sample
    n_levels = min(grid.n_t + 1, _MAX_T_SAMPLES)
    # compared as hex, so that a -0.0 bound, which samples at -0.0, does
    # not match a 0.0 one
    key = (tuple(float(v).hex() for v in (grid.x_min, grid.x_max,
                                          grid.t_min, grid.t_max)),
           grid.n_x, n_levels)
    if (_last_sample is not None and _last_sample[0] is model
            and _last_sample[1] == key):
        return _last_sample[2]
    xs = grid.xs()
    ts = np.linspace(grid.t_min, grid.t_max, n_levels).tolist()
    extra = []
    for q in model.sigma_time_jumps:
        for cand in (q, np.nextafter(q, grid.t_min), np.nextafter(q, grid.t_max)):
            if grid.t_min <= cand <= grid.t_max:
                extra.append(float(cand))
    if extra:
        # the sorted, deduplicated union np.union1d gives, without the import
        # of numpy.ma its unique() makes on first use; girsanov_const wraps
        # step_vol and keeps its jump, so z-path runs reach this line
        ts = sorted(set(ts).union(extra))
    # the levels are sampled in blocks of at most _SAMPLE_BLOCK values
    n_block = max(1, _SAMPLE_BLOCK // xs.size)
    sig_rows = np.empty((min(n_block, len(ts)), xs.size))
    drf_rows = np.empty_like(sig_rows)
    max_sig_sq = 0.0
    max_drift = 0.0
    for start in range(0, len(ts), n_block):
        block = ts[start:start + n_block]
        m = 0
        try:
            for t in block:
                raw = model.sigma(t, xs)
                sig_rows[m] = raw
                drf_rows[m] = _absorbed_drift(model, t, xs, raw)
                m += 1
        finally:
            # the levels sampled before a failing call are checked first
            sig_max, drf_max = _checked_maxima(model, grid, block[:m],
                                               sig_rows[:m], drf_rows[:m])
        # max(sig**2) == max(|sig|)**2 exactly, since rounding is monotone;
        # squared as a Python float, which overflows to inf without a warning
        max_sig_sq = max(max_sig_sq, sig_max * sig_max)
        max_drift = max(max_drift, drf_max)
    _last_sample = (model, key, (max_sig_sq, max_drift))
    return max_sig_sq, max_drift


def cfl_check(model: CoefficientModel, grid: PdeGrid) -> CflReport:
    """Check ``dt <= 0.9 * dx^2 / (sup sigma^2 + dx * sup |drift|)``.

    The sup runs over all space nodes and up to 1025 time levels, plus the
    instants where the volatility jumps in time.  A sample of ``sigma`` or
    of the absorbed drift that is not finite raises ValueError naming it.
    """
    max_sig_sq, max_drift = _coefficient_samples(model, grid)
    dx = grid.dx
    denom = max_sig_sq + dx * max_drift
    limit = CFL_MARGIN * dx * dx / denom if denom > 0.0 else math.inf
    return CflReport(dt=grid.dt, dx=dx, dt_limit=limit,
                     satisfied=grid.dt <= limit,
                     max_sigma_sq=max_sig_sq, max_abs_drift=max_drift)


def _aligned_bounds(model: CoefficientModel, x_min: float, x_max: float,
                    n_x: int):
    """Shift the lattice so the first payoff jump sits midway between nodes."""
    if not model.g_jumps:
        return x_min, x_max
    dx = (x_max - x_min) / (n_x - 1)
    q = float(model.g_jumps[0])
    j = round((q - x_min) / dx)
    delta = q - (x_min + j * dx)
    shift = delta - 0.5 * dx if delta > 0.0 else delta + 0.5 * dx
    if abs(abs(delta) - 0.5 * dx) < 1e-12 * dx:
        shift = 0.0
    return x_min + shift, x_max + shift


def _level_aligned_n_t(model: CoefficientModel, t_min: float, t_max: float,
                       n_t: int) -> int:
    """Round the step count up so volatility jump times land on levels."""
    span = t_max - t_min
    denoms = []
    for q in model.sigma_time_jumps:
        if t_min < q < t_max:
            frac = Fraction(float((q - t_min) / span))
            denoms.append(frac.limit_denominator(_MAX_JUMP_DENOMINATOR).denominator)
    if not denoms:
        return n_t
    mult = math.lcm(*denoms)
    if mult > _MAX_LEVEL_MULTIPLE:
        return n_t
    return math.ceil(n_t / mult) * mult


def _stable_n_t(model: CoefficientModel, t_min: float, t_max: float,
                limit: float) -> int:
    """The fewest steps no longer than ``limit``, jump-aligned."""
    span = t_max - t_min
    if math.isinf(limit):
        return _level_aligned_n_t(model, t_min, t_max, 1)
    steps = span / limit if limit > 0.0 else math.inf
    if not math.isfinite(steps):
        raise ValueError(
            f"no finite step count on [{t_min}, {t_max}]: the explicit "
            f"time-step limit is {limit:.3e}, since sup sigma^2 + dx * "
            f"sup |drift| overflows or dwarfs dx^2"
        )
    n_t = max(1, math.ceil(steps))
    if span / n_t > limit:
        # span / limit rounded onto an integer, leaving dt one ulp too big
        n_t += 1
    n_t = _level_aligned_n_t(model, t_min, t_max, n_t)
    if n_t >= _MAX_N_T:
        raise ValueError(
            f"no int64 step count on [{t_min}, {t_max}]: the explicit "
            f"time-step limit {limit:.3e} needs {n_t:.3e} steps"
        )
    return n_t


def make_grid(model: CoefficientModel, x_min: float, x_max: float, n_x: int,
              t_min: float = 0.0) -> PdeGrid:
    """Build a stable grid on ``[t_min, model.horizon_T]``: jump-aligned
    nodes, CFL-derived step count.

    Raises ValueError when a sampled coefficient is not finite, or when
    the coefficients leave no step count that is finite and below 2**63.
    """
    t_max = model.horizon_T
    # the inputs' checks, before the alignment divides by n_x - 1
    PdeGrid(x_min=x_min, x_max=x_max, n_x=n_x, t_min=t_min, t_max=t_max, n_t=1)
    x_min, x_max = _aligned_bounds(model, x_min, x_max, n_x)

    def grid(n_t: int) -> PdeGrid:
        return PdeGrid(x_min=x_min, x_max=x_max, n_x=n_x,
                       t_min=t_min, t_max=t_max, n_t=n_t)

    # the levels solve_fd's check samples on any grid of at least
    # _MAX_T_SAMPLES levels
    limit = cfl_check(model, grid(_MAX_T_SAMPLES - 1)).dt_limit
    n_t = _stable_n_t(model, t_min, t_max, limit)
    # a coarser grid samples other levels: refine it until it passes
    while n_t + 1 < _MAX_T_SAMPLES:
        report = cfl_check(model, grid(n_t))
        if report.satisfied:
            break
        limit = min(limit, report.dt_limit)
        n_t = max(n_t + 1, _stable_n_t(model, t_min, t_max, limit))
    return grid(n_t)


def _nearest_level(times: np.ndarray, t: float) -> int:
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    i = int(np.searchsorted(times, t))
    if i <= 0:
        return 0
    if i >= times.size:
        return int(times.size - 1)
    return i if (times[i] - t) < (t - times[i - 1]) else i - 1


@dataclass(frozen=True, eq=False)
class PdeSolution:
    """Stored backward sweep: value levels on the lattice.

    ``times`` holds the subsampled stored levels (first and last always
    present); ``u`` and ``ux`` snap to the nearest stored level (a tie
    goes to the earlier one; a time that is not finite raises ValueError)
    and interpolate linearly in space.  ``ux`` reads the centered
    differences in x (one-sided at the ends) of that level alone, so sharp
    features in time are not smeared; they are built on first lookup.
    A solution compares and hashes by identity: its fields are arrays.
    """

    grid: PdeGrid
    xs: np.ndarray
    times: np.ndarray
    U: np.ndarray
    # at most one gradient per stored level
    _gradients: dict = field(default_factory=dict, init=False, repr=False)

    def u(self, t: float, x):
        i = _nearest_level(self.times, float(t))
        return np.interp(x, self.xs, self.U[i])

    def ux(self, t: float, x):
        i = _nearest_level(self.times, float(t))
        D = self._gradients.get(i)
        if D is None:
            D = self._gradients[i] = np.gradient(self.U[i], self.xs)
        return np.interp(x, self.xs, D)

    def value_range(self):
        return float(np.min(self.U)), float(np.max(self.U))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_fd(model: CoefficientModel, grid: PdeGrid,
             max_stored_levels: int = MAX_STORED_LEVELS) -> PdeSolution:
    """Backward explicit sweep from the terminal payoff.

    Refuses to run on a grid that fails the stability check (use
    ``make_grid`` to get a conforming one).  The running cost ``f1``, when
    present, is evaluated on the nodes at the time each step starts from,
    as the coefficients are.  At most ``max_stored_levels`` levels are
    retained, evenly thinned, with the initial and terminal levels always
    kept.

    Levels past ``model.frozen_after`` are copied, not swept, when the
    running cost is zero: there ``sigma = b = 0``, so once the first such
    step leaves every node unchanged (its ``rhs`` all zero and no ``-0.0``
    in ``u``), every later one would too, bit for bit.

    A payoff that is not finite carries its ``inf`` and the ``NaN`` it
    breeds into ``U``; their floating-point warnings are silenced here.
    """
    if grid.t_max != model.horizon_T:
        raise ValueError(
            f"grid ends at {grid.t_max} but the terminal payoff applies at "
            f"{model.horizon_T}"
        )
    report = cfl_check(model, grid)
    if not report.satisfied:
        raise ValueError(
            f"unstable grid: dt={report.dt:.3e} exceeds the explicit limit "
            f"{report.dt_limit:.3e}; refine in time (see make_grid)"
        )
    max_stored_levels = _check_count(max_stored_levels, "max_stored_levels", 2)
    xs = grid.xs()
    dx = grid.dx
    dt = grid.dt
    n_t = grid.n_t
    has_cost = not model.f1_is_zero

    stride = max(1, math.ceil((n_t + 1) / max_stored_levels))
    keep = [m for m in range(0, n_t + 1, stride)]
    if keep[-1] != n_t:
        keep.append(n_t)
    row = {m: r for r, m in enumerate(keep)}
    frozen_after = None if has_cost else model.frozen_after
    identity = False

    # Every array is allocated here, once, and each kept level is copied
    # into its row of U.  u is updated in place once the step's rhs is
    # formed.  The difference buffers are rewritten in their interiors only,
    # so their ends stay +0.0; fwd and bwd are views of one buffer,
    # bwd[j] = fwd[j - 1].
    n_x = grid.n_x
    u = np.asarray(model.g(xs), dtype=float).copy()
    U = np.empty((len(keep), n_x))
    U[-1] = u
    d2 = np.zeros(n_x)
    diff = np.zeros(n_x + 1)
    fwd = diff[1:]
    bwd = diff[:-1]
    zeros = np.zeros(n_x)
    rhs = np.empty(n_x)
    tmp = np.empty(n_x)
    # the slices the differences read and write, taken once
    d2_in, fwd_in = d2[1:-1], fwd[:-1]
    u_mid, u_right, u_left, u_hi, u_lo = u[1:-1], u[2:], u[:-2], u[1:], u[:-1]
    # 0-d constants and local ufuncs: less overhead per call, same bits
    two, dx_0, dx2_0, dt_0 = (np.array(v) for v in (2.0, dx, dx * dx, dt))
    multiply, subtract, add, divide = np.multiply, np.subtract, np.add, np.divide
    x_flat = model.x_flat
    x_flat_at = _x_flat_at(model, xs[:1]) if x_flat else None
    for m in range(n_t - 1, -1, -1):
        t_up = grid.t_min + (m + 1) * dt
        frozen = frozen_after is not None and t_up > frozen_after
        if frozen and identity:
            if m in row:
                U[row[m]] = u
            continue
        # d2 = (u[2:] - 2 u[1:-1] + u[:-2]) / dx^2, fwd = (u[1:] - u[:-1]) / dx
        multiply(two, u_mid, d2_in)
        subtract(u_right, d2_in, d2_in)
        add(d2_in, u_left, d2_in)
        divide(d2_in, dx2_0, d2_in)
        subtract(u_hi, u_lo, fwd_in)
        divide(fwd_in, dx_0, fwd_in)
        # c2 = (0.5 sig) sig; the upwind d1 is fwd where drf > 0, bwd where
        # drf < 0, else 0.0
        if x_flat:
            sig, drf = x_flat_at(t_up)
            c2 = (0.5 * sig) * sig
            d1 = fwd if drf > 0.0 else bwd if drf < 0.0 else zeros
        else:
            raw = model.sigma(t_up, xs)
            sig = np.asarray(raw, dtype=float)
            drf = np.asarray(_absorbed_drift(model, t_up, xs, raw),
                             dtype=float)
            c2 = multiply(0.5, sig, rhs)
            multiply(c2, sig, c2)
            # a fresh array, since np.where is faster than two masked copies
            d1 = np.where(drf > 0.0, fwd, np.where(drf < 0.0, bwd, 0.0))
        # rhs = c2 d2 + drf d1
        multiply(c2, d2, rhs)
        multiply(drf, d1, tmp)
        add(rhs, tmp, rhs)
        if has_cost:
            add(rhs, np.asarray(model.f1(t_up, xs), dtype=float), rhs)
        multiply(dt_0, rhs, tmp)
        add(u, tmp, u)
        if frozen:
            identity = (bool(np.all(rhs == 0.0))
                        and not np.any((u == 0.0) & np.signbit(u)))
        if m in row:
            U[row[m]] = u

    times = grid.t_min + dt * np.asarray(keep, dtype=float)
    return PdeSolution(grid=grid, xs=xs, times=times, U=U)

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .estimators import ValueProvider, grid_provider
from .model import CoefficientModel, transformed_drift

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
_MAX_JUMP_DENOMINATOR = 10000
_MAX_LEVEL_MULTIPLE = 1_000_000


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
        if not (self.x_min < self.x_max):
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_x < 3:
            raise ValueError(f"n_x must be >= 3, got {self.n_x}")
        if not (self.t_min < self.t_max):
            raise ValueError(f"need t_min < t_max, got [{self.t_min}, {self.t_max}]")
        if self.n_t < 1:
            raise ValueError(f"n_t must be >= 1, got {self.n_t}")

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


def _coefficient_samples(model: CoefficientModel, grid: PdeGrid):
    """Sampled sup of sigma^2 and |drift| (with the z-cost absorbed)."""
    mt = transformed_drift(model)
    xs = grid.xs()
    n_levels = min(grid.n_t + 1, _MAX_T_SAMPLES)
    ts = np.linspace(grid.t_min, grid.t_max, n_levels)
    extra = []
    for q in model.sigma_time_jumps:
        for cand in (q, np.nextafter(q, grid.t_min), np.nextafter(q, grid.t_max)):
            if grid.t_min <= cand <= grid.t_max:
                extra.append(float(cand))
    if extra:
        ts = np.union1d(ts, np.asarray(extra))
    max_sig_sq = 0.0
    max_drift = 0.0
    for t in ts:
        sig = np.asarray(mt.sigma(float(t), xs), dtype=float)
        drf = np.asarray(mt.b(float(t), xs), dtype=float)
        max_sig_sq = max(max_sig_sq, float(np.max(sig * sig)))
        max_drift = max(max_drift, float(np.max(np.abs(drf))))
    return max_sig_sq, max_drift


def cfl_check(model: CoefficientModel, grid: PdeGrid) -> CflReport:
    """Check ``dt <= 0.9 * dx^2 / (sup sigma^2 + dx * sup |drift|)``.

    The sup runs over all space nodes and up to 1025 time levels, plus the
    instants where the volatility jumps in time.
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


def make_grid(model: CoefficientModel, x_min: float, x_max: float, n_x: int,
              t_min: float = 0.0, t_max: Optional[float] = None) -> PdeGrid:
    """Build a stable grid: jump-aligned nodes, CFL-derived step count."""
    if t_max is None:
        t_max = model.horizon_T
    x_min, x_max = _aligned_bounds(model, x_min, x_max, n_x)
    probe = PdeGrid(x_min=x_min, x_max=x_max, n_x=n_x,
                    t_min=t_min, t_max=t_max, n_t=1)
    limit = cfl_check(model, probe).dt_limit
    span = t_max - t_min
    n_t = 1 if math.isinf(limit) else max(1, math.ceil(span / limit))
    if span / n_t > limit:
        # span / limit rounded onto an integer, leaving dt one ulp too big
        n_t += 1
    n_t = _level_aligned_n_t(model, t_min, t_max, n_t)
    return PdeGrid(x_min=x_min, x_max=x_max, n_x=n_x,
                   t_min=t_min, t_max=t_max, n_t=n_t)


@dataclass(frozen=True)
class PdeSolution:
    """Stored backward sweep: value levels on the lattice.

    ``times`` holds the subsampled stored levels (first and last always
    present); lookups snap to the nearest stored level and interpolate
    linearly in space.
    """

    grid: PdeGrid
    xs: np.ndarray
    times: np.ndarray
    U: np.ndarray

    @cached_property
    def _provider(self) -> ValueProvider:
        return grid_provider(self.times, self.xs, self.U)

    def provider(self) -> ValueProvider:
        return self._provider

    def u(self, t: float, x):
        return self._provider.u_eval(t, x)

    def ux(self, t: float, x):
        return self._provider.ux_eval(t, x)

    def value_range(self):
        return float(np.min(self.U)), float(np.max(self.U))

    def to_csv(self, path) -> None:
        """Write ``t,x,u,ux`` rows (t outer, x inner), 17 significant digits."""
        D = np.gradient(self.U, self.xs, axis=1)
        with open(path, "w", newline="") as fh:
            fh.write("t,x,u,ux\n")
            for i in range(self.times.size):
                t = self.times[i]
                for j in range(self.xs.size):
                    fh.write(f"{t:.17g},{self.xs[j]:.17g},"
                             f"{self.U[i, j]:.17g},{D[i, j]:.17g}\n")


def solve_fd(model: CoefficientModel, grid: PdeGrid,
             max_stored_levels: int = MAX_STORED_LEVELS) -> PdeSolution:
    """Backward explicit sweep from the terminal payoff.

    Refuses to run on a grid that fails the stability check (use
    ``make_grid`` to get a conforming one).  The running cost, when
    present, is fed the current level as its y argument.  At most
    ``max_stored_levels`` levels are retained, evenly thinned, with the
    initial and terminal levels always kept.

    Levels past ``model.frozen_after`` are copied, not swept, when the
    running cost is zero: there ``sigma = b = 0``, so once the first such
    step leaves every node unchanged (its ``rhs`` all zero and no ``-0.0``
    in ``u``), every later one would too, bit for bit.
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
    if max_stored_levels < 2:
        raise ValueError(f"max_stored_levels must be >= 2, got {max_stored_levels}")
    mt = transformed_drift(model)
    xs = grid.xs()
    dx = grid.dx
    dt = grid.dt
    n_t = grid.n_t
    has_cost = not model.f1_is_zero

    stride = max(1, math.ceil((n_t + 1) / max_stored_levels))
    keep = [m for m in range(0, n_t + 1, stride)]
    if keep[-1] != n_t:
        keep.append(n_t)
    keep_set = set(keep)
    frozen_after = None if has_cost else model.frozen_after
    identity = False

    # u is rebound each step, never written in place, so stored levels may
    # share it
    u = np.asarray(model.g(xs), dtype=float).copy()
    stored = {n_t: u}
    for m in range(n_t - 1, -1, -1):
        t_up = grid.t_min + (m + 1) * dt
        frozen = frozen_after is not None and t_up > frozen_after
        if frozen and identity:
            if m in keep_set:
                stored[m] = u
            continue
        sig = np.broadcast_to(np.asarray(mt.sigma(t_up, xs), dtype=float),
                              xs.shape)
        drf = np.broadcast_to(np.asarray(mt.b(t_up, xs), dtype=float),
                              xs.shape)
        d2 = np.zeros_like(u)
        d2[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
        fwd = np.zeros_like(u)
        fwd[:-1] = (u[1:] - u[:-1]) / dx
        bwd = np.zeros_like(u)
        bwd[1:] = (u[1:] - u[:-1]) / dx
        d1 = np.where(drf > 0.0, fwd, np.where(drf < 0.0, bwd, 0.0))
        rhs = 0.5 * sig * sig * d2 + drf * d1
        if has_cost:
            rhs = rhs + np.asarray(mt.f1(t_up, xs, u), dtype=float)
        u = u + dt * rhs
        if frozen:
            identity = (bool(np.all(rhs == 0.0))
                        and not np.any((u == 0.0) & np.signbit(u)))
        if m in keep_set:
            stored[m] = u

    levels = sorted(stored)
    times = grid.t_min + dt * np.asarray(levels, dtype=float)
    U = np.stack([stored[m] for m in levels])
    return PdeSolution(grid=grid, xs=xs, times=times, U=U)

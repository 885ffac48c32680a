"""Monte Carlo estimators for the value function, its gradient, and the
martingale integrand.

Every estimator simulates paths in chunks of ``CHUNK_SIZE`` (4096), with
the linear-in-z cost absorbed into the drift.  On a model that declares
``x_flat`` and has no running cost -- every built-in model -- the
terminal state is Gaussian, and each chunk draws it from the exact law of
the discretized scheme, two standard normals per path
(``sde_sim._x_flat_terminal_law``); that changes the random stream, not
the law of any estimate.  Every other model streams the shared stepping
kernel, which forms the drift from the ``sigma`` values each step has
already evaluated, so each computed node calls ``sigma`` once.  One
driver, ``_estimate``, does this for all of them.  Each estimator is a
*reducer*: a generator made per chunk as ``reducer(n)`` that receives
the chunk's ``PathState`` one node at a time and answers ``(values,
keep)`` at the end of the stream.  The driver feeds every state of one
stream to any number of reducers, so a joint call -- several estimates
at one point, as the ``weight-crossval`` experiment makes -- simulates
its paths once.  It also serves several start points in one call, as
``blowup-rate``, ``girsanov-equiv`` and ``pde-vs-mc`` make: per chunk it
draws the standard normals once, for every start point, step-major, and
each point reads its own rows of that draw.  A kernel job whose
reducers all read only the terminal state -- ``u``, the pathwise
gradient and the degenerate weight without a running cost, and the
``Lambda`` moments -- streams that state alone, and skips building the
states in between.  Each estimate equals the one its estimator returns
alone.
Per-path results are deterministic functions of ``(seed, path_index)``,
and the final mean is taken over the full per-path value vector, so the
returned numbers do not depend on chunking or evaluation order.  A call
holds one chunk's draw at a time, ``4096 * n_draw * 8`` bytes for
``n_draw`` normals per path: 64 KB for the terminal law, and on the
kernel 16 MB at 500 steps, 33 MB at 1000.  The x-flat coefficients of
each start point are evaluated once per call, not once per chunk.

Three gradient routes coexist:

* ``estimate_ux_pathwise`` differentiates through the flow and needs a
  differentiable payoff;
* ``estimate_ux_weighted`` multiplies the raw payoff by an
  integration-by-parts weight and works for irregular payoffs -- with the
  occupation-normalized weight it remains valid under degenerate
  volatility, as long as the starting point lies in the alive set (a
  start with ``|sigma| > eps_sigma`` where it stands is in it, and only
  the other starts sweep their drift characteristic to find out);
* ``reconstruct_Z`` is ``u_x * sigma`` along one path from an external
  gradient provider, zero once the path leaves the alive set: the one-row
  case of ``_z_matrix``, which calls the provider once per node of a batch.
  A ``ValueProvider`` holds ``ux_eval`` alone: a closed form, or the
  ``ux`` lookup of an FD ``PdeSolution``.

Flooring convention: samples whose weight denominator fell below its
floor are excluded from the average and counted in ``n_floored``
(non-finite samples are folded into the same bucket); an estimate with
more than 5% such paths is flagged unreliable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .degeneracy import (DEFAULT_EPS_SIGMA, _abs_sigma_at,
                         _check_classifiable, gamma_report, locate_tau)
from .model import CoefficientModel, ProblemPoint
from .oracles import Example1Params, bachelier_digital, example1_u
from .sde_sim import (_TERMINAL_LAW_ROWS, PathBundle, TimeGrid,
                      _check_compatible, _check_count, _live_steps,
                      _normal_matrix, _stream_from_increments,
                      _x_flat_coefficients, _x_flat_stream,
                      _x_flat_terminal_law, path_stream)
from .weights import (default_lambda_floor, degenerate_weight_values,
                      nondegenerate_weight_values)

__all__ = [
    "Estimate",
    "ValueProvider",
    "OutsideGamma0Error",
    "EstimationError",
    "estimate_u",
    "estimate_ux_pathwise",
    "estimate_ux_weighted",
    "reconstruct_Z",
    "empirical_lambda_moment",
    "bachelier_provider",
    "example1_provider",
]

CHUNK_SIZE = 4096
UNRELIABLE_FLOOR_FRACTION = 0.05

# ``path_stream`` stays an attribute of this module, where
# ``perfbench/tracer.py`` wraps it by name, although ``_estimate`` now
# draws once per chunk for all of its start points and streams each of
# them from that draw.
_TRACED_STREAM = path_stream


class OutsideGamma0Error(ValueError):
    """The starting point lies outside the alive set; no weight exists there."""


class EstimationError(RuntimeError):
    """No usable samples remained after flooring/validity exclusion."""


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo estimate with its accounting.

    ``stderr`` is the plain sample standard deviation over the used paths
    divided by ``sqrt(n_used)``.  ``n_floored`` counts excluded paths
    (weight floor breaches and non-finite samples).  ``reliable`` is False
    when more than 5% of the requested paths were excluded.
    """

    mean: float
    stderr: float
    n_used: int
    n_floored: int
    reliable: bool


@dataclass(frozen=True)
class ValueProvider:
    """External evaluator of the value function's gradient ``u_x``.

    ``ux_eval`` takes ``(t, x)`` with scalar ``t`` and scalar-or-array
    ``x`` and must broadcast over ``x``.
    """

    ux_eval: Callable


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _chunk_indices(n_paths: int) -> Iterator[np.ndarray]:
    for start in range(0, n_paths, CHUNK_SIZE):
        yield np.arange(start, min(start + CHUNK_SIZE, n_paths), dtype=np.int64)


def _finalize(parts: list, n_floored: int, n_paths: int) -> Estimate:
    values = np.concatenate(parts) if parts else np.empty(0)
    n_used = int(values.size)
    if n_used == 0:
        raise EstimationError(
            f"all {n_paths} samples were floored or invalid"
        )
    mean = float(np.mean(values))
    if n_used >= 2:
        stderr = float(np.std(values, ddof=1) / math.sqrt(n_used))
    else:
        stderr = float("inf")
    reliable = n_floored <= UNRELIABLE_FLOOR_FRACTION * n_paths
    return Estimate(mean=mean, stderr=stderr, n_used=n_used,
                    n_floored=n_floored, reliable=reliable)


def _require_gamma0(model: CoefficientModel, point: ProblemPoint,
                    eps_sigma: float) -> None:
    """Refuse a start outside the alive set, after ``gamma_report``'s input
    checks.  A start with ``|sigma| > eps_sigma`` where it stands is alive,
    since the characteristic's running max starts there; only the other
    starts sweep the characteristic.  As in ``locate_tau``, a start alive
    pointwise stays alive even if ``sigma`` turns NaN further along."""
    _check_classifiable(model, point, eps_sigma)
    if _abs_sigma_at(model, point) > eps_sigma:
        return
    report = gamma_report(model, point, eps_sigma=eps_sigma)
    if not report.in_Gamma0:
        raise OutsideGamma0Error(
            f"({point.t0}, {point.x0}) is outside the alive set: the drift "
            f"characteristic meets no volatility above {eps_sigma} before "
            f"the horizon"
        )


def _terminal_law_job(model: CoefficientModel, grid: TimeGrid) -> bool:
    """Whether a job draws its terminal state from the exact law
    (``_x_flat_terminal_law``) instead of streaming the kernel: its stream
    is x-flat and the model has no running cost, so no reducer reads a
    state before the terminal node."""
    return model.f1_is_zero and _x_flat_stream(model, grid)


def _job_states(model: CoefficientModel, point: ProblemPoint,
                grid: TimeGrid, reducers: list) -> Callable:
    """The states one job sends its reducers, as a function of the chunk's
    step-major draw: the terminal law's one state, or the job's
    absorbed-drift kernel stream.  An x-flat job's coefficients are
    evaluated here, once for all of its chunks."""
    table = (_x_flat_coefficients(model, point, grid, absorb=True)
             if _x_flat_stream(model, grid) else None)
    if _terminal_law_job(model, grid):
        law = _x_flat_terminal_law(point, grid, table)
        return lambda rows: (law(rows),)
    every_state = not all(getattr(r, "terminal_only", False)
                          for r in reducers)
    return functools.partial(_stream_from_increments, model, point, grid,
                             scale=math.sqrt(grid.dt), absorb=True,
                             every_state=every_state,
                             x_flat_coefficients=table)


def _estimate(model: CoefficientModel, seed: int, n_paths: int,
              jobs: list) -> list:
    """The one simulation-to-estimate loop, for several start points.

    ``jobs`` is a list of ``(point, grid, reducers)``; the result holds one
    list of ``Estimate``s per job, one per reducer.  A reducer is a
    generator function; the driver makes one generator per chunk as
    ``reducer(n)`` for the chunk's ``n`` paths, primes it with ``next``,
    sends it the states of its job (``_job_states``), then sends ``None``
    and receives ``(values, keep)``.  Paths outside ``keep`` or with a
    non-finite value are excluded and counted in ``n_floored``.  Each
    estimator's ``_<name>_reducer`` builder takes that estimator's
    arguments except ``seed`` and ``n_paths``.

    A job whose stream is x-flat on a model without a running cost draws
    its terminal state from the exact law of the discretized scheme
    (``_x_flat_terminal_law``): each of its reducers is sent one state per
    chunk, node ``n_steps``, built from the first two normals of each
    path, and that state also carries the classical weight's sums.  Every
    other job streams the absorbed-drift kernel (``_stream_from_increments``
    with ``absorb=True``).  A reducer whose ``terminal_only`` attribute is
    true reads only the terminal state; a kernel job whose reducers all
    do is a terminal job, whose stream yields node ``n_steps`` alone,
    equal to the last state of a full stream.  Every other kernel job's
    reducers are sent every state.  A state is read when it is sent: the
    next advance of an x-flat stream overwrites its arrays.

    Per chunk, the standard normals are drawn once, as many per path as
    the job that reads the most rows needs: two for a terminal-law job,
    the steps before a frozen tail for a kernel job.  Every job takes its
    rows from the start of that step-major draw, and a kernel stream
    scales them by its own ``sqrt(dt)``.  A Philox prefix draw is the
    prefix of the full draw, so each job, and each of its reducers, gets
    what a call of its own would: every ``Estimate`` is ``==`` to that of
    a separate call.  The draw is released before the next chunk's, so a
    call holds one draw of ``CHUNK_SIZE * n_draw`` float64s at a time.
    An x-flat job evaluates its coefficients once, at its start ``x0``
    (``_x_flat_coefficients``), and every chunk's state is formed from
    those values.

    Errors come in a fixed order.  Building a reducer validates its
    inputs, so reducers built in job-then-reducer order raise their errors
    in that order, before this driver checks ``n_paths`` and each job's
    grid, and before any path is drawn.  The x-flat jobs' coefficients are
    evaluated after those checks and before the first draw, so a
    coefficient that raises there does so before any path is drawn.  The
    estimates are then finalized in the same order, and the first
    ``EstimationError`` wins.
    Floating-point warnings are silenced throughout, since non-finite
    samples are excluded and counted instead.
    """
    n_paths = _check_count(n_paths, "n_paths")
    for point, grid, _ in jobs:
        _check_compatible(model, point, grid)
    n_draw = max(_TERMINAL_LAW_ROWS if _terminal_law_job(model, grid)
                 else _live_steps(model, grid) for _, grid, _ in jobs)
    parts = [[[] for _ in reducers] for _, _, reducers in jobs]
    n_excluded = [[0] * len(reducers) for _, _, reducers in jobs]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sources = [_job_states(model, point, grid, reducers)
                   for point, grid, reducers in jobs]
        for idx in _chunk_indices(n_paths):
            normals = _normal_matrix(seed, idx, n_draw)
            for (_, _, reducers), states, job_parts, job_excluded in zip(
                    jobs, sources, parts, n_excluded):
                running = [reducer(idx.size) for reducer in reducers]
                for r in running:
                    next(r)
                for st in states(normals):
                    for r in running:
                        r.send(st)
                for j, r in enumerate(running):
                    vals, keep = r.send(None)
                    keep = keep & np.isfinite(vals)
                    job_excluded[j] += int(np.count_nonzero(~keep))
                    job_parts[j].append(np.asarray(vals[keep], dtype=float))
            del normals  # before the next chunk's draw, not after it
    return [[_finalize(p, n, n_paths) for p, n in zip(job_parts, job_excluded)]
            for job_parts, job_excluded in zip(parts, n_excluded)]


def _estimate_one(model: CoefficientModel, point: ProblemPoint,
                  grid: TimeGrid, seed: int, n_paths: int,
                  reducer: Callable) -> Estimate:
    """``_estimate`` for one reducer at one start point."""
    return _estimate(model, seed, n_paths, [(point, grid, [reducer])])[0][0]


# ---------------------------------------------------------------------------
# value estimator
# ---------------------------------------------------------------------------


def _u_reducer(model: CoefficientModel, point: ProblemPoint,
               grid: TimeGrid) -> Callable:
    need_driver = not model.f1_is_zero
    dt = grid.dt

    def reducer(n):
        driver = 0.0
        last = None
        while (st := (yield)) is not None:
            if need_driver and st.dW is not None:
                driver = driver + np.asarray(
                    model.f1(st.t, st.X), dtype=float) * dt
            last = st
        vals = np.asarray(model.g(last.X), dtype=float) + driver
        yield np.broadcast_to(vals, last.X.shape), True

    reducer.terminal_only = not need_driver
    return reducer


def estimate_u(model: CoefficientModel, point: ProblemPoint, grid: TimeGrid,
               seed: int, n_paths: int) -> Estimate:
    """Estimate the value function: mean of the terminal payoff plus the
    left-endpoint sum of the running cost along absorbed-drift paths.
    """
    return _estimate_one(model, point, grid, seed, n_paths,
                         _u_reducer(model, point, grid))


# ---------------------------------------------------------------------------
# gradient estimators
# ---------------------------------------------------------------------------


def _ux_pathwise_reducer(model: CoefficientModel, point: ProblemPoint,
                         grid: TimeGrid) -> Callable:
    if model.g_prime is None:
        raise ValueError("pathwise gradient estimation needs model.g_prime")
    need_driver = not model.f1_is_zero
    if need_driver and model.f1_x is None:
        raise ValueError("pathwise gradient estimation needs model.f1_x")
    dt = grid.dt

    def reducer(n):
        acc = 0.0
        last = None
        while (st := (yield)) is not None:
            if need_driver and st.dW is not None:
                acc = acc + np.asarray(
                    model.f1_x(st.t, st.X), dtype=float) * st.gradX * dt
            last = st
        vals = np.asarray(model.g_prime(last.X), dtype=float) * last.gradX + acc
        yield vals, True

    reducer.terminal_only = not need_driver
    return reducer


def estimate_ux_pathwise(model: CoefficientModel, point: ProblemPoint,
                         grid: TimeGrid, seed: int, n_paths: int) -> Estimate:
    """Gradient by pathwise differentiation: mean of
    ``g'(X_T) * gradX_T`` plus the differentiated running-cost sum.

    Requires a differentiable payoff (``g_prime``) and, when the cost is
    active, its x-derivative ``f1_x``.
    """
    return _estimate_one(model, point, grid, seed, n_paths,
                         _ux_pathwise_reducer(model, point, grid))


def _ux_weighted_reducer(model: CoefficientModel, point: ProblemPoint,
                         grid: TimeGrid, weight_kind: str = "degenerate",
                         eps_sigma: float = DEFAULT_EPS_SIGMA,
                         lambda_floor: Optional[float] = None) -> Callable:
    if weight_kind not in ("degenerate", "nondegenerate"):
        raise ValueError(f"unknown weight_kind {weight_kind!r}")
    _require_gamma0(model, point, eps_sigma)
    need_driver = not model.f1_is_zero
    dt = grid.dt
    if lambda_floor is None:
        lambda_floor = default_lambda_floor(grid, eps_sigma)
    degenerate = weight_kind == "degenerate"

    def reducer(n):
        driver = 0.0
        if not degenerate:
            snd = np.zeros(n)
            ming = np.full(n, np.inf)
            tmp = np.empty(n)
        tacc = 0.0
        last = None

        def weight(st):
            if degenerate:
                return degenerate_weight_values(st.Lambda, st.S1, st.B,
                                                lambda_floor)
            return nondegenerate_weight_values(snd, tacc, ming, eps_sigma)

        while (st := (yield)) is not None:
            if need_driver and st.k >= 1:
                # right-endpoint quadrature: the weight is undefined at
                # the left endpoint where no volatility has accumulated
                w_k, _ = weight(st)
                driver = driver + np.asarray(
                    model.f1(st.t, st.X), dtype=float) * w_k * dt
            if st.dW is not None and not degenerate:
                np.minimum(ming, np.abs(st.gamma, out=tmp), out=ming)
                np.divide(st.gradX, st.gamma, out=tmp)
                np.multiply(tmp, st.dW, out=tmp)
                np.add(snd, tmp, out=snd)
                tacc = tacc + dt
            last = st
        if not degenerate and last.snd is not None:  # the terminal law's
            snd, tacc, ming = last.snd, last.elapsed, last.min_abs_gamma
        w_T, floored = weight(last)
        vals = np.asarray(model.g(last.X), dtype=float) * w_T + driver
        yield vals, ~floored

    # on the kernel, the classical weight reads gamma and dW at every step
    reducer.terminal_only = degenerate and not need_driver
    return reducer


def estimate_ux_weighted(model: CoefficientModel, point: ProblemPoint,
                         grid: TimeGrid, seed: int, n_paths: int,
                         weight_kind: str = "degenerate",
                         eps_sigma: float = DEFAULT_EPS_SIGMA,
                         lambda_floor: Optional[float] = None) -> Estimate:
    """Gradient by integration-by-parts weighting: mean of
    ``g(X_T) * N_T`` plus the right-endpoint sum of ``f1 * N`` when the
    cost is active.  No payoff derivative is touched.

    Refuses to run when the starting point lies outside the alive set
    (no weight with finite variance exists there); the integrand being
    estimated is identically zero past the exit from that set anyway.  A
    start with ``|sigma| > eps_sigma`` is alive without a
    characteristic sweep (see ``_require_gamma0``).
    The classical weight is floored where ``|sigma|`` fell below
    ``eps_sigma``.
    """
    return _estimate_one(model, point, grid, seed, n_paths, _ux_weighted_reducer(
        model, point, grid, weight_kind, eps_sigma, lambda_floor))


# ---------------------------------------------------------------------------
# integrand reconstruction and occupation moments
# ---------------------------------------------------------------------------


def _z_matrix(times: np.ndarray, X: np.ndarray, gamma: np.ndarray,
              taus: np.ndarray, provider: ValueProvider) -> np.ndarray:
    """``u_x * sigma`` per path and node, exactly zero from the path's exit
    time ``taus[i]`` on: one ``ux_eval`` call per node with a live path."""
    Z = np.zeros(X.shape)
    for k, t in enumerate(times.tolist()):
        live = t < taus
        if np.any(live):
            Z[live, k] = provider.ux_eval(t, X[live, k]) * gamma[live, k]
    return Z


def reconstruct_Z(model: CoefficientModel, path: PathBundle,
                  provider: ValueProvider,
                  eps_sigma: float = DEFAULT_EPS_SIGMA,
                  tau: Optional[float] = None) -> np.ndarray:
    """Martingale integrand along one path: ``u_x * sigma`` before the
    path leaves the alive set, exactly zero from that time on.

    ``tau`` is the path's exit time from the alive set; pass it when
    ``locate_tau`` has already been run on this path, otherwise it is
    computed here.  Returns an ``(n_nodes, 2)`` array of ``(time, Z)`` rows.
    """
    if tau is None:
        tau = locate_tau(model, path, eps_sigma=eps_sigma)
    times = path.grid.times()
    Z = _z_matrix(times, path.X[None], path.gamma[None], np.array([tau]),
                  provider)
    return np.column_stack((times, Z[0]))


def _lambda_moment_reducer(model: CoefficientModel, point: ProblemPoint,
                           grid: TimeGrid, p: float,
                           eps_sigma: float = DEFAULT_EPS_SIGMA,
                           lambda_floor: Optional[float] = None) -> Callable:
    if not (p > 0.0):
        raise ValueError(f"p must be positive, got {p}")
    _require_gamma0(model, point, eps_sigma)
    if lambda_floor is None:
        lambda_floor = default_lambda_floor(grid, eps_sigma)

    def reducer(n):
        last = None
        while (st := (yield)) is not None:
            last = st
        lam = last.Lambda
        floored = ~(lam >= lambda_floor)
        vals = np.where(floored, 1.0, lam) ** (-p)
        yield vals, ~floored

    reducer.terminal_only = True
    return reducer


def empirical_lambda_moment(model: CoefficientModel, point: ProblemPoint,
                            grid: TimeGrid, seed: int, n_paths: int, p: float,
                            eps_sigma: float = DEFAULT_EPS_SIGMA,
                            lambda_floor: Optional[float] = None) -> Estimate:
    """Negative moment ``E[Lambda_T**(-p)]`` of the occupation integral.

    Finiteness of these moments is what makes the occupation-normalized
    weight square-integrable; the estimate should stabilize as the sample
    grows for points inside the alive set.
    """
    return _estimate_one(model, point, grid, seed, n_paths, _lambda_moment_reducer(
        model, point, grid, p, eps_sigma, lambda_floor))


# ---------------------------------------------------------------------------
# closed-form providers for the analytically solvable models
# ---------------------------------------------------------------------------


def bachelier_provider(sigma_bar: float, strike: float = 0.0,
                       T: float = 1.0) -> ValueProvider:
    """Exact provider for the constant-volatility digital."""

    def ux_eval(t, x):
        return bachelier_digital(t, x, sigma_bar, strike, T)[1]

    return ValueProvider(ux_eval=ux_eval)


def example1_provider(params: Example1Params) -> ValueProvider:
    """Closed-form provider for the dying-volatility power model.

    The gradient is a central difference of the exact value with a
    relative step of 1e-4; adequate away from the terminal kink at the
    origin.
    """

    def ux_eval(t, x):
        x = np.asarray(x, dtype=float)
        h = 1e-4 * (1.0 + np.abs(x))
        up = np.asarray(example1_u(t, x + h, params))
        dn = np.asarray(example1_u(t, x - h, params))
        out = (up - dn) / (2.0 * h)
        return float(out) if out.ndim == 0 else out

    return ValueProvider(ux_eval=ux_eval)

"""Monte Carlo estimators for the value function, its gradient, and the
martingale integrand.

Every estimator first absorbs the linear-in-z cost into the drift, then
streams paths in fixed-size chunks through the shared stepping kernel;
one driver does this for all of them, each supplying its per-path value.
Per-path results are deterministic functions of ``(seed, path_index)``,
and the final mean is taken over the full per-path value vector, so the
returned numbers do not depend on chunking or evaluation order.

Three gradient routes coexist:

* ``estimate_ux_pathwise`` differentiates through the flow and needs a
  differentiable payoff;
* ``estimate_ux_weighted`` multiplies the raw payoff by an
  integration-by-parts weight and works for irregular payoffs -- with the
  occupation-normalized weight it remains valid under degenerate
  volatility, as long as the starting point lies in the alive set;
* ``reconstruct_Z`` evaluates ``u_x * sigma`` along a path from an
  external value provider and clamps it to zero once the path leaves the
  alive set.

Flooring convention: samples whose weight denominator fell below its
floor are excluded from the average and counted in ``n_floored``
(non-finite samples are folded into the same bucket); an estimate with
more than 5% such paths is flagged unreliable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .degeneracy import DEFAULT_EPS_SIGMA, gamma_report, locate_tau
from .model import CoefficientModel, ProblemPoint, transformed_drift
from .oracles import Example1Params, bachelier_digital, example1_u
from .sde_sim import PathBundle, TimeGrid, path_stream
from .weights import (default_lambda_floor, degenerate_weight_values,
                      nondegenerate_weight_values)

__all__ = [
    "Estimate",
    "ValueProvider",
    "OutsideGamma0Error",
    "ProviderRequiredError",
    "EstimationError",
    "estimate_u",
    "estimate_ux_pathwise",
    "estimate_ux_weighted",
    "reconstruct_Z",
    "empirical_lambda_moment",
    "bachelier_provider",
    "example1_provider",
    "grid_provider",
]

CHUNK_SIZE = 8192
UNRELIABLE_FLOOR_FRACTION = 0.05


class OutsideGamma0Error(ValueError):
    """The starting point lies outside the alive set; no weight exists there."""


class ProviderRequiredError(ValueError):
    """The running cost depends on the value, but no provider was given."""


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
    """External evaluator of the value function and its gradient.

    Both callables take ``(t, x)`` with scalar ``t`` and scalar-or-array
    ``x`` and must broadcast over ``x``.
    """

    u_eval: Optional[Callable] = None
    ux_eval: Optional[Callable] = None


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _chunk_indices(n_paths: int) -> Iterator[np.ndarray]:
    for start in range(0, n_paths, CHUNK_SIZE):
        yield np.arange(start, min(start + CHUNK_SIZE, n_paths), dtype=np.int64)


def _check_n_paths(n_paths: int) -> int:
    n_paths = int(n_paths)
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    return n_paths


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


def _require_driver_inputs(model: CoefficientModel,
                           provider: Optional[ValueProvider],
                           need_ux: bool = False) -> None:
    if model.f1_is_zero:
        return
    if model.f1_depends_on_y:
        if provider is None or provider.u_eval is None:
            raise ProviderRequiredError(
                "the running cost depends on y; pass a provider with u_eval"
            )
        if need_ux and provider.ux_eval is None:
            raise ProviderRequiredError(
                "the pathwise estimator additionally needs provider.ux_eval"
            )


def _driver_y(model: CoefficientModel, provider: Optional[ValueProvider],
              t: float, X: np.ndarray):
    if model.f1_depends_on_y:
        return provider.u_eval(t, X)
    return 0.0


def _require_gamma0(model: CoefficientModel, point: ProblemPoint,
                    eps_sigma: float) -> None:
    report = gamma_report(model, point, eps_sigma=eps_sigma)
    if not report.in_Gamma0:
        raise OutsideGamma0Error(
            f"({point.t0}, {point.x0}) is outside the alive set: the drift "
            f"characteristic meets no volatility above {eps_sigma} before "
            f"the horizon"
        )


def _estimate(model: CoefficientModel, point: ProblemPoint, grid: TimeGrid,
              seed: int, n_paths: int, per_path: Callable) -> Estimate:
    """The one simulation-to-estimate loop behind every estimator.

    Streams the absorbed-drift paths chunk by chunk.  ``per_path(states, n)``
    consumes one chunk's stream of ``PathState`` over ``n`` paths and
    returns ``(values, keep)``; paths outside ``keep`` or with a non-finite
    value are excluded and counted in ``n_floored``.
    """
    mt = transformed_drift(model)
    parts: list = []
    n_excluded = 0
    for idx in _chunk_indices(n_paths):
        vals, keep = per_path(path_stream(mt, point, grid, seed, idx),
                              idx.size)
        keep = keep & np.isfinite(vals)
        n_excluded += int(np.count_nonzero(~keep))
        parts.append(np.asarray(vals[keep], dtype=float))
    return _finalize(parts, n_excluded, n_paths)


# ---------------------------------------------------------------------------
# value estimator
# ---------------------------------------------------------------------------


def estimate_u(model: CoefficientModel, point: ProblemPoint, grid: TimeGrid,
               seed: int, n_paths: int,
               provider: Optional[ValueProvider] = None) -> Estimate:
    """Estimate the value function: mean of the terminal payoff plus the
    left-endpoint sum of the running cost along absorbed-drift paths.
    """
    n_paths = _check_n_paths(n_paths)
    _require_driver_inputs(model, provider)
    need_driver = not model.f1_is_zero
    dt = grid.dt

    def per_path(states, n):
        driver = 0.0
        last = None
        for st in states:
            if need_driver and st.dW is not None:
                y = _driver_y(model, provider, st.t, st.X)
                driver = driver + np.asarray(
                    model.f1(st.t, st.X, y), dtype=float) * dt
            last = st
        vals = np.asarray(model.g(last.X), dtype=float) + driver
        return np.broadcast_to(vals, last.X.shape), True

    return _estimate(model, point, grid, seed, n_paths, per_path)


# ---------------------------------------------------------------------------
# gradient estimators
# ---------------------------------------------------------------------------


def estimate_ux_pathwise(model: CoefficientModel, point: ProblemPoint,
                         grid: TimeGrid, seed: int, n_paths: int,
                         provider: Optional[ValueProvider] = None) -> Estimate:
    """Gradient by pathwise differentiation: mean of
    ``g'(X_T) * gradX_T`` plus the differentiated running-cost sum.

    Requires a differentiable payoff (``g_prime``) and, when the cost is
    active, its partial derivatives.
    """
    n_paths = _check_n_paths(n_paths)
    if model.g_prime is None:
        raise ValueError("pathwise gradient estimation needs model.g_prime")
    need_driver = not model.f1_is_zero
    if need_driver and model.f1_x is None:
        raise ValueError("pathwise gradient estimation needs model.f1_x")
    if need_driver and model.f1_depends_on_y and model.f1_y is None:
        raise ValueError("pathwise gradient estimation needs model.f1_y")
    _require_driver_inputs(model, provider, need_ux=True)
    dt = grid.dt

    def per_path(states, n):
        acc = 0.0
        last = None
        for st in states:
            if need_driver and st.dW is not None:
                y = _driver_y(model, provider, st.t, st.X)
                term = np.asarray(model.f1_x(st.t, st.X, y), dtype=float) * st.gradX
                if model.f1_depends_on_y:
                    term = term + np.asarray(
                        model.f1_y(st.t, st.X, y), dtype=float) * (
                        provider.ux_eval(st.t, st.X) * st.gradX)
                acc = acc + term * dt
            last = st
        vals = np.asarray(model.g_prime(last.X), dtype=float) * last.gradX + acc
        return vals, True

    return _estimate(model, point, grid, seed, n_paths, per_path)


def estimate_ux_weighted(model: CoefficientModel, point: ProblemPoint,
                         grid: TimeGrid, seed: int, n_paths: int,
                         provider: Optional[ValueProvider] = None,
                         weight_kind: str = "degenerate",
                         eps_sigma: float = DEFAULT_EPS_SIGMA,
                         lambda_floor: Optional[float] = None) -> Estimate:
    """Gradient by integration-by-parts weighting: mean of
    ``g(X_T) * N_T`` plus the right-endpoint sum of ``f1 * N`` when the
    cost is active.  No payoff derivative is touched.

    Refuses to run when the starting point lies outside the alive set
    (no weight with finite variance exists there); the integrand being
    estimated is identically zero past the exit from that set anyway.
    The classical weight is floored where ``|sigma|`` fell below
    ``eps_sigma``.
    """
    if weight_kind not in ("degenerate", "nondegenerate"):
        raise ValueError(f"unknown weight_kind {weight_kind!r}")
    n_paths = _check_n_paths(n_paths)
    _require_gamma0(model, point, eps_sigma)
    _require_driver_inputs(model, provider)
    need_driver = not model.f1_is_zero
    dt = grid.dt
    if lambda_floor is None:
        lambda_floor = default_lambda_floor(grid, eps_sigma)
    degenerate = weight_kind == "degenerate"

    def per_path(states, n):
        driver = 0.0
        snd = np.zeros(n)
        ming = np.full(n, np.inf)
        tacc = 0.0
        last = None

        def weight(st):
            if degenerate:
                return degenerate_weight_values(st.Lambda, st.S1, st.B,
                                                lambda_floor)
            return nondegenerate_weight_values(snd, tacc, ming, eps_sigma)

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for st in states:
                if need_driver and st.k >= 1:
                    # right-endpoint quadrature: the weight is undefined at
                    # the left endpoint where no volatility has accumulated
                    w_k, _ = weight(st)
                    y = _driver_y(model, provider, st.t, st.X)
                    driver = driver + np.asarray(
                        model.f1(st.t, st.X, y), dtype=float) * w_k * dt
                if st.dW is not None and not degenerate:
                    ming = np.minimum(ming, np.abs(st.gamma))
                    snd = snd + (st.gradX / st.gamma) * st.dW
                    tacc = tacc + dt
                last = st
            w_T, floored = weight(last)
            vals = np.asarray(model.g(last.X), dtype=float) * w_T + driver
        return vals, ~floored

    return _estimate(model, point, grid, seed, n_paths, per_path)


# ---------------------------------------------------------------------------
# integrand reconstruction and occupation moments
# ---------------------------------------------------------------------------


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
    if provider.ux_eval is None:
        raise ValueError("reconstruct_Z needs a provider with ux_eval")
    if tau is None:
        tau = locate_tau(model, path, eps_sigma=eps_sigma)
    times = path.grid.times()
    out = np.zeros((times.size, 2))
    out[:, 0] = times
    for k in range(times.size):
        t = float(times[k])
        if t < tau:
            out[k, 1] = float(provider.ux_eval(t, float(path.X[k]))) \
                * float(path.gamma[k])
    return out


def empirical_lambda_moment(model: CoefficientModel, point: ProblemPoint,
                            grid: TimeGrid, seed: int, n_paths: int, p: float,
                            eps_sigma: float = DEFAULT_EPS_SIGMA,
                            lambda_floor: Optional[float] = None) -> Estimate:
    """Negative moment ``E[Lambda_T**(-p)]`` of the occupation integral.

    Finiteness of these moments is what makes the occupation-normalized
    weight square-integrable; the estimate should stabilize as the sample
    grows for points inside the alive set.
    """
    if not (p > 0.0):
        raise ValueError(f"p must be positive, got {p}")
    n_paths = _check_n_paths(n_paths)
    _require_gamma0(model, point, eps_sigma)
    if lambda_floor is None:
        lambda_floor = default_lambda_floor(grid, eps_sigma)

    def per_path(states, n):
        last = None
        for st in states:
            last = st
        lam = last.Lambda
        floored = ~(lam >= lambda_floor)
        with np.errstate(over="ignore"):
            vals = np.where(floored, 1.0, lam) ** (-p)
        return vals, ~floored

    return _estimate(model, point, grid, seed, n_paths, per_path)


# ---------------------------------------------------------------------------
# tabulated values
# ---------------------------------------------------------------------------


def _nearest_level(times: np.ndarray, t: float) -> int:
    i = int(np.searchsorted(times, t))
    if i <= 0:
        return 0
    if i >= times.size:
        return int(times.size - 1)
    return i if (times[i] - t) < (t - times[i - 1]) else i - 1


def grid_provider(times: np.ndarray, xs: np.ndarray,
                  U: np.ndarray) -> ValueProvider:
    """Provider over tabulated values: nearest level in t, linear in x.

    The gradient uses centered differences in x (one-sided at the ends)
    of the selected level; no averaging across levels is done, so sharp
    features in time are not smeared.
    """
    times = np.asarray(times, dtype=float)
    xs = np.asarray(xs, dtype=float)
    U = np.asarray(U, dtype=float)
    D = np.gradient(U, xs, axis=1)

    def u_eval(t, x):
        return np.interp(x, xs, U[_nearest_level(times, float(t))])

    def ux_eval(t, x):
        return np.interp(x, xs, D[_nearest_level(times, float(t))])

    return ValueProvider(u_eval=u_eval, ux_eval=ux_eval)


# ---------------------------------------------------------------------------
# closed-form providers for the analytically solvable models
# ---------------------------------------------------------------------------


def bachelier_provider(sigma_bar: float, strike: float = 0.0,
                       T: float = 1.0) -> ValueProvider:
    """Exact provider for the constant-volatility digital."""

    def u_eval(t, x):
        return bachelier_digital(t, x, sigma_bar, strike, T)[0]

    def ux_eval(t, x):
        return bachelier_digital(t, x, sigma_bar, strike, T)[1]

    return ValueProvider(u_eval=u_eval, ux_eval=ux_eval)


def example1_provider(params: Example1Params) -> ValueProvider:
    """Closed-form provider for the dying-volatility power model.

    The gradient is a central difference of the exact value with a
    relative step of 1e-4; adequate away from the terminal kink at the
    origin.
    """

    def u_eval(t, x):
        return example1_u(t, x, params)

    def ux_eval(t, x):
        x = np.asarray(x, dtype=float)
        h = 1e-4 * (1.0 + np.abs(x))
        up = np.asarray(example1_u(t, x + h, params))
        dn = np.asarray(example1_u(t, x - h, params))
        out = (up - dn) / (2.0 * h)
        return float(out) if out.ndim == 0 else out

    return ValueProvider(u_eval=u_eval, ux_eval=ux_eval)

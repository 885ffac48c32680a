"""Degeneracy geometry: where the volatility is alive, and when paths leave.

The volatility may vanish on part of the domain.  What matters for the
weight-based estimators is not whether ``sigma(t, x)`` is nonzero at the
starting point, but whether the deterministic drift characteristic
through ``(t, x)`` meets live volatility at some time before the horizon.
This module classifies points accordingly:

* ``in_Gamma``: ``|sigma(t, x)| > eps_sigma`` at the point itself;
* ``in_Gamma0``: ``max_s |sigma(s, eta_s)| > eps_sigma`` along the
  characteristic ``eta`` solving ``d eta / ds = b(s, eta)``, ``eta_t = x``;
* ``n_index``: the smallest integer ``n >= 1`` with that maximum at least
  ``1/n`` (present only inside the alive set).

``locate_tau`` turns the classification into a per-path stopping time:
the first grid time at which the path has left the alive set.  From that
time on the integrand being estimated is identically zero.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import CoefficientModel, ProblemPoint, transformed_drift
from .sde_sim import BatchPaths, PathBundle, TimeGrid

__all__ = [
    "CharacteristicPath",
    "DegeneracyReport",
    "GammaEquivalenceReport",
    "characteristic",
    "gamma_report",
    "locate_tau",
    "locate_tau_batch",
    "check_gamma_equivalence",
    "DEFAULT_EPS_SIGMA",
    "DEFAULT_N_ODE_STEPS",
]

DEFAULT_EPS_SIGMA = 1e-8
DEFAULT_N_ODE_STEPS = 200

# gamma_report memo: per model, up to _MEMO_SIZE queries (oldest evicted
# first).  Weak keys, so a model the caller has dropped is freed with its memo.
_MEMO_SIZE = 4096
_max_sigma_memo = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class CharacteristicPath:
    """Drift characteristic sampled on a uniform grid."""

    grid: TimeGrid
    eta: np.ndarray


@dataclass(frozen=True)
class DegeneracyReport:
    """Classification of one starting point.

    ``n_index`` is None outside the alive set.
    """

    point: ProblemPoint
    max_sigma_on_characteristic: float
    in_Gamma: bool
    in_Gamma0: bool
    n_index: Optional[int]


@dataclass(frozen=True)
class GammaEquivalenceReport:
    """Agreement of the alive-set classification before/after drift absorption."""

    n_points: int
    n_agree: int
    agreement_fraction: float
    n_in_both: int
    max_index_ratio: Optional[float]


# ---------------------------------------------------------------------------
# characteristic ODE (classical 4-stage Runge-Kutta, vectorized over starts)
# ---------------------------------------------------------------------------


def _rk4_sweep(model: CoefficientModel, t0: float, x0: np.ndarray, T: float,
               n_ode_steps: int, keep_path: bool):
    """Integrate the drift ODE from (t0, x0) to T.

    Returns ``(eta_path or None, running max of |sigma| along the way)``.
    The max always includes the starting node.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    eta = x0.copy()
    mx = np.maximum(
        np.zeros_like(eta),
        np.abs(np.asarray(model.sigma(float(t0), eta), dtype=float)),
    )
    if T <= t0:
        return (eta[None, :].copy() if keep_path else None), mx

    s = np.linspace(t0, T, n_ode_steps + 1)
    h = (T - t0) / n_ode_steps
    path = np.empty((n_ode_steps + 1, eta.size)) if keep_path else None
    if keep_path:
        path[0] = eta

    b = model.b
    for j in range(n_ode_steps):
        sj = float(s[j])
        sm = sj + 0.5 * h
        k1 = np.asarray(b(sj, eta), dtype=float)
        k2 = np.asarray(b(sm, eta + 0.5 * h * k1), dtype=float)
        k3 = np.asarray(b(sm, eta + 0.5 * h * k2), dtype=float)
        k4 = np.asarray(b(float(s[j + 1]), eta + h * k3), dtype=float)
        eta = eta + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        mx = np.maximum(
            mx, np.abs(np.asarray(model.sigma(float(s[j + 1]), eta), dtype=float)))
        if keep_path:
            path[j + 1] = eta
    return path, mx


def characteristic(model: CoefficientModel, point: ProblemPoint,
                   n_ode_steps: int = DEFAULT_N_ODE_STEPS) -> CharacteristicPath:
    """Solve the drift ODE from the point to the horizon."""
    if n_ode_steps < 1:
        raise ValueError(f"n_ode_steps must be >= 1, got {n_ode_steps}")
    T = model.horizon_T
    if not (point.t0 < T):
        raise ValueError(
            f"characteristic needs t0 < horizon, got t0={point.t0}, T={T}"
        )
    path, _ = _rk4_sweep(model, point.t0, np.asarray([point.x0]), T,
                         n_ode_steps, keep_path=True)
    return CharacteristicPath(grid=TimeGrid(point.t0, T, n_ode_steps),
                              eta=path[:, 0].copy())


def _max_sigma_batch(model: CoefficientModel, t0: float, x0: np.ndarray,
                     n_ode_steps: int) -> np.ndarray:
    _, mx = _rk4_sweep(model, t0, x0, model.horizon_T, n_ode_steps,
                       keep_path=False)
    return mx


def _cached_max_sigma(model: CoefficientModel, t_key: float, x_key: float,
                      n_ode_steps: int) -> float:
    memo = _max_sigma_memo.setdefault(model, {})
    key = (t_key, x_key, n_ode_steps)
    mx = memo.get(key)
    if mx is None:
        mx = float(_max_sigma_batch(model, t_key, np.asarray([x_key]),
                                    n_ode_steps)[0])
        if len(memo) >= _MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = mx
    return mx


def gamma_report(model: CoefficientModel, point: ProblemPoint,
                 n_ode_steps: int = DEFAULT_N_ODE_STEPS,
                 eps_sigma: float = DEFAULT_EPS_SIGMA) -> DegeneracyReport:
    """Classify a starting point against the degeneracy sets.

    Results are memoized per model with the query rounded to 1e-12 in t
    and 1e-10 in x, which makes repeated grid scans cheap.  The memo holds
    a bounded number of queries per model and no reference to the model.
    """
    if n_ode_steps < 1:
        raise ValueError(f"n_ode_steps must be >= 1, got {n_ode_steps}")
    if not (eps_sigma > 0.0):
        raise ValueError(f"eps_sigma must be positive, got {eps_sigma}")
    if point.t0 > model.horizon_T:
        raise ValueError(
            f"t0={point.t0} lies beyond the horizon {model.horizon_T}"
        )
    mx = _cached_max_sigma(model, round(float(point.t0), 12),
                           round(float(point.x0), 10), int(n_ode_steps))
    here = float(np.abs(np.asarray(
        model.sigma(float(point.t0), np.asarray(point.x0, dtype=float)),
        dtype=float)))
    in_gamma = here > eps_sigma
    in_gamma0 = mx > eps_sigma
    n_index = int(np.ceil(1.0 / mx)) if in_gamma0 else None
    if n_index is not None and n_index < 1:
        n_index = 1
    return DegeneracyReport(point=point, max_sigma_on_characteristic=mx,
                            in_Gamma=in_gamma, in_Gamma0=in_gamma0,
                            n_index=n_index)


# ---------------------------------------------------------------------------
# stopping time along simulated paths
# ---------------------------------------------------------------------------


def _locate_tau_matrix(model: CoefficientModel, times: np.ndarray,
                       X: np.ndarray, n_ode_steps: int,
                       eps_sigma: float) -> np.ndarray:
    """First grid time at which each row of X has left the alive set.

    Scans grid nodes in order, keeping only still-alive paths active, so
    the per-node work shrinks as paths stop.
    """
    n_paths = X.shape[0]
    taus = np.full(n_paths, float(times[-1]))
    active = np.arange(n_paths)
    for k in range(times.size):
        if active.size == 0:
            break
        t = float(times[k])
        mx = _max_sigma_batch(model, t, X[active, k], n_ode_steps)
        dead = ~(mx > eps_sigma)
        if np.any(dead):
            taus[active[dead]] = t
            active = active[~dead]
    return taus


def locate_tau(model: CoefficientModel, path: PathBundle,
               n_ode_steps: int = DEFAULT_N_ODE_STEPS,
               eps_sigma: float = DEFAULT_EPS_SIGMA) -> float:
    """First grid time at which the path has left the alive set (else T).

    Consistent with ``gamma_report``: it returns the first grid node whose
    classification has ``in_Gamma0`` false.  Past the returned time the
    reconstructed integrand is set to zero.
    """
    times = path.grid.times()
    return float(_locate_tau_matrix(model, times, path.X[None, :],
                                    n_ode_steps, eps_sigma)[0])


def locate_tau_batch(model: CoefficientModel, batch: BatchPaths,
                     n_ode_steps: int = DEFAULT_N_ODE_STEPS,
                     eps_sigma: float = DEFAULT_EPS_SIGMA) -> np.ndarray:
    """Vectorized ``locate_tau`` over a batch; equal to the per-path values."""
    times = batch.grid.times()
    return _locate_tau_matrix(model, times, batch.X, n_ode_steps, eps_sigma)


# ---------------------------------------------------------------------------
# drift-absorption equivalence
# ---------------------------------------------------------------------------


def check_gamma_equivalence(model: CoefficientModel,
                            sample_points: Sequence[ProblemPoint],
                            n_ode_steps: int = DEFAULT_N_ODE_STEPS,
                            eps_sigma: float = DEFAULT_EPS_SIGMA,
                            ) -> GammaEquivalenceReport:
    """Compare alive-set membership under the raw and absorbed drifts.

    Absorbing the linear-in-z cost into the drift changes the
    characteristics but must not change which points are classified
    alive.  Returns the agreement fraction and, over points alive under
    both drifts, the largest ratio between the two ``n_index`` values.
    """
    points = list(sample_points)
    if not points:
        raise ValueError("sample_points must be non-empty")
    shifted = transformed_drift(model)

    # group by start time so the ODE solves vectorize over x
    by_t: dict = {}
    for i, p in enumerate(points):
        by_t.setdefault(float(p.t0), []).append((i, float(p.x0)))

    n = len(points)
    mx_raw = np.empty(n)
    mx_new = np.empty(n)
    for t0, entries in by_t.items():
        idx = np.asarray([i for i, _ in entries])
        xs = np.asarray([x for _, x in entries])
        mx_raw[idx] = _max_sigma_batch(model, t0, xs, n_ode_steps)
        mx_new[idx] = _max_sigma_batch(shifted, t0, xs, n_ode_steps)

    alive_raw = mx_raw > eps_sigma
    alive_new = mx_new > eps_sigma
    agree = alive_raw == alive_new
    both = alive_raw & alive_new

    max_ratio: Optional[float] = None
    if np.any(both):
        n_raw = np.ceil(1.0 / mx_raw[both])
        n_new = np.ceil(1.0 / mx_new[both])
        n_raw = np.maximum(n_raw, 1.0)
        n_new = np.maximum(n_new, 1.0)
        max_ratio = float(np.max(np.maximum(n_raw / n_new, n_new / n_raw)))

    return GammaEquivalenceReport(
        n_points=n,
        n_agree=int(np.count_nonzero(agree)),
        agreement_fraction=float(np.count_nonzero(agree) / n),
        n_in_both=int(np.count_nonzero(both)),
        max_index_ratio=max_ratio,
    )

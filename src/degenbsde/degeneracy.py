"""Degeneracy geometry: where the volatility is alive, and when paths leave.

The volatility may vanish on part of the domain.  What matters for the
weight-based estimators is not whether ``sigma(t, x)`` is nonzero at the
starting point, but whether the deterministic drift characteristic
through ``(t, x)`` meets live volatility at some time before the horizon.
Everything here rests on one quantity, the running max of ``|sigma|``
along that characteristic (``_max_sigma``):

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

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import CoefficientModel, ProblemPoint, transformed_drift
from .sde_sim import BatchPaths, PathBundle

__all__ = [
    "DegeneracyReport",
    "GammaEquivalenceReport",
    "gamma_report",
    "locate_tau",
    "locate_tau_batch",
    "check_gamma_equivalence",
    "DEFAULT_EPS_SIGMA",
]

DEFAULT_EPS_SIGMA = 1e-8
# RK4 steps per characteristic, from the start time to the horizon
N_ODE_STEPS = 200


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
# running max of |sigma| along the characteristic
# ---------------------------------------------------------------------------


def _max_sigma_batch(model: CoefficientModel, t0: float,
                     x0: np.ndarray) -> np.ndarray:
    """Running max of ``|sigma|`` along the drift characteristics from
    ``(t0, x0)`` to the horizon, by classical 4-stage Runge-Kutta
    vectorized over the starts.  The max always includes the starting
    node, and a NaN ``sigma`` anywhere along the way makes it NaN."""
    T = model.horizon_T
    eta = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    mx = np.maximum(
        np.zeros_like(eta),
        np.abs(np.asarray(model.sigma(float(t0), eta), dtype=float)),
    )
    if T <= t0:
        return mx

    s = np.linspace(t0, T, N_ODE_STEPS + 1)
    h = (T - t0) / N_ODE_STEPS
    b = model.b
    for j in range(N_ODE_STEPS):
        sj = float(s[j])
        sm = sj + 0.5 * h
        k1 = np.asarray(b(sj, eta), dtype=float)
        k2 = np.asarray(b(sm, eta + 0.5 * h * k1), dtype=float)
        k3 = np.asarray(b(sm, eta + 0.5 * h * k2), dtype=float)
        k4 = np.asarray(b(float(s[j + 1]), eta + h * k3), dtype=float)
        eta = eta + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        mx = np.maximum(
            mx, np.abs(np.asarray(model.sigma(float(s[j + 1]), eta), dtype=float)))
    return mx


def _max_sigma(model: CoefficientModel, t0: float,
               xs: np.ndarray) -> np.ndarray:
    """``_max_sigma_batch``, except that a finite start past the model's
    ``frozen_after``, where ``sigma`` and ``b`` vanish, gets exactly +0.0
    without a sweep.  A start whose ``x`` is not finite is still swept."""
    frozen_after = model.frozen_after
    if frozen_after is None or not t0 > frozen_after:
        return _max_sigma_batch(model, t0, xs)
    mx = np.zeros(xs.shape)
    nonfinite = ~np.isfinite(xs)
    if np.any(nonfinite):
        mx[nonfinite] = _max_sigma_batch(model, t0, xs[nonfinite])
    return mx


def _n_index(mx):
    """The smallest integer ``n >= 1`` with ``mx >= 1/n``, as a float."""
    return np.maximum(np.ceil(1.0 / mx), 1.0)


def _check_eps_sigma(eps_sigma: float) -> None:
    if not (eps_sigma > 0.0):
        raise ValueError(f"eps_sigma must be positive, got {eps_sigma}")


def _check_classifiable(model: CoefficientModel, point: ProblemPoint,
                        eps_sigma: float) -> None:
    """The input checks of ``gamma_report``, in its order."""
    _check_eps_sigma(eps_sigma)
    if point.t0 > model.horizon_T:
        raise ValueError(
            f"t0={point.t0} lies beyond the horizon {model.horizon_T}"
        )


def _abs_sigma_at(model: CoefficientModel, point: ProblemPoint) -> float:
    """``|sigma(t0, x0)|``, the start of the characteristic's running max."""
    return float(np.abs(np.asarray(
        model.sigma(float(point.t0), np.asarray(point.x0, dtype=float)),
        dtype=float)))


def gamma_report(model: CoefficientModel, point: ProblemPoint,
                 eps_sigma: float = DEFAULT_EPS_SIGMA) -> DegeneracyReport:
    """Classify a starting point against the degeneracy sets."""
    _check_classifiable(model, point, eps_sigma)
    mx = float(_max_sigma(model, float(point.t0),
                          np.asarray([float(point.x0)]))[0])
    in_gamma0 = mx > eps_sigma
    return DegeneracyReport(
        point=point, max_sigma_on_characteristic=mx,
        in_Gamma=_abs_sigma_at(model, point) > eps_sigma, in_Gamma0=in_gamma0,
        n_index=int(_n_index(mx)) if in_gamma0 else None)


# ---------------------------------------------------------------------------
# stopping time along simulated paths
# ---------------------------------------------------------------------------


def _locate_tau_matrix(model: CoefficientModel, times: np.ndarray,
                       X: np.ndarray, eps_sigma: float) -> np.ndarray:
    """First grid time at which each row of X has left the alive set.

    Scans grid nodes in order, keeping only still-alive paths active, so
    the per-node work shrinks as paths stop.  The characteristic's running
    max of ``|sigma|`` starts at the node itself, so a node with
    ``|sigma| > eps_sigma`` there is alive without solving the ODE; only
    the other active paths (a NaN ``sigma`` among them) go to
    ``_max_sigma``, which sweeps none from a finite node past the frozen
    tail.  Where ``sigma`` is finite along the characteristic this is the
    ``gamma_report`` classification.  A NaN ``sigma`` further along a
    characteristic would make that running max NaN and the node dead; a
    node alive pointwise stays alive here.  Any ``eps_sigma`` is accepted.
    """
    n_paths = X.shape[0]
    taus = np.full(n_paths, float(times[-1]))
    active = np.arange(n_paths)
    for k in range(times.size):
        if active.size == 0:
            break
        t = float(times[k])
        x = X[active, k]
        here = np.abs(np.broadcast_to(
            np.asarray(model.sigma(t, x), dtype=float), x.shape))
        check = ~(here > eps_sigma)
        if not np.any(check):
            continue
        dead = np.zeros(active.size, dtype=bool)
        dead[check] = ~(_max_sigma(model, t, x[check]) > eps_sigma)
        if np.any(dead):
            taus[active[dead]] = t
            active = active[~dead]
    return taus


def locate_tau(model: CoefficientModel, path: PathBundle,
               eps_sigma: float = DEFAULT_EPS_SIGMA) -> float:
    """First grid time at which the path has left the alive set (else T).

    Consistent with ``gamma_report`` wherever ``sigma`` is finite along the
    characteristics: it returns the first grid node whose classification
    has ``in_Gamma0`` false.  A node with ``|sigma| > eps_sigma`` counts as
    alive without the ODE, even if ``sigma`` turns NaN further along its
    characteristic.  Past the returned time the reconstructed integrand is
    set to zero.  ``eps_sigma`` must be positive.
    """
    _check_eps_sigma(eps_sigma)
    times = path.grid.times()
    return float(_locate_tau_matrix(model, times, path.X[None, :],
                                    eps_sigma)[0])


def locate_tau_batch(model: CoefficientModel, batch: BatchPaths,
                     eps_sigma: float = DEFAULT_EPS_SIGMA) -> np.ndarray:
    """Vectorized ``locate_tau`` over a batch; equal to the per-path values."""
    _check_eps_sigma(eps_sigma)
    times = batch.grid.times()
    return _locate_tau_matrix(model, times, batch.X, eps_sigma)


# ---------------------------------------------------------------------------
# drift-absorption equivalence
# ---------------------------------------------------------------------------


def check_gamma_equivalence(model: CoefficientModel,
                            sample_points: Sequence[ProblemPoint],
                            eps_sigma: float = DEFAULT_EPS_SIGMA,
                            ) -> GammaEquivalenceReport:
    """Compare alive-set membership under the raw and absorbed drifts.

    Absorbing the linear-in-z cost into the drift changes the
    characteristics but must not change which points are classified
    alive.  Returns the agreement fraction and, over points alive under
    both drifts, the largest ratio between the two ``n_index`` values.
    ``eps_sigma`` must be positive.
    """
    _check_eps_sigma(eps_sigma)
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
        mx_raw[idx] = _max_sigma(model, t0, xs)
        mx_new[idx] = _max_sigma(shifted, t0, xs)

    alive_raw = mx_raw > eps_sigma
    alive_new = mx_new > eps_sigma
    agree = alive_raw == alive_new
    both = alive_raw & alive_new

    max_ratio: Optional[float] = None
    if np.any(both):
        n_raw = _n_index(mx_raw[both])
        n_new = _n_index(mx_new[both])
        max_ratio = float(np.max(np.maximum(n_raw / n_new, n_new / n_raw)))

    n_agree = int(np.count_nonzero(agree))
    return GammaEquivalenceReport(
        n_points=n, n_agree=n_agree, agreement_fraction=float(n_agree / n),
        n_in_both=int(np.count_nonzero(both)), max_index_ratio=max_ratio)

"""Integration-by-parts weights turning payoff averages into gradients.

Both constructions produce, per path, a random weight ``N`` such that the
mean of ``g(X_T) * N`` estimates the spatial derivative of the value
function at the starting point, without differentiating ``g``.

* ``degenerate_weight`` normalizes by the occupation integral
  ``Lambda_r = int gamma**2`` and stays finite as long as the path has
  accumulated any volatility at all:

      N_r = (S1_r + 2 * B_r / Lambda_r) / Lambda_r

  with the accumulators of ``sde_sim`` (the tangent flow at the start is
  1, so no extra factor appears).

* ``nondegenerate_weight`` is the classical construction that divides by
  the elapsed time and by ``sigma`` inside the integral:

      Nbar_r = sum_{j<r} (gradX_j / gamma_j) * dW_j / sum_{j<r} dt

  It breaks down whenever ``sigma`` vanishes anywhere on the window.

The elapsed time in the second formula is accumulated with the same
left-endpoint summation as ``Lambda``; for unit constant volatility the
two weights then agree bit-for-bit on every path, which the estimator
layer exposes as an exact cross-check.

Flooring: instead of silently dividing by a denominator that is (nearly)
zero, each constructor compares it against a floor and, when breached,
returns a sample with ``floored=True`` and no value.  Estimators exclude
floored samples and report their count; a run with more than 5% floored
samples is flagged unreliable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .degeneracy import DEFAULT_EPS_SIGMA
from .sde_sim import PathBundle, TimeGrid

__all__ = [
    "WeightSample",
    "default_lambda_floor",
    "default_sigma_floor",
    "degenerate_weight",
    "nondegenerate_weight",
    "degenerate_weight_values",
    "nondegenerate_increment",
]


def default_lambda_floor(grid: TimeGrid, eps_sigma: float = DEFAULT_EPS_SIGMA) -> float:
    """Floor for the occupation integral: one step of squared-threshold mass."""
    return grid.dt * eps_sigma ** 2


def default_sigma_floor(eps_sigma: float = DEFAULT_EPS_SIGMA) -> float:
    """Floor for the pointwise volatility used by the classical weight."""
    return eps_sigma


@dataclass(frozen=True)
class WeightSample:
    """One weight evaluation at grid time ``r``.

    ``value`` is None exactly when ``floored`` is True: no number is
    substituted for a sample whose denominator fell below the floor.
    """

    r: float
    value: Optional[float]
    lambda_at_r: float
    floored: bool


def _check_r_index(path: PathBundle, r_index: int) -> int:
    r_index = int(r_index)
    if not (1 <= r_index <= path.grid.n_steps):
        raise ValueError(
            f"r_index must lie in [1, {path.grid.n_steps}], got {r_index}"
        )
    return r_index


def degenerate_weight(path: PathBundle, r_index: int,
                      lambda_floor: Optional[float] = None) -> WeightSample:
    """Occupation-normalized weight at grid node ``r_index``.

    Valid whenever the path has accumulated volatility mass above the
    floor by time ``r``; in particular it tolerates volatility that is
    zero at the start or dies before ``r``.
    """
    r_index = _check_r_index(path, r_index)
    if lambda_floor is None:
        lambda_floor = default_lambda_floor(path.grid)
    r = float(path.grid.times()[r_index])
    lam = float(path.Lambda[r_index])
    if not (lam >= lambda_floor):  # also catches non-finite lam
        return WeightSample(r=r, value=None, lambda_at_r=lam, floored=True)
    value = (path.S1[r_index] + 2.0 * (path.B[r_index] / lam)) / lam
    return WeightSample(r=r, value=float(value), lambda_at_r=lam, floored=False)


def nondegenerate_weight(path: PathBundle, r_index: int,
                         sigma_floor: Optional[float] = None) -> WeightSample:
    """Classical time-normalized weight at grid node ``r_index``.

    Floored as soon as ``|sigma|`` dips below ``sigma_floor`` anywhere on
    the window, since the construction divides by ``sigma`` pointwise.
    """
    r_index = _check_r_index(path, r_index)
    if sigma_floor is None:
        sigma_floor = default_sigma_floor()
    r = float(path.grid.times()[r_index])
    lam = float(path.Lambda[r_index])
    gam = path.gamma[:r_index]
    min_gamma = float(np.min(np.abs(gam)))
    if not (min_gamma >= sigma_floor):
        return WeightSample(r=r, value=None, lambda_at_r=lam, floored=True)
    terms = nondegenerate_increment(path.gradX[:r_index], gam, path.dW[:r_index])
    # sequential accumulation, matching the streaming estimators bit for bit
    total = float(np.add.accumulate(terms)[-1])
    elapsed = float(np.add.accumulate(np.full(r_index, path.grid.dt))[-1])
    return WeightSample(r=r, value=total / elapsed, lambda_at_r=lam, floored=False)


def nondegenerate_increment(gradX, gamma, dW):
    """Shared integrand ``(gradX / gamma) * dW`` of the classical weight."""
    return (gradX / gamma) * dW


def degenerate_weight_values(Lambda_r, S1_r, B_r,
                             lambda_floor: float) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized occupation-normalized weights over a path family.

    Returns ``(values, floored)``; entries of ``values`` where ``floored``
    is True are zero and must not be used.  Non-floored entries follow the
    exact same arithmetic as ``degenerate_weight``.
    """
    Lambda_r = np.asarray(Lambda_r, dtype=float)
    S1_r = np.asarray(S1_r, dtype=float)
    B_r = np.asarray(B_r, dtype=float)
    floored = ~(Lambda_r >= lambda_floor)
    lam_safe = np.where(floored, 1.0, Lambda_r)
    values = (S1_r + 2.0 * (B_r / lam_safe)) / lam_safe
    return np.where(floored, 0.0, values), floored

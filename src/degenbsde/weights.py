"""Integration-by-parts weights turning payoff averages into gradients.

Both weights give, per path, a random ``N`` such that the mean of
``g(X_T) * N`` estimates the spatial derivative of the value function at
the starting point, without differentiating ``g``.  Each is evaluated
over a whole path family at one grid node ``r`` from the running
accumulators the estimators carry along the stream:

* ``degenerate_weight_values`` normalizes by the occupation integral
  ``Lambda_r = int gamma**2`` and stays finite as long as the path has
  accumulated any volatility at all:

      N_r = (S1_r + 2 * B_r / Lambda_r) / Lambda_r

  with the accumulators of ``sde_sim`` (the tangent flow at the start is
  1, so no extra factor appears).

* ``nondegenerate_weight_values`` is the classical construction that
  divides by the elapsed time and by ``sigma`` inside the integral:

      Nbar_r = sum_{j<r} (gradX_j / gamma_j) * dW_j / sum_{j<r} dt

  It breaks down whenever ``sigma`` vanishes anywhere on the window.

The elapsed time in the second formula is accumulated with the same
left-endpoint summation as ``Lambda``; for unit constant volatility the
two weights then agree bit-for-bit on every path, which the estimator
layer exposes as an exact cross-check.

Flooring: instead of dividing by a denominator that is (nearly) zero,
each function compares it against a floor and returns a ``floored`` mask
next to the values; floored entries are zero and must not be used.
Estimators exclude floored samples and report their count; a run with
more than 5% floored samples is flagged unreliable.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .degeneracy import DEFAULT_EPS_SIGMA
from .sde_sim import TimeGrid

__all__ = [
    "default_lambda_floor",
    "degenerate_weight_values",
    "nondegenerate_weight_values",
]


def default_lambda_floor(grid: TimeGrid, eps_sigma: float = DEFAULT_EPS_SIGMA) -> float:
    """Floor for the occupation integral: one step of squared-threshold mass."""
    return grid.dt * eps_sigma ** 2


def degenerate_weight_values(Lambda_r, S1_r, B_r,
                             lambda_floor: float) -> Tuple[np.ndarray, np.ndarray]:
    """Occupation-normalized weights over a path family.

    Returns ``(values, floored)``; a path is floored when ``Lambda_r`` is
    below ``lambda_floor`` (or not finite).
    """
    Lambda_r = np.asarray(Lambda_r, dtype=float)
    S1_r = np.asarray(S1_r, dtype=float)
    B_r = np.asarray(B_r, dtype=float)
    floored = ~(Lambda_r >= lambda_floor)
    lam_safe = np.where(floored, 1.0, Lambda_r)
    values = (S1_r + 2.0 * (B_r / lam_safe)) / lam_safe
    return np.where(floored, 0.0, values), floored


def nondegenerate_weight_values(snd, elapsed, min_abs_gamma,
                                floor: float) -> Tuple[np.ndarray, np.ndarray]:
    """Classical time-normalized weights over a path family.

    ``snd`` is the running sum of ``(gradX / gamma) * dW``, ``elapsed`` the
    running sum of ``dt`` and ``min_abs_gamma`` the smallest ``|gamma|``
    seen so far.  Returns ``(values, floored)``; a path is floored as soon
    as ``|sigma|`` dipped below ``floor`` anywhere on the window, since the
    construction divides by ``sigma`` pointwise.
    """
    floored = ~(min_abs_gamma >= floor)
    return np.where(floored, 0.0, snd / elapsed), floored

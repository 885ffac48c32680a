"""Closed-form reference values used to cross-validate the estimators.

Two families admit exact answers:

* the power-payoff model with polynomially dying volatility
  (``example1``): because its volatility depends on time only, the
  terminal state is Gaussian with an explicitly integrable variance, so
  the value function reduces to a Kummer confluent hypergeometric
  function and the gradient at the origin to a Gaussian absolute moment
  times a power of the remaining volatility mass; and

* the constant-volatility digital (``bachelier_digital``), whose value
  and delta are the Gaussian cdf/pdf.

These functions deliberately share no code with the estimators they
validate.

SciPy is imported inside the two functions that need it, ``example1_u``
(``hyp1f1``, only before the volatility dies) and ``bachelier_digital``
(``ndtr``), not at module level: loading it takes longer than a typical
run's computation, and most runs call neither function.
``example1_ux_at_zero`` and the other helpers need only ``math``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Example1Params",
    "example1_sigma0",
    "example1_u",
    "example1_ux_at_zero",
    "bachelier_digital",
]


def gaussian_abs_moment(p: float) -> float:
    """E|N(0,1)|**p = 2**(p/2) * Gamma((p+1)/2) / sqrt(pi), for p > -1.

    Evaluated through log-gamma for stability at large p.
    """
    p = float(p)
    if p <= -1.0:
        raise ValueError(f"moment requires p > -1, got {p}")
    return math.exp(0.5 * p * math.log(2.0)
                    + math.lgamma(0.5 * (p + 1.0))
                    - 0.5 * math.log(math.pi))


@dataclass(frozen=True)
class Example1Params:
    """Parameters of the dying-volatility power-payoff model.

    ``alpha`` is the payoff roughness (payoff ``sign(x) |x|**(1-alpha)``),
    ``beta`` the volatility death rate (volatility ``(1-t)**beta`` up to
    t = 1, zero afterwards, horizon 2).  The admissibility gate
    ``beta < alpha / (2 (1 - alpha))`` keeps the integrand exponent
    negative (genuine blow-up) while weight estimates stay integrable.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        gate = self.alpha / (2.0 * (1.0 - self.alpha))
        if not (0.0 < self.beta < gate):
            raise ValueError(
                f"beta must lie in (0, {gate:.6g}) for alpha={self.alpha}, "
                f"got {self.beta}"
            )


def example1_sigma0(t: float, params: Example1Params) -> float:
    """Total remaining volatility scale: sqrt(int_t^2 sigma(s)**2 ds).

    Equals ``(1-t)**((1+2 beta)/2) / sqrt(1+2 beta)`` before t = 1 and 0
    afterwards.
    """
    t = float(t)
    if t >= 1.0:
        return 0.0
    b = params.beta
    return (1.0 - t) ** (0.5 * (1.0 + 2.0 * b)) / math.sqrt(1.0 + 2.0 * b)


def _g_power(x, alpha: float):
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.abs(x) ** (1.0 - alpha)


def example1_u(t: float, x, params: Example1Params):
    """Exact value function of the dying-volatility power-payoff model.

    For t >= 1 the volatility is exhausted and ``u(t, x) = g(x)``
    exactly.  Before that ``u(t, x) = E g(x + sigma0 N)`` with standard
    normal N, and the Gaussian smoothing of the signed power payoff has
    the closed form

        u(t, x) = sigma0**(1-alpha) * E|N|**(2-alpha)
                  * a * 1F1(alpha/2; 3/2; -a**2/2),   a = x / sigma0,

    odd in x and asymptotic to the raw payoff as |a| grows.
    """
    t = float(t)
    x = np.asarray(x, dtype=float)
    alpha = params.alpha
    if t >= 1.0:
        out = _g_power(x, alpha)
    else:
        from scipy.special import hyp1f1

        s0 = example1_sigma0(t, params)
        a = x / s0
        out = (s0 ** (1.0 - alpha) * gaussian_abs_moment(2.0 - alpha)
               * a * hyp1f1(0.5 * alpha, 1.5, -0.5 * a * a))
    if out.ndim == 0:
        return float(out)
    return out


def example1_ux_at_zero(t: float, params: Example1Params) -> float:
    """Exact spatial derivative of the value function at x = 0, t < 1.

    Differentiating the Gaussian smoothing of the power payoff under the
    integral sign gives ``sigma0**(-alpha) * E|N|**(2-alpha)``; the
    derivative diverges as t approaches 1 with exponent
    ``example1_ux_exponent(params)`` in ``(1 - t)``.
    """
    t = float(t)
    if not (t < 1.0):
        raise ValueError(
            f"the derivative at the origin exists only for t < 1, got t={t}"
        )
    s0 = example1_sigma0(t, params)
    return s0 ** (-params.alpha) * gaussian_abs_moment(2.0 - params.alpha)


def example1_ux_exponent(params: Example1Params) -> float:
    """Exponent ``-alpha (1 + 2 beta) / 2`` of the gradient at the origin:
    ``u_x(t, 0)`` scales like ``(1 - t)`` to this power as t approaches 1,
    since ``sigma0**(-alpha)`` does."""
    return -params.alpha * (1.0 + 2.0 * params.beta) / 2.0


def example1_z_exponent(params: Example1Params) -> float:
    """Exponent of the martingale integrand near the volatility death time.

    ``Z(t, 0) = u_x(t, 0) * (1 - t)**beta``, so along paths near the origin
    the integrand scales like ``(1-t)**(beta (1-alpha) - alpha/2)``, the
    gradient's exponent plus ``beta``; the admissibility gate makes this
    negative, i.e. the integrand genuinely blows up.
    """
    return example1_ux_exponent(params) + params.beta


def bachelier_digital(t: float, x, sigma_bar: float, strike: float,
                      T: float):
    """Exact value and delta of the constant-volatility digital.

    Returns ``(u, ux)`` with ``u = Phi((x - strike) / s)`` and
    ``ux = phi((x - strike) / s) / s`` where ``s = sigma_bar
    * sqrt(T - t)``.  These are the expressions ``scipy.stats.norm``
    evaluates for its cdf and pdf, so the results are equal to
    ``norm.cdf(z)`` and ``norm.pdf(z) / s`` bit for bit.
    """
    from scipy.special import ndtr

    t = float(t)
    if not (t < T):
        raise ValueError(f"need t < T, got t={t}, T={T}")
    if not (sigma_bar > 0.0):
        raise ValueError(f"sigma_bar must be positive, got {sigma_bar}")
    s = sigma_bar * math.sqrt(T - t)
    z = (np.asarray(x, dtype=float) - strike) / s
    u = ndtr(z)
    # np.square, not z**2: on a NumPy scalar ``**`` calls C pow(), which can
    # round z*z one ulp away from the array loop scipy.stats runs
    ux = np.exp(-np.square(z) / 2.0) / np.sqrt(2 * np.pi) / s
    if np.ndim(x) == 0:
        return float(u), float(ux)
    return u, ux

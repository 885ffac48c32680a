"""Coefficient models for a decoupled forward-backward diffusion system.

A model bundles the forward coefficients ``b`` (drift) and ``sigma``
(volatility, allowed to vanish on part of the time-space domain), the
running cost ``f(t, x, z) = f1(t, x) + f2(t, x) * z``, the terminal
payoff ``g``, and the regularity constants the numerical routines rely on.

Conventions
-----------
* Coefficients are callables of ``(t, x)`` where ``t`` is a scalar and
  ``x`` may be a scalar or an ndarray; they must broadcast and return
  something ndarray-compatible.  The built-in coefficients return a fresh
  float64 array shaped like ``x`` (0-d for a scalar ``x``), filled by one
  rule, ``_fill``; an array ``t`` is accepted where it broadcasts to that
  shape.
* Every built-in coefficient of an ``x_flat`` model depends on ``t``
  alone and also carries that value as a Python float function of a
  float ``t``, its private ``_of_t`` attribute, equal to the closure's
  value bit for bit at every finite ``t >= 0``.  ``_x_flat_at`` reads it
  to evaluate such a model once per time without a call on an array;
  a coefficient without it is called as usual.
* The linear-in-z part of the cost is absorbed into the drift by
  ``transformed_drift`` before any simulation; downstream modules only
  ever see models with ``f2 == 0``.
* ``psi(x) = psi_K * (1 + |x|**psi_p0)`` is the growth envelope that the
  payoff must respect; estimator error bounds scale with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

__all__ = [
    "CoefficientModel",
    "ProblemPoint",
    "ModelInvariantError",
    "builtin_model",
    "builtin_model_names",
    "transformed_drift",
    "check_model_invariants",
    "BUILTIN_MODELS",
]

Coefficient = Callable[[float, np.ndarray], np.ndarray]
Payoff = Callable[[np.ndarray], np.ndarray]


class ModelInvariantError(ValueError):
    """A declared model constant is inconsistent with the sampled coefficients."""


@dataclass(frozen=True, eq=False)
class CoefficientModel:
    """Coefficients and regularity metadata of one forward-backward problem.

    ``lipschitz_K`` bounds ``|sigma|``, ``|b|`` and their x-Lipschitz
    constants; ``holder_alpha``/``holder_C`` give the time modulus of
    ``sigma`` (away from any registered time jump); ``psi_K``/``psi_p0``
    parameterize the payoff growth envelope.

    Optional metadata used by the estimators:

    * ``g_prime``: derivative of the payoff, required by the pathwise
      differentiation estimator only.
    * ``f1_x``: x-derivative of ``f1``, required by the pathwise
      estimator when the cost is active.
    * ``f1_is_zero``: lets the estimators and ``solve_fd`` skip the
      running cost entirely.
    * ``g_jumps``: x-locations where ``g`` is discontinuous, used to
      offset finite-difference grids off the jumps.
    * ``sigma_time_jumps``: t-locations where ``sigma`` jumps in time;
      the Hölder modulus is only claimed between consecutive jumps.
    * ``frozen_after``: a time after which the forward coefficients are
      dead: for every ``t > frozen_after``, ``sigma``, ``sigma_x``, ``b``
      and ``b_x`` are identically zero, so simulated paths stop moving.
      The stepping kernel then skips the remaining steps and their
      random draws, and ``solve_fd`` copies the value levels past it
      instead of sweeping them (zero running cost only).  ``None`` (the
      default) claims nothing.
    * ``x_flat``: ``sigma``, ``b`` and ``f2`` do not depend on ``x``, so
      ``sigma_x``, ``b_x`` and ``f2_x`` are identically zero, the tangent
      flow stays 1 and the weight's ``B`` sum stays 0.  The stepping
      kernel steps such a model as any other, so no stream or simulation
      depends on the declaration.  A cost-free estimate (``f1_is_zero``)
      draws the terminal state from the exact law of the discretized
      scheme instead, two normals per path
      (``sde_sim._x_flat_terminal_law``), with ``sigma`` and the drift
      evaluated once per step at the start ``x0``, once per estimator job
      for all of its chunks; ``solve_fd``
      evaluates them once per level, on one node, for all nodes.  Both go
      through ``_x_flat_at``, which calls the coefficients' time functions
      (``_of_t``) when ``sigma``, ``b`` and ``f2`` all carry one, as the
      built-ins do, and otherwise calls the closures on a one-element
      ``x``.  Such an estimate changes its random stream, so it equals the
      undeclared model's estimate in law, not bit for bit; its
      ``Lambda_T``, and so the ``Lambda`` moments, stay bitwise, and no FD
      value changes.  This holds while ``gamma`` and ``Lambda`` are
      finite: ``sigma`` must be finite and obey ``|sigma| <= lipschitz_K``
      (``check_model_invariants`` checks both, and that the sampled values
      are one per time), and an estimate keeps streaming the kernel when
      ``lipschitz_K**2`` times the simulated span could overflow.  A stale
      declaration gives every path of the terminal law the values at
      ``x0``, and every FD node those at one node.  ``False`` (the default)
      claims nothing.
    """

    sigma: Coefficient
    sigma_x: Coefficient
    b: Coefficient
    b_x: Coefficient
    f1: Coefficient
    f2: Coefficient
    f2_x: Coefficient
    g: Payoff
    lipschitz_K: float
    holder_alpha: float
    holder_C: float
    horizon_T: float
    g_prime: Optional[Payoff] = None
    f1_x: Optional[Coefficient] = None
    psi_K: float = 2.0
    psi_p0: float = 1.0
    f1_is_zero: bool = False
    g_jumps: tuple = ()
    sigma_time_jumps: tuple = ()
    frozen_after: Optional[float] = None
    x_flat: bool = False
    name: str = "custom"

    # Not a field: ``perfbench/tracer.py`` alone reads it, looking up every
    # coefficient name it counts, ``f1_y`` among them.
    f1_y = None

    def __post_init__(self) -> None:
        if not (self.lipschitz_K > 0.0):
            raise ValueError(f"lipschitz_K must be positive, got {self.lipschitz_K}")
        if not (0.0 < self.holder_alpha <= 1.0):
            raise ValueError(
                f"holder_alpha must lie in (0, 1], got {self.holder_alpha}"
            )
        if not (self.holder_C > 0.0):
            raise ValueError(f"holder_C must be positive, got {self.holder_C}")
        if not (self.horizon_T > 0.0):
            raise ValueError(f"horizon_T must be positive, got {self.horizon_T}")
        if not (self.psi_K > 0.0 and self.psi_p0 > 0.0):
            raise ValueError("psi_K and psi_p0 must be positive")
        if self.frozen_after is not None and not math.isfinite(self.frozen_after):
            raise ValueError(
                f"frozen_after must be finite or None, got {self.frozen_after}"
            )

    def psi(self, x):
        """Growth envelope ``psi_K * (1 + |x|**psi_p0)``."""
        return self.psi_K * (1.0 + np.abs(x) ** self.psi_p0)


@dataclass(frozen=True)
class ProblemPoint:
    """Initial condition (t0, x0) of the forward diffusion."""

    t0: float
    x0: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.t0) or not math.isfinite(self.x0):
            raise ValueError(f"non-finite problem point ({self.t0}, {self.x0})")
        if self.t0 < 0.0:
            raise ValueError(f"t0 must be nonnegative, got {self.t0}")


# ---------------------------------------------------------------------------
# helper closures shared by the built-in factories
# ---------------------------------------------------------------------------


def _fill(x, value) -> np.ndarray:
    """A fresh float64 array shaped like ``x``, holding ``value``: a scalar,
    or an array that broadcasts to that shape.  The values are copied, not
    computed, so each keeps its bits (``-0.0``, ``inf`` and NaN included),
    and a time function ``_of_t`` that returns the same scalar as a Python
    float gives the closure's bits."""
    out = np.empty_like(x, dtype=float, subok=False)
    out[...] = value
    return out


def _zero2(t, x):
    return _fill(x, 0.0)


_zero2._of_t = lambda t: 0.0


def _const2(c: float) -> Coefficient:
    def coeff(t, x, _c=float(c)):
        return _fill(x, _c)

    coeff._of_t = lambda t, _c=float(c): _c
    return coeff


def fd_derivative(fn: Coefficient, h: float = 1e-5) -> Coefficient:
    """Central finite-difference fallback for a missing x-derivative.

    The step is relative: ``h * (1 + |x|)``.
    """

    def deriv(t, x):
        x = np.asarray(x, dtype=float)
        step = h * (1.0 + np.abs(x))
        return (np.asarray(fn(t, x + step), dtype=float)
                - np.asarray(fn(t, x - step), dtype=float)) / (2.0 * step)

    return deriv


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------


def _make_indicator_zero_vol(T: float = 1.0) -> CoefficientModel:
    """Fully degenerate diffusion: sigma = b = f = 0, digital payoff at 0.

    The solution is constant along every path, so estimators must return
    exact values with zero statistical error.
    """

    def g(x):
        return (np.asarray(x, dtype=float) > 0.0).astype(float)

    return CoefficientModel(
        sigma=_zero2, sigma_x=_zero2, b=_zero2, b_x=_zero2,
        f1=_zero2, f2=_zero2, f2_x=_zero2, g=g,
        lipschitz_K=1.0, holder_alpha=1.0, holder_C=1.0, horizon_T=float(T),
        f1_is_zero=True, g_jumps=(0.0,), frozen_after=0.0, x_flat=True,
        name="indicator_zero_vol",
    )


def _make_example1(alpha: float = 0.8, beta: float = 0.5) -> CoefficientModel:
    """Power payoff with volatility that dies polynomially at t = 1.

    ``sigma(t, x) = (1 - t)**beta`` for t in [0, 1] and 0 afterwards (the
    horizon is 2), ``g(x) = sign(x) * |x|**(1 - alpha)``.  The gradient of
    the value function blows up at x = 0 like ``(1 - t)`` to the power
    ``oracles.example1_ux_exponent``, while the martingale integrand
    behaves like ``(1 - t)**(beta (1 - alpha) - alpha / 2)``; the parameter
    gate below keeps that exponent negative (genuine blow-up) while the
    weight-based estimator stays integrable.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"example1 needs alpha in (0, 1), got {alpha}")
    gate = alpha / (2.0 * (1.0 - alpha))
    if not (0.0 < beta < gate):
        raise ValueError(
            f"example1 needs beta in (0, {gate:.6g}) for alpha={alpha}, got {beta}"
        )

    def sigma(t, x, _b=beta):
        # (1 - min(t, 1))**beta is the [0,1] branch and is exactly 0 after.
        return _fill(x, (1.0 - np.minimum(np.asarray(t, dtype=float), 1.0))
                     ** _b)

    # libm's pow, as numpy's on a 0-d array; the base lies in [0, 1] for
    # every t >= 0, so the power cannot overflow
    sigma._of_t = lambda t, _b=beta: (1.0 - min(t, 1.0)) ** _b

    def g(x, _a=alpha):
        x = np.asarray(x, dtype=float)
        return np.sign(x) * np.abs(x) ** (1.0 - _a)

    return CoefficientModel(
        sigma=sigma, sigma_x=_zero2, b=_zero2, b_x=_zero2,
        f1=_zero2, f2=_zero2, f2_x=_zero2, g=g,
        lipschitz_K=1.0,
        holder_alpha=min(beta, 1.0),
        holder_C=1.0 if beta <= 1.0 else beta,
        horizon_T=2.0,
        f1_is_zero=True, g_jumps=(0.0,), frozen_after=1.0, x_flat=True,
        name="example1",
    )


def _make_bachelier_digital(sigma_bar: float = 1.0, strike: float = 0.0,
                            T: float = 1.0) -> CoefficientModel:
    """Constant-volatility arithmetic diffusion with a digital payoff."""
    sigma_bar = float(sigma_bar)
    if not (sigma_bar > 0.0):
        raise ValueError(f"sigma_bar must be positive, got {sigma_bar}")
    strike = float(strike)

    def g(x, _k=strike):
        return (np.asarray(x, dtype=float) > _k).astype(float)

    return CoefficientModel(
        sigma=_const2(sigma_bar), sigma_x=_zero2, b=_zero2, b_x=_zero2,
        f1=_zero2, f2=_zero2, f2_x=_zero2, g=g,
        lipschitz_K=max(sigma_bar, 1.0), holder_alpha=1.0, holder_C=1.0,
        horizon_T=float(T), f1_is_zero=True, g_jumps=(strike,), x_flat=True,
        name="bachelier_digital",
    )


def _make_tanh_smooth(sigma_bar: float = 1.0, T: float = 1.0) -> CoefficientModel:
    """Constant-volatility diffusion with a smooth bounded payoff.

    Every estimator applies here, which makes this the cross-validation
    model: pathwise differentiation and both weight constructions must
    agree within statistical error.
    """
    sigma_bar = float(sigma_bar)
    if not (sigma_bar > 0.0):
        raise ValueError(f"sigma_bar must be positive, got {sigma_bar}")

    def g(x):
        return np.tanh(np.asarray(x, dtype=float))

    def g_prime(x):
        th = np.tanh(np.asarray(x, dtype=float))
        return 1.0 - th * th

    return CoefficientModel(
        sigma=_const2(sigma_bar), sigma_x=_zero2, b=_zero2, b_x=_zero2,
        f1=_zero2, f2=_zero2, f2_x=_zero2, g=g, g_prime=g_prime,
        lipschitz_K=max(sigma_bar, 1.0), holder_alpha=1.0, holder_C=1.0,
        horizon_T=float(T), f1_is_zero=True, x_flat=True, name="tanh_smooth",
    )


def _make_step_vol(sigma_bar: float = 1.0, t_cut: float = 0.5,
                   strike: float = 0.0, T: float = 1.0) -> CoefficientModel:
    """Volatility that switches off at ``t_cut``; digital payoff.

    The time jump at ``t_cut`` is registered so the Hölder modulus is only
    asserted between jumps.
    """
    sigma_bar = float(sigma_bar)
    t_cut = float(t_cut)
    T = float(T)
    if not (sigma_bar > 0.0):
        raise ValueError(f"sigma_bar must be positive, got {sigma_bar}")
    if not (0.0 < t_cut < T):
        raise ValueError(f"t_cut must lie in (0, T={T}), got {t_cut}")
    strike = float(strike)

    def sigma(t, x, _s=sigma_bar, _c=t_cut):
        # selected, not multiplied: inf * False would be NaN, not 0.0
        return _fill(x, np.where(t <= _c, _s, 0.0))

    sigma._of_t = lambda t, _s=sigma_bar, _c=t_cut: _s if t <= _c else 0.0

    def g(x, _k=strike):
        return (np.asarray(x, dtype=float) > _k).astype(float)

    return CoefficientModel(
        sigma=sigma, sigma_x=_zero2, b=_zero2, b_x=_zero2,
        f1=_zero2, f2=_zero2, f2_x=_zero2, g=g,
        lipschitz_K=max(sigma_bar, 1.0), holder_alpha=1.0, holder_C=1.0,
        horizon_T=T, f1_is_zero=True, g_jumps=(strike,),
        sigma_time_jumps=(t_cut,), frozen_after=t_cut, x_flat=True,
        name="step_vol",
    )


def _make_girsanov_const(f2: float = 0.5, base: str = "step_vol",
                         **base_params) -> CoefficientModel:
    """Wrap a base model with a constant linear-in-z cost coefficient.

    The cost is ``f = f2 * z``; absorbing it into the drift must leave
    every degeneracy decision unchanged, which is what the equivalence
    experiment verifies.
    """
    f2 = float(f2)
    if base == "girsanov_const":
        raise ValueError("girsanov_const cannot wrap itself")
    base_model = builtin_model(base, **base_params)
    return replace(
        base_model,
        f2=_const2(f2),
        f2_x=_zero2,
        lipschitz_K=base_model.lipschitz_K * (1.0 + abs(f2)),
        name=f"girsanov_const[{base_model.name}]",
    )


BUILTIN_MODELS = {
    "indicator_zero_vol": (
        _make_indicator_zero_vol,
        "params: T (default 1.0). sigma = b = f = 0, digital payoff at 0.",
    ),
    "example1": (
        _make_example1,
        "params: alpha in (0,1), beta in (0, alpha/(2(1-alpha))). Horizon 2; "
        "volatility (1-t)^beta dies at t = 1; payoff sign(x)|x|^(1-alpha).",
    ),
    "bachelier_digital": (
        _make_bachelier_digital,
        "params: sigma_bar > 0 (default 1.0), strike (default 0.0), T (default 1.0).",
    ),
    "tanh_smooth": (
        _make_tanh_smooth,
        "params: sigma_bar > 0 (default 1.0), T (default 1.0). Smooth payoff tanh(x).",
    ),
    "step_vol": (
        _make_step_vol,
        "params: sigma_bar > 0, t_cut in (0, T), strike, T (defaults 1.0, 0.5, 0.0, 1.0).",
    ),
    "girsanov_const": (
        _make_girsanov_const,
        "params: f2 (default 0.5), base (default 'step_vol'), plus the base params.",
    ),
}


def builtin_model_names() -> list:
    return sorted(BUILTIN_MODELS)


def builtin_model(name: str, **params) -> CoefficientModel:
    """Construct one of the registered models by name.

    Raises ValueError for an unknown name, an unknown parameter, or a
    parameter outside its admissible range.
    """
    try:
        factory, _doc = BUILTIN_MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; available: {', '.join(builtin_model_names())}"
        ) from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for model {name!r}: {exc}") from None


# ---------------------------------------------------------------------------
# drift absorption and regularity helpers
# ---------------------------------------------------------------------------


def _one_value(values) -> float:
    """A coefficient's value on a one-element ``x`` as a Python float, whose
    arithmetic rounds as numpy's float64 ops do."""
    return np.asarray(values, dtype=float).item()


def _varies(values) -> bool:
    """Whether a coefficient's values hold more than one float64, compared
    by their bytes, so that ``-0.0`` and ``+0.0`` differ."""
    bits = np.ascontiguousarray(values, dtype=float).reshape(-1).view(np.uint64)
    return bool(np.any(bits != bits[0]))


def _absorbed_drift(model: CoefficientModel, t, x, sig):
    """``b(t, x) + f2(t, x) * sig``, the drift with the linear-in-z cost
    absorbed, given ``sig = sigma(t, x)`` already evaluated."""
    return model.b(t, x) + model.f2(t, x) * sig


def _absorbed_drift_x(model: CoefficientModel, t, x, sig, sig_x):
    """``b_x + f2_x * sig + f2 * sig_x``, the x-derivative of the absorbed
    drift, given ``sig = sigma(t, x)`` and ``sig_x = sigma_x(t, x)``
    already evaluated."""
    return (model.b_x(t, x) + model.f2_x(t, x) * sig
            + model.f2(t, x) * sig_x)


def _x_flat_at(model: CoefficientModel, x: np.ndarray):
    """``at(t) -> (sigma, drift)``: an x-flat model's ``sigma`` and drift at
    time ``t`` as Python floats, the drift ``b + f2 * sigma`` with the
    linear-in-z cost absorbed (``_absorbed_drift``); ``at(t, drift=False)``
    gives ``(sigma, None)`` and reads ``sigma`` alone.

    When ``sigma``, ``b`` and ``f2`` all carry a time function ``_of_t``,
    as every built-in x-flat coefficient does, ``at`` calls those alone and
    forms the drift in Python floats, which round as numpy's float64 ops
    do.  Otherwise it calls the closures on ``x``, a one-element array, as
    ``_absorbed_drift`` does, in the same order.  Under a valid ``x_flat``
    declaration both give the values at any other ``x``, bit for bit."""
    sigma = model.sigma
    of_t = [getattr(fn, "_of_t", None) for fn in (sigma, model.b, model.f2)]
    if None in of_t:
        def at(t, drift=True):
            raw = sigma(t, x)
            if not drift:
                return _one_value(raw), None
            return _one_value(raw), _one_value(
                _absorbed_drift(model, t, x, raw))
    else:
        sigma_of, b_of, f2_of = of_t

        def at(t, drift=True):
            sig = sigma_of(t)
            return sig, b_of(t) + f2_of(t) * sig if drift else None
    return at


def transformed_drift(model: CoefficientModel) -> CoefficientModel:
    """Absorb the linear-in-z cost into the drift.

    Returns a model with drift ``b + f2 * sigma`` (and the matching
    x-derivative) and ``f2 == 0``.  Applying it to a model whose ``f2``
    already vanishes reproduces the same drift values, so the operation
    is idempotent in value.  ``frozen_after`` carries over: the new drift
    vanishes wherever ``b`` and ``sigma`` do.  So does ``x_flat``: the new
    drift's x-derivative ``b_x + f2_x * sigma + f2 * sigma_x`` is zero
    when all three declared derivatives are.
    """
    sigma, sigma_x = model.sigma, model.sigma_x

    def b_tilde(t, x):
        return _absorbed_drift(model, t, x, sigma(t, x))

    def b_tilde_x(t, x):
        return _absorbed_drift_x(model, t, x, sigma(t, x), sigma_x(t, x))

    return replace(model, b=b_tilde, b_x=b_tilde_x, f2=_zero2, f2_x=_zero2)


def check_model_invariants(model: CoefficientModel, n_t: int = 50, n_x: int = 50,
                           x_lo: float = -5.0, x_hi: float = 5.0) -> None:
    """Verify declared constants against sampled coefficient values.

    Checks, on an ``n_t x n_x`` grid over ``[0, T] x [x_lo, x_hi]``:
    finite ``sigma`` and ``b``; bounds ``|sigma|, |b| <= lipschitz_K``;
    the x-derivative closures against central differences (step 1e-5,
    relative); the time-Hölder modulus of sigma on sampled pairs not
    straddling a registered jump;
    exact zeros of ``sigma``, ``sigma_x``, ``b`` and ``b_x`` at sampled
    ``t > frozen_after``; when ``x_flat`` is declared, exact zeros of
    ``sigma_x``, ``b_x`` and ``f2_x`` everywhere, and one value of each of
    ``sigma``, ``b`` and ``f2`` across the sampled ``x`` at each sampled
    ``t`` (the same float64 bytes, so ``-0.0`` differs from ``+0.0``); and
    the payoff growth bound
    ``|g| <= psi``.
    Raises ``ModelInvariantError`` on the first violation.
    """
    ts = np.linspace(0.0, model.horizon_T, n_t)
    xs = np.linspace(x_lo, x_hi, n_x)
    K = model.lipschitz_K
    slack = 1e-9 * (1.0 + K)

    for t in ts:
        sv = np.asarray(model.sigma(float(t), xs), dtype=float)
        bv = np.asarray(model.b(float(t), xs), dtype=float)
        for vals, label in ((sv, "sigma"), (bv, "b")):
            if not np.all(np.isfinite(vals)):
                raise ModelInvariantError(
                    f"{model.name}: {label} is not finite at t={t}")
        if np.any(np.abs(sv) > K + slack):
            raise ModelInvariantError(
                f"{model.name}: |sigma| exceeds lipschitz_K={K} at t={t}"
            )
        if np.any(np.abs(bv) > K + slack):
            raise ModelInvariantError(
                f"{model.name}: |b| exceeds lipschitz_K={K} at t={t}"
            )

    if model.frozen_after is not None:
        dead = [(model.sigma, "sigma"), (model.sigma_x, "sigma_x"),
                (model.b, "b"), (model.b_x, "b_x")]
        for t in ts[ts > model.frozen_after]:
            for fn, label in dead:
                if np.any(np.asarray(fn(float(t), xs), dtype=float) != 0.0):
                    raise ModelInvariantError(
                        f"{model.name}: {label} is not zero at t={t} > "
                        f"frozen_after={model.frozen_after}"
                    )

    if model.x_flat:
        flat = [(model.sigma_x, "sigma_x"), (model.b_x, "b_x"),
                (model.f2_x, "f2_x")]
        constant = [(model.sigma, "sigma"), (model.b, "b"), (model.f2, "f2")]
        for t in ts:
            for fn, label in flat:
                if np.any(np.asarray(fn(float(t), xs), dtype=float) != 0.0):
                    raise ModelInvariantError(
                        f"{model.name}: {label} is not zero at t={t} but the "
                        f"model declares x_flat"
                    )
            for fn, label in constant:
                if _varies(fn(float(t), xs)):
                    raise ModelInvariantError(
                        f"{model.name}: {label} varies in x at t={t} but the "
                        f"model declares x_flat"
                    )

    # derivative closures vs central differences
    h = 1e-5
    pairs = [(model.sigma, model.sigma_x, "sigma_x"),
             (model.b, model.b_x, "b_x"),
             (model.f2, model.f2_x, "f2_x")]
    for fn, dfn, label in pairs:
        fd = fd_derivative(fn, h=h)
        for t in ts[:: max(1, n_t // 10)]:
            approx = np.asarray(fd(float(t), xs), dtype=float)
            exact = np.asarray(dfn(float(t), xs), dtype=float)
            tol = 10.0 * h * (1.0 + np.abs(exact))
            if np.any(np.abs(approx - exact) > tol):
                raise ModelInvariantError(
                    f"{model.name}: {label} disagrees with finite differences at t={t}"
                )

    # time-Hölder modulus of sigma, skipping pairs that straddle a jump
    jumps = np.asarray(model.sigma_time_jumps, dtype=float)
    for i in range(n_t):
        for j in range(i + 1, n_t):
            t1, t2 = float(ts[i]), float(ts[j])
            if jumps.size and np.any((jumps > t1) & (jumps <= t2)):
                continue
            bound = model.holder_C * (t2 - t1) ** model.holder_alpha
            diff = np.max(np.abs(
                np.asarray(model.sigma(t1, xs), dtype=float)
                - np.asarray(model.sigma(t2, xs), dtype=float)))
            if diff > bound * (1.0 + 1e-9) + 1e-12:
                raise ModelInvariantError(
                    f"{model.name}: sigma time modulus violated on ({t1}, {t2}): "
                    f"{diff:.3e} > {bound:.3e}"
                )

    gv = np.asarray(model.g(xs), dtype=float)
    if np.any(np.abs(gv) > model.psi(xs) + 1e-12):
        raise ModelInvariantError(f"{model.name}: |g| exceeds the growth envelope psi")

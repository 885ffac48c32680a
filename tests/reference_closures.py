"""Frozen copy of the built-in models' coefficient closures as they stood
before they shared one fill rule (``model._fill``).

Not collected by pytest (no ``test_`` prefix).  ``test_model.py`` checks
that every coefficient of every built-in model returns the bytes, shape
and dtype computed here.  The FD and Monte Carlo frozen-reference tests
call the model's own closures on both sides, so they cannot see a change
in a closure's bits; this copy can.  The bodies below are kept as they
were; ``reference_coefficients`` maps a model's name and parameters to
them the way the factories in ``degenbsde.model`` do.
"""

from __future__ import annotations

import numpy as np


def _zero2(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _zero3(t, x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def _const2(c: float):
    def coeff(t, x, _c=float(c)):
        return np.full_like(np.asarray(x, dtype=float), _c)

    return coeff


def _example1_sigma(beta: float):
    def sigma(t, x, _b=float(beta)):
        # (1 - min(t, 1))**beta is the [0,1] branch and is exactly 0 after.
        tt = np.minimum(np.asarray(t, dtype=float), 1.0)
        return (1.0 - tt) ** _b * np.ones_like(np.asarray(x, dtype=float))

    return sigma


def _step_vol_sigma(sigma_bar: float, t_cut: float):
    def sigma(t, x, _s=float(sigma_bar), _c=float(t_cut)):
        live = np.asarray(t, dtype=float) <= _c
        return np.where(live, _s, 0.0) * np.ones_like(np.asarray(x, dtype=float))

    return sigma


def reference_coefficients(name: str, **params) -> dict:
    """The reference ``sigma``, ``sigma_x``, ``b``, ``b_x``, ``f1``, ``f2``
    and ``f2_x`` of ``builtin_model(name, **params)``.  Every parameter
    the coefficients read must be given: ``beta`` for ``example1``,
    ``sigma_bar`` for the constant and step volatilities, ``t_cut`` for
    ``step_vol``, and ``f2`` and ``base`` for ``girsanov_const``."""
    coeffs = {"sigma": _zero2, "sigma_x": _zero2, "b": _zero2,
              "b_x": _zero2, "f1": _zero3, "f2": _zero2, "f2_x": _zero2}
    if name == "girsanov_const":
        f2 = params.pop("f2")
        coeffs = reference_coefficients(params.pop("base"), **params)
        coeffs["f2"] = _const2(f2)
    elif name == "example1":
        coeffs["sigma"] = _example1_sigma(params["beta"])
    elif name in ("bachelier_digital", "tanh_smooth"):
        coeffs["sigma"] = _const2(params["sigma_bar"])
    elif name == "step_vol":
        coeffs["sigma"] = _step_vol_sigma(params["sigma_bar"], params["t_cut"])
    elif name != "indicator_zero_vol":
        raise ValueError(f"no reference closures for {name!r}")
    return coeffs

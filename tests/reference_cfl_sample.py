"""Frozen copy of the FD stability sample as it stood when it evaluated and
checked one level at a time, before levels were sampled in blocks.

Not collected by pytest (no ``test_`` prefix).  ``test_pde_fd.py`` checks
that ``cfl_check`` returns what ``reference_coefficient_samples`` computes
here, or raises the same error with the same message.  The loop below is
kept as it was, without the memo; the two helpers it called are inlined.
"""

from __future__ import annotations

import math

import numpy as np

_MAX_T_SAMPLES = 1025


def _absorbed_drift(model, t, x, sig):
    return model.b(t, x) + model.f2(t, x) * sig


def _varies(values) -> bool:
    bits = np.ascontiguousarray(values, dtype=float).reshape(-1).view(np.uint64)
    return bool(np.any(bits != bits[0]))


def reference_coefficient_samples(model, grid):
    """``(max sigma**2, max |drift|)`` over the sampled levels, or the
    ValueError of the first level that fails a check."""
    n_levels = min(grid.n_t + 1, _MAX_T_SAMPLES)
    xs = grid.xs()
    ts = np.linspace(grid.t_min, grid.t_max, n_levels)
    extra = []
    for q in model.sigma_time_jumps:
        for cand in (q, np.nextafter(q, grid.t_min), np.nextafter(q, grid.t_max)):
            if grid.t_min <= cand <= grid.t_max:
                extra.append(float(cand))
    if extra:
        ts = np.array(sorted(set(ts.tolist()).union(extra)))
    max_sig_sq = 0.0
    max_drift = 0.0
    for t in ts:
        t = float(t)
        raw = model.sigma(t, xs)
        sig = np.asarray(raw, dtype=float)
        drf = np.asarray(_absorbed_drift(model, t, xs, raw), dtype=float)
        sig_max = float(np.max(np.abs(sig)))
        drf_max = float(np.max(np.abs(drf)))
        for name, value in (("sigma", sig_max),
                            ("drift b + f2 * sigma", drf_max)):
            if not math.isfinite(value):
                raise ValueError(f"{name} is not finite at t={t} on "
                                 f"[{grid.x_min}, {grid.x_max}]")
        if model.x_flat:
            for name, values in (("sigma", sig),
                                 ("drift b + f2 * sigma", drf)):
                if _varies(values):
                    raise ValueError(
                        f"{name} varies in x at t={t} on [{grid.x_min}, "
                        f"{grid.x_max}], but {model.name} declares x_flat")
        max_sig_sq = max(max_sig_sq, sig_max * sig_max)
        max_drift = max(max_drift, drf_max)
    return max_sig_sq, max_drift

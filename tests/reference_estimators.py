"""Frozen copy of the four streaming estimators as they stood before they
were folded into one simulation-to-estimate driver, and of
``reconstruct_Z`` as it stood before it became the one-row case of the
batch ``Z`` rule.

Not collected by pytest (no ``test_`` prefix).  ``test_estimator_driver.py``
checks that every public estimator still returns an ``Estimate`` equal to
the one computed here, field for field, or raises the same exception type;
``test_estimators.py`` checks that every row of the batch ``Z`` equals this
``reconstruct_Z``'s output bit for bit.
The bodies below are kept as they were, one loop per estimator and one
scalar provider call per node, except that the running cost is ``f1(t, x)``
with no value provider; only the imports are rewritten to reach into
the package.  ``CHUNK_SIZE`` is this
module's own, so a test sets it next to the package's.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

from degenbsde.degeneracy import DEFAULT_EPS_SIGMA, gamma_report, locate_tau
from degenbsde.estimators import (Estimate, EstimationError,
                                  OutsideGamma0Error, ValueProvider)
from degenbsde.model import CoefficientModel, ProblemPoint, transformed_drift
from degenbsde.sde_sim import PathBundle, TimeGrid, path_stream
from degenbsde.weights import default_lambda_floor, degenerate_weight_values

CHUNK_SIZE = 8192
UNRELIABLE_FLOOR_FRACTION = 0.05


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


def estimate_u(model: CoefficientModel, point: ProblemPoint, grid: TimeGrid,
               seed: int, n_paths: int) -> Estimate:
    n_paths = _check_n_paths(n_paths)
    mt = transformed_drift(model)
    need_driver = not model.f1_is_zero
    dt = grid.dt

    parts: list = []
    n_excluded = 0
    for idx in _chunk_indices(n_paths):
        driver = 0.0
        last = None
        for st in path_stream(mt, point, grid, seed, idx):
            if need_driver and st.dW is not None:
                driver = driver + np.asarray(
                    model.f1(st.t, st.X), dtype=float) * dt
            last = st
        vals = np.asarray(model.g(last.X), dtype=float) + driver
        vals = np.broadcast_to(vals, last.X.shape)
        finite = np.isfinite(vals)
        n_excluded += int(np.count_nonzero(~finite))
        parts.append(np.asarray(vals[finite], dtype=float))
    return _finalize(parts, n_excluded, n_paths)


def estimate_ux_pathwise(model: CoefficientModel, point: ProblemPoint,
                         grid: TimeGrid, seed: int, n_paths: int) -> Estimate:
    n_paths = _check_n_paths(n_paths)
    if model.g_prime is None:
        raise ValueError("pathwise gradient estimation needs model.g_prime")
    need_driver = not model.f1_is_zero
    if need_driver and model.f1_x is None:
        raise ValueError("pathwise gradient estimation needs model.f1_x")
    mt = transformed_drift(model)
    dt = grid.dt

    parts: list = []
    n_excluded = 0
    for idx in _chunk_indices(n_paths):
        acc = 0.0
        last = None
        for st in path_stream(mt, point, grid, seed, idx):
            if need_driver and st.dW is not None:
                term = np.asarray(model.f1_x(st.t, st.X), dtype=float) * st.gradX
                acc = acc + term * dt
            last = st
        vals = np.asarray(model.g_prime(last.X), dtype=float) * last.gradX + acc
        finite = np.isfinite(vals)
        n_excluded += int(np.count_nonzero(~finite))
        parts.append(np.asarray(vals[finite], dtype=float))
    return _finalize(parts, n_excluded, n_paths)


def estimate_ux_weighted(model: CoefficientModel, point: ProblemPoint,
                         grid: TimeGrid, seed: int, n_paths: int,
                         weight_kind: str = "degenerate",
                         eps_sigma: float = DEFAULT_EPS_SIGMA,
                         lambda_floor: Optional[float] = None,
                         sigma_floor: Optional[float] = None) -> Estimate:
    if weight_kind not in ("degenerate", "nondegenerate"):
        raise ValueError(f"unknown weight_kind {weight_kind!r}")
    n_paths = _check_n_paths(n_paths)
    report = gamma_report(model, point, eps_sigma=eps_sigma)
    if not report.in_Gamma0:
        raise OutsideGamma0Error(
            f"({point.t0}, {point.x0}) is outside the alive set: the drift "
            f"characteristic meets no volatility above {eps_sigma} before "
            f"the horizon"
        )
    mt = transformed_drift(model)
    need_driver = not model.f1_is_zero
    dt = grid.dt
    if lambda_floor is None:
        lambda_floor = default_lambda_floor(grid, eps_sigma)
    if sigma_floor is None:
        sigma_floor = eps_sigma
    degenerate = weight_kind == "degenerate"

    parts: list = []
    n_excluded = 0
    for idx in _chunk_indices(n_paths):
        driver = 0.0
        snd = np.zeros(idx.size)
        ming = np.full(idx.size, np.inf)
        tacc = 0.0
        last = None
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for st in path_stream(mt, point, grid, seed, idx):
                if need_driver and st.k >= 1:
                    # right-endpoint quadrature: the weight is undefined at
                    # the left endpoint where no volatility has accumulated
                    if degenerate:
                        w_k, fl_k = degenerate_weight_values(
                            st.Lambda, st.S1, st.B, lambda_floor)
                    else:
                        fl_k = ~(ming >= sigma_floor)
                        w_k = np.where(fl_k, 0.0, snd / tacc)
                    driver = driver + np.asarray(
                        model.f1(st.t, st.X), dtype=float) * w_k * dt
                if st.dW is not None and not degenerate:
                    ming = np.minimum(ming, np.abs(st.gamma))
                    snd = snd + (st.gradX / st.gamma) * st.dW
                    tacc = tacc + dt
                last = st
            if degenerate:
                w_T, floored = degenerate_weight_values(
                    last.Lambda, last.S1, last.B, lambda_floor)
            else:
                floored = ~(ming >= sigma_floor)
                w_T = np.where(floored, 0.0, snd / tacc)
            vals = np.asarray(model.g(last.X), dtype=float) * w_T + driver
        finite = np.isfinite(vals)
        keep = finite & ~floored
        n_excluded += int(np.count_nonzero(~keep))
        parts.append(np.asarray(vals[keep], dtype=float))
    return _finalize(parts, n_excluded, n_paths)


def empirical_lambda_moment(model: CoefficientModel, point: ProblemPoint,
                            grid: TimeGrid, seed: int, n_paths: int, p: float,
                            eps_sigma: float = DEFAULT_EPS_SIGMA,
                            lambda_floor: Optional[float] = None) -> Estimate:
    if not (p > 0.0):
        raise ValueError(f"p must be positive, got {p}")
    n_paths = _check_n_paths(n_paths)
    report = gamma_report(model, point, eps_sigma=eps_sigma)
    if not report.in_Gamma0:
        raise OutsideGamma0Error(
            f"({point.t0}, {point.x0}) is outside the alive set"
        )
    if lambda_floor is None:
        lambda_floor = default_lambda_floor(grid, eps_sigma)
    mt = transformed_drift(model)

    parts: list = []
    n_excluded = 0
    for idx in _chunk_indices(n_paths):
        last = None
        for st in path_stream(mt, point, grid, seed, idx):
            last = st
        lam = last.Lambda
        floored = ~(lam >= lambda_floor)
        with np.errstate(over="ignore"):
            vals = np.where(floored, 1.0, lam) ** (-p)
        keep = ~floored & np.isfinite(vals)
        n_excluded += int(np.count_nonzero(~keep))
        parts.append(np.asarray(vals[keep], dtype=float))
    return _finalize(parts, n_excluded, n_paths)


def reconstruct_Z(model: CoefficientModel, path: PathBundle,
                  provider: ValueProvider,
                  eps_sigma: float = DEFAULT_EPS_SIGMA,
                  tau: Optional[float] = None) -> np.ndarray:
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

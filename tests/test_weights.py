import numpy as np
import pytest

from degenbsde import (
    ProblemPoint,
    TimeGrid,
    builtin_model,
    default_lambda_floor,
    degenerate_weight_values,
    simulate_path,
)
from degenbsde.weights import nondegenerate_weight_values


def _const_vol_path(sigma_bar, n_steps=64, seed=3, idx=0):
    m = builtin_model("bachelier_digital", sigma_bar=sigma_bar)
    grid = TimeGrid(0.0, 1.0, n_steps)
    return simulate_path(m, ProblemPoint(0.0, 0.0), grid, seed, idx), grid


def _degenerate_at(path, r):
    value, floored = degenerate_weight_values(
        path.Lambda[r], path.S1[r], path.B[r], default_lambda_floor(path.grid))
    return float(value), bool(floored)


def _nondegenerate_at(path, r):
    # the classical accumulators over the first r steps, summed in order
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (path.gradX[:r] / path.gamma[:r]) * path.dW[:r]
        snd = np.add.accumulate(terms)[-1]
        elapsed = np.add.accumulate(np.full(r, path.grid.dt))[-1]
        ming = np.min(np.abs(path.gamma[:r]))
        value, floored = nondegenerate_weight_values(snd, elapsed, ming, 1e-8)
    return float(value), bool(floored)


def test_degenerate_weight_constant_vol_closed_form():
    # with sigma constant and flat tangent flow the weight is W_r/(sigma r)
    sigma_bar = 1.7
    path, grid = _const_vol_path(sigma_bar)
    for r in (5, 32, 64):
        value, floored = _degenerate_at(path, r)
        assert not floored
        wr = float(np.sum(path.dW[:r]))
        r_time = r * grid.dt
        assert value == pytest.approx(wr / (sigma_bar * r_time), rel=1e-12)
        assert path.Lambda[r] == pytest.approx(sigma_bar ** 2 * r_time, rel=1e-12)


def test_weights_coincide_bitwise_at_unit_vol():
    path, _ = _const_vol_path(1.0)
    for r in (1, 17, 64):
        dg_value, dg_floored = _degenerate_at(path, r)
        nd_value, nd_floored = _nondegenerate_at(path, r)
        assert dg_value == nd_value  # bitwise, not approx
        assert not dg_floored and not nd_floored


def test_weights_coincide_bitwise_at_power_of_two_vol():
    # scaling sigma by powers of two keeps every float operation exact,
    # so the coincidence survives
    for sigma_bar in (0.5, 2.0, 4.0):
        path, _ = _const_vol_path(sigma_bar)
        dg_value, _ = _degenerate_at(path, path.grid.n_steps)
        nd_value, _ = _nondegenerate_at(path, path.grid.n_steps)
        assert dg_value == nd_value


def test_weights_agree_numerically_at_generic_vol():
    path, _ = _const_vol_path(1.3)
    dg_value, _ = _degenerate_at(path, 64)
    nd_value, _ = _nondegenerate_at(path, 64)
    assert dg_value == pytest.approx(nd_value, rel=1e-12)


def test_degenerate_weight_survives_dead_start():
    # volatility switches ON at t = 0.5: classical weight floored, the
    # occupation-normalized one is fine at the terminal node
    from dataclasses import replace

    base = builtin_model("bachelier_digital")
    def sig(t, x):
        return np.where(np.asarray(t) >= 0.5, 1.0, 0.0) \
            * np.ones_like(np.asarray(x, dtype=float))
    m = replace(base, sigma=sig, sigma_time_jumps=(0.5,), name="late_vol")
    grid = TimeGrid(0.0, 1.0, 64)
    path = simulate_path(m, ProblemPoint(0.0, 0.0), grid, 7, 0)
    nd_value, nd_floored = _nondegenerate_at(path, 64)
    assert nd_floored and nd_value == 0.0
    _, dg_floored = _degenerate_at(path, 64)
    assert not dg_floored
    # occupation mass only over the live half
    assert path.Lambda[64] == pytest.approx(0.5, rel=1e-12)


def test_degenerate_weight_floors_before_any_mass():
    m = builtin_model("step_vol", t_cut=0.5)
    grid = TimeGrid(0.75, 1.0, 16)  # entirely in the dead window
    path = simulate_path(m, ProblemPoint(0.75, 0.0), grid, 1, 0)
    value, floored = _degenerate_at(path, 16)
    assert floored and value == 0.0
    assert path.Lambda[16] == 0.0


def test_floor_defaults():
    grid = TimeGrid(0.0, 1.0, 100)
    assert default_lambda_floor(grid, 1e-8) == pytest.approx(0.01 * 1e-16)

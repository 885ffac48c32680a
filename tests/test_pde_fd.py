import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from degenbsde import (
    Example1Params,
    PdeGrid,
    PdeSolution,
    builtin_model,
    builtin_model_names,
    cfl_check,
    example1_u,
    make_grid,
    solve_fd,
)
from degenbsde.model import CoefficientModel, transformed_drift
from degenbsde.pde_fd import MAX_STORED_LEVELS, _nearest_level
from reference_cfl_sample import reference_coefficient_samples


def _zero2(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _transport_model(speed=1.0, T=1.0) -> CoefficientModel:
    def b(t, x):
        return speed * np.ones_like(np.asarray(x, dtype=float))

    def g(x):
        return np.tanh(np.asarray(x, dtype=float))

    return CoefficientModel(
        sigma=_zero2, sigma_x=_zero2, b=b, b_x=_zero2,
        f1=_zero2, f2=_zero2, f2_x=_zero2, g=g,
        lipschitz_K=max(abs(speed), 1.0), holder_alpha=1.0, holder_C=1.0,
        horizon_T=T, f1_is_zero=True,
    )


# ---------------------------------------------------------------------------
# stability accounting
# ---------------------------------------------------------------------------


def test_cfl_limit_closed_form_constant_volatility():
    model = builtin_model("bachelier_digital")
    grid = PdeGrid(-2.0, 2.0, 41, 0.0, 1.0, 500)
    rep = cfl_check(model, grid)
    dx = 4.0 / 40
    assert rep.dx == pytest.approx(dx, rel=1e-15)
    assert rep.max_sigma_sq == pytest.approx(1.0, rel=1e-15)
    assert rep.max_abs_drift == 0.0
    assert rep.dt_limit == pytest.approx(0.9 * dx * dx, rel=1e-12)
    assert rep.satisfied == (grid.dt <= rep.dt_limit)


def test_cfl_limit_includes_drift_term():
    model = _transport_model(speed=2.0)
    base = builtin_model("tanh_smooth")
    combined = CoefficientModel(
        sigma=base.sigma, sigma_x=_zero2, b=model.b, b_x=_zero2,
        f1=_zero2, f2=_zero2, f2_x=_zero2, g=base.g,
        lipschitz_K=2.0, holder_alpha=1.0, holder_C=1.0, horizon_T=1.0,
        f1_is_zero=True,
    )
    grid = PdeGrid(-1.0, 1.0, 21, 0.0, 1.0, 100)
    rep = cfl_check(combined, grid)
    dx = 0.1
    assert rep.max_abs_drift == pytest.approx(2.0, rel=1e-15)
    assert rep.dt_limit == pytest.approx(0.9 * dx * dx / (1.0 + 2.0 * dx),
                                         rel=1e-12)


def test_cfl_absorbs_z_cost_into_drift():
    model = builtin_model("girsanov_const", f2=0.5)
    grid = PdeGrid(-1.0, 1.0, 21, 0.0, 1.0, 100)
    rep = cfl_check(model, grid)
    assert rep.max_abs_drift == pytest.approx(0.5, rel=1e-14)


def test_cfl_degenerate_model_is_unconditionally_stable():
    model = builtin_model("indicator_zero_vol")
    grid = PdeGrid(-1.0, 1.0, 11, 0.0, 1.0, 1)
    rep = cfl_check(model, grid)
    assert math.isinf(rep.dt_limit)
    assert rep.satisfied


def test_cfl_samples_volatility_jump_instants():
    # a coarse time sampling would miss a vol spike confined to one level;
    # the registered jump instants are probed explicitly
    base = builtin_model("step_vol", t_cut=0.3)
    grid = PdeGrid(-1.0, 1.0, 21, 0.0, 1.0, 2)
    rep = cfl_check(base, grid)
    assert rep.max_sigma_sq == pytest.approx(1.0, rel=1e-14)


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


def test_make_grid_offsets_payoff_jump_to_midpoint():
    model = builtin_model("bachelier_digital")
    grid = make_grid(model, -2.0, 2.0, 101)
    xs = grid.xs()
    assert np.min(np.abs(xs)) == pytest.approx(0.5 * grid.dx, rel=1e-9)
    assert cfl_check(model, grid).satisfied


def test_make_grid_keeps_midpoint_lattice_untouched():
    model = builtin_model("bachelier_digital")
    # 100 nodes on [-2, 2]: the jump at 0 is already midway between nodes
    grid = make_grid(model, -2.0, 2.0, 100)
    assert grid.x_min == -2.0 and grid.x_max == 2.0


def test_make_grid_lands_volatility_jump_on_level():
    model = builtin_model("step_vol", t_cut=0.5)
    grid = make_grid(model, -2.0, 2.0, 101)
    assert grid.n_t % 2 == 0
    times = grid.times()
    assert np.min(np.abs(times - 0.5)) < 1e-12


def test_make_grid_step_count_survives_rounding():
    # span / limit is exactly 320.0 in floating point, yet 2 / 320 exceeds
    # the limit by one ulp; the grid must still pass solve_fd's check
    model = builtin_model("example1")
    grid = make_grid(model, -1.0, 0.0, 13)
    assert cfl_check(model, grid).satisfied
    solve_fd(model, grid)


def _bump_vol(amp):
    # bachelier_digital with sigma = 1 + amp * sin(pi t), whose peak at
    # t = 1/2 lies strictly inside the time span
    def sigma(t, x):
        return (1.0 + amp * math.sin(math.pi * t)) * np.ones_like(
            np.asarray(x, dtype=float))

    return replace(builtin_model("bachelier_digital"), sigma=sigma,
                   lipschitz_K=1.0 + amp, name="bump_vol")


@settings(max_examples=40, deadline=None)
@given(amp=st.floats(0.0, 3.0), t_min=st.floats(0.0, 0.9),
       n_x=st.integers(3, 61))
@example(amp=2.0, t_min=0.0, n_x=201)
def test_solve_accepts_every_grid_make_grid_returns(amp, t_min, n_x):
    # make_grid samples the levels solve_fd's check samples, so a
    # volatility peak between the ends of the span cannot slip through
    model = _bump_vol(amp)
    grid = make_grid(model, -3.0, 3.0, n_x, t_min=t_min)
    solve_fd(model, grid)


@pytest.mark.parametrize("sigma_bar", [1e160, 1e154])
def test_make_grid_names_a_volatility_that_leaves_no_step_count(sigma_bar):
    # sigma^2 overflows (limit 0) or dwarfs dx^2 (span / limit overflows)
    model = builtin_model("bachelier_digital", sigma_bar=sigma_bar)
    with pytest.raises(ValueError, match="no finite step count"):
        make_grid(model, -4.0, 4.0, 401)


def test_make_grid_refuses_a_step_count_beyond_int64():
    # the limit 3.6e-304 is positive and span / limit finite, but it asks
    # for about 2.8e303 steps
    model = builtin_model("bachelier_digital", sigma_bar=1e150)
    with pytest.raises(ValueError, match="no int64 step count"):
        make_grid(model, -4.0, 4.0, 401)


def _nan_on_the_middle(fn):
    def patched(t, x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) < 0.5, np.nan, fn(t, x))
    return patched


@pytest.mark.parametrize("field, name", [("sigma", "sigma"),
                                         ("b", "drift b \\+ f2 \\* sigma")])
def test_non_finite_coefficient_is_named(field, name):
    # a NaN used to drop out of the running sup: make_grid then gave one
    # step and solve_fd NaN levels
    base = builtin_model("bachelier_digital")
    model = replace(base, **{field: _nan_on_the_middle(getattr(base, field))})
    grid = PdeGrid(-2.0, 2.0, 41, 0.0, 1.0, 10)
    match = f"{name} is not finite at t="
    with pytest.raises(ValueError, match=match):
        cfl_check(model, grid)
    with pytest.raises(ValueError, match=match):
        make_grid(model, -2.0, 2.0, 41)
    with pytest.raises(ValueError, match=match):
        solve_fd(model, grid)


def test_solve_rejects_unstable_grid():
    model = builtin_model("bachelier_digital")
    grid = PdeGrid(-2.0, 2.0, 101, 0.0, 1.0, 10)
    with pytest.raises(ValueError, match="unstable grid"):
        solve_fd(model, grid)


def test_solve_rejects_wrong_terminal_time():
    model = builtin_model("bachelier_digital")
    grid = PdeGrid(-2.0, 2.0, 11, 0.0, 0.9, 5000)
    with pytest.raises(ValueError, match="terminal"):
        solve_fd(model, grid)


# ---------------------------------------------------------------------------
# accuracy against closed forms
# ---------------------------------------------------------------------------


def test_digital_value_and_delta_match_normal_law():
    model = builtin_model("bachelier_digital")
    grid = make_grid(model, -4.0, 4.0, 401)
    sol = solve_fd(model, grid)
    for x in (-0.7, 0.0, 0.4, 1.1):
        assert sol.u(0.0, x) == pytest.approx(float(stats.norm.cdf(x)),
                                              abs=2e-3)
        assert sol.ux(0.0, x) == pytest.approx(float(stats.norm.pdf(x)),
                                               abs=1e-2)


def test_solutions_compare_and_hash_by_identity():
    # the fields are arrays, which have no single truth value: a solution
    # is equal only to itself, and usable as a dict key
    model = builtin_model("bachelier_digital")
    grid = make_grid(model, -4.0, 4.0, 41)
    a, b = solve_fd(model, grid), solve_fd(model, grid)
    assert a == a and a != b
    assert {a: 1, b: 2}[a] == 1 and hash(a) != hash(b)


def test_step_vol_value_uses_only_the_alive_window():
    model = builtin_model("step_vol", t_cut=0.5)
    grid = make_grid(model, -4.0, 4.0, 201)
    sol = solve_fd(model, grid)
    s = math.sqrt(0.5)
    for x in (-0.5, 0.2, 1.0):
        assert sol.u(0.0, x) == pytest.approx(float(stats.norm.cdf(x / s)),
                                              abs=3e-3)
    # after the switch-off the value is frozen at the payoff
    assert sol.u(0.75, 0.3) == pytest.approx(1.0, abs=1e-12)
    assert sol.u(0.75, -0.3) == pytest.approx(0.0, abs=1e-12)


def test_dying_volatility_value_matches_closed_form():
    model = builtin_model("example1")
    params = Example1Params(alpha=0.8, beta=0.5)
    grid = make_grid(model, -3.0, 3.0, 201)
    sol = solve_fd(model, grid)
    for t, x in ((0.0, 0.4), (0.5, 0.3), (0.5, 1.0), (1.5, 0.7)):
        assert sol.u(t, x) == pytest.approx(example1_u(t, x, params),
                                            abs=1e-2)


def test_pure_transport_shifts_the_payoff():
    model = _transport_model(speed=1.0)
    grid = make_grid(model, -4.0, 4.0, 201)
    sol = solve_fd(model, grid)
    for x in (-2.0, -1.0, 0.0, 0.5):
        assert sol.u(0.0, x) == pytest.approx(math.tanh(x + 1.0), abs=2e-2)


def test_refinement_improves_digital_error_at_second_order_rate():
    model = builtin_model("bachelier_digital")
    probes = (-0.7, -0.2, 0.4, 1.1)

    def max_err(n_x):
        sol = solve_fd(model, make_grid(model, -4.0, 4.0, n_x))
        return max(abs(sol.u(0.0, x) - float(stats.norm.cdf(x)))
                   for x in probes)

    errs = [max_err(n) for n in (51, 101, 201)]
    assert errs[0] / errs[1] >= 1.5
    assert errs[1] / errs[2] >= 1.5


def test_running_cost_enters_the_sweep():
    # f = 1, g = 0: u(t, x) = T - t exactly (spatially flat at every level)
    model = CoefficientModel(
        sigma=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
        sigma_x=_zero2, b=_zero2, b_x=_zero2,
        f1=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
        f2=_zero2, f2_x=_zero2,
        g=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lipschitz_K=1.0, holder_alpha=1.0, holder_C=1.0, horizon_T=1.0,
    )
    sol = solve_fd(model, make_grid(model, -1.0, 1.0, 41))
    assert sol.u(0.0, 0.3) == pytest.approx(1.0, rel=1e-12)
    # lookups snap to the nearest stored level, so compare against it
    t_snap = sol.times[np.argmin(np.abs(sol.times - 0.25))]
    assert sol.u(0.25, -0.4) == pytest.approx(1.0 - t_snap, rel=1e-12)


# ---------------------------------------------------------------------------
# structural guarantees
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", [
    "indicator_zero_vol", "example1", "bachelier_digital",
    "tanh_smooth", "step_vol", "girsanov_const",
])
def test_discrete_maximum_principle(name):
    model = builtin_model(name)
    grid = make_grid(model, -3.0, 3.0, 101)
    sol = solve_fd(model, grid)
    payoff = np.asarray(model.g(sol.xs), dtype=float)
    lo, hi = sol.value_range()
    assert lo >= float(np.min(payoff)) - 1e-12
    assert hi <= float(np.max(payoff)) + 1e-12


def test_level_storage_is_thinned_with_ends_pinned():
    model = builtin_model("bachelier_digital")
    grid = make_grid(model, -2.0, 2.0, 101)
    assert grid.n_t > 10
    sol = solve_fd(model, grid, max_stored_levels=5)
    assert sol.times.size <= 6
    assert sol.times[0] == grid.t_min
    assert sol.times[-1] == grid.t_max
    assert sol.U.shape == (sol.times.size, grid.n_x)


def test_default_storage_cap_holds_for_fine_sweeps():
    model = builtin_model("bachelier_digital")
    grid = make_grid(model, -4.0, 4.0, 401)
    assert grid.n_t > MAX_STORED_LEVELS
    sol = solve_fd(model, grid)
    assert sol.times.size <= MAX_STORED_LEVELS + 1


def test_grid_validation():
    with pytest.raises(ValueError):
        PdeGrid(1.0, -1.0, 11, 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        PdeGrid(-1.0, 1.0, 2, 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        PdeGrid(-1.0, 1.0, 11, 1.0, 1.0, 10)
    with pytest.raises(ValueError):
        PdeGrid(-1.0, 1.0, 11, 0.0, 1.0, 0)
    model = builtin_model("bachelier_digital")
    grid = make_grid(model, -1.0, 1.0, 11)
    with pytest.raises(ValueError, match="max_stored_levels must be >= 2"):
        solve_fd(model, grid, max_stored_levels=1)
    # a count that is not an integer is refused: 2.5 would keep 4 levels
    for bad in (2.5, math.nan, True):
        with pytest.raises(TypeError, match="max_stored_levels must be an "
                                            "integer"):
            solve_fd(model, grid, max_stored_levels=bad)


# ---------------------------------------------------------------------------
# levels past frozen_after are copied, not swept
# ---------------------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _reference_sweep(model, grid, max_stored_levels=MAX_STORED_LEVELS):
    # the backward sweep before frozen levels were copied, kept frozen:
    # every level is stepped.  Its inf - inf on a non-finite payoff would
    # warn; the warnings are silenced, the values are unchanged
    mt = transformed_drift(model)
    xs = grid.xs()
    dx, dt, n_t = grid.dx, grid.dt, grid.n_t
    has_cost = not model.f1_is_zero
    stride = max(1, math.ceil((n_t + 1) / max_stored_levels))
    keep = [m for m in range(0, n_t + 1, stride)]
    if keep[-1] != n_t:
        keep.append(n_t)
    keep_set = set(keep)
    u = np.asarray(model.g(xs), dtype=float).copy()
    stored = {n_t: u.copy()}
    for m in range(n_t - 1, -1, -1):
        t_up = grid.t_min + (m + 1) * dt
        sig = np.broadcast_to(np.asarray(mt.sigma(t_up, xs), dtype=float),
                              xs.shape)
        drf = np.broadcast_to(np.asarray(mt.b(t_up, xs), dtype=float),
                              xs.shape)
        d2 = np.zeros_like(u)
        d2[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
        fwd = np.zeros_like(u)
        fwd[:-1] = (u[1:] - u[:-1]) / dx
        bwd = np.zeros_like(u)
        bwd[1:] = (u[1:] - u[:-1]) / dx
        d1 = np.where(drf > 0.0, fwd, np.where(drf < 0.0, bwd, 0.0))
        rhs = 0.5 * sig * sig * d2 + drf * d1
        if has_cost:
            rhs = rhs + np.asarray(mt.f1(t_up, xs), dtype=float)
        u = u + dt * rhs
        if m in keep_set:
            stored[m] = u.copy()
    levels = sorted(stored)
    times = grid.t_min + dt * np.asarray(levels, dtype=float)
    return times, np.stack([stored[m] for m in levels])


def _frozen_with_cost(t_cut):
    # step_vol plus a unit running cost below t = 0.7: the first frozen
    # step leaves every node unchanged, yet the later ones still move, so
    # no level may be copied
    def f1(t, x):
        return np.full_like(np.asarray(x, dtype=float),
                            1.0 if t <= 0.7 else 0.0)

    return replace(builtin_model("step_vol", t_cut=t_cut), f1=f1,
                   f1_is_zero=False, name="step_vol_with_cost")


def _negative_zero_payoff():
    # g = -x^2 is -0.0 at the node x = 0, where d2 < 0.  With f2 = -1 the
    # absorbed drift b - sigma is -0.0 over the last frozen stretch, so the
    # rhs there is -0.0 and the node stays -0.0; over the earlier frozen
    # stretch it is +0.0, the rhs +0.0, and the node turns +0.0.  Copying
    # while u holds -0.0 would keep the wrong sign bit.
    def sigma(t, x):
        return np.where(np.asarray(t) <= 0.4, 1.0, 0.0) * np.ones_like(
            np.asarray(x, dtype=float))

    def b(t, x):
        zero = np.zeros_like(np.asarray(x, dtype=float))
        return -zero if t > 0.7 else zero

    return CoefficientModel(
        sigma=sigma, sigma_x=_zero2, b=b, b_x=_zero2,
        f1=_zero2, f2=lambda t, x: -np.ones_like(np.asarray(x, dtype=float)),
        f2_x=_zero2, g=lambda x: -np.asarray(x, dtype=float) ** 2,
        lipschitz_K=1.0, holder_alpha=1.0, holder_C=1.0, horizon_T=1.0,
        f1_is_zero=True, sigma_time_jumps=(0.4,), frozen_after=0.4,
        name="negative_zero_payoff",
    )


def _signed_zero_drift():
    # the absorbed drift b + f2 * sigma is > 0 right of 1/2, < 0 left of
    # -1/2, +0.0 on [0, 1/2] and (-0.0) + (-0.0) * sigma = -0.0 on
    # [-1/2, 0).  sigma vanishes on [-1/2, 1/2], and the payoff is -0.0 on
    # [-1/5, 1/5] and negative outside, so at the plateau's left edge
    # 0.5 * sigma**2 * d2 is -0.0 and the drift's zero sign decides the
    # node's sign bit: it stays -0.0 there, and turns +0.0 at the right edge
    def sigma(t, x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= 0.5, 0.0, 1.0 + 0.5 * np.tanh(x))

    def b(t, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, -0.0, 0.0)

    def f2(t, x):
        x = np.asarray(x, dtype=float)
        inner = np.where(x < 0.0, -0.0, 0.0)
        return (1.0 + t) * np.where(x > 0.5, 0.4,
                                    np.where(x < -0.5, -0.4, inner))

    def g(x):
        return -np.maximum(np.abs(np.asarray(x, dtype=float)) - 0.2, 0.0) ** 2

    return CoefficientModel(
        sigma=sigma, sigma_x=_zero2, b=b, b_x=_zero2,
        f1=_zero2, f2=f2, f2_x=_zero2, g=g,
        lipschitz_K=1.5, holder_alpha=1.0, holder_C=1.0, horizon_T=1.0,
        f1_is_zero=True, psi_K=10.0, name="signed_zero_drift",
    )


def _scalar_coefficients(t_cut):
    # sigma, b and f2 return 0-d values (a 0-d array, a float and a NumPy
    # scalar), which the sweep must broadcast over the nodes
    def sigma(t, x):
        return np.asarray(0.8 if t <= t_cut else 0.0)

    def b(t, x):
        return 0.1 if t <= t_cut else 0.0

    def f2(t, x):
        return np.float64(-0.5)

    return CoefficientModel(
        sigma=sigma, sigma_x=_zero2, b=b, b_x=_zero2,
        f1=_zero2, f2=f2, f2_x=_zero2,
        g=lambda x: np.tanh(np.asarray(x, dtype=float)),
        lipschitz_K=1.0, holder_alpha=1.0, holder_C=1.0, horizon_T=1.0,
        f1_is_zero=True, sigma_time_jumps=(t_cut,), frozen_after=t_cut,
        name="scalar_coefficients",
    )


def test_signed_zero_drift_takes_every_sign():
    xs = np.linspace(-1.0, 1.0, 41)
    drf = transformed_drift(_signed_zero_drift()).b(0.3, xs)
    zero = drf == 0.0
    assert np.any(drf > 0.0) and np.any(drf < 0.0)
    assert np.any(zero & np.signbit(drf)) and np.any(zero & ~np.signbit(drf))


def _infinite_payoff(t_cut):
    # the payoff is +inf right of 1.5: the frozen steps turn its
    # neighbors into NaN, so they are not identities and must be swept
    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 1.5, np.inf, (x > 0.0).astype(float))

    return replace(builtin_model("step_vol", t_cut=t_cut), g=g,
                   name="step_vol_infinite_payoff")


_FROZEN_FD_MODELS = {
    "bachelier_digital": lambda t_cut: builtin_model("bachelier_digital"),
    "example1": lambda t_cut: builtin_model("example1"),
    "girsanov_const": lambda t_cut: builtin_model("girsanov_const",
                                                  t_cut=t_cut),
    "indicator_zero_vol": lambda t_cut: builtin_model("indicator_zero_vol"),
    "step_vol": lambda t_cut: builtin_model("step_vol", t_cut=t_cut),
    "step_vol_with_cost": _frozen_with_cost,
    "step_vol_infinite_payoff": _infinite_payoff,
    "negative_zero_payoff": lambda t_cut: _negative_zero_payoff(),
    "scalar_coefficients": _scalar_coefficients,
    "signed_zero_drift": lambda t_cut: _signed_zero_drift(),
    "tanh_smooth": lambda t_cut: builtin_model("tanh_smooth"),
}


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(_FROZEN_FD_MODELS)),
    t_cut=st.floats(0.05, 0.95),
    n_x=st.integers(3, 61),
    x_min=st.floats(-4.0, -0.5),
    width=st.floats(1.0, 6.0),
    max_stored_levels=st.sampled_from([2, 3, 17, MAX_STORED_LEVELS]),
    t_frac=st.floats(0.0, 0.9),
)
# an infinite payoff: its inf and NaN carry into U, and no warning escapes
@example(name="step_vol_infinite_payoff", t_cut=0.5, n_x=21, x_min=-1.0,
         width=3.0, max_stored_levels=MAX_STORED_LEVELS, t_frac=0.0)
def test_frozen_level_copy_matches_frozen_reference(name, t_cut, n_x, x_min,
                                                    width, max_stored_levels,
                                                    t_frac):
    model = _FROZEN_FD_MODELS[name](t_cut)
    grid = make_grid(model, x_min, x_min + width, n_x,
                     t_min=t_frac * model.horizon_T)
    sol = solve_fd(model, grid, max_stored_levels=max_stored_levels)
    times, U = _reference_sweep(model, grid, max_stored_levels)
    np.testing.assert_array_equal(sol.times, times)
    assert sol.U.tobytes() == U.tobytes()


def test_negative_zero_nodes_keep_the_swept_sign_bits():
    model = _negative_zero_payoff()
    grid = make_grid(model, -1.0, 1.0, 21)
    j = 10
    assert grid.xs()[j] == 0.0
    sol = solve_fd(model, grid)
    times, U = _reference_sweep(model, grid)
    assert sol.U.tobytes() == U.tobytes()
    # the node is -0.0 late and +0.0 earlier in the frozen stretch
    late = np.signbit(sol.U[:, j]) & (sol.times > 0.7)
    early = ~np.signbit(sol.U[:, j]) & (sol.times > 0.4) & (sol.times <= 0.7)
    assert np.any(late) and np.any(early)
    assert np.all(sol.U[sol.times > 0.4, j] == 0.0)


def _counted(fn, calls):
    def inner(t, x):
        calls.append(t)
        return fn(t, x)
    return inner


def _counted_model(model):
    calls = {"sigma": [], "b": [], "f2": []}
    traced = replace(model, **{k: _counted(getattr(model, k), calls[k])
                               for k in calls})
    return traced, calls


def _n_calls(calls):
    # every sampled or swept level calls each coefficient once
    counts = {len(v) for v in calls.values()}
    assert len(counts) == 1
    for v in calls.values():
        v.clear()
    return counts.pop()


def _n_swept(model, grid):
    if model.frozen_after is None:
        return grid.n_t
    # the live levels, then the first frozen step, which is an identity
    return 1 + sum(grid.t_min + (m + 1) * grid.dt <= model.frozen_after
                   for m in range(grid.n_t))


@pytest.mark.parametrize("name", ["bachelier_digital", "girsanov_const"])
def test_sweep_evaluates_the_coefficients_once_per_swept_level(name):
    model = builtin_model(name)
    grid = make_grid(model, -2.0, 2.0, 41)
    n_swept = _n_swept(model, grid)
    assert n_swept < grid.n_t or model.frozen_after is None
    traced, calls = _counted_model(model)
    cfl_check(traced, grid)
    n_samples = _n_calls(calls)
    # the check inside solve_fd reuses the warm sample
    solve_fd(traced, grid)
    assert _n_calls(calls) == n_swept
    # a fresh model object is sampled again
    fresh, calls = _counted_model(model)
    solve_fd(fresh, grid)
    assert _n_calls(calls) == n_samples + n_swept


@pytest.mark.parametrize("name", ["bachelier_digital", "girsanov_const"])
def test_solve_after_make_grid_samples_the_probe_levels_once(name):
    model, calls = _counted_model(builtin_model(name))
    grid = make_grid(model, -2.0, 2.0, 161)
    assert grid.n_t >= 1024
    # each of the 1025 probe levels, and the instants next to a volatility
    # jump, is sampled once
    probed = list(calls["sigma"])
    assert len(probed) == len(set(probed)) >= 1025
    assert _n_calls(calls) == len(probed)
    solve_fd(model, grid)
    assert _n_calls(calls) == _n_swept(model, grid)


def test_a_second_model_or_lattice_evicts_the_one_sample():
    base = builtin_model("bachelier_digital")
    a, calls_a = _counted_model(base)
    b, calls_b = _counted_model(base)
    g1 = PdeGrid(-2.0, 2.0, 41, 0.0, 1.0, 200)
    g2 = PdeGrid(-2.0, 2.0, 43, 0.0, 1.0, 200)
    # a finer grid samples the same 201 levels and nodes
    g1_fine = replace(g1, n_t=400)
    g1_capped = replace(g1, n_t=5000)
    g1_capped_finer = replace(g1, n_t=6000)
    assert cfl_check(a, g1).max_sigma_sq == 1.0
    assert _n_calls(calls_a) == 201
    cfl_check(a, g1)
    assert _n_calls(calls_a) == 0
    cfl_check(b, g1)
    assert _n_calls(calls_b) == 201
    cfl_check(a, g1)
    assert _n_calls(calls_a) == 201
    cfl_check(a, g2)
    assert _n_calls(calls_a) == 201
    cfl_check(a, g1)
    assert _n_calls(calls_a) == 201
    cfl_check(a, g1_fine)
    assert _n_calls(calls_a) == 401
    # from 1025 levels on, every step count samples the same levels
    cfl_check(a, g1_capped)
    assert _n_calls(calls_a) == 1025
    cfl_check(a, g1_capped_finer)
    assert _n_calls(calls_a) == 0
    # a signed-zero bound is another lattice
    cfl_check(a, replace(g1_capped, t_min=-0.0))
    assert _n_calls(calls_a) == 1025


def test_stored_levels_are_one_owned_array_and_reruns_are_equal():
    model = builtin_model("girsanov_const")
    grid = make_grid(model, -2.0, 2.0, 41)
    first = solve_fd(model, grid)
    before = first.U.tobytes()
    second = solve_fd(model, grid)
    for sol in (first, second):
        assert sol.U.flags.c_contiguous and sol.U.flags.owndata
        assert sol.U.base is None
        assert sol.U.shape == (sol.times.size, grid.n_x)
    assert not np.shares_memory(first.U, second.U)
    # the second solve's scratch buffers wrote into none of the first's rows
    assert first.U.tobytes() == before == second.U.tobytes()
    assert len({r.tobytes() for r in first.U[first.times <= 0.5]}) > 1


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["step_vol", "example1", "girsanov_const"]),
    t_cut=st.floats(0.05, 0.95),
    n_x=st.integers(3, 81),
    x_min=st.floats(-5.0, 1.0),
    width=st.floats(1.0, 8.0),
)
def test_maximum_principle_holds_on_every_stored_level(name, t_cut, n_x,
                                                       x_min, width):
    model = _FROZEN_FD_MODELS[name](t_cut)
    sol = solve_fd(model, make_grid(model, x_min, x_min + width, n_x))
    payoff = np.asarray(model.g(sol.xs), dtype=float)
    lo, hi = float(np.min(payoff)), float(np.max(payoff))
    assert np.all(sol.U >= lo - 1e-12)
    assert np.all(sol.U <= hi + 1e-12)


# ---------------------------------------------------------------------------
# x-flat models: one node per swept level
# ---------------------------------------------------------------------------


_X_FLAT_BASES = [n for n in builtin_model_names() if n != "girsanov_const"]
_X_FLAT_MODELS = {
    **{name: builtin_model(name) for name in _X_FLAT_BASES},
    **{f"girsanov_const[{base}]": builtin_model("girsanov_const", base=base)
       for base in _X_FLAT_BASES},
}


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(_X_FLAT_MODELS)),
    n_x=st.integers(3, 81),
    x_min=st.floats(-4.0, -0.5),
    width=st.floats(1.0, 6.0),
    t_frac=st.floats(0.0, 0.95),
)
# grids that start before, at and just past the freeze
@example(name="example1", n_x=41, x_min=-2.0, width=4.0, t_frac=0.0)
@example(name="girsanov_const[step_vol]", n_x=41, x_min=-2.0, width=4.0,
         t_frac=0.5)
@example(name="girsanov_const[example1]", n_x=41, x_min=-2.0, width=4.0,
         t_frac=0.51)
def test_x_flat_sweep_equals_the_undeclared_sweep(name, n_x, x_min, width,
                                                  t_frac):
    model = _X_FLAT_MODELS[name]
    assert model.x_flat
    grid = make_grid(model, x_min, x_min + width, n_x,
                     t_min=t_frac * model.horizon_T)
    got = solve_fd(model, grid)
    want = solve_fd(replace(model, x_flat=False), grid)
    assert got.U.tobytes() == want.U.tobytes()


def test_x_flat_sweep_takes_each_levels_signed_zero_drift():
    # sigma is 0, f2 is -0.0 and b is -0.0 above t = 0.5, +0.0 below, so
    # the absorbed drift is -0.0, then +0.0: equal as floats, not as bits.
    # At the edges of the payoff's -0.0 plateau 0.5 * sigma**2 * d2 is
    # -0.0, so the drift's zero sign decides whether a node keeps its sign
    # bit: each level must use its own drift
    def model(b_below):
        def b(t, x):
            return np.full(np.shape(x), -0.0 if t > 0.5 else b_below)

        return CoefficientModel(
            sigma=_zero2, sigma_x=_zero2, b=b, b_x=_zero2, f1=_zero2,
            f2=lambda t, x: np.full(np.shape(x), -0.0), f2_x=_zero2,
            g=lambda x: -np.maximum(np.abs(np.asarray(x, dtype=float))
                                    - 0.2, 0.0) ** 2,
            lipschitz_K=1.0, holder_alpha=1.0, holder_C=1.0, horizon_T=1.0,
            f1_is_zero=True, x_flat=True, name="signed_zero_drift_in_time",
        )

    grid = PdeGrid(-1.0, 1.0, 41, 0.0, 1.0, 20)
    got = solve_fd(model(0.0), grid)
    want = solve_fd(replace(model(0.0), x_flat=False), grid)
    assert got.U.tobytes() == want.U.tobytes()
    # the +0.0 levels clear sign bits that -0.0 levels would keep
    kept = solve_fd(replace(model(-0.0), x_flat=False), grid)
    assert want.U.tobytes() != kept.U.tobytes()


@pytest.mark.parametrize("name", ["example1", "girsanov_const"])
def test_x_flat_sweep_evaluates_one_node_per_swept_level(name):
    model = builtin_model(name)
    sizes = {"sigma": [], "b": [], "f2": []}

    def sized(fn, record):
        def inner(t, x):
            record.append(np.size(x))
            return fn(t, x)
        return inner

    traced = replace(model, **{k: sized(getattr(model, k), sizes[k])
                               for k in sizes})
    grid = make_grid(traced, -2.0, 2.0, 41)
    # the stability check samples the whole lattice
    assert {s for v in sizes.values() for s in v} == {grid.n_x}
    for v in sizes.values():
        v.clear()
    solve_fd(traced, grid)
    for v in sizes.values():
        assert v == [1] * _n_swept(model, grid)


@pytest.mark.parametrize("field, name", [
    ("sigma", "sigma"),
    ("b", "drift b \\+ f2 \\* sigma"),
    ("f2", "drift b \\+ f2 \\* sigma"),
])
def test_stale_x_flat_declaration_is_refused_by_the_stability_check(field,
                                                                    name):
    # a coefficient that jumps at x = 0.1 while the model keeps x_flat: the
    # sweep would give every node the first node's value
    base = builtin_model("bachelier_digital")
    step = getattr(base, field)

    def moved(t, x):
        x = np.asarray(x, dtype=float)
        return np.asarray(step(t, x), dtype=float) + 0.25 * (x > 0.1)

    model = replace(base, lipschitz_K=1.5, **{field: moved})
    grid = PdeGrid(-2.0, 2.0, 41, 0.0, 1.0, 1000)
    match = f"{name} varies in x at t=0.0 on .* declares x_flat"
    with pytest.raises(ValueError, match=match):
        cfl_check(model, grid)
    with pytest.raises(ValueError, match=match):
        make_grid(model, -2.0, 2.0, 41)
    with pytest.raises(ValueError, match=match):
        solve_fd(model, grid)
    undeclared = replace(model, x_flat=False)
    solve_fd(undeclared, make_grid(undeclared, -2.0, 2.0, 41))


class _Boom(Exception):
    """Raised by a coefficient at one sampled level."""


# faults put on one sampled level: a coefficient that is not finite at
# one node, that varies in x (a stale x_flat declaration), that is +0.0
# except for one -0.0 node, or that raises
_FAULTS = st.tuples(
    st.sampled_from(["nan", "inf", "-inf", "varies", "-0.0", "raises"]),
    st.sampled_from(["sigma", "b", "f2"]),
    st.integers(0, 2 ** 16),  # the level, modulo the number sampled
    st.integers(0, 2 ** 20),  # the node, modulo n_x
)

# n_x and n_t: blocks of many levels, of 81 levels at n_x 801, and of one
# level above 65536 nodes
_LATTICES = st.one_of(
    st.tuples(st.sampled_from([3, 41, 801]), st.integers(1, 400)),
    st.tuples(st.just(65537), st.integers(1, 6)))


def _faulty(model, levels, faults):
    """The model with each fault applied to its coefficient at one level."""
    by_field = {}
    for kind, field, level, node in faults:
        by_field.setdefault(field, []).append(
            (kind, levels[level % len(levels)], node))

    def patched(fn, field_faults):
        def coeff(t, x):
            out = np.array(np.broadcast_to(
                np.asarray(fn(t, x), dtype=float), np.shape(x)))
            for kind, t_bad, node in field_faults:
                if t != t_bad:
                    continue
                j = node % out.size
                if kind == "raises":
                    raise _Boom(f"{kind} at t={t}")
                if kind == "varies":
                    out[j] += 0.25
                elif kind == "-0.0":
                    out[:] = 0.0
                    out[j] = -0.0
                else:
                    out[j] = float(kind)
            return out
        return coeff

    return replace(model, **{field: patched(getattr(model, field), ff)
                             for field, ff in by_field.items()})


def _sample_outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, _Boom) as exc:
        return type(exc), str(exc)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _reference_outcome(model, grid):
    # the sample silences the warnings of 0 * inf in the absorbed drift,
    # and reports the value as not finite
    return _sample_outcome(reference_coefficient_samples, model, grid)


@settings(max_examples=80, deadline=None)
@given(base=st.sampled_from(["bachelier_digital", "girsanov_const",
                             "step_vol"]),
       x_flat=st.booleans(), lattice=_LATTICES,
       faults=st.lists(_FAULTS, max_size=3))
@example(base="bachelier_digital", x_flat=True, lattice=(65537, 3),
         faults=[("varies", "sigma", 1, 7), ("nan", "b", 2, 0)])
@example(base="girsanov_const", x_flat=True, lattice=(801, 300),
         faults=[("raises", "f2", 200, 0), ("-0.0", "sigma", 90, 5)])
def test_blocked_sample_keeps_the_per_level_errors_and_their_order(
        base, x_flat, lattice, faults):
    # the stability sample checks levels in blocks: its result, or its
    # first error in time order, is that of the frozen per-level loop
    n_x, n_t = lattice
    model = replace(builtin_model(base), x_flat=x_flat)
    grid = PdeGrid(-2.0, 3.0, n_x, 0.0, model.horizon_T, n_t)
    levels = np.linspace(grid.t_min, grid.t_max,
                         min(n_t + 1, 1025)).tolist()
    model = _faulty(model, levels, faults)
    got = _sample_outcome(
        lambda: astuple(cfl_check(model, grid))[-2:])
    assert got == _reference_outcome(model, grid)


# ---------------------------------------------------------------------------
# PdeSolution lookups
# ---------------------------------------------------------------------------


def _solution(times, xs, U, n_t):
    """A PdeSolution storing ``U`` at ``times``, levels of an ``n_t``-step
    grid over ``xs``."""
    grid = PdeGrid(x_min=float(xs[0]), x_max=float(xs[-1]), n_x=xs.size,
                   t_min=float(times[0]), t_max=float(times[-1]), n_t=n_t)
    return PdeSolution(grid=grid, xs=xs, times=times, U=U)


def test_pde_solution_interpolates_and_differentiates():
    times = np.array([0.0, 0.5, 1.0])
    xs = np.linspace(-1.0, 1.0, 21)
    U = np.stack([xs ** 2, 2.0 * xs ** 2, 3.0 * xs ** 2])
    sol = _solution(times, xs, U, 2)
    # t = 0.49 snaps to the 0.5 level; the chord of 2 x**2 between the
    # nodes 0.3 and 0.4 passes through exactly 0.25 at the midpoint
    assert sol.u(0.49, 0.35) == pytest.approx(0.25, rel=1e-12)
    # centered differences are exact on quadratics at interior nodes
    assert sol.ux(0.0, 0.5) == pytest.approx(1.0, rel=1e-12)
    # below the time midpoint the first level is selected
    assert sol.u(0.2, 0.3) == pytest.approx(0.09, rel=1e-12)


def _levels_and_probes():
    # levels whose midpoints are exact binary fractions, so the probes hit
    # nearest-level ties exactly; a tie goes to the earlier level
    times = np.array([0.0, 0.25, 0.5, 1.0, 1.5])
    probes = [(-1.0, 0), (0.0, 0), (0.1, 0), (0.125, 0), (0.13, 1),
              (0.25, 1), (0.375, 1), (0.5, 2), (0.75, 2), (0.76, 3),
              (1.0, 3), (1.25, 3), (1.3, 4), (1.5, 4), (9.0, 4)]
    return times, probes


def test_pde_solution_gradient_has_the_bits_of_the_full_gradient():
    times, probes = _levels_and_probes()
    xs = np.linspace(-1.3, 2.1, 37)
    rng = np.random.default_rng(5)
    U = np.cumsum(rng.standard_normal((times.size, xs.size)), axis=1)
    D = np.gradient(U, xs, axis=1)
    sol = _solution(times, xs, U, 6)
    x = np.concatenate([xs, rng.uniform(-1.5, 2.3, 50)])
    for _ in range(2):  # the second pass reads the kept gradients
        for t, i in probes:
            assert sol.ux(t, x).tobytes() == np.interp(
                x, xs, D[i]).tobytes()
            assert sol.u(t, x).tobytes() == np.interp(
                x, xs, U[i]).tobytes()


def test_pde_solution_gradient_matches_at_every_stored_level():
    model = builtin_model("girsanov_const")
    sol = solve_fd(model, make_grid(model, -2.0, 2.0, 41))
    D = np.gradient(sol.U, sol.xs, axis=1)
    x = np.linspace(-2.5, 2.5, 23)
    for i, t in enumerate(sol.times):
        assert sol.ux(t, x).tobytes() == np.interp(x, sol.xs, D[i]).tobytes()


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_pde_solution_rejects_a_time_that_is_not_finite(t):
    # a NaN time used to select the terminal level
    times, _ = _levels_and_probes()
    xs = np.linspace(-1.0, 1.0, 5)
    sol = _solution(times, xs, np.ones((times.size, xs.size)), 6)
    for lookup in (sol.u, sol.ux):
        with pytest.raises(ValueError, match="t must be finite"):
            lookup(t, 0.0)


# ---------------------------------------------------------------------------
# at_times: only the levels the lookups read are stored
# ---------------------------------------------------------------------------


def _requested_times(times, draws):
    """Times to request of a solution whose kept levels are at ``times``:
    each draw picks a kept level, the midpoint of two neighbours (an exact
    tie when the levels are binary fractions), a time next to a level, or
    one outside the grid, with duplicates."""
    out = []
    for kind, i, shift in draws:
        a, b = times[i % times.size], times[min(i % times.size + 1,
                                                 times.size - 1)]
        out.append({"level": a, "midpoint": 0.5 * (a + b),
                    "near": a + shift * (b - a),
                    "outside": (times[0] - 1.0 - shift if i % 2
                                else times[-1] + 1.0 + shift),
                    }[kind])
    return out + out[: len(out) // 2]


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["bachelier_digital", "girsanov_const", "step_vol",
                          "example1", "tanh_smooth"]),
    x_flat=st.booleans(),
    n_x=st.integers(3, 41),
    t_frac=st.floats(0.0, 0.9),
    dyadic=st.booleans(),
    max_stored_levels=st.integers(2, 40),
    draws=st.lists(st.tuples(
        st.sampled_from(["level", "midpoint", "near", "outside"]),
        st.integers(0, 2 ** 16), st.floats(0.0, 1.0)),
        min_size=1, max_size=12),
)
# kept levels at binary fractions: every midpoint is an exact tie
@example(name="bachelier_digital", x_flat=True, n_x=21, t_frac=0.0,
         dyadic=True, max_stored_levels=9,
         draws=[("midpoint", i, 0.0) for i in range(9)])
@example(name="girsanov_const", x_flat=False, n_x=21, t_frac=0.0,
         dyadic=True, max_stored_levels=5,
         draws=[("midpoint", 1, 0.0), ("outside", 0, 0.5),
                ("outside", 1, 0.0), ("level", 3, 0.0)])
def test_solution_at_requested_times_looks_up_the_full_solutions_bits(
        name, x_flat, n_x, t_frac, dyadic, max_stored_levels, draws):
    model = replace(builtin_model(name), x_flat=x_flat)
    grid = make_grid(model, -2.0, 2.0, n_x,
                     t_min=0.0 if dyadic else t_frac * model.horizon_T)
    if dyadic:
        # a power-of-two step count: still stable, and with t_min = 0 and
        # a dyadic horizon every kept level is a binary fraction
        grid = replace(grid, n_t=2 ** math.ceil(math.log2(grid.n_t)))
    full = solve_fd(model, grid, max_stored_levels)
    at_times = _requested_times(full.times, draws)
    sol = solve_fd(model, grid, max_stored_levels, at_times=at_times)
    levels = sorted({_nearest_level(full.times, t) for t in at_times})
    assert sol.U.shape == (len(levels), grid.n_x)
    assert sol.times.tobytes() == full.times[levels].tobytes()
    assert sol.U.tobytes() == full.U[levels].tobytes()
    x = np.concatenate([sol.xs, np.linspace(-2.5, 2.5, 17)])
    for t in at_times:
        assert sol.u(t, x).tobytes() == full.u(t, x).tobytes()
        assert sol.ux(t, x).tobytes() == full.ux(t, x).tobytes()


def test_solution_without_at_times_stores_every_kept_level():
    model = builtin_model("girsanov_const")
    grid = make_grid(model, -2.0, 2.0, 41)
    full = solve_fd(model, grid, 7)
    every = solve_fd(model, grid, 7, at_times=full.times)
    assert every.times.tobytes() == full.times.tobytes()
    assert every.U.tobytes() == full.U.tobytes()
    assert every.U.flags.c_contiguous and every.U.flags.owndata


def test_solution_storing_one_level_reads_it_alone():
    model = builtin_model("bachelier_digital")
    grid = make_grid(model, -2.0, 2.0, 41)
    full = solve_fd(model, grid)
    sol = solve_fd(model, grid, at_times=[0.3])
    i = _nearest_level(full.times, 0.3)
    assert sol.times.tolist() == [full.times[i]]
    # every lookup snaps to the one stored level, and the range is its own
    assert sol.u(0.9, 0.1).tobytes() == full.u(full.times[i], 0.1).tobytes()
    assert sol.value_range() == (float(full.U[i].min()),
                                 float(full.U[i].max()))


@pytest.mark.parametrize("at_times, match", [
    ([], "at_times must name at least one time"),
    (np.empty(0), "at_times must name at least one time"),
    ([0.5, math.nan], "t must be finite"),
    ([math.inf], "t must be finite"),
])
def test_solve_rejects_at_times_with_no_time_or_one_not_finite(at_times,
                                                               match):
    model = builtin_model("bachelier_digital")
    grid = make_grid(model, -2.0, 2.0, 21)
    with pytest.raises(ValueError, match=match):
        solve_fd(model, grid, at_times=at_times)

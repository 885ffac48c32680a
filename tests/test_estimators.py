import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import degenbsde.estimators as est_mod
import reference_estimators as ref_mod
from degenbsde import (
    EstimationError,
    Example1Params,
    OutsideGamma0Error,
    ProblemPoint,
    TimeGrid,
    ValueProvider,
    bachelier_provider,
    builtin_model,
    empirical_lambda_moment,
    estimate_u,
    estimate_ux_pathwise,
    estimate_ux_weighted,
    example1_provider,
    example1_ux_at_zero,
    gamma_report,
    locate_tau,
    locate_tau_batch,
    make_grid,
    reconstruct_Z,
    simulate_batch,
    simulate_path,
    solve_fd,
)
from degenbsde.model import CoefficientModel
from test_estimator_driver import _x_cost_model
from test_sde_sim import _stale_x_flat_model


def _zero2(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _const_vol_model(g, g_prime=None, f1=None, f1_is_zero=True,
                     T=1.0) -> CoefficientModel:
    def sigma(t, x):
        return np.ones_like(np.asarray(x, dtype=float))

    return CoefficientModel(
        sigma=sigma, sigma_x=_zero2, b=_zero2, b_x=_zero2,
        f1=f1 if f1 is not None else _zero2,
        f2=_zero2, f2_x=_zero2, g=g, g_prime=g_prime,
        lipschitz_K=1.0, holder_alpha=1.0, holder_C=1.0, horizon_T=T,
        f1_is_zero=f1_is_zero,
    )


# ---------------------------------------------------------------------------
# value estimation
# ---------------------------------------------------------------------------


def test_indicator_value_is_exact_with_zero_error():
    model = builtin_model("indicator_zero_vol")
    grid = TimeGrid(0.0, 1.0, 16)
    up = estimate_u(model, ProblemPoint(0.0, 0.5), grid, seed=3, n_paths=64)
    dn = estimate_u(model, ProblemPoint(0.0, -0.5), grid, seed=3, n_paths=64)
    assert up.mean == 1.0 and up.stderr == 0.0
    assert dn.mean == 0.0 and dn.stderr == 0.0
    assert up.n_used == 64 and up.n_floored == 0 and up.reliable


def test_digital_value_matches_normal_cdf():
    model = builtin_model("bachelier_digital")
    grid = TimeGrid(0.0, 1.0, 32)
    e = estimate_u(model, ProblemPoint(0.0, 0.2), grid, seed=11, n_paths=4000)
    # constant sigma, zero drift: Euler is exact in law at any step count
    assert abs(e.mean - stats.norm.cdf(0.2)) <= 4.0 * e.stderr
    assert 0.0 < e.mean < 1.0


def test_constant_cost_accumulates_exactly():
    # f = 1, g = 0: the value is the remaining time, no randomness at all
    model = _const_vol_model(
        g=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        f1=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
        f1_is_zero=False)
    grid = TimeGrid(0.25, 1.0, 30)
    e = estimate_u(model, ProblemPoint(0.25, 0.0), grid, seed=1, n_paths=32)
    assert e.mean == pytest.approx(0.75, rel=1e-12)
    assert e.stderr == pytest.approx(0.0, abs=1e-15)


def test_girsanov_cost_shifts_the_digital():
    # f = f2 z absorbed into the drift: the digital acquires displacement
    # f2 * sigma over the alive window, with the same variance
    model = builtin_model("girsanov_const", f2=0.5)
    grid = TimeGrid(0.0, 1.0, 64)
    ts = grid.times()[:-1]
    live = model.sigma(ts, np.zeros_like(ts)) > 0.0
    m = int(np.count_nonzero(live))
    mean_shift = 0.5 * m * grid.dt
    var = m * grid.dt
    e = estimate_u(model, ProblemPoint(0.0, 0.1), grid, seed=7, n_paths=6000)
    exact = stats.norm.cdf((0.1 + mean_shift) / math.sqrt(var))
    assert abs(e.mean - exact) <= 4.0 * e.stderr


def test_nan_payoffs_are_excluded_and_flag_reliability():
    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, np.nan, 1.0)

    model = _const_vol_model(g=g)
    grid = TimeGrid(0.0, 1.0, 8)
    e = estimate_u(model, ProblemPoint(0.0, 0.0), grid, seed=5, n_paths=400)
    assert e.mean == 1.0
    assert e.n_floored > 0.05 * 400
    assert e.n_used + e.n_floored == 400
    assert not e.reliable


def test_single_path_estimate_has_infinite_stderr():
    model = builtin_model("tanh_smooth")
    e = estimate_u(model, ProblemPoint(0.0, 0.3), TimeGrid(0.0, 1.0, 8),
                   seed=2, n_paths=1)
    assert e.n_used == 1
    assert math.isinf(e.stderr)


def test_n_paths_must_be_positive():
    model = builtin_model("tanh_smooth")
    with pytest.raises(ValueError):
        estimate_u(model, ProblemPoint(0.0, 0.0), TimeGrid(0.0, 1.0, 8),
                   seed=0, n_paths=0)


@pytest.mark.parametrize("n_paths", [2.9, 2.5, True])
def test_non_integer_n_paths_is_a_type_error(n_paths):
    model = builtin_model("tanh_smooth")
    point = ProblemPoint(0.0, 0.0)
    grid = TimeGrid(0.0, 1.0, 8)
    for fn, kwargs in ((estimate_u, {}), (estimate_ux_pathwise, {}),
                       (estimate_ux_weighted, {}),
                       (empirical_lambda_moment, {"p": 1.0})):
        with pytest.raises(TypeError, match="n_paths must be an integer"):
            fn(model, point, grid, seed=0, n_paths=n_paths, **kwargs)


# ---------------------------------------------------------------------------
# gradient estimation
# ---------------------------------------------------------------------------


def test_weighted_digital_delta_both_kinds():
    model = builtin_model("bachelier_digital")
    grid = TimeGrid(0.0, 1.0, 64)
    point = ProblemPoint(0.0, 0.0)
    target = 1.0 / math.sqrt(2.0 * math.pi)
    deg = estimate_ux_weighted(model, point, grid, seed=19, n_paths=4000,
                               weight_kind="degenerate")
    non = estimate_ux_weighted(model, point, grid, seed=19, n_paths=4000,
                               weight_kind="nondegenerate")
    assert abs(deg.mean - target) <= 4.0 * deg.stderr
    # unit volatility: the occupation-normalized and time-normalized
    # weights coincide bitwise, not just statistically
    assert deg.mean == non.mean
    assert deg.stderr == non.stderr
    assert deg == non


@settings(max_examples=40, deadline=None)
@given(sigma_bar=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 1.3]),
       t0=st.floats(0.0, 0.9), x0=st.floats(-2.0, 2.0),
       n_steps=st.integers(1, 64), seed=st.integers(0, 2 ** 16),
       n_paths=st.integers(2, 200), chunk=st.integers(1, 256))
def test_weight_kinds_coincide_at_constant_vol(sigma_bar, t0, x0, n_steps,
                                               seed, n_paths, chunk):
    # scaling sigma by powers of two keeps every float operation exact, so
    # the two weights give the same Estimate bit for bit; at a generic
    # constant volatility they agree to rounding
    model = builtin_model("bachelier_digital", sigma_bar=sigma_bar)
    args = (model, ProblemPoint(t0, x0), TimeGrid(t0, 1.0, n_steps), seed,
            n_paths)
    saved = est_mod.CHUNK_SIZE
    est_mod.CHUNK_SIZE = chunk
    try:
        deg = estimate_ux_weighted(*args, weight_kind="degenerate")
        non = estimate_ux_weighted(*args, weight_kind="nondegenerate")
    finally:
        est_mod.CHUNK_SIZE = saved
    if sigma_bar == 1.3:
        assert deg.mean == pytest.approx(non.mean, rel=1e-12)
    else:
        assert deg == non


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["tanh_smooth", "bachelier_digital"]),
       sigma_bar=st.sampled_from([0.5, 1.0, 2.0]), x_flat=st.booleans(),
       t0=st.floats(0.0, 0.9), x0=st.floats(-2.0, 2.0),
       n_steps=st.integers(1, 40), seed=st.integers(0, 2 ** 64 - 1),
       n_paths=st.integers(2, 40), chunk=st.integers(1, 16))
def test_weights_are_bitwise_identical_at_power_of_two_volatility(
        name, sigma_bar, x_flat, t0, x0, n_steps, seed, n_paths, chunk):
    # declared x-flat, the job draws the terminal law; undeclared, it
    # streams the kernel.  Either way a power-of-two volatility scales
    # Lambda and the elapsed time exactly, so the two weights agree path
    # by path and their paired difference is exactly zero
    model = dataclasses.replace(builtin_model(name, sigma_bar=sigma_bar),
                                x_flat=x_flat)
    point, grid = ProblemPoint(t0, x0), TimeGrid(t0, 1.0, n_steps)
    deg, non = (est_mod._ux_weighted_reducer(model, point, grid,
                                             weight_kind=kind)
                for kind in ("degenerate", "nondegenerate"))
    saved = est_mod.CHUNK_SIZE
    est_mod.CHUNK_SIZE = chunk
    try:
        [[d, n, diff]] = est_mod._estimate(model, seed, n_paths, [
            (point, grid, [deg, non, est_mod._difference_reducer(deg, non)])])
    finally:
        est_mod.CHUNK_SIZE = saved
    assert d == n
    assert diff.mean == diff.stderr == 0.0


def test_pathwise_gradient_matches_quadrature():
    model = builtin_model("tanh_smooth")
    grid = TimeGrid(0.0, 1.0, 32)
    e = estimate_ux_pathwise(model, ProblemPoint(0.0, 0.4), grid, seed=23,
                             n_paths=4000)
    ref, _ = integrate.quad(
        lambda w: (1.0 - math.tanh(0.4 + w) ** 2)
        * math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi), -10, 10)
    assert abs(e.mean - ref) <= 4.0 * e.stderr


def test_pathwise_requires_payoff_derivative():
    model = builtin_model("bachelier_digital")
    with pytest.raises(ValueError):
        estimate_ux_pathwise(model, ProblemPoint(0.0, 0.0),
                             TimeGrid(0.0, 1.0, 8), seed=0, n_paths=8)


def test_weighted_rejects_unknown_kind():
    model = builtin_model("tanh_smooth")
    with pytest.raises(ValueError):
        estimate_ux_weighted(model, ProblemPoint(0.0, 0.0),
                             TimeGrid(0.0, 1.0, 8), seed=0, n_paths=8,
                             weight_kind="balanced")


def test_weighted_refuses_dead_starting_points():
    dead = builtin_model("indicator_zero_vol")
    with pytest.raises(OutsideGamma0Error):
        estimate_ux_weighted(dead, ProblemPoint(0.0, 0.0),
                             TimeGrid(0.0, 1.0, 8), seed=0, n_paths=8)
    ex1 = builtin_model("example1")
    with pytest.raises(OutsideGamma0Error):
        estimate_ux_weighted(ex1, ProblemPoint(1.2, 0.0),
                             TimeGrid(1.2, 2.0, 8), seed=0, n_paths=8)


def test_weighted_blowup_point_tracks_oracle():
    params = Example1Params(alpha=0.8, beta=0.5)
    model = builtin_model("example1", alpha=0.8, beta=0.5)
    grid = TimeGrid(0.5, 2.0, 300)
    e = estimate_ux_weighted(model, ProblemPoint(0.5, 0.0), grid, seed=31,
                             n_paths=20000)
    exact = example1_ux_at_zero(0.5, params)
    assert abs(e.mean - exact) <= 3.0 * e.stderr + 0.02 * abs(exact)
    assert e.reliable


def test_weighted_cost_term_keeps_zero_gradient():
    # f = 1, g = 0: u(t, x) = T - t has zero gradient; the weighted
    # driver sum must average out to it
    model = _const_vol_model(
        g=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        f1=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
        f1_is_zero=False)
    grid = TimeGrid(0.0, 1.0, 32)
    e = estimate_ux_weighted(model, ProblemPoint(0.0, 0.0), grid, seed=37,
                             n_paths=4000)
    assert abs(e.mean) <= 4.0 * e.stderr + 1e-12


def test_all_floored_raises_estimation_error():
    model = builtin_model("bachelier_digital")
    with pytest.raises(EstimationError):
        estimate_ux_weighted(model, ProblemPoint(0.0, 0.0),
                             TimeGrid(0.0, 1.0, 8), seed=0, n_paths=16,
                             lambda_floor=1e9)


def test_x_dependent_cost_agrees_with_fd():
    # f1 = 0.1 tanh(x) on a tangent-flow model with a z-cost: Monte Carlo
    # sums f1 (and f1_x) along the paths, solve_fd adds f1 at each node, and
    # the two must meet.  The cost moves the FD u by 0.02-0.03 and u_x by
    # 0.07 here, several times the bound.  The slack is 3 standard errors
    # plus twice the change of the FD value when its grid is halved.
    model = _x_cost_model()
    fine = solve_fd(model, make_grid(model, -5.0, 5.0, 401))
    coarse = solve_fd(model, make_grid(model, -5.0, 5.0, 201))
    grid = TimeGrid(0.0, 1.0, 100)
    for x0 in (0.2, -0.5):
        point = ProblemPoint(0.0, x0)
        cases = (
            (estimate_u(model, point, grid, seed=1, n_paths=20_000),
             fine.u(0.0, x0), coarse.u(0.0, x0)),
            (estimate_ux_weighted(model, point, grid, seed=1, n_paths=20_000),
             fine.ux(0.0, x0), coarse.ux(0.0, x0)),
            (estimate_ux_pathwise(model, point, grid, seed=1, n_paths=20_000),
             fine.ux(0.0, x0), coarse.ux(0.0, x0)),
        )
        for e, fd, fd_half in cases:
            assert e.reliable
            slack = 3.0 * e.stderr + 2.0 * abs(fd - fd_half)
            assert abs(e.mean - fd) <= slack, (x0, e, fd, fd_half)


# ---------------------------------------------------------------------------
# integrand reconstruction and occupation moments
# ---------------------------------------------------------------------------


def test_reconstruct_Z_is_zero_for_dead_model():
    model = builtin_model("indicator_zero_vol")
    grid = TimeGrid(0.0, 1.0, 10)
    path = simulate_path(model, ProblemPoint(0.0, 0.5), grid, seed=0)
    prov = ValueProvider(ux_eval=lambda t, x: 123.0)
    out = reconstruct_Z(model, path, prov)
    assert out.shape == (11, 2)
    np.testing.assert_array_equal(out[:, 0], grid.times())
    np.testing.assert_array_equal(out[:, 1], 0.0)


def test_reconstruct_Z_matches_provider_before_death():
    model = builtin_model("bachelier_digital")
    grid = TimeGrid(0.0, 1.0, 16)
    path = simulate_path(model, ProblemPoint(0.0, 0.0), grid, seed=9)
    out = reconstruct_Z(model, path, bachelier_provider(1.0))
    # never-degenerate path: alive until the horizon, zero exactly there
    assert out[0, 1] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi),
                                      rel=1e-12)
    k = 7
    t_k = float(grid.times()[k])
    expect = stats.norm.pdf(path.X[k] / math.sqrt(1.0 - t_k)) \
        / math.sqrt(1.0 - t_k)
    assert out[k, 1] == pytest.approx(float(expect), rel=1e-12)
    assert out[-1, 1] == 0.0


def test_reconstruct_Z_accepts_precomputed_tau():
    model = builtin_model("step_vol")
    grid = TimeGrid(0.0, 1.0, 32)
    path = simulate_path(model, ProblemPoint(0.0, 0.2), grid, seed=4)
    prov = bachelier_provider(1.0)
    tau = locate_tau(model, path)
    np.testing.assert_array_equal(reconstruct_Z(model, path, prov, tau=tau),
                                  reconstruct_Z(model, path, prov))
    # the given tau is used as is, without being recomputed
    out = reconstruct_Z(model, path, prov, tau=float(grid.times()[3]))
    assert np.all(out[3:, 1] == 0.0) and np.all(out[:3, 1] != 0.0)


def test_reconstruct_Z_needs_gradient_provider():
    # a provider is its gradient: one without ux_eval cannot be built
    with pytest.raises(TypeError):
        ValueProvider()


def _never_called(t, x):
    raise AssertionError("ux_eval called past tau")


def _z_setups():
    step_vol = builtin_model("step_vol")
    fd = ValueProvider(ux_eval=solve_fd(
        step_vol, make_grid(step_vol, -4.0, 4.0, 81)).ux)
    return {
        # tau = t_cut < T: the FD gradient before the cut, zero after it
        "step_vol/pde": (step_vol, fd),
        # tau = t0: no node is alive, so the provider is never called
        "indicator_zero_vol": (builtin_model("indicator_zero_vol"),
                               ValueProvider(ux_eval=_never_called)),
        "bachelier_digital/exact": (builtin_model("bachelier_digital"),
                                    bachelier_provider(1.0)),
        "example1/closed_form": (builtin_model("example1"), example1_provider(
            Example1Params(alpha=0.8, beta=0.5))),
        "step_vol/scalar": (step_vol,
                            ValueProvider(ux_eval=lambda t, x: 1.0 + t)),
    }


_Z_SETUPS = _z_setups()


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_Z_SETUPS)), seed=st.integers(0, 2 ** 32),
       n_paths=st.integers(1, 16), n_steps=st.integers(1, 60),
       x0=st.floats(-1.0, 1.0))
def test_batch_Z_rows_equal_the_frozen_per_node_loop(name, seed, n_paths,
                                                     n_steps, x0):
    model, provider = _Z_SETUPS[name]
    grid = TimeGrid(0.0, model.horizon_T, n_steps)
    batch = simulate_batch(model, ProblemPoint(0.0, x0), grid, seed, n_paths)
    taus = locate_tau_batch(model, batch)
    Z = est_mod._z_matrix(grid.times(), batch.X, batch.gamma, taus, provider)
    assert Z.shape == batch.X.shape
    for i in range(n_paths):
        ref = ref_mod.reconstruct_Z(model, batch[i], provider)
        np.testing.assert_array_equal(Z[i].view(np.uint64),
                                      ref[:, 1].view(np.uint64))
        np.testing.assert_array_equal(
            reconstruct_Z(model, batch[i], provider).view(np.uint64),
            ref.view(np.uint64))


def test_lambda_moment_is_deterministic_for_time_only_volatility():
    model = builtin_model("example1")
    grid = TimeGrid(0.0, 2.0, 200)
    # left Riemann sum of (1-t) over [0, 1] at dt = 0.01
    lam = 0.01 * sum(1.0 - 0.01 * j for j in range(100))
    point = ProblemPoint(0.0, 0.0)
    m1 = empirical_lambda_moment(model, point, grid, seed=0, n_paths=16, p=1.0)
    m2 = empirical_lambda_moment(model, point, grid, seed=0, n_paths=16, p=2.0)
    assert lam == pytest.approx(0.505, rel=1e-12)
    assert m1.mean == pytest.approx(1.0 / lam, rel=1e-9)
    assert m2.mean == pytest.approx(1.0 / lam ** 2, rel=1e-9)
    assert m1.stderr == pytest.approx(0.0, abs=1e-12)


def test_lambda_moment_validates_inputs():
    model = builtin_model("example1")
    grid = TimeGrid(0.0, 2.0, 16)
    with pytest.raises(ValueError):
        empirical_lambda_moment(model, ProblemPoint(0.0, 0.0), grid, seed=0,
                                n_paths=8, p=0.0)
    with pytest.raises(OutsideGamma0Error):
        empirical_lambda_moment(model, ProblemPoint(1.5, 0.0),
                                TimeGrid(1.5, 2.0, 16), seed=0, n_paths=8,
                                p=1.0)
    with pytest.raises(EstimationError):
        empirical_lambda_moment(model, ProblemPoint(0.0, 0.0), grid, seed=0,
                                n_paths=8, p=1.0, lambda_floor=1e9)


# ---------------------------------------------------------------------------
# the alive-set gate of the weighted estimators
# ---------------------------------------------------------------------------

_GATED = [
    (estimate_ux_weighted, {"weight_kind": "degenerate"}),
    (estimate_ux_weighted, {"weight_kind": "nondegenerate"}),
    (empirical_lambda_moment, {"p": 1.0}),
]
_GATED_IDS = ["degenerate", "nondegenerate", "lambda_moment"]


def _time_vol_model(sigma_of_t) -> CoefficientModel:
    """tanh payoff, zero drift, volatility ``sigma_of_t(t)`` in every x."""
    def sigma(t, x):
        return sigma_of_t(t) * np.ones_like(np.asarray(x, dtype=float))

    return dataclasses.replace(_const_vol_model(np.tanh), sigma=sigma)


def _count_gamma_reports(monkeypatch):
    """The points ``gamma_report`` classifies from now on."""
    points = []
    real = est_mod.gamma_report

    def counting(model, point, **kwargs):
        points.append(point)
        return real(model, point, **kwargs)

    monkeypatch.setattr(est_mod, "gamma_report", counting)
    return points


@pytest.mark.parametrize("fn, kwargs", _GATED, ids=_GATED_IDS)
def test_start_alive_where_it_stands_sweeps_no_characteristic(
        monkeypatch, fn, kwargs):
    reports = _count_gamma_reports(monkeypatch)
    model = builtin_model("tanh_smooth")
    e = fn(model, ProblemPoint(0.3, 0.2), TimeGrid(0.3, 1.0, 10), seed=0,
           n_paths=32, **kwargs)
    assert e.n_used == 32
    assert reports == []


@pytest.mark.parametrize("fn, kwargs", _GATED[::2], ids=_GATED_IDS[::2])
def test_start_dead_where_it_stands_but_alive_later_is_swept(monkeypatch, fn,
                                                            kwargs):
    # sigma = 1{t >= 0.5}: dead at t0 = 0.2, alive further along
    reports = _count_gamma_reports(monkeypatch)
    model = _time_vol_model(lambda t: float(t >= 0.5))
    point = ProblemPoint(0.2, 0.1)
    e = fn(model, point, TimeGrid(0.2, 1.0, 16), seed=0, n_paths=32,
           **kwargs)
    assert e.n_used == 32
    assert reports == [point]


@pytest.mark.parametrize("fn, kwargs", _GATED, ids=_GATED_IDS)
def test_gate_checks_its_inputs_before_any_sigma_or_draw(monkeypatch, fn,
                                                        kwargs):
    reports = _count_gamma_reports(monkeypatch)
    draws = []
    monkeypatch.setattr(est_mod, "_normal_matrix",
                        lambda *args: draws.append(args))
    sigma_calls = []
    model = _time_vol_model(lambda t: sigma_calls.append(t) or 1.0)
    grid = TimeGrid(0.0, 1.0, 8)
    inside, beyond = ProblemPoint(0.0, 0.0), ProblemPoint(1.5, 0.0)
    for point, eps_sigma, match in [
            (inside, 0.0, "eps_sigma must be positive"),
            (inside, -1.0, "eps_sigma must be positive"),
            (beyond, 1e-8, "beyond the horizon"),
            (beyond, 0.0, "eps_sigma must be positive")]:
        with pytest.raises(ValueError, match=match):
            fn(model, point, grid, seed=0, n_paths=8, eps_sigma=eps_sigma,
               **kwargs)
    assert (reports, draws, sigma_calls) == ([], [], [])


@pytest.mark.parametrize("fn, kwargs", _GATED, ids=_GATED_IDS)
def test_start_alive_where_it_stands_passes_the_gate_despite_a_later_nan(
        monkeypatch, fn, kwargs):
    # sigma is 1 up to t = 0.5 and NaN after: the characteristic's running
    # max turns NaN, so gamma_report puts the start outside the alive set,
    # but the start is alive where it stands, as locate_tau also counts it;
    # every path then carries a NaN and no sample is usable
    model = _time_vol_model(lambda t: 1.0 if t <= 0.5 else float("nan"))
    point, grid = ProblemPoint(0.0, 0.1), TimeGrid(0.0, 1.0, 8)
    assert not gamma_report(model, point).in_Gamma0
    assert locate_tau(model, simulate_path(model, point, grid, 0)) > 0.0
    reports = _count_gamma_reports(monkeypatch)
    with pytest.raises(EstimationError):
        fn(model, point, grid, seed=0, n_paths=8, **kwargs)
    assert reports == []


# ---------------------------------------------------------------------------
# chunking and providers
# ---------------------------------------------------------------------------


def test_estimates_do_not_depend_on_chunk_size(monkeypatch):
    # a stale x_flat declaration too: every chunk steps with the values at
    # the start x0, not at its own first path
    grid = TimeGrid(0.0, 1.0, 16)

    def run(model, point):
        u = estimate_u(model, point, grid, seed=13, n_paths=100)
        w = estimate_ux_weighted(model, point, grid, seed=13, n_paths=100)
        return u, w

    for model, point in [(builtin_model("bachelier_digital"),
                          ProblemPoint(0.0, 0.1)),
                         (_stale_x_flat_model(), ProblemPoint(0.0, 0.3))]:
        monkeypatch.setattr(est_mod, "CHUNK_SIZE", 7)
        small = run(model, point)
        monkeypatch.setattr(est_mod, "CHUNK_SIZE", 64)
        large = run(model, point)
        assert small == large, model.name


def test_bachelier_provider_wraps_closed_form():
    prov = bachelier_provider(2.0, strike=0.1, T=1.0)
    ux = prov.ux_eval(0.75, 0.3)
    s = 2.0 * math.sqrt(0.25)
    assert ux == pytest.approx(float(stats.norm.pdf(0.2 / s)) / s, rel=1e-13)


def test_example1_provider_gradient_consistency():
    params = Example1Params(alpha=0.8, beta=0.5)
    prov = example1_provider(params)
    # central difference of the closed form against the exact origin slope
    assert prov.ux_eval(0.3, 0.0) == pytest.approx(
        example1_ux_at_zero(0.3, params), rel=1e-6)

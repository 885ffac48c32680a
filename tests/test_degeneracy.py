import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenbsde import (
    DEFAULT_EPS_SIGMA,
    CoefficientModel,
    ProblemPoint,
    TimeGrid,
    builtin_model,
    builtin_model_names,
    characteristic,
    check_gamma_equivalence,
    gamma_report,
    locate_tau,
    locate_tau_batch,
    simulate_batch,
    simulate_path,
    transformed_drift,
)
from degenbsde.degeneracy import _locate_tau_matrix, _max_sigma_batch
from test_pde_fd import _FROZEN_FD_MODELS


def _zeros2(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _drifting_model(speed: float = 1.0) -> CoefficientModel:
    # unit drift, volatility alive only on x > 1: tests the distinction
    # between alive-now and alive-somewhere-downstream
    def sig(t, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 1.0, 1.0, 0.0)

    return CoefficientModel(
        sigma=sig,
        sigma_x=_zeros2,
        b=lambda t, x: np.full_like(np.asarray(x, dtype=float), speed),
        b_x=_zeros2,
        f1=lambda t, x, y: np.zeros_like(np.asarray(x, dtype=float)),
        f2=_zeros2,
        f2_x=_zeros2,
        g=lambda x: np.tanh(np.asarray(x, dtype=float)),
        g_prime=lambda x: 1.0 - np.tanh(np.asarray(x, dtype=float)) ** 2,
        lipschitz_K=max(speed, 1.0) + 1.0,
        holder_alpha=1.0,
        holder_C=1.0,
        horizon_T=2.0,
        f1_is_zero=True,
        name="drift_into_life_test",
    )


def test_characteristic_follows_constant_drift():
    m = _drifting_model(speed=1.0)
    char = characteristic(m, ProblemPoint(0.0, -0.5))
    times = char.grid.times()
    np.testing.assert_allclose(char.eta, -0.5 + times, rtol=0, atol=1e-12)


def test_characteristic_requires_room_before_horizon():
    m = builtin_model("tanh_smooth")
    with pytest.raises(ValueError):
        characteristic(m, ProblemPoint(1.0, 0.0))


def test_gamma_report_distinguishes_alive_now_from_alive_later():
    m = _drifting_model(speed=1.0)
    rep = gamma_report(m, ProblemPoint(0.0, 0.5))
    # dead at the start point, but the drift carries it into x > 1
    assert not rep.in_Gamma
    assert rep.in_Gamma0
    assert rep.n_index == 1
    assert rep.max_sigma_on_characteristic == pytest.approx(1.0)

    # starting too far left, the characteristic never reaches x > 1
    rep2 = gamma_report(m, ProblemPoint(0.0, -1.5))
    assert not rep2.in_Gamma and not rep2.in_Gamma0
    assert rep2.n_index is None


def test_gamma_report_on_builtins():
    ind = builtin_model("indicator_zero_vol")
    rep = gamma_report(ind, ProblemPoint(0.0, 1.0))
    assert not rep.in_Gamma and not rep.in_Gamma0

    ex1 = builtin_model("example1")
    alive = gamma_report(ex1, ProblemPoint(0.5, 0.0))
    assert alive.in_Gamma and alive.in_Gamma0
    dead = gamma_report(ex1, ProblemPoint(1.25, 0.0))
    assert not dead.in_Gamma and not dead.in_Gamma0

    bach = builtin_model("bachelier_digital")
    rep_b = gamma_report(bach, ProblemPoint(0.0, 0.0))
    assert rep_b.in_Gamma0 and rep_b.n_index == 1


def test_n_index_scales_with_peak_volatility():
    m = builtin_model("bachelier_digital", sigma_bar=0.125)
    rep = gamma_report(m, ProblemPoint(0.0, 0.0))
    assert rep.n_index == 8
    m2 = builtin_model("bachelier_digital", sigma_bar=0.3)
    assert gamma_report(m2, ProblemPoint(0.0, 0.0)).n_index == 4


def test_gamma_report_at_horizon_uses_terminal_volatility():
    m = builtin_model("tanh_smooth")
    rep = gamma_report(m, ProblemPoint(1.0, 0.0))
    assert rep.in_Gamma and rep.in_Gamma0


def test_locate_tau_on_trivial_model_is_start_time():
    m = builtin_model("indicator_zero_vol")
    grid = TimeGrid(0.25, 1.0, 8)
    path = simulate_path(m, ProblemPoint(0.25, 1.0), grid, 0, 0)
    assert locate_tau(m, path) == 0.25


def test_locate_tau_snaps_to_first_dead_grid_node():
    m = builtin_model("step_vol", t_cut=0.5)
    grid = TimeGrid(0.0, 1.0, 40)  # dt = 0.025, 0.5 on the grid
    batch = simulate_batch(m, ProblemPoint(0.0, 0.0), grid, 1, 32)
    taus = locate_tau_batch(m, batch)
    # alive at 0.5 itself (inclusive cut), dead at the next node
    assert np.all(taus == 0.525)


def test_locate_tau_never_dead_returns_horizon():
    m = builtin_model("tanh_smooth")
    grid = TimeGrid(0.0, 1.0, 16)
    path = simulate_path(m, ProblemPoint(0.0, 0.0), grid, 2, 0)
    assert locate_tau(m, path) == 1.0


def test_locate_tau_batch_matches_scalar_calls():
    m = builtin_model("example1")
    grid = TimeGrid(0.0, 2.0, 50)
    batch = simulate_batch(m, ProblemPoint(0.0, 0.0), grid, 3, 10)
    taus = locate_tau_batch(m, batch)
    for i in range(10):
        assert locate_tau(m, batch[i]) == taus[i]


def test_equivalence_under_drift_absorption():
    m = builtin_model("girsanov_const", f2=0.5)
    pts = [ProblemPoint(float(t), float(x))
           for t in np.linspace(0.0, 1.0, 10, endpoint=False)
           for x in np.linspace(-2.0, 2.0, 10)]
    rep = check_gamma_equivalence(m, pts)
    assert rep.n_points == 100
    assert rep.agreement_fraction == 1.0
    assert rep.n_agree == 100
    assert rep.max_index_ratio == pytest.approx(1.0)


def test_equivalence_report_counts_alive_points():
    m = builtin_model("step_vol", t_cut=0.5)
    pts = [ProblemPoint(0.25, 0.0), ProblemPoint(0.75, 0.0)]
    rep = check_gamma_equivalence(m, pts)
    assert rep.n_in_both == 1
    assert rep.agreement_fraction == 1.0


def test_transformed_model_same_tau():
    m = builtin_model("girsanov_const", f2=0.5)
    mt = transformed_drift(m)
    grid = TimeGrid(0.0, 1.0, 64)
    path = simulate_path(m, ProblemPoint(0.0, 0.0), grid, 5, 0)
    assert locate_tau(m, path) == locate_tau(mt, path)


def test_eps_sigma_validation():
    m = builtin_model("tanh_smooth")
    with pytest.raises(ValueError):
        gamma_report(m, ProblemPoint(0.0, 0.0), eps_sigma=0.0)


def test_report_returns_identical_answers():
    m = builtin_model("example1")
    a = gamma_report(m, ProblemPoint(0.5, 0.0))
    b = gamma_report(m, ProblemPoint(0.5, 0.0))
    assert a == b


def test_report_does_not_keep_models_alive():
    m = builtin_model("step_vol")
    gamma_report(m, ProblemPoint(0.1, 0.0))
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None



def _reference_locate_tau_matrix(model, times, X, eps_sigma):
    # the classification before the pointwise shortcut, kept frozen: one
    # characteristic ODE per active path and node
    n_paths = X.shape[0]
    taus = np.full(n_paths, float(times[-1]))
    active = np.arange(n_paths)
    for k in range(times.size):
        if active.size == 0:
            break
        t = float(times[k])
        mx = _max_sigma_batch(model, t, X[active, k])
        dead = ~(mx > eps_sigma)
        if np.any(dead):
            taus[active[dead]] = t
            active = active[~dead]
    return taus


_TAU_MODELS = {**{name: builtin_model(name) for name in builtin_model_names()},
               "drift_into_life": _drifting_model(speed=1.0)}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_TAU_MODELS)),
    seed=st.integers(0, 2 ** 32),
    n_paths=st.integers(1, 24),
    n_steps=st.integers(1, 30),
    t_frac=st.floats(0.0, 0.98),
    x0=st.floats(-2.0, 2.0),
    eps_sigma=st.sampled_from([1e-8, 1e-3, 0.3, 0.9, 1.5]),
)
def test_locate_tau_matrix_matches_frozen_reference(name, seed, n_paths,
                                                    n_steps, t_frac, x0,
                                                    eps_sigma):
    model = _TAU_MODELS[name]
    t0 = t_frac * model.horizon_T
    grid = TimeGrid(t0, model.horizon_T, n_steps)
    batch = simulate_batch(model, ProblemPoint(t0, x0), grid, seed, n_paths)
    want = _reference_locate_tau_matrix(model, grid.times(), batch.X,
                                        eps_sigma)
    got = locate_tau_batch(model, batch, eps_sigma=eps_sigma)
    np.testing.assert_array_equal(got, want)


def _nan_sigma_model(sigma) -> CoefficientModel:
    return CoefficientModel(
        sigma=sigma, sigma_x=_zeros2, b=_zeros2, b_x=_zeros2,
        f1=lambda t, x, y: np.zeros_like(np.asarray(x, dtype=float)),
        f2=_zeros2, f2_x=_zeros2,
        g=lambda x: np.tanh(np.asarray(x, dtype=float)),
        lipschitz_K=1.0, holder_alpha=1.0, holder_C=1.0, horizon_T=1.0,
        f1_is_zero=True, name="nan_sigma_test",
    )


def test_nan_sigma_at_the_node_goes_to_the_ode_and_is_dead():
    # sigma is NaN right of x = 1: a path starting there fails the
    # pointwise test, and the ODE's NaN running max classifies it dead
    model = _nan_sigma_model(lambda t, x: np.where(
        np.asarray(x, dtype=float) > 1.0, np.nan, 1.0))
    times = np.linspace(0.0, 1.0, 5)
    X = np.array([[2.0] * 5, [0.0] * 5])
    for locate in (_locate_tau_matrix, _reference_locate_tau_matrix):
        np.testing.assert_array_equal(locate(model, times, X, 1e-8),
                                      [0.0, 1.0])


def test_pointwise_alive_node_stays_alive_before_nan_sigma():
    # sigma is 1 up to t = 0.5 and NaN after: nodes up to 0.5 are alive
    # pointwise, the first NaN node is dead through the ODE.  Solving the
    # ODE everywhere would carry the later NaN into the running max and
    # call the path dead from its start.
    model = _nan_sigma_model(lambda t, x: np.where(
        t <= 0.5, 1.0, np.nan) * np.ones_like(np.asarray(x, dtype=float)))
    times = np.linspace(0.0, 1.0, 5)
    X = np.zeros((1, 5))
    assert _locate_tau_matrix(model, times, X, 1e-8)[0] == 0.75
    assert _reference_locate_tau_matrix(model, times, X, 1e-8)[0] == 0.0


# ---------------------------------------------------------------------------
# nodes past frozen_after are dead without the characteristic sweep
# ---------------------------------------------------------------------------


def _pointwise_locate_tau_matrix(model, times, X, eps_sigma, sweeps=None):
    # the classification before nodes past frozen_after were marked dead
    # without a sweep, kept frozen: the pointwise shortcut, then the ODE.
    # The sweep is looked up on ``sweeps`` when given, so that it can be
    # counted.
    sweep = _max_sigma_batch if sweeps is None else sweeps._max_sigma_batch
    n_paths = X.shape[0]
    taus = np.full(n_paths, float(times[-1]))
    active = np.arange(n_paths)
    for k in range(times.size):
        if active.size == 0:
            break
        t = float(times[k])
        x = X[active, k]
        here = np.abs(np.broadcast_to(
            np.asarray(model.sigma(t, x), dtype=float), x.shape))
        check = ~(here > eps_sigma)
        if not np.any(check):
            continue
        mx = sweep(model, t, x[check])
        dead = np.zeros(active.size, dtype=bool)
        dead[check] = ~(mx > eps_sigma)
        if np.any(dead):
            taus[active[dead]] = t
            active = active[~dead]
    return taus


def _frozen_nan_sigma(t_cut):
    # sigma is NaN right of x = 1 until the cut and 0 after it; the drift
    # carries characteristics across x = 1 until the cut
    def sigma(t, x):
        x = np.asarray(x, dtype=float)
        live = np.where(x > 1.0, np.nan, 1.0 + 0.5 * np.tanh(x))
        return live if t <= t_cut else np.zeros_like(x)

    def b(t, x):
        return np.full_like(np.asarray(x, dtype=float),
                            0.8 if t <= t_cut else 0.0)

    return CoefficientModel(
        sigma=sigma, sigma_x=_zeros2, b=b, b_x=_zeros2,
        f1=lambda t, x, y: np.zeros_like(np.asarray(x, dtype=float)),
        f2=_zeros2, f2_x=_zeros2,
        g=lambda x: np.tanh(np.asarray(x, dtype=float)),
        lipschitz_K=2.0, holder_alpha=1.0, holder_C=1.0, horizon_T=1.0,
        f1_is_zero=True, sigma_time_jumps=(t_cut,), frozen_after=t_cut,
        name="frozen_nan_sigma",
    )


def _frozen_negative_zero(t_cut):
    # sigma and b turn -0.0 past the cut, and the volatility is alive only
    # right of x = 0.5 before it, so some nodes reach the ODE early
    def sigma(t, x):
        x = np.asarray(x, dtype=float)
        if t > t_cut:
            return -np.zeros_like(x)
        return np.where(x > 0.5, 1.0, -0.0)

    def b(t, x):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, 0.6 if t <= t_cut else -0.0)

    return CoefficientModel(
        sigma=sigma, sigma_x=_zeros2, b=b, b_x=_zeros2,
        f1=lambda t, x, y: np.zeros_like(np.asarray(x, dtype=float)),
        f2=_zeros2, f2_x=_zeros2,
        g=lambda x: np.tanh(np.asarray(x, dtype=float)),
        lipschitz_K=1.0, holder_alpha=1.0, holder_C=1.0, horizon_T=1.0,
        f1_is_zero=True, sigma_time_jumps=(t_cut,), frozen_after=t_cut,
        name="frozen_negative_zero",
    )


_TAU_FROZEN_MODELS = {**_FROZEN_FD_MODELS,
                      "frozen_nan_sigma": _frozen_nan_sigma,
                      "frozen_negative_zero": _frozen_negative_zero}


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(_TAU_FROZEN_MODELS)),
    t_cut=st.floats(0.05, 0.95),
    seed=st.integers(0, 2 ** 32),
    n_paths=st.integers(1, 12),
    n_steps=st.integers(1, 40),
    t_frac=st.floats(0.0, 0.98),
    x0=st.floats(-2.0, 2.0),
    eps_sigma=st.sampled_from([-1.0, 0.0, 1e-8, 0.3, 0.9, 1.5]),
    nan_frac=st.sampled_from([0.0, 0.1]),
)
def test_frozen_tail_taus_match_frozen_reference(name, t_cut, seed, n_paths,
                                                 n_steps, t_frac, x0,
                                                 eps_sigma, nan_frac):
    model = _TAU_FROZEN_MODELS[name](t_cut)
    T = model.horizon_T
    times = np.linspace(t_frac * T, T, n_steps + 1)
    rng = np.random.default_rng(seed)
    X = x0 + np.cumsum(rng.standard_normal((n_paths, n_steps + 1)), axis=1)
    X[rng.random(X.shape) < nan_frac] = np.nan
    want = _pointwise_locate_tau_matrix(model, times, X, eps_sigma)
    got = _locate_tau_matrix(model, times, X, eps_sigma)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["example1", "step_vol", "girsanov_const"])
def test_no_characteristic_sweep_past_frozen_after(name, monkeypatch):
    import degenbsde.degeneracy as deg

    model = builtin_model(name)
    swept = []

    def counted(model, t0, x0):
        swept.append(t0)
        return _max_sigma_batch(model, t0, x0)

    monkeypatch.setattr(deg, "_max_sigma_batch", counted)
    t_start = 0.5 * model.frozen_after
    point = ProblemPoint(t_start, 0.3)
    grid = TimeGrid(t_start, model.horizon_T, 40)
    batch = simulate_batch(model, point, grid, 7, 8)
    taus = locate_tau_batch(model, batch)
    # every path is alive until the freeze and dies at the first node past
    # it, with no sweep anywhere
    first_frozen = grid.times()[grid.times() > model.frozen_after][0]
    assert np.all(taus == first_frozen)
    assert swept == []
    for i in range(batch.X.shape[0]):
        path = simulate_path(model, point, grid, 7, i)
        assert locate_tau(model, path) == taus[i]
    assert swept == []
    # the frozen reference sweeps there once per path, with the same taus
    want = _pointwise_locate_tau_matrix(model, grid.times(), batch.X,
                                        DEFAULT_EPS_SIGMA, deg)
    assert taus.tobytes() == want.tobytes()
    assert swept == [first_frozen]

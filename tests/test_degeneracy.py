import gc
import math
import weakref

import numpy as np
import pytest

from degenbsde import (
    CoefficientModel,
    ProblemPoint,
    TimeGrid,
    builtin_model,
    characteristic,
    check_gamma_equivalence,
    gamma_report,
    locate_tau,
    locate_tau_batch,
    simulate_batch,
    simulate_path,
    transformed_drift,
)


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


import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenbsde import (
    BUILTIN_MODELS,
    CoefficientModel,
    ModelInvariantError,
    ProblemPoint,
    builtin_model,
    builtin_model_names,
    check_model_invariants,
    fd_derivative,
    transformed_drift,
)


def test_all_builtins_pass_invariant_check():
    for name in builtin_model_names():
        check_model_invariants(builtin_model(name))


def test_builtin_registry_is_consistent():
    assert set(builtin_model_names()) == set(BUILTIN_MODELS)
    assert len(builtin_model_names()) == 6


def test_unknown_model_name_rejected():
    with pytest.raises(ValueError, match="unknown model"):
        builtin_model("no_such_model")


def test_unknown_model_param_rejected():
    with pytest.raises(ValueError):
        builtin_model("tanh_smooth", bogus_param=1.0)


def test_example1_parameter_gate():
    # beta must stay below alpha / (2 (1 - alpha))
    builtin_model("example1", alpha=0.8, beta=1.9)
    with pytest.raises(ValueError):
        builtin_model("example1", alpha=0.8, beta=2.1)
    with pytest.raises(ValueError):
        builtin_model("example1", alpha=0.5, beta=0.5)
    with pytest.raises(ValueError):
        builtin_model("example1", alpha=1.2, beta=0.1)


def test_example1_coefficients():
    m = builtin_model("example1", alpha=0.8, beta=0.5)
    assert m.horizon_T == 2.0
    x = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_allclose(m.sigma(0.0, x), np.ones(3))
    np.testing.assert_allclose(m.sigma(0.75, x), 0.5 * np.ones(3))
    np.testing.assert_array_equal(m.sigma(1.0, x), np.zeros(3))
    np.testing.assert_array_equal(m.sigma(1.7, x), np.zeros(3))
    np.testing.assert_allclose(m.g(np.array([4.0])), [4.0 ** 0.2])
    np.testing.assert_allclose(m.g(np.array([-4.0])), [-(4.0 ** 0.2)])


def test_indicator_zero_vol_is_fully_degenerate():
    m = builtin_model("indicator_zero_vol")
    x = np.linspace(-2, 2, 9)
    assert np.all(m.sigma(0.3, x) == 0.0)
    assert np.all(m.b(0.3, x) == 0.0)
    np.testing.assert_array_equal(m.g(np.array([-1.0, 0.0, 1.0])),
                                  [0.0, 0.0, 1.0])
    assert m.g_jumps == (0.0,)
    assert m.f1_is_zero


def test_step_vol_time_jump_metadata():
    m = builtin_model("step_vol", t_cut=0.25)
    assert m.sigma_time_jumps == (0.25,)
    x = np.zeros(1)
    assert m.sigma(0.25, x)[0] == 1.0
    assert m.sigma(0.2500001, x)[0] == 0.0


def test_frozen_after_declarations():
    assert builtin_model("example1").frozen_after == 1.0
    assert builtin_model("step_vol", t_cut=0.25).frozen_after == 0.25
    assert builtin_model("indicator_zero_vol").frozen_after == 0.0
    assert builtin_model("tanh_smooth").frozen_after is None
    assert builtin_model("bachelier_digital").frozen_after is None
    gc = builtin_model("girsanov_const", t_cut=0.3)
    assert gc.frozen_after == 0.3
    assert transformed_drift(gc).frozen_after == 0.3


def test_invariant_check_catches_wrong_freeze_time():
    for m, wrong in ((builtin_model("example1"), 0.5),
                     (builtin_model("step_vol", t_cut=0.6), 0.4)):
        with pytest.raises(ModelInvariantError, match="frozen_after"):
            check_model_invariants(replace(m, frozen_after=wrong))
    # a drift that stays alive is caught too
    m = replace(builtin_model("step_vol"), b=lambda t, x: np.full_like(
        np.asarray(x, dtype=float), 0.5), b_x=lambda t, x: np.zeros_like(
        np.asarray(x, dtype=float)))
    with pytest.raises(ModelInvariantError, match="b is not zero"):
        check_model_invariants(m)


def test_fd_derivative_matches_known_derivative():
    fn = lambda t, x: np.sin(x) * (1.0 + t)
    dfn = fd_derivative(fn)
    x = np.linspace(-2, 2, 11)
    np.testing.assert_allclose(dfn(0.5, x), 1.5 * np.cos(x), atol=1e-8)


def test_transformed_drift_absorbs_f2():
    m = builtin_model("girsanov_const", f2=0.5)
    mt = transformed_drift(m)
    x = np.array([-1.0, 0.5])
    # drift gains f2 * sigma, f2 itself is zeroed
    np.testing.assert_allclose(mt.b(0.1, x), m.b(0.1, x) + 0.5 * m.sigma(0.1, x))
    assert np.all(mt.f2(0.1, x) == 0.0)
    assert np.all(mt.f2_x(0.1, x) == 0.0)
    # sigma and payoff untouched
    np.testing.assert_array_equal(mt.sigma(0.1, x), m.sigma(0.1, x))
    np.testing.assert_array_equal(mt.g(x), m.g(x))


def test_transformed_drift_idempotent_in_value():
    m = builtin_model("girsanov_const", f2=0.5)
    mt = transformed_drift(m)
    mtt = transformed_drift(mt)
    x = np.linspace(-2, 2, 7)
    for t in (0.0, 0.3, 0.9):
        np.testing.assert_array_equal(mtt.b(t, x), mt.b(t, x))
        np.testing.assert_array_equal(mtt.b_x(t, x), mt.b_x(t, x))


def test_invariant_check_catches_wrong_derivative():
    base = builtin_model("tanh_smooth")
    from dataclasses import replace
    bad = replace(base, sigma_x=lambda t, x: np.ones_like(np.asarray(x)))
    with pytest.raises(ModelInvariantError):
        check_model_invariants(bad)


def test_invariant_check_catches_bound_violation():
    base = builtin_model("tanh_smooth")
    from dataclasses import replace
    bad = replace(base, b=lambda t, x: 1e6 * np.asarray(x))
    with pytest.raises(ModelInvariantError):
        check_model_invariants(bad)


def test_invariant_check_catches_non_finite_coefficients():
    base = builtin_model("bachelier_digital")

    def nan_right_of_3(t, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 3.0, np.nan, 1.0)

    def inf_drift(t, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < -4.0, -np.inf, 0.0)

    with pytest.raises(ModelInvariantError, match="sigma is not finite"):
        check_model_invariants(replace(base, sigma=nan_right_of_3))
    with pytest.raises(ModelInvariantError, match="b is not finite"):
        check_model_invariants(replace(base, b=inf_drift))


def test_problem_point_validation():
    ProblemPoint(0.0, -3.0)
    with pytest.raises(ValueError):
        ProblemPoint(-0.1, 0.0)
    with pytest.raises(ValueError):
        ProblemPoint(0.0, float("nan"))


@settings(max_examples=50, deadline=None)
@given(t=st.floats(0.0, 2.0), x=st.floats(-50.0, 50.0))
def test_example1_volatility_bounded_and_dead_after_one(t, x):
    m = builtin_model("example1")
    val = float(np.asarray(m.sigma(t, np.array([x])))[0])
    assert 0.0 <= val <= 1.0
    if t >= 1.0:
        assert val == 0.0


@settings(max_examples=50, deadline=None)
@given(x=st.floats(-100.0, 100.0))
def test_payoffs_respect_growth_envelope(x):
    for name in builtin_model_names():
        m = builtin_model(name)
        g = float(np.asarray(m.g(np.array([x])))[0])
        assert abs(g) <= m.psi_K * (1.0 + abs(x) ** m.psi_p0) + 1e-12

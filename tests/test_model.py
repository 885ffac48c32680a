import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from reference_closures import reference_coefficients


def test_all_builtins_pass_invariant_check():
    for name in builtin_model_names():
        check_model_invariants(builtin_model(name))
        if name != "girsanov_const":
            check_model_invariants(builtin_model("girsanov_const", base=name))


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


def test_x_flat_declarations():
    bases = [n for n in builtin_model_names() if n != "girsanov_const"]
    for name in bases:
        assert builtin_model(name).x_flat
        gc = builtin_model("girsanov_const", base=name)
        assert gc.x_flat and transformed_drift(gc).x_flat


def _sech2(x):
    return 1.0 / np.cosh(np.asarray(x, dtype=float)) ** 2


@pytest.mark.parametrize("fields, label", [
    ({"sigma": lambda t, x: 1.0 + 0.25 * np.tanh(np.asarray(x, dtype=float)),
      "sigma_x": lambda t, x: 0.25 * _sech2(x)}, "sigma_x"),
    ({"b": lambda t, x: 0.5 * np.tanh(np.asarray(x, dtype=float)),
      "b_x": lambda t, x: 0.5 * _sech2(x)}, "b_x"),
    ({"f2": lambda t, x: 0.5 * np.tanh(np.asarray(x, dtype=float)),
      "f2_x": lambda t, x: 0.5 * _sech2(x)}, "f2_x"),
], ids=["sigma", "b", "f2"])
def test_invariant_check_catches_a_stale_x_flat_declaration(fields, label):
    # replace() keeps the built-in's x_flat while a coefficient now moves
    # with x; the derivative itself is right, only the declaration is stale
    m = replace(builtin_model("tanh_smooth"), lipschitz_K=1.25, **fields)
    assert m.x_flat
    with pytest.raises(ModelInvariantError, match=f"{label} .*x_flat"):
        check_model_invariants(m)
    check_model_invariants(replace(m, x_flat=False))


def _step_at(level):
    # 1{x > 0.1} times level: no sampled node, nor its derivative probe,
    # straddles the step
    def fn(t, x):
        return level * (np.asarray(x, dtype=float) > 0.1)
    return fn


@pytest.mark.parametrize("field, values", [
    ("sigma", lambda t, x: 1.0 + _step_at(0.5)(t, x)),
    ("b", _step_at(0.5)),
    ("f2", _step_at(0.5)),
    # -0.0 left of 0 and +0.0 right of it: one value, but not one float64
    ("b", lambda t, x: np.where(np.asarray(x, dtype=float) < 0.0, -0.0, 0.0)),
], ids=["sigma", "b", "f2", "b-signed-zero"])
def test_invariant_check_catches_a_coefficient_that_moves_with_x(field,
                                                                  values):
    # the declared derivatives are right (zero at every sampled node), so
    # only the values across x show that the x_flat declaration is stale
    m = replace(builtin_model("bachelier_digital"), lipschitz_K=1.5,
                **{field: values})
    assert m.x_flat
    check_model_invariants(replace(m, x_flat=False))
    with pytest.raises(ModelInvariantError,
                       match=f": {field} varies in x at t=.*x_flat"):
        check_model_invariants(m)


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


_COEFFICIENTS = ("sigma", "sigma_x", "b", "b_x", "f1", "f2", "f2_x")
_BASES = ("indicator_zero_vol", "example1", "bachelier_digital",
          "tanh_smooth", "step_vol")


def _assert_coefficients_match_reference(name, params, t, x):
    model = builtin_model(name, **params)
    reference = reference_coefficients(name, **params)
    for label in _COEFFICIENTS:
        args = (t, x, x) if label == "f1" else (t, x)
        with np.errstate(all="ignore"):
            got = getattr(model, label)(*args)
            want = reference[label](*args)
        # a fresh array with the reference's shape, dtype and bytes
        assert isinstance(got, np.ndarray), label
        assert not np.shares_memory(got, x), label
        assert (got.shape, got.dtype) == (want.shape, want.dtype), label
        assert got.tobytes() == want.tobytes(), (label, got, want)


@st.composite
def _builtin_params(draw, name):
    if name == "girsanov_const":
        base = draw(st.sampled_from(_BASES))
        return dict(draw(_builtin_params(base)), base=base,
                    f2=draw(st.one_of(st.sampled_from([0.5, 0.0, -0.0]),
                                      st.floats(allow_nan=False))))
    if name == "indicator_zero_vol":
        return {"T": draw(st.floats(0.1, 10.0))}
    if name == "example1":
        alpha = draw(st.floats(0.05, 0.95))
        gate = alpha / (2.0 * (1.0 - alpha))
        return {"alpha": alpha,
                "beta": draw(st.floats(0.0, gate, exclude_min=True,
                                       exclude_max=True))}
    params = {"sigma_bar": draw(st.one_of(
        st.sampled_from([1.0, 1e308, math.inf]),
        st.floats(min_value=0.0, exclude_min=True)))}
    if name == "step_vol":
        T = draw(st.floats(0.1, 10.0))
        params.update(T=T, t_cut=draw(st.floats(0.0, T, exclude_min=True,
                                                exclude_max=True)))
    return params


@settings(max_examples=400, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(BUILTIN_MODELS)))
def test_builtin_coefficients_match_frozen_reference_bits(data, name):
    params = data.draw(_builtin_params(name), label="params")
    model = builtin_model(name, **params)
    T = model.horizon_T
    cut = model.frozen_after if model.frozen_after is not None else 0.5
    times = [0.0, -0.0, math.nan, 1.0, T, T + 1.0, math.inf, -math.inf,
             cut, float(np.nextafter(cut, math.inf)),
             float(np.nextafter(cut, -math.inf))]
    scalar_t = st.one_of(st.sampled_from(times), st.floats(),
                         st.floats().map(np.float64),
                         st.sampled_from(times).map(np.float64),
                         st.integers(-3, 12))
    shapes = hnp.array_shapes(min_dims=1, max_dims=2, max_side=5)
    x = data.draw(st.one_of(
        st.floats(),
        hnp.arrays(np.float64, ()),
        hnp.arrays(np.float64, st.one_of(st.just((1,)), shapes)),
        hnp.arrays(np.int64, shapes, elements=st.integers(-10, 10))),
        label="x")
    t_elements = st.one_of(st.sampled_from(times), st.floats())
    t = data.draw(scalar_t if not isinstance(x, np.ndarray) else st.one_of(
        scalar_t, hnp.arrays(np.float64, x.shape, elements=t_elements)),
        label="t")
    _assert_coefficients_match_reference(name, params, t, x)


@pytest.mark.parametrize("sigma_bar", [math.inf, 1e308])
@pytest.mark.parametrize("base", [None, "step_vol"])
@pytest.mark.parametrize("x", [0.5, np.array(-0.0), np.zeros(1),
                               np.arange(6.0).reshape(2, 3)],
                         ids=["float", "0-d", "(1,)", "(2, 3)"])
def test_step_vol_past_its_cut_keeps_the_reference_zero(sigma_bar, base, x):
    # sigma_bar * False would read NaN for an infinite sigma_bar; the
    # reference selects 0.0, and so must the model
    params = {"sigma_bar": sigma_bar, "t_cut": 0.5, "T": 1.0}
    name = "step_vol" if base is None else "girsanov_const"
    if base is not None:
        params.update(base=base, f2=0.5)
    for t in (0.5, float(np.nextafter(0.5, 1.0)), 0.75, 1.0, 2.0, math.nan):
        _assert_coefficients_match_reference(name, dict(params), t, x)

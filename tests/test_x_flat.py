"""x-flat models: a model that declares ``x_flat`` skips the tangent flow
and the ``B`` sum in the stepping kernel, and every result must equal that
of the same model without the declaration, bit for bit."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from degenbsde import (
    ProblemPoint,
    TimeGrid,
    builtin_model,
    builtin_model_names,
    empirical_lambda_moment,
    estimate_u,
    estimate_ux_pathwise,
    estimate_ux_weighted,
    path_stream,
    simulate_batch,
    transformed_drift,
)

_BASES = [n for n in builtin_model_names() if n != "girsanov_const"]
_MODELS = {
    **{name: builtin_model(name) for name in _BASES},
    **{f"girsanov_const[{base}]": builtin_model("girsanov_const", base=base)
       for base in _BASES},
}
_UNDECLARED = {name: dataclasses.replace(m, x_flat=False)
               for name, m in _MODELS.items()}


def _outcome(fn, *args, **kwargs):
    """The estimate, or the type of the exception the call raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared by type against the reference run
        return type(exc)


def _bits(a):
    """The float64 bytes of ``a``, so that ``-0.0`` and ``+0.0`` differ."""
    return np.ascontiguousarray(a, dtype=float).tobytes()


def test_declared_model_calls_no_derivative_in_the_kernel():
    calls = []

    def counted(fn):
        def inner(t, x):
            calls.append(t)
            return fn(t, x)
        return inner

    m = builtin_model("tanh_smooth")
    grid = TimeGrid(0.0, 1.0, 8)
    for model, want in ((m, 0), (dataclasses.replace(m, x_flat=False), 8)):
        traced = dataclasses.replace(model, sigma_x=counted(model.sigma_x),
                                     b_x=counted(model.b_x))
        calls.clear()
        list(path_stream(traced, ProblemPoint(0.0, 0.0), grid, 0, range(3)))
        assert len(calls) == 2 * want


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_MODELS)),
    t_frac=st.floats(0.0, 0.98),
    x0=st.floats(-1.0, 1.0),
    n_steps=st.integers(1, 40),
    seed=st.integers(0, 2 ** 32),
    n_paths=st.integers(1, 30),
)
def test_declared_stream_equals_undeclared_stream(name, t_frac, x0, n_steps,
                                                  seed, n_paths):
    # the absorbed drift, as the estimators stream it
    m = transformed_drift(_MODELS[name])
    ref = transformed_drift(_UNDECLARED[name])
    t0 = t_frac * m.horizon_T
    point = ProblemPoint(t0, x0)
    grid = TimeGrid(t0, m.horizon_T, n_steps)
    got = list(path_stream(m, point, grid, seed, range(n_paths)))
    want = list(path_stream(ref, point, grid, seed, range(n_paths)))
    assert len(got) == len(want) == n_steps + 1
    for a, b in zip(got, want):
        assert (a.k, a.t) == (b.k, b.t)
        for field in ("X", "gradX", "gamma", "Lambda", "S1", "B"):
            assert _bits(getattr(a, field)) == _bits(getattr(b, field)), (
                a.k, field)
        assert (a.dW is None) == (b.dW is None)
        if a.dW is not None:
            assert _bits(a.dW) == _bits(b.dW)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_MODELS)),
    t_frac=st.floats(0.0, 0.98),
    x0=st.floats(-1.0, 1.0),
    n_steps=st.integers(1, 30),
    seed=st.integers(0, 2 ** 32),
    n_paths=st.integers(1, 30),
    p=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_declared_estimates_equal_undeclared_estimates(name, t_frac, x0,
                                                       n_steps, seed,
                                                       n_paths, p):
    m, ref = _MODELS[name], _UNDECLARED[name]
    t0 = t_frac * m.horizon_T
    point = ProblemPoint(t0, x0)
    grid = TimeGrid(t0, m.horizon_T, n_steps)
    common = (point, grid, seed, n_paths)
    calls = [
        (estimate_u, {}),
        (estimate_ux_pathwise, {}),
        (estimate_ux_weighted, {"weight_kind": "degenerate"}),
        (estimate_ux_weighted, {"weight_kind": "nondegenerate"}),
        (empirical_lambda_moment, {"p": p}),
    ]
    for fn, kwargs in calls:
        got = _outcome(fn, m, *common, **kwargs)
        want = _outcome(fn, ref, *common, **kwargs)
        assert got == want, (fn.__name__, kwargs)


def test_volatility_bound_that_lets_lambda_overflow_keeps_the_full_update():
    # Lambda overflows on the first step; the full update's B then turns
    # NaN (inf * 0) and floors every degenerate weight, and so must a
    # declared model's
    m = builtin_model("tanh_smooth", sigma_bar=1e160)
    ref = dataclasses.replace(m, x_flat=False)
    point, grid = ProblemPoint(0.0, 0.0), TimeGrid(0.0, 1.0, 5)
    *_, a = path_stream(transformed_drift(m), point, grid, 0, range(4))
    *_, b = path_stream(transformed_drift(ref), point, grid, 0, range(4))
    assert np.isinf(b.Lambda).all() and np.isnan(b.B).all()
    for field in ("X", "gradX", "gamma", "Lambda", "S1", "B"):
        assert _bits(getattr(a, field)) == _bits(getattr(b, field)), field
    assert (_outcome(estimate_ux_weighted, m, point, grid, 0, 8)
            == _outcome(estimate_ux_weighted, ref, point, grid, 0, 8))


def test_batch_materializes_ones_and_zeros():
    m = builtin_model("tanh_smooth")
    point = ProblemPoint(0.0, 0.3)
    grid = TimeGrid(0.0, 1.0, 25)
    a = simulate_batch(m, point, grid, 4, 9)
    b = simulate_batch(dataclasses.replace(m, x_flat=False), point, grid,
                       4, 9)
    for name in ("dW", "X", "gradX", "gamma", "Lambda", "S1", "B", "valid"):
        assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name
    assert (a.gradX == 1.0).all()
    assert (a.B == 0.0).all() and not np.signbit(a.B).any()

"""x-flat models: a model that declares ``x_flat`` skips the tangent flow
and the ``B`` sum in the stepping kernel, and every stream, simulation and
estimate with a running cost must equal that of the same model without
the declaration, bit for bit.  A cost-free estimate draws its terminal
state from the exact law of the discretized scheme instead, so it must
agree with the kernel's statistically, with the same paths kept and the
same ``Lambda_T``."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from degenbsde import (
    Estimate,
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
from degenbsde.sde_sim import (_normal_matrix, _x_flat_coefficients,
                               _x_flat_terminal_law)

_BASES = [n for n in builtin_model_names() if n != "girsanov_const"]
_MODELS = {
    **{name: builtin_model(name) for name in _BASES},
    **{f"girsanov_const[{base}]": builtin_model("girsanov_const", base=base)
       for base in _BASES},
}
_UNDECLARED = {name: dataclasses.replace(m, x_flat=False)
               for name, m in _MODELS.items()}


def _with_cost(model):
    """The model with the running cost ``0.1 tanh(x)``; it stays x-flat,
    since only ``sigma``, ``b`` and ``f2`` must be, and its estimates
    stream the kernel."""
    def f1(t, x):
        return 0.1 * np.tanh(np.asarray(x, dtype=float))

    def f1_x(t, x):
        return 0.1 / np.cosh(np.asarray(x, dtype=float)) ** 2

    return dataclasses.replace(model, f1=f1, f1_x=f1_x, f1_is_zero=False)


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


def _calls(p):
    """Every estimator, as ``(function, keyword arguments)``."""
    return [
        (estimate_u, {}),
        (estimate_ux_pathwise, {}),
        (estimate_ux_weighted, {"weight_kind": "degenerate"}),
        (estimate_ux_weighted, {"weight_kind": "nondegenerate"}),
        (empirical_lambda_moment, {"p": p}),
    ]


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_MODELS)),
    cost=st.booleans(),
    t_frac=st.floats(0.0, 0.98),
    x0=st.floats(-1.0, 1.0),
    n_steps=st.integers(1, 30),
    seed=st.integers(0, 2 ** 32),
    n_paths=st.integers(1, 30),
    p=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_declared_estimates_equal_undeclared_estimates(name, cost, t_frac, x0,
                                                       n_steps, seed,
                                                       n_paths, p):
    # with a running cost both stream the kernel: equal bit for bit.
    # Without one the declared model draws its terminal state from the
    # exact law: the same exceptions, the same paths kept, and Lambda_T
    # bit for bit, so the Lambda moments stay equal; the means are
    # compared statistically below
    m, ref = _MODELS[name], _UNDECLARED[name]
    if cost:
        m, ref = _with_cost(m), _with_cost(ref)
    t0 = t_frac * m.horizon_T
    point = ProblemPoint(t0, x0)
    grid = TimeGrid(t0, m.horizon_T, n_steps)
    common = (point, grid, seed, n_paths)
    for fn, kwargs in _calls(p):
        got = _outcome(fn, m, *common, **kwargs)
        want = _outcome(fn, ref, *common, **kwargs)
        if cost or fn is empirical_lambda_moment or isinstance(want, type):
            assert got == want, (fn.__name__, kwargs)
        else:
            assert isinstance(got, Estimate), (fn.__name__, kwargs, got)
            assert ((got.n_used, got.n_floored, got.reliable)
                    == (want.n_used, want.n_floored, want.reliable))


# Fixed before this test was first run, and not re-picked.
_LAW_SEED = 30_017


@pytest.mark.parametrize("name", builtin_model_names())
def test_terminal_law_agrees_with_the_kernel(name):
    # every built-in is x-flat and cost-free; each estimate from the law
    # agrees with the kernel's (the undeclared model) within 3 combined
    # standard errors at two starts, or both raise the same error
    m = builtin_model(name)
    ref = dataclasses.replace(m, x_flat=False)
    T = m.horizon_T
    for t0, x0 in ((0.0, 0.1), (0.25 * T, -0.3)):
        point, grid = ProblemPoint(t0, x0), TimeGrid(t0, T, 40)
        for fn, kwargs in _calls(1.0):
            args = (point, grid, _LAW_SEED, 4000)
            got = _outcome(fn, m, *args, **kwargs)
            want = _outcome(fn, ref, *args, **kwargs)
            where = (name, t0, fn.__name__, kwargs, got, want)
            if isinstance(want, type):
                assert got == want, where
                continue
            assert isinstance(got, Estimate), where
            assert abs(got.mean - want.mean) <= 3.0 * math.hypot(
                got.stderr, want.stderr), where


def test_terminal_law_draws_the_kernels_terminal_sums_in_law():
    # on the kernel, S1_T / sqrt(Lambda_T) is standard normal, and so is
    # the classical weight's residual (snd_T - c S1_T) / sqrt(r), with
    # c = elapsed / Lambda_T, independent of it, while X_T - S1_T is the
    # constant x0 + D.  The terminal law, from its two normals per path,
    # must give the same.  sigma = 1 + t keeps r away from 0, b = 0.3 keeps
    # D away from 0
    def full(v):
        return lambda t, x: np.full_like(np.asarray(x, dtype=float), v(t))

    m = dataclasses.replace(builtin_model("tanh_smooth"),
                            sigma=full(lambda t: 1.0 + t),
                            b=full(lambda t: 0.3), lipschitz_K=2.0)
    point, grid = ProblemPoint(0.0, 0.2), TimeGrid(0.0, 1.0, 16)
    n = 3000
    batch = simulate_batch(m, point, grid, 30_029, n)
    law = _x_flat_terminal_law(point, grid, _x_flat_coefficients(
        m, point, grid, absorb=False))(_normal_matrix(30_031, range(n), 2))
    gam = batch.gamma[0, :-1]
    lam = batch.Lambda[0, -1]
    assert _bits(law.Lambda) == _bits(np.full(n, lam))
    c = law.elapsed / lam
    r = np.sum(grid.dt * (1.0 / gam - c * gam) ** 2)
    shift = batch.X[0, -1] - batch.S1[0, -1]
    kernel_snd = np.sum(batch.dW / batch.gamma[:, :-1], axis=1)
    for X, S1, snd in ((batch.X[:, -1], batch.S1[:, -1], kernel_snd),
                       (law.X, law.S1, law.snd)):
        z1 = S1 / np.sqrt(lam)
        z2 = (snd - c * S1) / np.sqrt(r)
        assert stats.kstest(z1, "norm").pvalue > 1e-3
        assert stats.kstest(z2, "norm").pvalue > 1e-3
        assert abs(np.corrcoef(z1, z2)[0, 1]) < 4.0 / math.sqrt(n)
        np.testing.assert_allclose(X - S1, shift, rtol=0.0, atol=1e-12)


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

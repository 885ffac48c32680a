"""Every public estimator runs through one simulation-to-estimate driver;
each must return the same ``Estimate``, bit for bit, as its frozen
one-loop-per-estimator reference in ``reference_estimators.py``, or raise
the same exception type."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import degenbsde.estimators as est_mod
import reference_estimators as ref_mod
from degenbsde import ProblemPoint, TimeGrid, ValueProvider, builtin_model
from degenbsde.model import CoefficientModel


def _zero2(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _const(c):
    def fn(t, x):
        return c * np.ones_like(np.asarray(x, dtype=float))
    return fn


def _sech2(x):
    return 1.0 / np.cosh(np.asarray(x, dtype=float)) ** 2


def _value_cost_model() -> CoefficientModel:
    # f = -y + 0.1 tanh(x) with a z-cost absorbed into the drift: the
    # running-cost sums of every estimator read the provider
    return CoefficientModel(
        sigma=lambda t, x: 1.0 + 0.25 * np.tanh(np.asarray(x, dtype=float)),
        sigma_x=lambda t, x: 0.25 * _sech2(x),
        b=_zero2, b_x=_zero2,
        f1=lambda t, x, y: -np.asarray(y, dtype=float)
        + 0.1 * np.tanh(np.asarray(x, dtype=float)),
        f2=_const(0.3), f2_x=_zero2,
        g=lambda x: np.tanh(np.asarray(x, dtype=float)), g_prime=_sech2,
        lipschitz_K=1.5, holder_alpha=1.0, holder_C=1.0, horizon_T=1.0,
        f1_is_zero=False, f1_depends_on_y=True,
        f1_x=lambda t, x, y: 0.1 * _sech2(x),
        f1_y=lambda t, x, y: -np.ones_like(np.asarray(x, dtype=float)),
    )


def _nan_payoff_model() -> CoefficientModel:
    # the payoff is NaN right of 0.3: those paths are excluded as invalid
    def g(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.3, np.nan, x)

    def g_prime(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.3, np.nan, 1.0)

    return CoefficientModel(
        sigma=_const(1.0), sigma_x=_zero2, b=_zero2, b_x=_zero2,
        f1=lambda t, x, y: _zero2(t, x), f2=_zero2, f2_x=_zero2,
        g=g, g_prime=g_prime,
        lipschitz_K=1.0, holder_alpha=1.0, holder_C=1.0, horizon_T=1.0,
    )


_PROVIDER = ValueProvider(
    u_eval=lambda t, x: np.exp(-(1.0 - t)) * np.tanh(np.asarray(x, dtype=float)),
    ux_eval=lambda t, x: np.exp(-(1.0 - t)) * _sech2(x),
)

_CASES = {
    **{name: (builtin_model(name), None)
       for name in ("bachelier_digital", "tanh_smooth", "example1",
                    "step_vol")},
    "value_cost": (_value_cost_model(), _PROVIDER),
    "nan_payoff": (_nan_payoff_model(), None),
}


def _outcome(fn, *args, **kwargs):
    """The estimate, or the type of the exception the call raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared by type against the reference run
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_CASES)),
    t_frac=st.floats(0.0, 0.98),
    x0=st.floats(-1.0, 1.0),
    n_steps=st.integers(1, 30),
    seed=st.integers(0, 2 ** 32),
    n_paths=st.integers(1, 30),
    chunk=st.integers(1, 12),
    p=st.sampled_from([0.5, 1.0, 2.0]),
    lambda_floor=st.sampled_from([None, 1e-3]),
)
def test_driver_matches_frozen_reference(name, t_frac, x0, n_steps, seed,
                                         n_paths, chunk, p, lambda_floor):
    model, provider = _CASES[name]
    t0 = t_frac * model.horizon_T
    point = ProblemPoint(t0, x0)
    grid = TimeGrid(t0, model.horizon_T, n_steps)
    common = (model, point, grid, seed, n_paths)
    calls = [
        ("estimate_u", {"provider": provider}),
        ("estimate_ux_pathwise", {"provider": provider}),
        ("estimate_ux_weighted", {"provider": provider,
                                  "weight_kind": "degenerate",
                                  "lambda_floor": lambda_floor}),
        ("estimate_ux_weighted", {"provider": provider,
                                  "weight_kind": "nondegenerate"}),
        ("empirical_lambda_moment", {"p": p, "lambda_floor": lambda_floor}),
    ]
    saved = est_mod.CHUNK_SIZE, ref_mod.CHUNK_SIZE
    est_mod.CHUNK_SIZE = ref_mod.CHUNK_SIZE = chunk
    try:
        for fn, kwargs in calls:
            got = _outcome(getattr(est_mod, fn), *common, **kwargs)
            want = _outcome(getattr(ref_mod, fn), *common, **kwargs)
            assert got == want, (fn, kwargs)
    finally:
        est_mod.CHUNK_SIZE, ref_mod.CHUNK_SIZE = saved


def test_nan_payoff_is_excluded_and_counted():
    model, _ = _CASES["nan_payoff"]
    grid = TimeGrid(0.0, 1.0, 8)
    e = est_mod.estimate_u(model, ProblemPoint(0.0, 0.0), grid, 0, 64)
    assert 0 < e.n_floored < 64
    assert e.n_used + e.n_floored == 64
    assert e == ref_mod.estimate_u(model, ProblemPoint(0.0, 0.0), grid, 0, 64)

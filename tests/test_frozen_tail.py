"""The frozen tail: models that declare ``frozen_after`` skip the steps and
draws past it, and every result must equal that of the same model without
the declaration, bit for bit."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degenbsde.estimators as est_mod
from degenbsde import (
    CoefficientModel,
    ProblemPoint,
    TimeGrid,
    brownian_increments,
    builtin_model,
    empirical_lambda_moment,
    estimate_u,
    estimate_ux_weighted,
    path_stream,
    simulate_batch,
)
from degenbsde.sde_sim import _normal_matrix

_MODELS = {name: builtin_model(name)
           for name in ("example1", "step_vol", "girsanov_const")}
_UNDECLARED = {name: dataclasses.replace(m, frozen_after=None)
               for name, m in _MODELS.items()}


def _outcome(fn, *args, **kwargs):
    """The estimate, or the type of the exception the call raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared by type against the reference run
        return type(exc)


def test_prefix_draw_equals_prefix_of_full_draw():
    idx = np.arange(200, dtype=np.int64)
    full = _normal_matrix(12345, idx, 257)
    for k in (0, 1, 7, 64, 256):
        prefix = _normal_matrix(12345, idx, k)
        np.testing.assert_array_equal(prefix, full[:k])


def test_stream_stops_drawing_at_the_first_node_past_the_freeze():
    m = builtin_model("example1")  # frozen_after = 1.0
    grid = TimeGrid(0.5, 2.0, 6)  # nodes 0.5, 0.75, 1.0, 1.25, ...
    states = list(path_stream(m, ProblemPoint(0.5, 0.1), grid, 3, [2, 9]))
    assert [s.k for s in states] == list(range(7))
    drawn = np.stack([brownian_increments(3, i, 6, grid.dt) for i in (2, 9)])
    for s in states[:3]:
        np.testing.assert_array_equal(s.dW, drawn[:, s.k])
    for s in states[3:-1]:
        np.testing.assert_array_equal(s.dW, 0.0)
        np.testing.assert_array_equal(s.gamma, 0.0)
        np.testing.assert_array_equal(s.X, states[3].X)
        np.testing.assert_array_equal(s.Lambda, states[3].Lambda)


def test_batch_keeps_full_increments_and_equal_paths():
    m = builtin_model("step_vol")
    ref = _UNDECLARED["step_vol"]
    point = ProblemPoint(0.2, -0.1)
    grid = TimeGrid(0.2, 1.0, 40)
    a = simulate_batch(m, point, grid, 8, 16)
    b = simulate_batch(ref, point, grid, 8, 16)
    for name in ("dW", "X", "gradX", "gamma", "Lambda", "S1", "B", "valid"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_overflow_before_the_freeze_still_poisons_the_weight():
    # Lambda overflows on the only live step; on the first frozen step a
    # full run turns B into NaN (inf * 0), which must happen here too.
    def sigma(t, x):
        return np.where(np.asarray(t) <= 0.5, 1e200, 0.0) * np.ones_like(
            np.asarray(x, dtype=float))

    def zero(t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    m = CoefficientModel(
        sigma=sigma, sigma_x=zero, b=zero, b_x=zero,
        f1=lambda t, x: zero(t, x), f2=zero, f2_x=zero,
        g=lambda x: np.tanh(np.asarray(x, dtype=float)),
        lipschitz_K=1e200, holder_alpha=1.0, holder_C=1.0, horizon_T=1.0,
        f1_is_zero=True, sigma_time_jumps=(0.5,), frozen_after=0.5)
    ref = dataclasses.replace(m, frozen_after=None)
    point = ProblemPoint(0.4, 0.0)
    grid = TimeGrid(0.4, 1.0, 2)
    *_, a = path_stream(m, point, grid, 0, range(4))
    *_, b = path_stream(ref, point, grid, 0, range(4))
    assert np.isnan(b.B).all()
    for name in ("X", "gradX", "Lambda", "S1", "B"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert (_outcome(estimate_ux_weighted, m, point, grid, 0, 4)
            == _outcome(estimate_ux_weighted, ref, point, grid, 0, 4))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_MODELS)),
    t_frac=st.floats(0.0, 0.98),
    x0=st.floats(-1.0, 1.0),
    n_steps=st.integers(1, 40),
    seed=st.integers(0, 2 ** 32),
    n_paths=st.integers(1, 30),
    chunk=st.integers(1, 12),
    p=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_declared_freeze_is_bitwise_neutral(name, t_frac, x0, n_steps, seed,
                                            n_paths, chunk, p):
    m, ref = _MODELS[name], _UNDECLARED[name]
    t0 = t_frac * m.horizon_T  # on both sides of frozen_after
    point = ProblemPoint(t0, x0)
    grid = TimeGrid(t0, m.horizon_T, n_steps)
    common = (point, grid, seed, n_paths)
    calls = [
        (estimate_u, {}),
        (estimate_ux_weighted, {"weight_kind": "degenerate"}),
        (estimate_ux_weighted, {"weight_kind": "nondegenerate"}),
        (empirical_lambda_moment, {"p": p}),
    ]
    saved = est_mod.CHUNK_SIZE
    est_mod.CHUNK_SIZE = chunk
    try:
        for fn, kwargs in calls:
            got = _outcome(fn, m, *common, **kwargs)
            want = _outcome(fn, ref, *common, **kwargs)
            assert got == want, (fn.__name__, kwargs)
    finally:
        est_mod.CHUNK_SIZE = saved


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(_MODELS)),
    t_frac=st.floats(0.0, 0.98),
    n_steps=st.integers(1, 40),
    seed=st.integers(0, 2 ** 32),
    indices=st.lists(st.integers(0, 10_000), min_size=1, max_size=12),
)
def test_stream_on_index_subsets_matches_undeclared_model(name, t_frac,
                                                          n_steps, seed,
                                                          indices):
    m, ref = _MODELS[name], _UNDECLARED[name]
    t0 = t_frac * m.horizon_T
    point = ProblemPoint(t0, 0.05)
    grid = TimeGrid(t0, m.horizon_T, n_steps)
    got = list(path_stream(m, point, grid, seed, indices))
    want = list(path_stream(ref, point, grid, seed, indices))
    assert len(got) == len(want) == n_steps + 1
    for a, b in zip(got, want):
        assert (a.k, a.t) == (b.k, b.t)
        for field in ("X", "gradX", "gamma", "Lambda", "S1", "B"):
            np.testing.assert_array_equal(getattr(a, field),
                                          getattr(b, field))


def test_frozen_after_must_be_finite():
    with pytest.raises(ValueError, match="frozen_after"):
        dataclasses.replace(builtin_model("example1"),
                            frozen_after=float("nan"))

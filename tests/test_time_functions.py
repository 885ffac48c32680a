"""Time functions of the built-in x-flat coefficients: each returns its
closure's value as a Python float, bit for bit, and ``_x_flat_at`` reads
them instead of calling the closures, so the Monte Carlo tables and the FD
sweep of a built-in model call no coefficient once per step or level.  A
coefficient without a time function, such as a user's or a counting
wrapper's, is still called on a one-element ``x`` as before."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenbsde import (ProblemPoint, TimeGrid, builtin_model, cfl_check,
                       make_grid, solve_fd)
from degenbsde.model import (BUILTIN_MODELS, _absorbed_drift, _one_value,
                             _x_flat_at)
from degenbsde.sde_sim import _live_steps, _x_flat_coefficients
from test_model import _BASES, _COEFFICIENTS, _builtin_params
from test_pde_fd import _bump_vol, _n_swept
from test_sde_sim import _stale_x_flat_model

_CASES = ([(name, None) for name in sorted(BUILTIN_MODELS)
           if name != "girsanov_const"]
          + [("girsanov_const", base) for base in _BASES])


def _params(data, name, base):
    strategy = _builtin_params(name)
    if base is not None:
        strategy = strategy.filter(lambda p: p["base"] == base)
    return data.draw(strategy, label="params")


def _bits(value):
    return np.float64(value).tobytes()


def _instants(model):
    """The instants where a time function is most likely to part from its
    closure: the ends, the jumps and the freeze, each with its neighbours."""
    T = model.horizon_T
    marks = [0.0, 1.0, T, T + 1.0, *model.sigma_time_jumps]
    if model.frozen_after is not None:
        marks.append(model.frozen_after)
    near = [float(np.nextafter(m, d)) for m in marks for d in (-1.0, 3.0 * T)]
    return [-0.0] + [t for t in marks + near if 0.0 <= t <= T + 1.0]


def _plain(model):
    """The same model with every coefficient behind a wrapper that carries
    no time function, so ``_x_flat_at`` calls the closures."""
    return replace(model, **{
        name: (lambda fn: lambda t, x: fn(t, x))(getattr(model, name))
        for name in _COEFFICIENTS})


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name, base", _CASES)
def test_time_functions_return_the_closure_bits(name, base, data):
    model = builtin_model(name, **_params(data, name, base))
    T = model.horizon_T
    times = _instants(model) + data.draw(
        st.lists(st.floats(0.0, T + 1.0), max_size=20), label="times")
    x = np.zeros(1)
    plain = _plain(model)
    for label in ("sigma", "b", "f2"):
        assert callable(getattr(getattr(model, label), "_of_t", None)), label
    for t in times:
        for label in _COEFFICIENTS:
            fn = getattr(model, label)
            of_t = getattr(fn, "_of_t", None)
            if of_t is None:
                continue
            # a Python float: Python's ** would raise OverflowError where
            # numpy returns inf, so no call may raise here
            got = of_t(t)
            assert type(got) is float, (label, t)
            assert _bits(got) == fn(t, x).tobytes(), (label, t, got)
        # the fast path and the closure calls agree on the drift too
        fast = _x_flat_at(model, x)(t)
        with np.errstate(invalid="ignore", over="ignore"):
            slow = _x_flat_at(plain, x)(t)
        assert list(map(_bits, fast)) == list(map(_bits, slow)), t


def _counted(model, calls):
    """``model`` with ``sigma``, ``b`` and ``f2`` counted into ``calls``;
    ``functools.wraps`` carries each time function over to its wrapper."""
    def counted(name, fn):
        @functools.wraps(fn)
        def inner(t, x):
            calls[name] += 1
            return fn(t, x)
        return inner

    return replace(model, **{name: counted(name, getattr(model, name))
                             for name in calls})


def _reference_table(model, point, grid):
    """``_x_flat_coefficients`` as the closures give it: each coefficient
    called on a one-element ``x`` at every node the stream computes."""
    n, n_live = grid.n_steps, _live_steps(model, grid)
    x0 = np.full(1, point.x0)
    sigmas, drifts = [], []
    for t in grid.times()[:n_live + (n_live < n)].tolist():
        sig = model.sigma(t, x0)
        sigmas.append(_one_value(sig))
        drifts.append(_one_value(_absorbed_drift(model, t, x0, sig)))
    sigmas.append(_one_value(model.sigma(float(grid.times()[n]), x0)))
    return sigmas, drifts


def test_x_flat_table_of_example1_calls_no_closure():
    model = builtin_model("example1", alpha=0.8, beta=0.3)
    point, grid = ProblemPoint(0.0, 0.1), TimeGrid(0.0, 2.0, 1000)
    calls = dict.fromkeys(["sigma", "b", "f2"], 0)
    table = _x_flat_coefficients(_counted(model, calls), point, grid)
    assert calls == {"sigma": 0, "b": 0, "f2": 0}
    assert len(table[0]) == _live_steps(model, grid) + 2
    want = _reference_table(model, point, grid)
    assert repr(table) == repr(want)
    assert [list(map(_bits, v)) for v in table] == \
        [list(map(_bits, v)) for v in want]


def test_fd_sweep_of_girsanov_const_calls_no_closure_per_level():
    model = builtin_model("girsanov_const")
    grid = make_grid(model, -2.0, 2.0, 41)
    calls = dict.fromkeys(["sigma", "b", "f2"], 0)
    counted = _counted(model, calls)
    cfl_check(counted, grid)
    n_sampled = dict(calls)
    assert min(n_sampled.values()) > 0
    # the check inside solve_fd reuses the sample, and no level calls one
    sol = solve_fd(counted, grid)
    assert calls == n_sampled
    assert sol.U.tobytes() == solve_fd(_plain(model), grid).U.tobytes()


def _reference_calls(model, point, grid):
    n, n_live = grid.n_steps, _live_steps(model, grid)
    computed = n_live + (n_live < n)
    return {"sigma": computed + 1, "b": computed, "f2": computed}


@pytest.mark.parametrize("make", [lambda: _bump_vol(1.5), _stale_x_flat_model,
                                  lambda: _plain(builtin_model("example1"))])
def test_model_without_time_functions_is_called_as_before(make):
    model = make()
    point, grid = ProblemPoint(0.0, 0.3), TimeGrid(0.0, model.horizon_T, 50)
    calls = dict.fromkeys(["sigma", "b", "f2"], 0)
    counted = _counted(model, calls)
    table = _x_flat_coefficients(counted, point, grid)
    assert calls == _reference_calls(model, point, grid)
    want = _reference_table(model, point, grid)
    assert [list(map(_bits, v)) for v in table] == \
        [list(map(_bits, v)) for v in want]


def test_fd_sweep_without_time_functions_calls_once_per_swept_level():
    model = _bump_vol(1.5)
    grid = make_grid(model, -2.0, 2.0, 41)
    calls = dict.fromkeys(["sigma", "b", "f2"], 0)
    counted = _counted(model, calls)
    cfl_check(counted, grid)
    n_sampled = dict(calls)
    solve_fd(counted, grid)
    n_swept = _n_swept(model, grid)
    assert calls == {k: v + n_swept for k, v in n_sampled.items()}


def test_a_partial_set_of_time_functions_calls_every_closure():
    # the fast path needs every coefficient it reads to carry one
    base = builtin_model("girsanov_const")
    model = replace(base, b=lambda t, x: base.b(t, x))
    calls = dict.fromkeys(["sigma", "b", "f2"], 0)
    at = _x_flat_at(_counted(model, calls), np.zeros(1))
    assert at(0.25) == (1.0, 0.5)
    assert calls == {"sigma": 1, "b": 1, "f2": 1}
    assert at(0.75, drift=False) == (0.0, None)
    assert calls == {"sigma": 2, "b": 1, "f2": 1}

"""Every public estimator runs through one simulation-to-estimate driver;
on the stepping kernel each must return the same ``Estimate``, bit for
bit, as its frozen one-loop-per-estimator reference in
``reference_estimators.py``, or raise the same exception type.  So must
each estimate of a joint call, where several reducers read one stream, and
of a call at several start points, whose streams share one draw per chunk.

The references stream the kernel, while the driver draws a cost-free
x-flat job's terminal state from its exact law.  So the reference tests
run the x-flat built-ins undeclared (``x_flat=False``), which the driver
streams through the kernel as the references do.  The
terminal law is compared with the kernel statistically in
``test_x_flat.py``."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import degenbsde.estimators as est_mod
import reference_estimators as ref_mod
from degenbsde import (EstimationError, ProblemPoint, TimeGrid,
                       builtin_model, simulate_batch)
from degenbsde.model import CoefficientModel, check_model_invariants


def _zero2(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _const(c):
    def fn(t, x):
        return c * np.ones_like(np.asarray(x, dtype=float))
    return fn


def _sech2(x):
    return 1.0 / np.cosh(np.asarray(x, dtype=float)) ** 2


def _x_cost_model() -> CoefficientModel:
    # f = 0.1 tanh(x) with a z-cost absorbed into the drift: every
    # estimator but the Lambda moments sums the running cost or its
    # x-derivative along the paths
    return CoefficientModel(
        sigma=lambda t, x: 1.0 + 0.25 * np.tanh(np.asarray(x, dtype=float)),
        sigma_x=lambda t, x: 0.25 * _sech2(x),
        b=_zero2, b_x=_zero2,
        f1=lambda t, x: 0.1 * np.tanh(np.asarray(x, dtype=float)),
        f2=_const(0.3), f2_x=_zero2,
        g=lambda x: np.tanh(np.asarray(x, dtype=float)), g_prime=_sech2,
        lipschitz_K=1.5, holder_alpha=1.0, holder_C=1.0, horizon_T=1.0,
        f1_is_zero=False, f1_x=lambda t, x: 0.1 * _sech2(x),
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
        f1=_zero2, f2=_zero2, f2_x=_zero2,
        g=g, g_prime=g_prime,
        lipschitz_K=1.0, holder_alpha=1.0, holder_C=1.0, horizon_T=1.0,
    )


_CASES = {
    **{name: builtin_model(name)
       for name in ("bachelier_digital", "tanh_smooth", "example1",
                    "step_vol")},
    # the one case with a running cost
    "value_cost": _x_cost_model(),
    "nan_payoff": _nan_payoff_model(),
}
# the same models on the kernel, as the frozen references stream them
_KERNEL_CASES = {name: dataclasses.replace(m, x_flat=False)
                 for name, m in _CASES.items()}


def _calls(p, lambda_floor):
    """Every estimator, as ``(name, keyword arguments)``."""
    return [
        ("estimate_u", {}),
        ("estimate_ux_pathwise", {}),
        ("estimate_ux_weighted", {"weight_kind": "degenerate",
                                  "lambda_floor": lambda_floor}),
        ("estimate_ux_weighted", {"weight_kind": "nondegenerate"}),
        ("empirical_lambda_moment", {"p": p, "lambda_floor": lambda_floor}),
    ]


# the reducer builder behind each public estimator
_REDUCERS = {
    "estimate_u": est_mod._u_reducer,
    "estimate_ux_pathwise": est_mod._ux_pathwise_reducer,
    "estimate_ux_weighted": est_mod._ux_weighted_reducer,
    "empirical_lambda_moment": est_mod._lambda_moment_reducer,
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
    model = _KERNEL_CASES[name]
    t0 = t_frac * model.horizon_T
    point = ProblemPoint(t0, x0)
    grid = TimeGrid(t0, model.horizon_T, n_steps)
    common = (model, point, grid, seed, n_paths)
    calls = _calls(p, lambda_floor)
    saved = est_mod.CHUNK_SIZE, ref_mod.CHUNK_SIZE
    est_mod.CHUNK_SIZE = ref_mod.CHUNK_SIZE = chunk
    try:
        for fn, kwargs in calls:
            got = _outcome(getattr(est_mod, fn), *common, **kwargs)
            want = _outcome(getattr(ref_mod, fn), *common, **kwargs)
            assert got == want, (fn, kwargs)
    finally:
        est_mod.CHUNK_SIZE, ref_mod.CHUNK_SIZE = saved


def test_value_cost_model_takes_the_general_path():
    # sigma moves with x, so this case declares no x_flat: its streams run
    # the tangent flow and the B sum, and still match the reference
    model = _CASES["value_cost"]
    assert not model.x_flat
    check_model_invariants(model)
    calls = []

    def sigma_x(t, x):
        calls.append(t)
        return model.sigma_x(t, x)

    counted = dataclasses.replace(model, sigma_x=sigma_x)
    point, grid = ProblemPoint(0.0, 0.2), TimeGrid(0.0, 1.0, 6)
    got = est_mod.estimate_ux_weighted(counted, point, grid, 3, 20)
    assert len(calls) >= grid.n_steps
    assert got == ref_mod.estimate_ux_weighted(model, point, grid, 3, 20)


def _counting(model, names):
    """The model with the named coefficients counted into ``calls``."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(model, name)

        def inner(t, x):
            calls[name] += 1
            return fn(t, x)
        return inner

    return dataclasses.replace(
        model, **{name: counted(name) for name in names}), calls


def test_stream_calls_each_coefficient_once_per_computed_node():
    # example1 freezes at t = 1 of its horizon 2: on 8 steps the scheme
    # runs 5 live steps, one frozen step on a zero increment and the
    # terminal node, 7 computed nodes; the absorbed drift reuses sigma,
    # and an x-flat job evaluates them once for all of its 3 chunks, from
    # which the terminal law forms its constants
    model = builtin_model("example1")
    point, grid = ProblemPoint(0.0, 0.1), TimeGrid(0.0, 2.0, 8)
    counted, calls = _counting(model, ["sigma", "b"])
    saved = est_mod.CHUNK_SIZE
    est_mod.CHUNK_SIZE = 7
    try:
        got = est_mod.estimate_u(counted, point, grid, 5, 20)
        want = est_mod.estimate_u(model, point, grid, 5, 20)
    finally:
        est_mod.CHUNK_SIZE = saved
    assert got == want
    assert calls == {"sigma": 7, "b": 6}


@pytest.mark.parametrize("estimator", ["estimate_u", "estimate_ux_weighted"])
def test_tangent_stream_calls_each_coefficient_once_per_computed_node(
        estimator):
    # value_cost is not x-flat, so its streams run the tangent flow with
    # the absorbed drift's x-derivative: 6 steps and the terminal node per
    # chunk; the weighted estimator also reads sigma once at the start to
    # see that it is alive there
    model = _CASES["value_cost"]
    point, grid = ProblemPoint(0.0, 0.2), TimeGrid(0.0, 1.0, 6)
    names = ["sigma", "sigma_x", "b", "b_x", "f2", "f2_x"]
    counted, calls = _counting(model, names)
    saved = est_mod.CHUNK_SIZE, ref_mod.CHUNK_SIZE
    est_mod.CHUNK_SIZE = ref_mod.CHUNK_SIZE = 8
    try:
        got = getattr(est_mod, estimator)(counted, point, grid, 3, 20)
        want = getattr(ref_mod, estimator)(model, point, grid, 3, 20)
    finally:
        est_mod.CHUNK_SIZE, ref_mod.CHUNK_SIZE = saved
    assert got == want
    gate = estimator == "estimate_ux_weighted"
    # 3 chunks; f2 is read by the drift and by its x-derivative
    assert calls == {"sigma": 3 * 7 + gate, "sigma_x": 3 * 6, "b": 3 * 6,
                     "b_x": 3 * 6, "f2": 3 * 12, "f2_x": 3 * 6}


def test_simulations_keep_the_drift_without_the_cost():
    # simulate_* step the model's own drift b: the z-cost f2 is absorbed
    # only by the estimators
    model = _CASES["value_cost"]
    point, grid = ProblemPoint(0.0, 0.2), TimeGrid(0.0, 1.0, 6)
    got = simulate_batch(model, point, grid, 3, 5)
    want = simulate_batch(dataclasses.replace(model, f2=_const(7.0)), point,
                          grid, 3, 5)
    for field in ("dW", "X", "gradX", "gamma", "Lambda", "S1", "B"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def test_nan_payoff_is_excluded_and_counted():
    model = _CASES["nan_payoff"]
    grid = TimeGrid(0.0, 1.0, 8)
    e = est_mod.estimate_u(model, ProblemPoint(0.0, 0.0), grid, 0, 64)
    assert 0 < e.n_floored < 64
    assert e.n_used + e.n_floored == 64
    assert e == ref_mod.estimate_u(model, ProblemPoint(0.0, 0.0), grid, 0, 64)


def _joint_reference(outcomes):
    """What a joint call of these estimators must give, from their
    separate outcomes: the first validation error in call order, else
    ``EstimationError`` if any estimate has no usable sample, else every
    estimate."""
    errors = [o for o in outcomes if isinstance(o, type)]
    for err in errors:
        if not issubclass(err, EstimationError):
            return err
    return EstimationError if errors else outcomes


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_CASES)),
    picks=st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True),
    t_frac=st.floats(0.0, 0.98),
    x0=st.floats(-1.0, 1.0),
    n_steps=st.integers(1, 30),
    seed=st.integers(0, 2 ** 32),
    n_paths=st.integers(1, 150),
    chunk=st.sampled_from([7, 64, 8192]),
    p=st.sampled_from([0.5, 1.0, 2.0]),
    lambda_floor=st.sampled_from([None, 1e-3]),
)
def test_joint_call_matches_frozen_references(name, picks, t_frac, x0,
                                              n_steps, seed, n_paths, chunk,
                                              p, lambda_floor):
    model = _KERNEL_CASES[name]
    t0 = t_frac * model.horizon_T
    point = ProblemPoint(t0, x0)
    grid = TimeGrid(t0, model.horizon_T, n_steps)
    common = (model, point, grid, seed, n_paths)
    calls = [_calls(p, lambda_floor)[i] for i in picks]

    def joint():
        reducers = [_REDUCERS[fn](model, point, grid, **kwargs)
                    for fn, kwargs in calls]
        return est_mod._estimate(model, seed, n_paths,
                                 [(point, grid, reducers)])[0]

    saved = est_mod.CHUNK_SIZE, ref_mod.CHUNK_SIZE
    est_mod.CHUNK_SIZE = ref_mod.CHUNK_SIZE = chunk
    try:
        want = _joint_reference([_outcome(getattr(ref_mod, fn), *common,
                                          **kwargs) for fn, kwargs in calls])
        assert _outcome(joint) == want, calls
    finally:
        est_mod.CHUNK_SIZE, ref_mod.CHUNK_SIZE = saved


def _count_draws(monkeypatch):
    """Count the per-chunk normal draws the driver makes from now on."""
    calls = []
    real = est_mod._normal_matrix

    def counting(seed, idx, n_steps):
        calls.append((idx.size, n_steps))
        return real(seed, idx, n_steps)

    monkeypatch.setattr(est_mod, "_normal_matrix", counting)
    return calls


def test_driver_draws_at_most_chunk_size_paths_at_a_time(monkeypatch):
    # the driver's memory bound: 2 * CHUNK_SIZE + 3 paths make two full
    # draws and one of 3 columns, each as tall as the job reads: the two
    # normals of the terminal law, or on the kernel the steps before
    # example1's frozen tail (5 of 8 on its horizon 2)
    draws = _count_draws(monkeypatch)
    monkeypatch.setattr(est_mod, "CHUNK_SIZE", 5)
    point, grid = ProblemPoint(0.0, 0.1), TimeGrid(0.0, 2.0, 8)
    for x_flat, height in ((True, 2), (False, 5)):
        draws.clear()
        model = dataclasses.replace(builtin_model("example1"), x_flat=x_flat)
        reducer = est_mod._u_reducer(model, point, grid)
        est_mod._estimate(model, 7, 2 * 5 + 3, [(point, grid, [reducer])])
        assert draws == [(5, height), (5, height), (3, height)]


@pytest.mark.parametrize("name", ["tanh_smooth", "example1"])
def test_terminal_law_reads_only_the_first_two_rows_of_the_draw(monkeypatch,
                                                               name):
    # every estimator of a cost-free x-flat job at two start points draws
    # two normals per path; rows past them, here NaN, change nothing
    model = builtin_model(name)
    T = model.horizon_T
    calls = _calls(1.0, None)
    picks = [0, 1, 2, 3, 4] if model.g_prime else [0, 2, 4]

    def run():
        jobs = []
        for t0, x0 in ((0.0, 0.1), (0.25 * T, -0.2)):
            point, grid = ProblemPoint(t0, x0), TimeGrid(t0, T, 12)
            jobs.append((point, grid, [_REDUCERS[fn](model, point, grid,
                                                     **kwargs)
                                       for fn, kwargs in (calls[i]
                                                          for i in picks)]))
        return est_mod._estimate(model, 11, 50, jobs)

    draws = _count_draws(monkeypatch)
    want = run()
    assert [n for _, n in draws] == [2]
    real = est_mod._normal_matrix

    def padded(seed, idx, n_steps):
        return np.vstack([real(seed, idx, n_steps),
                          np.full((10, idx.size), np.nan)])

    monkeypatch.setattr(est_mod, "_normal_matrix", padded)
    assert run() == want


def test_x_flat_coefficients_are_evaluated_before_the_first_draw(
        monkeypatch):
    # an x-flat job evaluates its coefficients once, before any path is
    # drawn, so a coefficient that raises leaves no draw behind
    draws = _count_draws(monkeypatch)

    def sigma(t, x):
        raise ArithmeticError("sigma")

    model = dataclasses.replace(builtin_model("tanh_smooth"), sigma=sigma)
    point, grid = ProblemPoint(0.0, 0.1), TimeGrid(0.0, 1.0, 8)
    with pytest.raises(ArithmeticError):
        est_mod.estimate_u(model, point, grid, 7, 20)
    assert draws == []


_JOB_STARTS = st.lists(st.tuples(st.floats(0.0, 0.98), st.floats(-1.0, 1.0)),
                       min_size=1, max_size=4,
                       unique_by=(lambda s: s[0], lambda s: s[1]))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_CASES)),
    starts=_JOB_STARTS,
    picks=st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=5,
                            unique=True), min_size=4, max_size=4),
    n_steps=st.integers(1, 30),
    seed=st.integers(0, 2 ** 32),
    n_paths=st.integers(1, 150),
    chunk=st.sampled_from([7, 64, 8192]),
    p=st.sampled_from([0.5, 1.0, 2.0]),
    lambda_floor=st.sampled_from([None, 1e-3]),
)
# example1 freezes at t = 1 of its horizon 2, step_vol at 0.5 of 1: these
# jobs read the first 5, 3 and 1 of the shared normals, each with its own
# dt (the classical weight and, lacking g_prime, the pathwise estimator
# would fail on both models)
@example(name="example1", starts=[(0.0, 0.1), (0.25, -0.2), (0.45, 0.3)],
         picks=[[2, 0], [4], [0, 2], [0]], n_steps=8, seed=5, n_paths=20,
         chunk=7, p=1.0, lambda_floor=None)
@example(name="step_vol", starts=[(0.0, 0.1), (0.25, -0.2), (0.45, 0.3)],
         picks=[[2, 0], [4], [0, 2], [0]], n_steps=8, seed=5, n_paths=20,
         chunk=7, p=1.0, lambda_floor=None)
def test_call_at_several_start_points_matches_separate_calls(
        name, starts, picks, n_steps, seed, n_paths, chunk, p, lambda_floor):
    model = _KERNEL_CASES[name]
    calls = _calls(p, lambda_floor)
    jobs = []
    for (t_frac, x0), job_picks in zip(starts, picks):
        t0 = t_frac * model.horizon_T
        jobs.append((ProblemPoint(t0, x0),
                     TimeGrid(t0, model.horizon_T, n_steps),
                     [calls[i] for i in job_picks]))

    def several():
        built = [(point, grid, [_REDUCERS[fn](model, point, grid, **kwargs)
                                for fn, kwargs in job_calls])
                 for point, grid, job_calls in jobs]
        return est_mod._estimate(model, seed, n_paths, built)

    saved = est_mod.CHUNK_SIZE, ref_mod.CHUNK_SIZE
    est_mod.CHUNK_SIZE = ref_mod.CHUNK_SIZE = chunk
    try:
        separate = [[_outcome(getattr(ref_mod, fn), model, point, grid, seed,
                              n_paths, **kwargs) for fn, kwargs in job_calls]
                    for point, grid, job_calls in jobs]
        # the first validation error in job-then-reducer order, else
        # EstimationError, else every job's estimates
        want = _joint_reference([o for job in separate for o in job])
        if not isinstance(want, type):
            want = separate
        with pytest.MonkeyPatch.context() as mp:
            draws = _count_draws(mp)
            got = _outcome(several)
        assert got == want, (name, starts, picks)
        if isinstance(want, type) and not issubclass(want, EstimationError):
            assert draws == []
        else:
            assert len(draws) == math.ceil(n_paths / chunk)
    finally:
        est_mod.CHUNK_SIZE, ref_mod.CHUNK_SIZE = saved



def _recording(reducer, seen):
    """The reducer, with the node ``k`` of every state it is sent recorded
    in ``seen``, one list per chunk; it keeps the reducer's mark."""
    def wrapped(n):
        inner = reducer(n)
        next(inner)
        ks = []
        seen.append(ks)
        while (st := (yield)) is not None:
            ks.append(st.k)
            inner.send(st)
        yield inner.send(None)

    wrapped.terminal_only = getattr(reducer, "terminal_only", False)
    return wrapped


@pytest.mark.parametrize("name", ["example1", "ou", "value_cost"])
def test_terminal_jobs_send_one_state_and_the_others_every_state(name):
    # example1 is x-flat and cost-free, so every job, the classical
    # weight's too, draws its terminal state from the exact law; the OU
    # model and value_cost run the tangent flow, and value_cost has a
    # running cost, so none of its jobs is terminal.  The estimates
    # themselves are compared with the references above.
    if name == "ou":
        from test_sde_sim import _ou_model
        model = _ou_model()
    else:
        model = _CASES[name]
    n_steps, n_paths, chunk = 8, 20, 7
    calls = _calls(1.0, None)
    # every estimator but the classical weight (3) and, without g_prime,
    # the pathwise one (1); then jobs with the classical weight
    picks = [[0, 1, 2, 4] if model.g_prime else [0, 2, 4], [0, 3], [2], [3]]
    jobs, seen = [], []
    for t_frac, job_picks in zip([0.0, 0.1, 0.25, 0.4], picks):
        t0 = t_frac * model.horizon_T
        point = ProblemPoint(t0, 0.1)
        grid = TimeGrid(t0, model.horizon_T, n_steps)
        reducers = [_REDUCERS[fn](model, point, grid, **kwargs)
                    for fn, kwargs in (calls[i] for i in job_picks)]
        # the Lambda moments (4) read the terminal state alone, the
        # classical weight (3) every state, the rest every state when
        # they sum a running cost
        assert [r.terminal_only for r in reducers] == [
            i == 4 or (model.f1_is_zero and i != 3) for i in job_picks]
        seen.append([[] for _ in reducers])
        jobs.append((point, grid, [_recording(r, ks)
                                   for r, ks in zip(reducers, seen[-1])]))
    saved = est_mod.CHUNK_SIZE
    est_mod.CHUNK_SIZE = chunk
    try:
        # example1's classical weight floors every path: EstimationError
        _outcome(est_mod._estimate, model, 3, n_paths, jobs)
    finally:
        est_mod.CHUNK_SIZE = saved
    law = est_mod._terminal_law_job(model, TimeGrid(0.0, model.horizon_T,
                                                    n_steps))
    assert law == (name == "example1")
    for (_, _, reducers), job_seen in zip(jobs, seen):
        terminal = law or all(r.terminal_only for r in reducers)
        want = [n_steps] if terminal else list(range(n_steps + 1))
        for ks in job_seen:
            assert ks == [want] * math.ceil(n_paths / chunk)

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenbsde import (
    BUILTIN_MODELS,
    CoefficientModel,
    PdeGrid,
    ProblemPoint,
    SimulationError,
    TimeGrid,
    brownian_increments,
    builtin_model,
    make_grid,
    path_stream,
    simulate_batch,
    simulate_path,
)
from degenbsde.sde_sim import (_DRAW_BLOCK, _live_steps, _normal_matrix,
                               simulate_path_with_increments)


def _zero2(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _ou_model(rate: float = 1.0, T: float = 1.0) -> CoefficientModel:
    return CoefficientModel(
        sigma=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
        sigma_x=_zero2,
        b=lambda t, x: -rate * np.asarray(x, dtype=float),
        b_x=lambda t, x: np.full_like(np.asarray(x, dtype=float), -rate),
        f1=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        f2=_zero2,
        f2_x=_zero2,
        g=lambda x: np.tanh(np.asarray(x, dtype=float)),
        g_prime=lambda x: 1.0 - np.tanh(np.asarray(x, dtype=float)) ** 2,
        lipschitz_K=max(rate, 1.0) + 1.0,
        holder_alpha=1.0,
        holder_C=1.0,
        horizon_T=T,
        f1_is_zero=True,
        name="ou_test",
    )


def _stale_x_flat_model() -> CoefficientModel:
    """``tanh_smooth`` with a volatility that moves with ``x``, still
    declared ``x_flat``: its streams take ``gamma`` and the drift at the
    start ``x0``, whatever the chunk or the batch."""
    return replace(
        builtin_model("tanh_smooth"),
        sigma=lambda t, x: 1.0 + 0.25 * np.tanh(np.asarray(x, dtype=float)),
        lipschitz_K=1.25, name="stale_tanh")


@pytest.mark.parametrize("make, error, message", [
    (lambda: PdeGrid(-math.inf, 1.0, 11, 0.0, 1.0, 10), ValueError,
     "x_min must be finite, got -inf"),
    (lambda: PdeGrid(-1.0, 1.0, 11, 0.0, math.nan, 10), ValueError,
     "t_max must be finite, got nan"),
    (lambda: TimeGrid(0.0, math.inf, 4), ValueError,
     "T must be finite, got inf"),
    (lambda: TimeGrid(0.0, 1.0, 2.5), TypeError,
     "n_steps must be an integer, got 2.5"),
    (lambda: TimeGrid(0.0, 1.0, True), TypeError,
     "n_steps must be an integer, got True"),
    (lambda: PdeGrid(-1, 1, 11.0, 0, 1, 100), TypeError,
     "n_x must be an integer, got 11.0"),
    (lambda: PdeGrid(-1, 1, 11, 0, 1, 2.5), TypeError,
     "n_t must be an integer, got 2.5"),
    (lambda: brownian_increments(0, 0, 2.5, 0.1), TypeError,
     "n_steps must be an integer, got 2.5"),
    # make_grid checks before its jump alignment divides by n_x - 1
    (lambda: make_grid(builtin_model("step_vol"), -math.inf, 1.0, 11),
     ValueError, "x_min must be finite, got -inf"),
    (lambda: make_grid(builtin_model("step_vol"), -1.0, 1.0, True),
     TypeError, "n_x must be an integer, got True"),
    (lambda: make_grid(builtin_model("step_vol"), -1.0, 1.0, 1),
     ValueError, "n_x must be >= 3, got 1"),
    # the messages for counts that are integers but too small are kept
    (lambda: TimeGrid(0.0, 1.0, 0), ValueError, "n_steps must be >= 1, got 0"),
    (lambda: PdeGrid(-1, 1, 2, 0, 1, 10), ValueError, "n_x must be >= 3, got 2"),
    (lambda: PdeGrid(-1, 1, 11, 0, 1, 0), ValueError, "n_t must be >= 1, got 0"),
])
def test_grids_refuse_non_finite_ends_and_non_integer_counts(make, error,
                                                             message):
    with pytest.raises(error, match=f"^{message}$"):
        make()


def test_time_grid_basics():
    g = TimeGrid(0.25, 1.0, 3)
    assert g.dt == pytest.approx(0.25)
    np.testing.assert_allclose(g.times(), [0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)


def test_brownian_increments_reproducible_and_scaled():
    a = brownian_increments(7, 3, 1000, 0.01)
    b = brownian_increments(7, 3, 1000, 0.01)
    np.testing.assert_array_equal(a, b)
    c = brownian_increments(7, 4, 1000, 0.01)
    assert not np.array_equal(a, c)
    # variance dt, mean 0 at crude tolerance
    assert abs(float(np.mean(a))) < 5 * math.sqrt(0.01 / 1000)
    assert float(np.var(a)) == pytest.approx(0.01, rel=0.2)


_DRAW_MODELS = dict({name: builtin_model(name) for name in BUILTIN_MODELS},
                    ou=_ou_model(rate=2.0), stale_tanh=_stale_x_flat_model())
_PATH_FIELDS = ("dW", "X", "gradX", "gamma", "Lambda", "S1", "B", "valid")


def _assert_same_path(a, b):
    for field in _PATH_FIELDS:
        assert (np.asarray(getattr(a, field)).tobytes()
                == np.asarray(getattr(b, field)).tobytes()), field


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(_DRAW_MODELS)),
       seed=st.integers(0, 2 ** 64 - 1),
       n_paths=st.sampled_from([1, _DRAW_BLOCK, _DRAW_BLOCK + 1]),
       n_steps=st.integers(1, 24),
       index=st.integers(0, _DRAW_BLOCK),
       x0=st.floats(-1.0, 1.0))
@example(name="step_vol", seed=5, n_paths=8, n_steps=64, index=3, x0=0.3)
@example(name="ou", seed=2 ** 64 - 1, n_paths=_DRAW_BLOCK + 1, n_steps=5,
         index=_DRAW_BLOCK - 1, x0=0.0)
@example(name="example1", seed=2 ** 63, n_paths=_DRAW_BLOCK, n_steps=7,
         index=1, x0=-0.2)
@example(name="stale_tanh", seed=3, n_paths=40, n_steps=20, index=6, x0=0.3)
def test_single_path_matches_batch_row_bitwise(name, seed, n_paths, n_steps,
                                               index, x0):
    # one draw behind every entry point: a path alone, its batch row, the
    # streamed state and a replay of brownian_increments agree bit for bit
    m = _DRAW_MODELS[name]
    pt = ProblemPoint(0.0, x0)
    grid = TimeGrid(0.0, m.horizon_T, n_steps)
    batch = simulate_batch(m, pt, grid, seed=seed, n_paths=n_paths)
    for i in sorted({0, index % n_paths, n_paths - 1}):
        single = simulate_path(m, pt, grid, seed=seed, path_index=i)
        _assert_same_path(single, batch[i])
        replay = simulate_path_with_increments(
            m, pt, grid, brownian_increments(seed, i, n_steps, grid.dt))
        _assert_same_path(replay, single)
    n_live = _live_steps(m, grid)
    for s in path_stream(m, pt, grid, seed, np.arange(n_paths)):
        for field in _PATH_FIELDS[1:-1]:
            assert (getattr(s, field).tobytes()
                    == np.ascontiguousarray(
                        getattr(batch, field)[:, s.k]).tobytes()), field
        if s.k == n_steps:
            assert s.dW is None
        else:
            # a frozen tail streams zero increments; the batch keeps its draw
            want = batch.dW[:, s.k] if s.k < n_live else np.zeros(n_paths)
            assert s.dW.tobytes() == np.ascontiguousarray(want).tobytes()


def test_path_stream_leaves_the_callers_error_state_alone():
    # the drift overflows to +inf on the first step, so the kernel raises
    # floating-point flags on every advance; the stream silences them, and
    # only them
    m = replace(_ou_model(), b=lambda t, x: np.exp(
        1e3 * np.asarray(x, dtype=float)), name="overflow_test")
    pt, grid = ProblemPoint(0.0, 0.5), TimeGrid(0.0, 1.0, 8)
    before = np.geterr()
    stream = path_stream(m, pt, grid, 0, range(4))
    next(stream)
    assert np.geterr() == before
    stream.close()
    with np.errstate(all="ignore"):
        want = list(path_stream(m, pt, grid, 0, range(4)))
    got = []
    with np.errstate(all="raise"):
        raising = np.geterr()
        for s in path_stream(m, pt, grid, 0, range(4)):
            assert np.geterr() == raising
            with pytest.raises(FloatingPointError):
                np.float64(1.0) / 0.0
            got.append(s)
    assert np.all(np.isinf(want[-1].X))
    assert len(got) == len(want) == grid.n_steps + 1
    for a, b in zip(got, want):
        for field in _PATH_FIELDS[1:-1]:
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert (a.dW is None) == (b.dW is None)
        assert a.dW is None or a.dW.tobytes() == b.dW.tobytes()


def test_batch_view_roundtrip():
    m = builtin_model("tanh_smooth")
    grid = TimeGrid(0.0, 1.0, 16)
    batch = simulate_batch(m, ProblemPoint(0.0, 0.0), grid, seed=1, n_paths=4)
    assert len(batch) == 4
    view = batch[2]
    np.testing.assert_array_equal(view.X, batch.X[2])
    assert view.grid is grid
    assert batch.n_invalid == 0


def test_accumulators_match_definitions():
    # replay the recursions from the stored arrays
    m = builtin_model("example1")
    grid = TimeGrid(0.0, 2.0, 128)
    path = simulate_path(m, ProblemPoint(0.0, 0.5), grid, seed=11, path_index=0)
    dt = grid.dt
    times = grid.times()
    lam = np.concatenate([[0.0], np.cumsum(path.gamma[:-1] ** 2 * dt)])
    np.testing.assert_allclose(path.Lambda, lam, rtol=1e-12, atol=1e-15)
    s1 = np.concatenate([[0.0],
                         np.cumsum(path.gamma[:-1] * path.gradX[:-1] * path.dW)])
    np.testing.assert_allclose(path.S1, s1, rtol=1e-12, atol=1e-15)
    assert path.Lambda[0] == 0.0 and path.S1[0] == 0.0 and path.B[0] == 0.0
    # gamma is the volatility evaluated on the path
    np.testing.assert_array_equal(
        path.gamma, np.asarray([m.sigma(times[k], path.X[k])
                                for k in range(times.size)]).reshape(-1))


def test_correction_accumulator_uses_left_endpoint_occupation():
    # B must add Lambda_j (before its own update) in step j
    sine = CoefficientModel(
        sigma=lambda t, x: 1.0 + 0.25 * np.sin(np.asarray(x, dtype=float)),
        sigma_x=lambda t, x: 0.25 * np.cos(np.asarray(x, dtype=float)),
        b=_zero2,
        b_x=_zero2,
        f1=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        f2=_zero2,
        f2_x=_zero2,
        g=lambda x: np.tanh(np.asarray(x, dtype=float)),
        g_prime=lambda x: 1.0 - np.tanh(np.asarray(x, dtype=float)) ** 2,
        lipschitz_K=2.0, holder_alpha=1.0, holder_C=1.0, horizon_T=1.0,
        f1_is_zero=True, name="sine_vol_test")
    grid = TimeGrid(0.0, 1.0, 64)
    path = simulate_path(sine, ProblemPoint(0.0, 0.4), grid, seed=4,
                         path_index=0)
    dt = grid.dt
    times = grid.times()
    sx = np.asarray([sine.sigma_x(times[k], path.X[k])
                     for k in range(64)]).reshape(-1)
    b_replay = np.concatenate([[0.0], np.cumsum(
        path.Lambda[:-1] * sx * path.gamma[:-1] * path.gradX[:-1] * dt)])
    np.testing.assert_allclose(path.B, b_replay, rtol=1e-12, atol=1e-18)
    assert path.B[-1] != 0.0


def test_tangent_flow_exact_one_when_coefficients_flat():
    # sigma_x = b_x = 0 keeps the tangent flow at exactly 1.0 bitwise
    m = builtin_model("bachelier_digital")
    grid = TimeGrid(0.0, 1.0, 256)
    path = simulate_path(m, ProblemPoint(0.0, 0.0), grid, seed=2, path_index=0)
    assert np.all(path.gradX == 1.0)


def test_tangent_flow_positive_under_state_dependence():
    m = _ou_model(rate=3.0)
    grid = TimeGrid(0.0, 1.0, 256)
    batch = simulate_batch(m, ProblemPoint(0.0, 1.0), grid, seed=9, n_paths=64)
    assert np.all(batch.gradX > 0.0)
    # deterministic tangent here: exp(-rate * t)
    np.testing.assert_allclose(batch.gradX[:, -1],
                               math.exp(-3.0), rtol=1e-12)


def test_simulate_with_explicit_increments_matches_seeded_run():
    m = builtin_model("tanh_smooth")
    grid = TimeGrid(0.0, 1.0, 32)
    pt = ProblemPoint(0.0, -0.2)
    dW = brownian_increments(13, 5, 32, grid.dt)
    a = simulate_path_with_increments(m, pt, grid, dW)
    b = simulate_path(m, pt, grid, seed=13, path_index=5)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.S1, b.S1)


def test_strong_convergence_under_increment_refinement():
    # coarse grids driven by aggregated fine increments: endpoint error
    # should shrink about linearly in dt for additive noise
    m = _ou_model(rate=1.5)
    pt = ProblemPoint(0.0, 1.0)
    n_fine = 2 ** 10
    errs = []
    levels = [2 ** 4, 2 ** 6, 2 ** 8]
    n_mc = 64
    fine_grid = TimeGrid(0.0, 1.0, n_fine)
    for n in levels:
        agg_err = 0.0
        for i in range(n_mc):
            dw_fine = brownian_increments(21, i, n_fine, fine_grid.dt)
            x_fine = simulate_path_with_increments(m, pt, fine_grid, dw_fine).X[-1]
            dw = dw_fine.reshape(n, n_fine // n).sum(axis=1)
            x = simulate_path_with_increments(m, pt, TimeGrid(0.0, 1.0, n), dw).X[-1]
            agg_err += (x - x_fine) ** 2
        errs.append(math.sqrt(agg_err / n_mc))
    slope = np.polyfit(np.log([1.0 / n for n in levels]), np.log(errs), 1)[0]
    assert 0.7 < slope < 1.3


def test_grid_model_mismatch_rejected():
    m = builtin_model("tanh_smooth")  # horizon 1.0
    with pytest.raises(ValueError):
        simulate_path(m, ProblemPoint(0.0, 0.0), TimeGrid(0.0, 2.0, 8), 0, 0)
    with pytest.raises(ValueError):
        # grid start differs from the point's time
        simulate_path(m, ProblemPoint(0.5, 0.0), TimeGrid(0.25, 1.0, 8), 0, 0)


def test_seed_range_validated():
    m = builtin_model("tanh_smooth")
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        simulate_path(m, ProblemPoint(0.0, 0.0), grid, seed=-1, path_index=0)


@pytest.mark.parametrize("seed", [3.7, 3.0, "3", None])
def test_non_integer_seed_is_a_type_error(seed):
    with pytest.raises(TypeError, match="seed must be an integer"):
        brownian_increments(seed, 0, 4, 0.25)


@pytest.mark.parametrize("index", [1.5, 1.0, -1, 2 ** 63, 2 ** 64])
def test_bad_path_index_is_named(index):
    m = builtin_model("tanh_smooth")
    grid = TimeGrid(0.0, 1.0, 4)
    pt = ProblemPoint(0.0, 0.0)
    with pytest.raises(ValueError, match=f"got {index}$"):
        brownian_increments(0, index, 4, 0.25)
    with pytest.raises(ValueError, match=f"got {index}$"):
        simulate_path(m, pt, grid, seed=0, path_index=index)
    with pytest.raises(ValueError, match=f"got {index}$"):
        next(path_stream(m, pt, grid, 0, [index]))


@pytest.mark.parametrize("n_paths", [2.9, 2.5, True])
def test_non_integer_path_count_is_named(n_paths):
    m = builtin_model("tanh_smooth")
    with pytest.raises(TypeError, match="n_paths must be an integer"):
        simulate_batch(m, ProblemPoint(0.0, 0.0), TimeGrid(0.0, 1.0, 4),
                       seed=0, n_paths=n_paths)


def test_high_seeds_do_not_alias():
    # the exact 64-bit seed is the key: no two seeds share a stream
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = brownian_increments(2 ** 63 + 5, 0, 8, 0.125)
        b = brownian_increments(2 ** 63 + 6, 0, 8, 0.125)
        top = brownian_increments(2 ** 64 - 1, 0, 8, 0.125)
    assert not np.array_equal(a, b)
    assert not np.array_equal(top, brownian_increments(0, 0, 8, 0.125))


def test_exploding_paths_raise_simulation_error():
    m = _ou_model()
    from dataclasses import replace
    bad = replace(m, b=lambda t, x: np.asarray(x, dtype=float) ** 3,
                  b_x=lambda t, x: 3.0 * np.asarray(x, dtype=float) ** 2)
    grid = TimeGrid(0.0, 1.0, 64)
    with pytest.raises(SimulationError):
        simulate_batch(bad, ProblemPoint(0.0, 8.0), grid, seed=3, n_paths=16)


def test_path_stream_yields_every_node_once():
    m = builtin_model("step_vol")
    grid = TimeGrid(0.0, 1.0, 10)
    ks = [st.k for st in path_stream(m, ProblemPoint(0.0, 0.0), grid, 0,
                                     np.array([0, 1]))]
    assert ks == list(range(11))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32), idx=st.integers(0, 2 ** 20))
def test_increments_depend_on_both_seed_and_index(seed, idx):
    a = brownian_increments(seed, idx, 8, 0.125)
    b = brownian_increments(seed, idx + 1, 8, 0.125)
    c = brownian_increments(seed + 1, idx, 8, 0.125)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _per_path_generators(seed, indices, n_steps, key_of):
    return np.stack([
        np.random.Generator(np.random.Philox(key=key_of(seed, i)))
        .standard_normal(n_steps) for i in indices]) * math.sqrt(0.5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       indices=st.lists(st.integers(0, 2 ** 40 - 1), min_size=1, max_size=8),
       n_steps=st.integers(1, 67))
@example(seed=0, indices=[9, 2, 9, 0], n_steps=1)
@example(seed=2 ** 63 - 1, indices=[2 ** 40 - 1, 3, 3], n_steps=7)
@example(seed=2 ** 63, indices=[5], n_steps=13)
@example(seed=2 ** 64 - 1, indices=[0, 0], n_steps=3)
def test_increment_matrix_matches_per_path_generators(seed, indices, n_steps):
    got = np.stack([brownian_increments(seed, i, n_steps, 0.5)
                    for i in indices])
    exact = _per_path_generators(
        seed, indices, n_steps,
        lambda s, i: np.array([s, i], dtype=np.uint64))
    assert got.tobytes() == exact.tobytes()
    if seed < 2 ** 63:
        # a list key reaches Philox exactly only below 2**63
        old = _per_path_generators(seed, indices, n_steps,
                                   lambda s, i: [s, i])
        assert got.tobytes() == old.tobytes()


# path counts on both sides of one and two draw blocks
_BLOCK_COUNTS = [1, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1,
                 2 * _DRAW_BLOCK + 3]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       n_paths=st.sampled_from(_BLOCK_COUNTS),
       first=st.integers(0, 2 ** 63 - 2 * _DRAW_BLOCK - 4),
       n_steps=st.integers(1, 40),
       prefix=st.integers(0, 40))
@example(seed=2 ** 64 - 1, n_paths=2 * _DRAW_BLOCK + 3,
         first=2 ** 63 - 2 * _DRAW_BLOCK - 4, n_steps=1, prefix=1)
@example(seed=0, n_paths=_DRAW_BLOCK + 1, first=0, n_steps=40, prefix=0)
def test_normal_matrix_is_step_major_per_path_streams(seed, n_paths, first,
                                                      n_steps, prefix):
    # column j is the start of the stream (seed, first + j) and row k holds
    # step k of every path, contiguously; a shorter draw is its first rows
    indices = np.arange(first, first + n_paths, dtype=np.int64)
    got = _normal_matrix(seed, indices, n_steps)
    assert got.shape == (n_steps, n_paths)
    assert got.flags.c_contiguous
    for j, i in enumerate(indices.tolist()):
        fresh = np.random.Generator(np.random.Philox(
            key=np.array([seed, i], dtype=np.uint64))).standard_normal(n_steps)
        assert got[:, j].tobytes() == fresh.tobytes()
    k = min(prefix, n_steps)
    assert _normal_matrix(seed, indices, k).tobytes() == got[:k].tobytes()


@pytest.mark.parametrize("name, frozen", [("example1", True),
                                          ("tanh_smooth", False)])
def test_path_stream_states_keep_their_values_under_writes(name, frozen):
    # each state's X, S1 and dW are written into as soon as the stream
    # yields it, before the next one is drawn: no later state changes, and
    # after the stream ends each state still holds its own writes
    m = builtin_model(name)
    pt, grid = ProblemPoint(0.0, 0.1), TimeGrid(0.0, m.horizon_T, 12)
    assert (_live_steps(m, grid) < grid.n_steps) == frozen
    fields = ("X", "S1", "dW")
    want = [{f: None if getattr(s, f) is None else getattr(s, f).tobytes()
             for f in fields}
            for s in path_stream(m, pt, grid, 4, np.arange(5))]
    states = []
    for s in path_stream(m, pt, grid, 4, np.arange(5)):
        for f in fields:
            arr = getattr(s, f)
            if arr is None:
                continue
            assert arr.tobytes() == want[s.k][f], (s.k, f)
            arr[...] = s.k + 0.5
        states.append(s)
    assert len(states) == grid.n_steps + 1
    for s in states:
        for f in fields:
            if getattr(s, f) is not None:
                assert np.all(getattr(s, f) == s.k + 0.5), (s.k, f)


@pytest.mark.parametrize("name", ["example1", "step_vol", "girsanov_const"])
def test_path_stream_states_of_an_x_flat_model_share_no_memory(name):
    # the kernel yields every node of a frozen tail with the same X, S1
    # and zero dW; path_stream yields copies, so no two states share
    # memory and each holds its own node's values
    m = builtin_model(name)
    assert m.x_flat
    pt, grid = ProblemPoint(0.0, 0.1), TimeGrid(0.0, m.horizon_T, 12)
    states = list(path_stream(m, pt, grid, 4, np.arange(5)))
    batch = simulate_batch(m, pt, grid, seed=4, n_paths=5)
    n_live = _live_steps(m, grid)
    for a, b in zip(states, states[1:]):
        for field in ("X", "S1", "dW"):
            if getattr(b, field) is not None:
                assert not np.shares_memory(getattr(a, field),
                                            getattr(b, field)), field
    for s in states:
        for field in ("X", "S1"):
            assert (getattr(s, field).tobytes() == np.ascontiguousarray(
                getattr(batch, field)[:, s.k]).tobytes()), field
        if s.k < n_live:
            assert s.dW.tobytes() == np.ascontiguousarray(
                batch.dW[:, s.k]).tobytes()
        elif s.k < grid.n_steps:
            assert s.dW.tobytes() == np.zeros(5).tobytes()

"""Forward simulation of the diffusion, its tangent flow, and weight integrals.

One stepping kernel drives everything: it advances a family of paths with
the Euler scheme for ``X``, an exponential (log-Euler) scheme for the
tangent flow ``gradX`` (positive by construction), and left-endpoint
Riemann/Ito accumulators for the occupation integral ``Lambda`` of
``sigma**2`` and the two stochastic sums the weight constructions need:

* ``Lambda_k = sum_{j<k} gamma_j**2 * dt``
* ``S1_k     = sum_{j<k} gamma_j * gradX_j * dW_j``
* ``B_k      = sum_{j<k} Lambda_j * sigma_x_j * gamma_j * gradX_j * dt``

with ``gamma_j = sigma(t_j, X_j)``.  Single-path and batch entry points
consume the same kernel and the same draw, so a path simulated alone is
bit-identical to the same path inside a batch.

Randomness is counter-based: path ``i`` under seed ``s`` always draws its
increments from the Philox stream whose 128-bit key is the exact pair
``(s, i)`` of 64-bit words, with ``s`` in ``[0, 2**64)`` and ``i`` in
``[0, 2**63)``, independent of batch layout, chunking, or evaluation order.
Step ``k`` of a path takes the ``k``-th standard normal of its stream
times ``sqrt(dt)``.  ``_normal_matrix`` draws those normals for every
entry point, step-major, ``(n_steps, n_paths)``: step ``k``'s normals are
one contiguous row.  The estimators draw once per chunk of paths, as many
normals per path as the longest of their streams reads (two for the
terminal law below), and each stream scales its own row at each step; the
materialized simulations scale the whole draw once, which gives the same
bits.

Coefficients: the estimators simulate the model with the linear-in-z cost
absorbed into the drift (``transformed_drift``).  Their streams form
that drift from the ``sigma`` array the step has already evaluated (and,
for the tangent flow, its x-derivative from ``sigma`` and ``sigma_x``), so
each computed node calls each coefficient once.

Frozen tail: when the model declares ``frozen_after``, every step from the
first grid node past that time leaves the state unchanged, so the kernel
stops computing there and only the normals of the steps before it are
drawn (a Philox prefix draw equals the prefix of the full draw).  A
stream of every state still yields the remaining nodes, with the frozen
state, zero ``gamma`` and zero ``dW``.  A terminal stream, which the
estimators ask for when every reducer of a job reads only the terminal
state, computes the same steps but yields the terminal node alone; the
full update builds no state before it, so its frozen tail costs nothing.

x-flat: a model that declares ``x_flat`` has ``sigma``, ``b`` and ``f2``
independent of ``x`` (so ``sigma_x``, ``b_x`` and ``f2_x`` are identically
zero).  The tangent update then multiplies by ``exp(+0.0) = 1`` and the
``B`` update adds ``+-0.0``, so ``gradX`` stays exactly 1 and ``B`` exactly
+0.0 while ``gamma`` and ``Lambda`` are finite, and every path has the same
``gamma``, drift and ``Lambda``.  Once per stream, when the model's
declared volatility bound keeps ``Lambda`` finite, the kernel runs its
x-flat loop.  ``sigma`` and the drift are evaluated once per stream, or
once per estimator job for all of its chunks, at the start ``x0``
(``_x_flat_coefficients``), not per chunk, and the loop keeps ``gamma``,
``Lambda`` and the drift step as Python floats (IEEE doubles, which round
as the float64 array ops do); only ``X`` and ``S1`` are updated per path,
in place, through one buffer each and one for the increment, and ``S1``
drops its ``* gradX`` factor, since ``x * 1.0 == x``.  So its states
share their ``X``, ``S1`` and ``dW`` arrays; ``path_stream`` yields copies
of them.  It calls neither derivative, yields ``gradX`` (ones) and ``B``
(zeros), and yields ``gamma`` and ``Lambda`` as read-only stride-0 rows.
An overflowing ``Lambda`` would make the full update's ``B`` NaN
(``inf * 0``), so such streams run the full update.  A stale declaration
gives every path the ``gamma`` and drift at ``x0``, so its results still
do not depend on chunking, and a path simulated alone still equals its
batch row.

Terminal law: on an x-flat model ``S1_T`` is a fixed linear combination
of the increments, so the terminal state is Gaussian, with the
deterministic ``Lambda_T`` and drift sum the x-flat loop forms.
``_x_flat_terminal_law`` draws it exactly, together with the classical
weight's ``sum dW / gamma``, from the first two normals of each path's
stream, and costs the same at any step count.  The estimators use it for
every cost-free x-flat job; it changes their random stream but not the
law of any estimate, and its ``Lambda_T`` is the kernel's, bit for bit.
Every state of a stream and every simulation still comes from the kernel.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided
# a module-level import, so numpy.random loads with the package and not on
# the first draw inside a run
from numpy.random import Generator, Philox

from .model import (CoefficientModel, ProblemPoint, _absorbed_drift,
                    _absorbed_drift_x, _one_value)

__all__ = [
    "TimeGrid",
    "PathBundle",
    "BatchPaths",
    "PathState",
    "SimulationError",
    "brownian_increments",
    "simulate_path",
    "simulate_batch",
    "path_stream",
]

_MAX_INVALID_FRACTION = 0.01


class SimulationError(RuntimeError):
    """Raised when too many paths produce non-finite values."""


def _check_count(value: int, name: str, least: int = 1) -> int:
    """``value`` as an integer of at least ``least``; a count that is not
    an integer (2.5, ``True``) raises ``TypeError`` naming ``name``."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if count < least:
        raise ValueError(f"{name} must be >= {least}, got {count}")
    return count


def _check_ends(grid, *names: str) -> None:
    """Raise ``ValueError`` naming the first bound that is not finite."""
    for name in names:
        if not math.isfinite(getattr(grid, name)):
            raise ValueError(f"{name} must be finite, got {getattr(grid, name)}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid ``t0 = s_0 < ... < s_n = T`` with ``n = n_steps``."""

    t0: float
    T: float
    n_steps: int

    def __post_init__(self) -> None:
        _check_ends(self, "t0", "T")
        if not (self.T > self.t0):
            raise ValueError(f"need T > t0, got t0={self.t0}, T={self.T}")
        _check_count(self.n_steps, "n_steps")

    @property
    def dt(self) -> float:
        return (self.T - self.t0) / self.n_steps

    def times(self) -> np.ndarray:
        """Grid times; the endpoints are exact."""
        return np.linspace(self.t0, self.T, self.n_steps + 1)


class PathState(NamedTuple):
    """State of a path family at grid index ``k`` (time ``t``).

    ``dW`` is the Brownian increment toward index ``k + 1`` (``None`` at
    the terminal node); in a frozen tail (see the module docstring) it is
    zero, since no increment can move the state there.  Accumulators are
    the left-endpoint sums over ``j < k``, so at ``k = 0`` they are zero.
    An x-flat stream (see the module docstring) yields ``gamma`` and
    ``Lambda`` as read-only rows whose entries are all one value (stride
    0); copy them before writing.

    A state from the kernel is valid until its stream is advanced: an
    x-flat stream then updates ``X``, ``S1`` and ``dW`` in place, so a
    consumer reads each state before asking for the next.  The states of
    ``path_stream`` are snapshots that stay valid.

    The last three fields are set only by the terminal law
    (``_x_flat_terminal_law``), which yields node ``n_steps`` alone and
    so cannot let a consumer accumulate the classical weight's sums:
    ``snd`` is ``sum_{j<n} (gradX_j / gamma_j) * dW_j``, ``elapsed`` the
    ``n`` additions of ``dt``, and ``min_abs_gamma`` the smallest
    ``|gamma_j|`` over ``j < n``, as a read-only stride-0 row.  Kernel
    states leave them ``None``.
    """

    k: int
    t: float
    X: np.ndarray
    gradX: np.ndarray
    gamma: np.ndarray
    Lambda: np.ndarray
    S1: np.ndarray
    B: np.ndarray
    dW: Optional[np.ndarray]
    snd: Optional[np.ndarray] = None
    elapsed: Optional[float] = None
    min_abs_gamma: Optional[np.ndarray] = None


@dataclass(frozen=True)
class PathBundle:
    """One simulated path with everything the weight layer consumes.

    Arrays are indexed by grid node (``dW`` by step, length ``n_steps``).
    ``valid`` is False when any stored value is non-finite.
    """

    grid: TimeGrid
    dW: np.ndarray
    X: np.ndarray
    gradX: np.ndarray
    gamma: np.ndarray
    Lambda: np.ndarray
    S1: np.ndarray
    B: np.ndarray
    valid: bool


@dataclass(frozen=True)
class BatchPaths:
    """A batch of paths backed by contiguous (n_paths, n_nodes) arrays.

    Behaves as a sequence of ``PathBundle`` views; no per-path copies are
    made.  ``dW``, the transposed step-major draw, is column-major.
    """

    grid: TimeGrid
    dW: np.ndarray
    X: np.ndarray
    gradX: np.ndarray
    gamma: np.ndarray
    Lambda: np.ndarray
    S1: np.ndarray
    B: np.ndarray
    valid: np.ndarray

    def __len__(self) -> int:
        return self.X.shape[0]

    def __getitem__(self, i: int) -> PathBundle:
        return PathBundle(
            grid=self.grid, dW=self.dW[i], X=self.X[i], gradX=self.gradX[i],
            gamma=self.gamma[i], Lambda=self.Lambda[i], S1=self.S1[i],
            B=self.B[i], valid=bool(self.valid[i]),
        )

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    @property
    def n_invalid(self) -> int:
        return int(np.count_nonzero(~self.valid))


# ---------------------------------------------------------------------------
# randomness
# ---------------------------------------------------------------------------


def _check_seed(seed: int) -> int:
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, got {seed!r}") from None
    if not (0 <= seed < 2 ** 64):
        raise ValueError(f"seed must be a 64-bit nonnegative integer, got {seed}")
    return seed


def _path_indices(path_indices) -> np.ndarray:
    """The indices as an int64 array; raises ``ValueError`` naming the first
    one that is not an integer in ``[0, 2**63)``."""
    idx = np.asarray(path_indices)
    if idx.dtype.kind not in "iu":
        # floats, or integers no single numpy integer type holds
        idx = np.asarray(path_indices, dtype=object)
        for i in idx.flat:
            if not isinstance(i, (int, np.integer)) or not 0 <= i < 2 ** 63:
                raise ValueError(
                    f"path index must be an integer in [0, 2**63), got {i}")
        return idx.astype(np.int64)
    bad = idx >= 2 ** 63 if idx.dtype.kind == "u" else idx < 0
    if bad.any():
        raise ValueError(
            f"path index must be an integer in [0, 2**63), got {idx[bad][0]}")
    return idx.astype(np.int64, copy=False)


# Paths drawn per block of ``_normal_matrix``; the block buffer holds
# ``_DRAW_BLOCK * n_steps`` normals (1 MB at 500 steps).  Blocks of 16 or
# 64 paths made the draw slower than a row-major one; 256 did not.
_DRAW_BLOCK = 256


def _normal_matrix(seed: int, path_indices, n_steps: int) -> np.ndarray:
    """Standard normals, step-major: shape ``(n_steps, n_paths)``.

    Column ``j`` is the start of the Philox stream keyed by the exact
    128-bit pair ``(seed, path_indices[j])``.  One generator is reset to
    that key, a zero counter and an empty buffer per index, so it draws
    what a generator freshly built on that key would, and a shorter draw
    is a prefix of a longer one.  Paths are drawn ``_DRAW_BLOCK`` at a
    time into a small per-path-row buffer whose transpose is copied into
    the output; no second full-size matrix is built.
    """
    key = [_check_seed(seed), 0]
    idx = _path_indices(path_indices).tolist()
    bit_gen = Philox(key=np.array(key, dtype=np.uint64))
    gen = Generator(bit_gen)
    # Python int lists, which the state setter reads faster than arrays
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    n_paths = len(idx)
    out = np.empty((n_steps, n_paths), dtype=float)
    buf = np.empty((min(_DRAW_BLOCK, n_paths), n_steps), dtype=float)
    for start in range(0, n_paths, _DRAW_BLOCK):
        block = idx[start:start + _DRAW_BLOCK]
        rows = buf[:len(block)]
        for row, i in zip(rows, block):
            key[1] = i
            bit_gen.state = state
            gen.standard_normal(out=row)
        out[:, start:start + len(block)] = rows.T
    return out


def brownian_increments(seed: int, path_index: int, n_steps: int,
                        dt: float) -> np.ndarray:
    """Increments of path ``path_index`` under ``seed``: N(0, dt), iid.

    Deterministic in ``(seed, path_index)``, the exact 128-bit Philox key,
    with ``seed`` in ``[0, 2**64)`` and ``path_index`` in ``[0, 2**63)``;
    distinct pairs give independent streams; ``simulate_path`` draws the
    same.  A seed or step count that is not an integer raises
    ``TypeError``, an index that is not one ``ValueError``.
    """
    n_steps = _check_count(n_steps, "n_steps")
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    return _normal_matrix(seed, [path_index], n_steps)[:, 0] * math.sqrt(dt)


# ---------------------------------------------------------------------------
# stepping kernel
# ---------------------------------------------------------------------------


def _check_compatible(model: CoefficientModel, point: ProblemPoint,
                      grid: TimeGrid) -> None:
    if grid.t0 != point.t0:
        raise ValueError(
            f"grid starts at {grid.t0} but the problem point is at t0={point.t0}"
        )
    if grid.T != model.horizon_T:
        raise ValueError(
            f"grid ends at {grid.T} but the model horizon is {model.horizon_T}"
        )
    if point.t0 >= model.horizon_T:
        raise ValueError(
            f"t0={point.t0} must lie strictly before the horizon {model.horizon_T}"
        )


def _live_steps(model: CoefficientModel, grid: TimeGrid) -> int:
    """Number of steps before the frozen tail: the first grid index whose
    time exceeds ``model.frozen_after``, capped at ``n_steps``."""
    if model.frozen_after is None:
        return grid.n_steps
    k_star = int(np.searchsorted(grid.times(), model.frozen_after, side="right"))
    return min(k_star, grid.n_steps)


def _x_flat_stream(model: CoefficientModel, grid: TimeGrid) -> bool:
    """Whether the stream skips the tangent flow and ``B``: the model
    declares ``x_flat``, and its bound ``|sigma| <= lipschitz_K`` keeps
    ``Lambda <= K**2 * (T - t0)`` finite, with a factor 2 for rounding."""
    K = model.lipschitz_K
    return model.x_flat and math.isfinite(2.0 * K * K * (grid.T - grid.t0))


def _full(values, shape: tuple) -> np.ndarray:
    """A coefficient's values as a float array of ``shape``, broadcast only
    when the coefficient returned another shape (a scalar, say)."""
    arr = np.asarray(values, dtype=float)
    return arr if arr.shape == shape else np.broadcast_to(arr, shape)


def _x_flat_coefficients(model: CoefficientModel, point: ProblemPoint,
                         grid: TimeGrid, absorb: bool) -> tuple:
    """The values an x-flat stream steps with, evaluated once on a
    one-element ``x`` holding ``point.x0``: ``sigma`` at every node the
    stream computes (the live steps, the first frozen step and the
    terminal node) and the drift at the same steps but the terminal node,
    ``_absorbed_drift`` with ``absorb``, else ``b``; each as a Python
    float.  Under a valid ``x_flat`` declaration they equal the values at
    any other ``x``, bit for bit."""
    n = grid.n_steps
    n_live = _live_steps(model, grid)
    times = grid.times()
    x0 = np.full(1, point.x0, dtype=float)
    sigmas, drifts = [], []
    for k in range(n_live + (n_live < n)):  # and the first frozen step
        t = float(times[k])
        sig = model.sigma(t, x0)
        sigmas.append(_one_value(sig))
        drifts.append(_one_value(_absorbed_drift(model, t, x0, sig) if absorb
                                 else model.b(t, x0)))
    sigmas.append(_one_value(model.sigma(float(times[n]), x0)))
    return sigmas, drifts


def _stream_from_increments(model: CoefficientModel, point: ProblemPoint,
                            grid: TimeGrid, rows: np.ndarray, scale: float,
                            absorb: bool = False,
                            every_state: bool = True,
                            x_flat_coefficients: Optional[tuple] = None
                            ) -> Iterator[PathState]:
    """Advance a path family driven by the given step-major matrix: row
    ``k`` is step ``k``, one column per path, and step ``k``'s increment is
    ``rows[k] * scale``.

    Only the first ``_live_steps`` rows are read, and none is written.  The
    streams take standard normals and ``scale = sqrt(dt)``; the
    materialized simulations take their increments and ``scale = 1.0``,
    which leaves them unchanged (``x * 1.0 == x``).  When a frozen tail
    follows, the first frozen step still runs, on a zero increment: with
    dead coefficients its only effect is the one a full run has on its
    first tail step (``0 * inf`` turning ``S1`` or ``B`` into NaN,
    ``-0.0`` into ``+0.0``); after it every further step is the identity.

    With ``absorb`` the drift is ``b + f2 * sigma`` (and its x-derivative
    ``b_x + f2_x * sigma + f2 * sigma_x``), the drift of
    ``transformed_drift(model)``, formed from the ``sigma`` and
    ``sigma_x`` values the step has already evaluated; without it the
    drift is ``model.b``.  Either way each computed node calls ``sigma``
    once, and a step that runs the tangent flow calls ``sigma_x`` once.
    An x-flat stream (see the module docstring) calls no coefficient: it
    steps with ``x_flat_coefficients``, the table of
    ``_x_flat_coefficients`` for the same ``absorb``, which a caller that
    streams several chunks builds once, and the stream builds on its first
    advance when it is not given.

    Without ``every_state`` the stream computes the same steps but yields
    only its terminal state, node ``n_steps``, whose every field equals
    the last state of a full stream: the tangent update builds no state
    before it, and an x-flat stream keeps only the last state it builds.
    A yielded state is valid until the stream is advanced (see
    ``PathState``).

    It sets no floating-point error state, so none leaks between two
    states; its callers silence the warnings of their own advances.
    """
    n_live = _live_steps(model, grid)
    if not _x_flat_stream(model, grid):
        yield from _tangent_states(model, point, grid, rows, scale, n_live,
                                   absorb, every_state)
        return
    if x_flat_coefficients is None:
        x_flat_coefficients = _x_flat_coefficients(model, point, grid, absorb)
    states = _x_flat_states(point, grid, rows, scale, n_live,
                            x_flat_coefficients)
    yield from states if every_state else deque(states, maxlen=1)


def _tangent_states(model: CoefficientModel, point: ProblemPoint,
                    grid: TimeGrid, rows: np.ndarray, scale: float,
                    n_live: int, absorb: bool,
                    every_state: bool) -> Iterator[PathState]:
    """The full update: every coefficient on every path, the tangent flow
    and ``B``."""
    n = grid.n_steps
    dt = grid.dt
    times = grid.times()
    shape = (rows.shape[1],)
    zeros = np.zeros(shape)
    X = np.full(shape, point.x0, dtype=float)
    gradX = np.ones(shape, dtype=float)
    Lambda = np.zeros(shape, dtype=float)
    S1 = np.zeros(shape, dtype=float)
    B = np.zeros(shape, dtype=float)

    for k in range(n_live + (n_live < n)):  # and the first frozen step
        t = float(times[k])
        dWk = rows[k] * scale if k < n_live else zeros
        sig = model.sigma(t, X)
        gamma = _full(sig, shape)
        if every_state:
            yield PathState(k, t, X, gradX, gamma, Lambda, S1, B, dWk)

        sig_x = model.sigma_x(t, X)
        sx = np.asarray(sig_x, dtype=float)
        bx = np.asarray(
            _absorbed_drift_x(model, t, X, sig, sig_x) if absorb
            else model.b_x(t, X), dtype=float)
        S1 = S1 + gamma * gradX * dWk
        B = B + Lambda * sx * gamma * gradX * dt
        gradX = gradX * np.exp((bx - 0.5 * sx * sx) * dt + sx * dWk)
        bv = np.asarray(_absorbed_drift(model, t, X, sig) if absorb
                        else model.b(t, X), dtype=float)
        Lambda = Lambda + gamma * gamma * dt
        X = X + bv * dt + gamma * dWk

    if every_state:
        for k in range(n_live + 1, n):  # the rest of a frozen tail
            yield PathState(k, float(times[k]), X, gradX, zeros, Lambda, S1,
                            B, zeros)

    t = float(times[n])
    yield PathState(n, t, X, gradX, _full(model.sigma(t, X), shape), Lambda,
                    S1, B, None)


def _x_flat_states(point: ProblemPoint, grid: TimeGrid, rows: np.ndarray,
                   scale: float, n_live: int,
                   coefficients: tuple) -> Iterator[PathState]:
    """The x-flat update: ``sigma`` and the drift of each step read from
    the Python floats of ``coefficients`` (see ``_x_flat_coefficients``);
    ``X``, ``S1`` and the increment updated in place in one buffer each;
    ``gamma`` and ``Lambda`` yielded as read-only stride-0 rows."""
    n = grid.n_steps
    dt = grid.dt
    times = grid.times()
    shape = (rows.shape[1],)
    zeros = np.zeros(shape)
    X = np.full(shape, point.x0, dtype=float)
    S1 = np.zeros(shape, dtype=float)
    dW = np.empty(shape, dtype=float)
    ones = np.ones(shape, dtype=float)
    multiply, add = np.multiply, np.add
    # node k's gamma and Lambda, written once, just before node k is yielded
    gam = np.zeros(n + 1)
    lam = np.zeros(n + 1)
    gamma_rows, lambda_rows = (
        as_strided(v, shape=(n + 1,) + shape, strides=(v.strides[0], 0),
                   writeable=False)
        for v in (gam, lam))
    lam_k = 0.0
    sigmas, drifts = coefficients

    for k in range(n_live + (n_live < n)):  # and the first frozen step
        t = float(times[k])
        if k < n_live:
            multiply(rows[k], scale, dW)
        else:
            dW.fill(0.0)
        g = gam[k] = sigmas[k]
        lam[k] = lam_k
        yield PathState(k, t, X, ones, gamma_rows[k], lambda_rows[k], S1,
                        zeros, dW)

        bv = drifts[k]
        multiply(g, dW, dW)  # the step's g * dW
        add(S1, dW, S1)
        lam_k = lam_k + g * g * dt
        add(X, bv * dt, X)
        add(X, dW, X)

    for k in range(n_live + 1, n):  # the rest of a frozen tail; gam[k] = 0
        lam[k] = lam_k
        yield PathState(k, float(times[k]), X, ones, gamma_rows[k],
                        lambda_rows[k], S1, zeros, zeros)

    gam[n] = sigmas[-1]
    lam[n] = lam_k
    yield PathState(n, float(times[n]), X, ones, gamma_rows[n],
                    lambda_rows[n], S1, zeros, None)


# The standard normals per path that the terminal law reads: rows 0 and 1
# of a step-major draw.
_TERMINAL_LAW_ROWS = 2


def _x_flat_terminal_law(point: ProblemPoint, grid: TimeGrid,
                         coefficients: tuple
                         ) -> Callable[[np.ndarray], PathState]:
    """The exact law of an x-flat stream's terminal state.

    Under ``x_flat`` every step adds the same drift and the same multiple
    of its increment to every path, so ``S1_T = sum_k gamma_k * dW_k`` is
    Gaussian with variance ``Lambda_T`` and ``X_T = x0 + D + S1_T`` with
    ``D = sum_k drift_k * dt``.  The classical weight's
    ``snd_T = sum_k dW_k / gamma_k`` is jointly Gaussian with it: their
    covariance is ``elapsed``, and given ``S1_T`` it is
    ``c * S1_T`` with ``c = elapsed / Lambda_T`` plus an independent
    residual of variance ``r = sum_k dt * (1/gamma_k - c * gamma_k)**2``.
    So two standard normals per path, ``Z1`` and ``Z2``, give the law of
    the discretized scheme exactly:
    ``S1_T = sqrt(Lambda_T) * Z1`` and ``snd_T = c * S1_T + sqrt(r) * Z2``.

    ``Lambda_T`` and ``D`` sum the steps the kernel computes, in its order
    (the live steps and the first frozen step), from ``coefficients``, the
    table of ``_x_flat_coefficients``, so ``Lambda_T`` is the kernel's bit
    for bit.  ``r`` is a sum of nonnegative terms, exactly zero when
    ``1/gamma_k == c * gamma_k`` (at a constant power-of-two volatility,
    say), and then ``snd_T`` is ``c * S1_T``.  In a frozen tail past its
    first step ``gamma`` is zero, so ``min_abs_gamma`` is 0.

    Returns ``state(rows)``: node ``n_steps``'s ``PathState`` for the paths
    of a step-major draw, read from its rows 0 and 1 alone.  ``gradX`` is
    1 and ``B`` is +0.0, and the constant fields are read-only stride-0
    rows.  The constants are formed once, here, for all the chunks of a
    job.
    """
    n = grid.n_steps
    dt = grid.dt
    sigmas, drifts = coefficients
    lam = drift = 0.0
    for g, bv in zip(sigmas, drifts):  # the computed steps
        lam = lam + g * g * dt
        drift = drift + bv * dt
    elapsed = 0.0
    for _ in range(n):
        elapsed = elapsed + dt
    gam = np.zeros(n)  # gamma at every step; zero past the first frozen one
    gam[:len(drifts)] = sigmas[:len(drifts)]
    c = np.divide(elapsed, lam)
    sqrt_r = np.sqrt(np.sum(dt * (1.0 / gam - c * gam) ** 2))
    sqrt_lam = np.sqrt(lam)
    start = point.x0 + drift
    constants = (1.0, sigmas[-1], lam, 0.0, np.min(np.abs(gam)))

    def state(rows: np.ndarray) -> PathState:
        shape = (rows.shape[1],)
        ones, gamma, Lambda, zeros, min_abs = (
            np.broadcast_to(np.float64(v), shape) for v in constants)
        S1 = rows[0] * sqrt_lam
        snd = c * S1 + sqrt_r * rows[1]
        return PathState(n, grid.T, start + S1, ones, gamma, Lambda, S1,
                         zeros, None, snd, elapsed, min_abs)

    return state


def path_stream(model: CoefficientModel, point: ProblemPoint, grid: TimeGrid,
                seed: int, path_indices: Sequence[int]) -> Iterator[PathState]:
    """Yield the per-node state of the paths with the given indices.

    It holds no per-node history, only the running state, so memory
    stays flat in ``n_steps``.  Only the increments before a frozen tail
    are drawn.  Each state is a snapshot: its ``X``, ``S1`` and ``dW`` are
    copies, so it stays valid after the stream advances, although the
    kernel updates an x-flat stream's arrays in place.  Floating-point
    warnings are silenced while a state is computed, and only then: the
    caller's code between two states keeps its settings.
    """
    _check_compatible(model, point, grid)
    normals = _normal_matrix(seed, path_indices, _live_steps(model, grid))
    stream = _stream_from_increments(model, point, grid, normals,
                                     math.sqrt(grid.dt))
    while True:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            state = next(stream, None)
        if state is None:
            return
        yield state._replace(
            X=state.X.copy(), S1=state.S1.copy(),
            dW=None if state.dW is None else state.dW.copy())


# ---------------------------------------------------------------------------
# materialized simulations
# ---------------------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _materialize(model: CoefficientModel, point: ProblemPoint, grid: TimeGrid,
                 dW: np.ndarray) -> BatchPaths:
    n_paths = dW.shape[0]
    X = np.empty((n_paths, grid.n_steps + 1), dtype=float)
    gradX = np.empty_like(X)
    gamma = np.empty_like(X)
    Lambda = np.empty_like(X)
    S1 = np.empty_like(X)
    B = np.empty_like(X)

    for st in _stream_from_increments(model, point, grid, dW.T, 1.0):
        X[:, st.k] = st.X
        gradX[:, st.k] = st.gradX
        gamma[:, st.k] = st.gamma
        Lambda[:, st.k] = st.Lambda
        S1[:, st.k] = st.S1
        B[:, st.k] = st.B

    valid = np.ones(n_paths, dtype=bool)
    for arr in (X, gradX, gamma, Lambda, S1, B):
        valid &= np.isfinite(arr).all(axis=1)
    return BatchPaths(grid=grid, dW=dW, X=X, gradX=gradX, gamma=gamma,
                      Lambda=Lambda, S1=S1, B=B, valid=valid)


def simulate_path(model: CoefficientModel, point: ProblemPoint, grid: TimeGrid,
                  seed: int, path_index: int = 0) -> PathBundle:
    """Simulate a single path (bit-identical to the same index in a batch)."""
    _check_compatible(model, point, grid)
    dW = _normal_matrix(seed, [path_index], grid.n_steps).T
    dW *= math.sqrt(grid.dt)
    return _materialize(model, point, grid, dW)[0]


def simulate_path_with_increments(model: CoefficientModel, point: ProblemPoint,
                                  grid: TimeGrid, dW: np.ndarray) -> PathBundle:
    """Simulate one path driven by caller-supplied increments.

    Used for coupling experiments (e.g. strong-error measurement against
    a reference driven by the same noise aggregated to a coarser grid).
    """
    _check_compatible(model, point, grid)
    dW = np.asarray(dW, dtype=float)
    if dW.ndim != 1 or dW.size != grid.n_steps:
        raise ValueError(
            f"expected {grid.n_steps} increments, got shape {dW.shape}"
        )
    return _materialize(model, point, grid, dW[None, :])[0]


def simulate_batch(model: CoefficientModel, point: ProblemPoint, grid: TimeGrid,
                   seed: int, n_paths: int) -> BatchPaths:
    """Simulate paths with indices ``0 .. n_paths - 1`` under ``seed``.

    Raises ``SimulationError`` when more than 1% of paths contain
    non-finite values; otherwise invalid paths are flagged in ``valid``.
    Memory scales with ``n_paths * n_steps``; use ``path_stream`` for
    estimation at large path counts.
    """
    n_paths = _check_count(n_paths, "n_paths")
    _check_compatible(model, point, grid)
    dW = _normal_matrix(seed, np.arange(n_paths), grid.n_steps).T
    dW *= math.sqrt(grid.dt)
    batch = _materialize(model, point, grid, dW)
    if batch.n_invalid > _MAX_INVALID_FRACTION * n_paths:
        raise SimulationError(
            f"{batch.n_invalid} of {n_paths} paths are non-finite"
        )
    return batch

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
one contiguous row.  A draw of at most four normals per path, the words of
one Philox block, is computed for all paths at once: Philox4x64-10 in
uint64 arithmetic, then numpy's ziggurat fast path on each word, with
numpy's own tables (``_ziggurat_tables``).  A longer draw, and the few
paths whose words the ziggurat rejects, reset one generator to each
path's key in turn.  Both give numpy's bits.  The estimators draw once per
chunk of paths, as many normals per path as the longest of their streams
reads (two for the terminal law below), and each stream scales its own
row at each step; the materialized simulations scale the whole draw once,
which gives the same bits.

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
update builds no state before it, so its frozen tail costs nothing.

x-flat: a model that declares ``x_flat`` has ``sigma``, ``b`` and ``f2``
independent of ``x`` (so ``sigma_x``, ``b_x`` and ``f2_x`` are identically
zero), and the kernel steps it as any other model.  A job may draw its
terminal state from the law below instead when the model also has no
running cost and its declared bound ``|sigma| <= lipschitz_K`` keeps
``Lambda`` finite (``_x_flat_stream``).  The law's ``sigma`` and drift are
then evaluated once per job, for all of its chunks, at the start ``x0``
(``_x_flat_coefficients``): from the coefficients' time functions when the
model carries them, as every built-in does, with no closure call
(``model._x_flat_at``).  A stale declaration gives every path the
``gamma`` and drift at ``x0``, so its results still do not depend on
chunking.

Terminal law: on an x-flat model ``S1_T`` is a fixed linear combination
of the increments, so the terminal state is Gaussian, with a
deterministic ``Lambda_T`` and drift sum.
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
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np
# a module-level import, so numpy.random loads with the package and not on
# the first draw inside a run
from numpy.random import Generator, Philox

from ._ziggurat_tables import KI_DOUBLE, WI_DOUBLE_HEX
from .model import (CoefficientModel, ProblemPoint, _absorbed_drift,
                    _absorbed_drift_x, _x_flat_at)

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
    """A batch of paths as ``(n_paths, n_nodes)`` arrays.

    Every field is the transpose of a contiguous step-major array, one row
    per node (``dW``: one row per step, the draw), so the values of one
    node are contiguous.  Behaves as a sequence of ``PathBundle`` views;
    no per-path copies are made.
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


# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as
# easy as 1, 2, 3", SC'11): the two round multipliers, as a column so one
# ufunc call serves both, their 32-bit halves, and the two key bumps.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]],
                     dtype=np.uint64)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & 0xFFFFFFFF, _PHILOX_M >> 32
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK64 = 2 ** 64 - 1
# The words of one Philox block: the longest draw ``_normal_matrix`` makes
# for all paths at once.
_PHILOX_WORDS = 4
# Paths per pass of the vectorized draw, which holds twelve uint64 words per
# path (192 KB).  One pass of 4096 paths drew a 4096-path chunk ~18% faster
# but raised its traced peak from 327 to 582 KB, which shows in peak RSS.
_VECTOR_BLOCK = 2048
# numpy's ziggurat tables, indexed by the low 9 bits of a word, the sign bit
# included: ``-wi`` for a set sign bit, since ``rabs * -wi == -(rabs * wi)``
# in IEEE arithmetic.
_WI = np.array([float.fromhex(h) for h in WI_DOUBLE_HEX])
_ZIGGURAT_W = np.concatenate([_WI, -_WI])
_ZIGGURAT_K = np.array(KI_DOUBLE * 2, dtype=np.uint64)


def _normal_matrix(seed: int, path_indices, n_steps: int) -> np.ndarray:
    """Standard normals, step-major: shape ``(n_steps, n_paths)``.

    Column ``j`` is the start of the Philox stream keyed by the exact
    128-bit pair ``(seed, path_indices[j])``: what ``standard_normal`` on a
    generator freshly built on that key draws, so a shorter draw is a
    prefix of a longer one.  A draw of at most ``_PHILOX_WORDS`` normals
    per path, as the terminal law's, is computed for all paths at once
    (``_vector_normals``); the paths it cannot finish, and every longer
    draw, go through ``_per_path_normals``.
    """
    seed = _check_seed(seed)
    idx = _path_indices(path_indices)
    if n_steps > _PHILOX_WORDS:
        return _per_path_normals(seed, idx, n_steps)
    out, redraw = _vector_normals(seed, idx, n_steps)
    redraw = np.flatnonzero(redraw)
    if redraw.size:
        out[:, redraw] = _per_path_normals(seed, idx[redraw], n_steps)
    return out


def _vector_normals(seed: int, idx: np.ndarray, n_steps: int) -> tuple:
    """The first ``n_steps <= 4`` normals of each path's stream, and a
    mask of the paths whose column is not finished.

    Each column comes from the first Philox block of its stream, computed
    for ``_VECTOR_BLOCK`` paths at a time in uint64 arithmetic, which
    wraps as Philox's does.  numpy increments the counter before it
    generates, so that block is the 10-round bijection of counter
    ``[1, 0, 0, 0]`` under key ``(seed, i)``.  Its first round has
    constant inputs and outputs ``[seed, 0, i, M0]``; the other nine run
    here.  The state is kept as two rows of two words, ``(c0, c2)``, the
    multiplied words, and ``(c1, c3)``; the high word of each 128-bit
    product is formed from 32-bit halves (Hacker's Delight, ``mulhu``).

    Each word then takes numpy's ziggurat fast path (Marsaglia & Tsang,
    *J. Stat. Softw.* 5, 2000; numpy's ``random_standard_normal``): with
    ``b`` its low 8 bits, ``sign`` bit 8 and ``rabs`` bits 9 to 60, the
    normal is ``rabs * wi[b]``, negated under ``sign``, when
    ``rabs < ki[b]``.  numpy rejects the other words and reads further
    ones, so a path with a rejected word among its first ``n_steps`` is
    left to the caller; about 1.4% of words are.
    """
    n_paths = idx.size
    ids = idx.view(np.uint64)  # exact: every index lies in [0, 2**63)
    out = np.empty((n_steps, n_paths))
    redraw = np.zeros(n_paths, dtype=bool)
    words = np.empty((6, 2, min(_VECTOR_BLOCK, n_paths)), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for start in range(0, n_paths, _VECTOR_BLOCK):
            cols = slice(start, start + _VECTOR_BLOCK)
            ids_b = ids[cols]
            mul, xor, hi, s, t, u = words[:, :, :ids_b.size]
            mul[0], mul[1] = seed, ids_b
            xor[0], xor[1] = 0, _PHILOX_M[0, 0]
            for r in range(1, 10):
                np.bitwise_and(mul, 0xFFFFFFFF, out=s)
                np.right_shift(mul, 32, out=u)
                np.multiply(mul, _PHILOX_M, out=mul)  # the low words
                np.multiply(s, _PHILOX_M_LO, out=t)
                np.right_shift(t, 32, out=t)
                np.multiply(s, _PHILOX_M_HI, out=s)
                np.add(t, s, out=t)
                np.right_shift(t, 32, out=hi)
                np.bitwise_and(t, 0xFFFFFFFF, out=t)
                np.multiply(u, _PHILOX_M_LO, out=s)
                np.add(t, s, out=t)
                np.multiply(u, _PHILOX_M_HI, out=u)
                np.add(hi, u, out=hi)
                np.right_shift(t, 32, out=t)
                np.add(hi, t, out=hi)  # the high words
                # c0 = hi1 ^ c1 ^ k0 and c2 = hi0 ^ c3 ^ k1, with the key
                # (k0, k1) bumped r times
                hi = hi[::-1]
                np.bitwise_xor(hi, xor, out=hi)
                np.bitwise_xor(hi[0], (seed + r * _PHILOX_BUMP[0]) & _MASK64,
                               out=hi[0])
                np.add(ids_b, (r * _PHILOX_BUMP[1]) & _MASK64, out=s[0])
                np.bitwise_xor(hi[1], s[0], out=hi[1])
                # c1 = lo1 and c3 = lo0; the old (c1, c3) rows are spare
                mul, xor, hi = hi, mul[::-1], xor
            block = (mul[0], xor[0], mul[1], xor[1])[:n_steps]
            for row, word in zip(out[:, cols], block):
                j = (word & 0x1FF).view(np.int64)
                rabs = (word >> 9) & (2 ** 52 - 1)
                np.multiply(rabs, _ZIGGURAT_W[j], out=row)
                redraw[cols] |= rabs >= _ZIGGURAT_K[j]
    return out, redraw


# Paths drawn per block of ``_per_path_normals``, which serves the draws of
# more than ``_PHILOX_WORDS`` normals and the paths ``_vector_normals``
# leaves unfinished; the block buffer holds ``_DRAW_BLOCK * n_steps``
# normals (1 MB at 500 steps).  Blocks of 16 or 64 paths made the draw
# slower than a row-major one; 256 did not.
_DRAW_BLOCK = 256


def _per_path_normals(seed: int, idx: np.ndarray, n_steps: int) -> np.ndarray:
    """``_normal_matrix`` one path at a time: the kernel's long draws and
    the paths ``_vector_normals`` leaves unfinished.

    One generator is reset to each path's key, a zero counter and an empty
    buffer in turn, so it draws what a generator freshly built on that key
    would.  Paths are drawn ``_DRAW_BLOCK`` at a time into a small
    per-path-row buffer whose transpose is copied into the output; no
    second full-size matrix is built.
    """
    key = [seed, 0]
    idx = idx.tolist()
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
    """Whether the model's declarations let a job on ``grid`` draw the
    terminal law (``_x_flat_terminal_law``): the model declares ``x_flat``,
    and its bound ``|sigma| <= lipschitz_K`` keeps
    ``Lambda <= K**2 * (T - t0)`` finite, with a factor 2 for rounding."""
    K = model.lipschitz_K
    return model.x_flat and math.isfinite(2.0 * K * K * (grid.T - grid.t0))


def _full(values, shape: tuple) -> np.ndarray:
    """A coefficient's values as a float array of ``shape``, broadcast only
    when the coefficient returned another shape (a scalar, say)."""
    arr = np.asarray(values, dtype=float)
    return arr if arr.shape == shape else np.broadcast_to(arr, shape)


def _x_flat_coefficients(model: CoefficientModel, point: ProblemPoint,
                         grid: TimeGrid) -> tuple:
    """The values the terminal law sums, each a Python float from
    ``_x_flat_at``: ``sigma`` at every node the kernel computes (the live
    steps, the first frozen step and the terminal node) and the absorbed
    drift ``b + f2 * sigma`` at the same steps but the terminal node.  A
    built-in model's come from its time functions, with no closure call;
    any other model's coefficients are called once per node on a
    one-element ``x`` holding ``point.x0``.  Under a valid ``x_flat``
    declaration they equal the kernel's values at any ``x``, bit for
    bit."""
    n = grid.n_steps
    n_live = _live_steps(model, grid)
    times = grid.times()
    at = _x_flat_at(model, np.full(1, point.x0, dtype=float))
    sigmas, drifts = [], []
    # and the first frozen step
    for t in times[:n_live + (n_live < n)].tolist():
        sig, drift = at(t)
        sigmas.append(sig)
        drifts.append(drift)
    sigmas.append(at(float(times[n]), drift=False)[0])
    return sigmas, drifts


def _stream_from_increments(model: CoefficientModel, point: ProblemPoint,
                            grid: TimeGrid, rows: np.ndarray, scale: float,
                            absorb: bool = False,
                            every_state: bool = True) -> Iterator[PathState]:
    """Advance a path family driven by the given step-major matrix: row
    ``k`` is step ``k``, one column per path, and step ``k``'s increment is
    ``rows[k] * scale``.  Each step updates every path: ``X``, the tangent
    flow ``gradX`` and the sums ``Lambda``, ``S1`` and ``B`` (see the module
    docstring).

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
    once, and each step calls ``sigma_x`` once.  On an x-flat model the
    derivatives are zero, so ``gradX`` stays exactly 1 (``exp(+0.0)``) and
    ``B`` adds only ``+-0.0`` while ``gamma`` and ``Lambda`` are finite.

    Without ``every_state`` the stream computes the same steps but yields
    only its terminal state, node ``n_steps``, whose every field equals
    the last state of a full stream; it builds no state before it.

    It sets no floating-point error state, so none leaks between two
    states; its callers silence the warnings of their own advances.
    """
    n = grid.n_steps
    n_live = _live_steps(model, grid)
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


# The standard normals per path that the terminal law reads: rows 0 and 1
# of a step-major draw.
_TERMINAL_LAW_ROWS = 2


def _x_flat_terminal_law(point: ProblemPoint, grid: TimeGrid,
                         coefficients: tuple
                         ) -> Callable[[np.ndarray], PathState]:
    """The exact law of the kernel's terminal state on an x-flat model.

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
    copies, so a caller may keep or write into one state's arrays without
    touching another's, although the kernel yields every node of a frozen
    tail with the same ``X``, ``S1`` and zero ``dW``.  Floating-point
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
    """Every state of the kernel driven by ``dW``, ``(n_paths, n_steps)``,
    the transpose of a step-major array, stored node by node in step-major
    arrays whose transposes make the batch."""
    n_paths = dW.shape[0]
    X, gradX, gamma, Lambda, S1, B = fields = np.empty(
        (6, grid.n_steps + 1, n_paths))

    for st in _stream_from_increments(model, point, grid, dW.T, 1.0):
        k = st.k
        X[k] = st.X
        gradX[k] = st.gradX
        gamma[k] = st.gamma
        Lambda[k] = st.Lambda
        S1[k] = st.S1
        B[k] = st.B

    valid = np.ones(n_paths, dtype=bool)
    for arr in fields:
        valid &= np.isfinite(arr).all(axis=0)
    return BatchPaths(grid=grid, dW=dW, X=X.T, gradX=gradX.T, gamma=gamma.T,
                      Lambda=Lambda.T, S1=S1.T, B=B.T, valid=valid)


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

"""The draw of at most four normals per path for all paths at once: the
ziggurat tables it embeds are numpy's own, and it returns what a fresh
generator on each path's key draws, bit for bit, redrawing in the per-path
loop exactly the paths whose words numpy rejects."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from degenbsde import sde_sim
from degenbsde.sde_sim import _normal_matrix

_WI = sde_sim._ZIGGURAT_W[:256]
_KI = sde_sim._ZIGGURAT_K[:256].tolist()


def _first_normal(words):
    """numpy's first standard normal from a Philox generator whose buffer
    holds ``words``, and the number of words it read (4 or more once it
    had to generate a block of its own)."""
    bit_gen = Philox(key=np.zeros(2, dtype=np.uint64))
    state = bit_gen.state
    state["buffer"], state["buffer_pos"] = list(words), 0
    bit_gen.state = state
    x = Generator(bit_gen).standard_normal()
    after = bit_gen.state
    read = (after["buffer_pos"] if not after["state"]["counter"].any()
            else 4 + after["buffer_pos"])
    return x, read


def _word(rabs, sign, idx):
    return (rabs << 9) | (sign << 8) | idx


def test_signed_tables_repeat_numpys_tables():
    assert sde_sim._ZIGGURAT_W[256:].tobytes() == (-_WI).tobytes()
    assert sde_sim._ZIGGURAT_K[256:].tolist() == _KI
    assert _KI[1] == 0 and all(0 < k < 2 ** 52 for i, k in enumerate(_KI)
                               if i != 1)


@pytest.mark.parametrize("idx", range(256))
def test_tables_match_the_installed_numpy(idx):
    wi, ki = float(_WI[idx]), _KI[idx]
    if ki > 1:  # rabs = 1 is accepted and scales wi by one
        x, read = _first_normal([_word(1, 0, idx), 0, 0, 0])
        assert (x, read) == (wi, 1)
    if ki > 0:  # the largest accepted rabs, with the sign bit set
        x, read = _first_normal([_word(ki - 1, 1, idx), 0, 0, 0])
        assert read == 1
        assert x == -(float(ki - 1) * wi)
    # rabs = ki is rejected: numpy reads on past the first word
    _, read = _first_normal([_word(ki, 0, idx), 0, 2 ** 64 - 1, 0])
    assert read >= 2


@contextlib.contextmanager
def _per_path_calls():
    """Record ``(n_paths, n_steps)`` of each call of the per-path loop."""
    reached = []
    real = sde_sim._per_path_normals

    def counting(seed, idx, n_steps):
        reached.append((idx.size, n_steps))
        return real(seed, idx, n_steps)

    with mock.patch.object(sde_sim, "_per_path_normals", counting):
        yield reached


def _fresh(seed, i, k):
    """The first ``k`` normals of stream ``(seed, i)``, and whether numpy
    read more than ``k`` words for them."""
    bit_gen = Philox(key=np.array([seed, i], dtype=np.uint64))
    normals = Generator(bit_gen).standard_normal(k)
    state = bit_gen.state
    exact = (state["buffer_pos"] == k if state["state"]["counter"][0] == 1
             else k == 0)
    return normals, not exact


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       indices=st.lists(st.integers(0, 2 ** 63 - 1), max_size=40),
       k=st.integers(0, 4),
       dtype=st.sampled_from([None, np.int64, np.uint64]))
# seed 2**64 - 1 rejects the first word of paths 59 and 77
@example(seed=2 ** 64 - 1, indices=[77, 3, 77, 2 ** 63 - 1, 59], k=1,
         dtype=np.uint64)
@example(seed=0, indices=[], k=0, dtype=None)
@example(seed=5, indices=[2, 1, 2], k=0, dtype=np.int64)
def test_vector_draw_equals_fresh_generators(seed, indices, k, dtype):
    index_arg = indices if dtype is None else np.array(indices, dtype=dtype)
    with _per_path_calls() as reached:
        got = _normal_matrix(seed, index_arg, k)
    assert got.shape == (k, len(indices))
    assert got.flags.c_contiguous
    redrawn = 0
    for j, i in enumerate(indices):
        fresh, rejected = _fresh(seed, i, k)
        assert got[:, j].tobytes() == fresh.tobytes()
        redrawn += rejected
    # the per-path loop draws the paths numpy rejects a word of, no others
    assert sum(size for size, _ in reached) == redrawn
    if seed == 2 ** 64 - 1 and indices == [77, 3, 77, 2 ** 63 - 1, 59]:
        assert redrawn >= 3


def test_long_draws_stay_per_path():
    with _per_path_calls() as reached:
        _normal_matrix(3, range(10), sde_sim._PHILOX_WORDS + 1)
    assert reached == [(10, sde_sim._PHILOX_WORDS + 1)]

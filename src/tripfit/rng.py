"""Named, seedable random streams backed by the counter-based Philox generator.

Every stochastic routine in the package draws from its own stream so that
training data, evaluation points, multistart initializations and Monte Carlo
trials never share draws.  A stream is re-derivable from (seed, name, *path)
alone, so a Monte Carlo trial's draws do not depend on the order trials run
in.

Philox is counter-based (Salmon et al., "Parallel Random Numbers: As Easy as
1, 2, 3", SC'11): block b of a stream is Philox4x64-10 applied to the counter
(b + 1, 0, 0, 0) under a key that numpy's `SeedSequence` hashes from
(seed, stream id, *path).  `stream_uniforms` takes from numpy the
`SeedSequence` pool of each cell, whose path lacks only the trial index, and
recomputes the steps that follow in integer array arithmetic: mixing in the
trial index, `generate_state` and Philox.  So it yields the first draws of
many trial streams at once without building a generator per trial.  It
relies on numpy's random-stream compatibility policy (NEP 19), under which
`SeedSequence` and the bit generators keep their output for a given seed
across numpy versions; the conversion of a 64-bit draw to a double in
`Generator.random`, its top 53 bits times 2**-53, is not covered by that
policy, and the tests pin it with `rng_stream`, which stays the reference for
`stream_uniforms`.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

# Stable stream identifiers. Never renumber: seeds would stop reproducing.
STREAM_IDS = {
    "train": 1,
    "eval": 2,
    "multistart": 3,
    "sweep": 4,
    "sweep_eval": 5,
    "matrix": 6,
}


def _stream_id(name: str) -> int:
    try:
        return STREAM_IDS[name]
    except KeyError:
        raise KeyError(f"unknown stream {name!r}; known streams: {sorted(STREAM_IDS)}") from None


def rng_stream(seed: int, name: str, *path: int) -> np.random.Generator:
    """Return the generator for stream `name`, optionally indexed by `path`.

    `path` integers (level index, trial index, ...) derive per-task substreams
    that are independent of each other and of the parent stream.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(_stream_id(name), *path))
    return np.random.Generator(np.random.Philox(seq))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), all uint32.
_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Philox4x64 round multipliers and Weyl key increments (Random123).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _word_count(n: int) -> int:
    """How many uint32 words SeedSequence reads a non-negative integer as."""
    return max(1, -(-operator.index(n).bit_length() // 32))


def _hash(value, hash_const, mult):
    """One SeedSequence hash step: the hashed value and the next hash constant.

    Values and constants are uint32, as Python ints or uint64 arrays.
    """
    value = value ^ hash_const
    hash_const = hash_const * mult & _M32
    value = value * hash_const & _M32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    """SeedSequence's mix() of two uint32 values."""
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ (r >> 16)


def _philox_keys(seed: int, stream_id: int, paths: Sequence[Sequence[int]],
                 trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Philox key words of the streams (seed, stream_id, *path, t), shape (paths, trials)."""
    # numpy mixes every spawn word but the last into each path's pool.
    # Columns of (paths, 1): paths may differ in length, and so in hash constant.
    pools = [np.random.SeedSequence(seed, spawn_key=(stream_id, *path)).pool for path in paths]
    pool = [np.array([p[dst] for p in pools], dtype=np.uint64)[:, None]
            for dst in range(_POOL_SIZE)]
    # Every word mixed in so far took one hash step per pool entry; the seed's
    # words are padded with zeros to the pool size.
    words = [max(_POOL_SIZE, _word_count(seed)) + _word_count(stream_id)
             + sum(map(_word_count, path)) for path in paths]
    hash_const = np.array([_INIT_A * pow(_MULT_A, _POOL_SIZE * w, 2**32) & _M32 for w in words],
                          dtype=np.uint64)[:, None]
    # The last spawn word, the trial index, is hashed as an array.
    t = np.arange(trials, dtype=np.uint64)
    for dst in range(_POOL_SIZE):
        value, hash_const = _hash(t, hash_const, _MULT_A)
        pool[dst] = _mix(pool[dst], value)
    # generate_state(2, uint64): four uint32 words, paired little-endian.
    hash_const = _INIT_B
    state = []
    for w in pool:
        value, hash_const = _hash(w, hash_const, _MULT_B)
        state.append(value)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit product m * x, from 32-bit halves."""
    m0, m1 = m & _M32, m >> 32
    x0, x1 = x & _M32, x >> 32
    p00, p01, p10 = m0 * x0, m0 * x1, m1 * x0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    hi = m1 * x1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return hi, m * x


def _philox4x64(ctr: list[np.ndarray], k0: np.ndarray, k1: np.ndarray) -> list[np.ndarray]:
    """Philox4x64-10 of the counter words `ctr` under the key (k0, k1)."""
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = k0 + _PHILOX_W[0]
            k1 = k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], ctr[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], ctr[2])
        ctr = [hi1 ^ ctr[1] ^ k0, lo1, hi0 ^ ctr[3] ^ k1, lo0]
    return ctr


def stream_uniforms(seed: int, name: str, paths: Sequence[Sequence[int]], trials: int,
                    n: int) -> np.ndarray:
    """`rng_stream(seed, name, *path, t).random(n)` for every path and t < trials.

    Returns a (len(paths), trials, n) array, bit for bit those draws.  The
    trial index is the one spawn word hashed as an array, so it must fit in
    one uint32 word.  Working memory is a few dozen uint64 arrays of
    len(paths) * trials elements, so callers pass paths in chunks.
    """
    if trials > 2**32:
        raise ValueError(f"trial indices must be < 2**32, got {trials} trials")
    k0, k1 = _philox_keys(seed, _stream_id(name), paths, trials)
    out = np.empty(k0.shape + (n,))
    zero = np.zeros_like(k0)
    for block in range(0, n, 4):
        # Block b of a stream is the counter (b + 1, 0, 0, 0).
        ctr = np.full_like(k0, block // 4 + 1)
        words = _philox4x64([ctr, zero, zero, zero], k0, k1)
        for j in range(min(4, n - block)):
            # next_double: the top 53 bits, scaled into [0, 1).
            out[:, :, block + j] = (words[j] >> 11) * 2.0**-53
    return out

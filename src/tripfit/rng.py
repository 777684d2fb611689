"""Named, seedable random streams backed by the counter-based Philox generator.

Every stochastic routine in the package draws from its own stream so that
training data, evaluation points, multistart initializations and Monte Carlo
trials never share draws.  A stream is re-derivable from (seed, name, *path)
alone, so a Monte Carlo trial's draws do not depend on the order trials run
in.
"""

from __future__ import annotations

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


def rng_stream(seed: int, name: str, *path: int) -> np.random.Generator:
    """Return the generator for stream `name`, optionally indexed by `path`.

    `path` integers (level index, trial index, ...) derive per-task substreams
    that are independent of each other and of the parent stream.
    """
    try:
        stream_id = STREAM_IDS[name]
    except KeyError:
        raise KeyError(f"unknown stream {name!r}; known streams: {sorted(STREAM_IDS)}") from None
    seq = np.random.SeedSequence(seed, spawn_key=(stream_id, *path))
    return np.random.Generator(np.random.Philox(seq))

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from tripfit.rng import STREAM_IDS, rng_stream, stream_uniforms

# Seeds of one, two, two and three uint32 words: SeedSequence pads the first
# three to its pool size of four words.
SEEDS = (0, 2**32, 2**63 - 1, 2**64 + 12345)
# Cell paths as the Monte Carlo engine builds them, plus path elements that
# span two and three words.
PATHS = ((), (3,), (0, 7), (8, 8), (2**33 + 1, 2), (2**64 + 3,))


@pytest.mark.parametrize("name", sorted(STREAM_IDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_stream_uniforms_match_rng_stream(seed, name):
    # n from 1 to 9 crosses the 4-word Philox block twice.
    for n in range(1, 10):
        draws = stream_uniforms(seed, name, PATHS, 3, n)
        assert draws.shape == (len(PATHS), 3, n)
        for path, cell in zip(PATHS, draws):
            for t, row in enumerate(cell):
                assert row.tolist() == rng_stream(seed, name, *path, t).random(n).tolist()


@given(
    seed=st.one_of(st.sampled_from(SEEDS), st.integers(0, 2**140)),
    name=st.sampled_from(sorted(STREAM_IDS)),
    paths=st.lists(st.lists(st.integers(0, 2**40), max_size=3).map(tuple),
                   min_size=1, max_size=3),
    trials=st.integers(1, 4),
    n=st.integers(1, 9),
)
def test_stream_uniforms_match_rng_stream_anywhere(seed, name, paths, trials, n):
    draws = stream_uniforms(seed, name, paths, trials, n)
    for path, cell in zip(paths, draws):
        for t, row in enumerate(cell):
            assert row.tolist() == rng_stream(seed, name, *path, t).random(n).tolist()


def test_stream_uniforms_builds_one_seed_sequence_per_path(monkeypatch):
    # Only the trial index is hashed per trial; a SeedSequence per trial would
    # cost tens of microseconds each.
    built = []
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(kwargs.get("spawn_key"))
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    stream_uniforms(7, "sweep", PATHS, 200, 3)
    assert built == [(STREAM_IDS["sweep"], *path) for path in PATHS]


def test_stream_uniforms_rejects_unknown_stream_and_wide_trial_index():
    with pytest.raises(KeyError, match="unknown stream"):
        stream_uniforms(0, "nope", [(0,)], 1, 1)
    # Checked before any array is built.
    with pytest.raises(ValueError, match="2\\*\\*32"):
        stream_uniforms(0, "sweep", [(0,)], 2**32 + 1, 1)

import numpy as np
import pytest

from mmsets.seeding import sample_rng, sample_states, stable_hash

MASK64 = (1 << 64) - 1
IDS = ["s0", "s0001", "sample-17", "ü-42", ""]
# one-word and two-word entropy, shuffled together so the grouping by word
# count must put every state back in its place
HASHES = [5, stable_hash(IDS[0]), 0, 2**32, stable_hash(IDS[1]), 2**32 - 1, 2**64 - 1,
          *map(stable_hash, IDS[2:])]


@pytest.mark.parametrize("epoch", [0, 1, 24])
@pytest.mark.parametrize("seed", [0, 1, 7919, 2**40, 2**64 - 1, 2**64 + 5])
def test_sample_states_match_seed_sequence_streams(seed, epoch):
    """numpy's own SeedSequence, in this process, is the known answer: each
    derived state, and the draws after it, equal default_rng's on the keys
    that derive_rng passes it (the seed masked to 64 bits)."""
    states = sample_states(seed, epoch, HASHES)
    assert len(states) == len(HASHES)
    generator = np.random.Generator(np.random.PCG64())
    for h, state in zip(HASHES, states):
        oracle = np.random.default_rng([seed & MASK64, epoch, h])
        assert state == oracle.bit_generator.state, h
        generator.bit_generator.state = state
        assert generator.random(7).tobytes() == oracle.random(7).tobytes(), h
        assert generator.choice(30, size=4, replace=False).tolist() == \
            oracle.choice(30, size=4, replace=False).tolist()


def test_sample_states_equal_sample_rng_by_id():
    states = sample_states(7919, 3, [stable_hash(i) for i in IDS])
    for sample_id, state in zip(IDS, states):
        assert state == sample_rng(7919, 3, sample_id).bit_generator.state, sample_id


def test_no_samples_no_states():
    assert sample_states(1, 0, []) == []

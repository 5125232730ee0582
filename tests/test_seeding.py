import hashlib

import numpy as np
import pytest

from mmsets.seeding import derive_rng, sample_rng, sample_states, stable_hash

IDS = ["s0", "s0001", "sample-17", "ü-42", ""]
HASHES = [5, stable_hash(IDS[0]), 0, 2**32, stable_hash(IDS[1]), 2**32 - 1, 2**64 - 1,
          *map(stable_hash, IDS[2:])]


def documented_state(*keys: int) -> dict:
    """FORMATS.md's rule for int keys: each key's low 64 bits as an 8-byte
    big-endian word, the words' 32-byte blake2s digest read big-endian, the
    first 16 bytes the PCG64 state, the last 16 with the low bit set its
    increment."""
    digest = hashlib.blake2s(b"".join((k % 2**64).to_bytes(8, "big") for k in keys),
                             digest_size=32).digest()
    return {"state": int.from_bytes(digest[:16], "big"),
            "inc": int.from_bytes(digest[16:], "big") | 1}


@pytest.mark.parametrize("epoch", [0, 1, 24])
@pytest.mark.parametrize("seed", [0, 1, 7919, 2**40, 2**64 - 1, 2**64 + 5])
def test_sample_states_match_seed_sequence_streams(seed, epoch):
    """The stream of each (seed, epoch, hash): its derived state is the
    documented one, computed here with hashlib, and derive_rng on the same
    keys draws what a PCG64 set to that state draws."""
    states = sample_states(seed, epoch, HASHES)
    assert len(states) == len(HASHES)
    for h, state in zip(HASHES, states):
        expected = documented_state(seed, epoch, h)
        assert state["state"] == expected, h
        oracle = np.random.Generator(np.random.PCG64())
        oracle.bit_generator.state = {"bit_generator": "PCG64", "state": expected,
                                      "has_uint32": 0, "uinteger": 0}
        rng = derive_rng(seed, epoch, h)
        assert rng.random(7).tobytes() == oracle.random(7).tobytes(), h
        assert rng.choice(30, size=4, replace=False).tolist() == \
            oracle.choice(30, size=4, replace=False).tolist()


def test_sample_states_equal_sample_rng_by_id():
    states = sample_states(7919, 3, [stable_hash(i) for i in IDS])
    for sample_id, state in zip(IDS, states):
        assert state == sample_rng(7919, 3, sample_id).bit_generator.state, sample_id


def test_int_keys_are_masked_to_64_bits():
    assert derive_rng(2**64 + 5, "shuffle", 3).random(5).tobytes() == \
        derive_rng(5, "shuffle", 3).random(5).tobytes()


def test_derivation_is_pinned():
    # trained bytes depend on every stream; a change to the derivation shows here
    assert derive_rng(0, "init").random(3).tolist() == \
        [0.09463641683502866, 0.21078944209996187, 0.01239693366783945]


def test_no_samples_no_states():
    assert sample_states(1, 0, []) == []

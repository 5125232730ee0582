"""Keyed random streams, so every stochastic choice is replayable.

A stream is a fixed function of its key, a tuple of ints and strings: the
key's blake2s digest is the PCG64 state the stream starts from (FORMATS.md,
"Random streams"). No stream depends on how many others were drawn before.
"""

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def stable_hash(text: str) -> int:
    """Platform- and process-independent 64-bit hash of a string."""
    digest = hashlib.blake2s(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _word(key) -> bytes:
    """A key as an 8-byte big-endian word: a string stands for its
    ``stable_hash``, an int for its low 64 bits."""
    return (stable_hash(key) if isinstance(key, str) else int(key) & _MASK64).to_bytes(8, "big")


def _state(words: bytes) -> dict:
    """The PCG64 state of the stream keyed by ``words``, the key's words in
    order: their 32-byte blake2s digest, read big-endian, gives the 128-bit
    ``state`` from its first 16 bytes and, with the low bit set, the odd
    increment ``inc`` from its last 16."""
    digest = hashlib.blake2s(words, digest_size=32).digest()
    return {"bit_generator": "PCG64",
            "state": {"state": int.from_bytes(digest[:16], "big"),
                      "inc": int.from_bytes(digest[16:], "big") | 1},
            "has_uint32": 0, "uinteger": 0}


def derive_rng(*keys) -> np.random.Generator:
    """A Generator at the start of the stream keyed by ``keys``, ints and
    strings; the same keys always give the same stream, whatever else the
    program has drawn."""
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = _state(b"".join(map(_word, keys)))
    return rng


def sample_rng(seed: int, epoch: int, sample_id: str) -> np.random.Generator:
    """Per-sample stream: reproducible across runs, varying across epochs.

    Used for instance subsampling and dropout, so a sample's noise does not
    depend on its position in the shuffled epoch order.
    """
    return derive_rng(seed, epoch, sample_id)


def sample_states(seed: int, epoch: int, hashes) -> list[dict]:
    """The start state of each sample's stream in one epoch: entry i is
    ``sample_rng(seed, epoch, id).bit_generator.state``, where ``hashes[i]``
    is ``stable_hash(id)``."""
    prefix = _word(seed) + _word(epoch)
    return [_state(prefix + _word(h)) for h in hashes]

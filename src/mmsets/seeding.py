"""Deterministic RNG derivation so every stochastic choice is replayable."""

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def stable_hash(text: str) -> int:
    """Platform- and process-independent 64-bit hash of a string."""
    digest = hashlib.blake2s(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_rng(*keys) -> np.random.Generator:
    """Generator seeded from a mix of ints and strings.

    The same keys always produce the same stream, regardless of call order
    elsewhere in the program.
    """
    material = [
        stable_hash(k) if isinstance(k, str) else int(k) & _MASK64 for k in keys
    ]
    return np.random.default_rng(material)


def sample_rng(seed: int, epoch: int, sample_id: str) -> np.random.Generator:
    """Per-sample stream: reproducible across runs, varying across epochs.

    Used for instance subsampling and dropout, so a sample's noise does not
    depend on its position in the shuffled epoch order.
    """
    return derive_rng(seed, epoch, sample_id)


# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier, as in
# numpy/random/bit_generator.pyx and numpy/random/src/pcg64/pcg64.h
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


def _words(value: int) -> list[int]:
    """SeedSequence's uint32 words of one key, low word first; 0 is one word."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hashmixer(const: int, mult: int):
    """SeedSequence's hashmix over uint32 columns; the constant it steps
    along stays with the returned function."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return value ^ value >> 16


def _pcg64_seeds(columns: list[np.ndarray]) -> list[list[int]]:
    """The four uint64 words that ``PCG64(SeedSequence(entropy))`` seeds
    from, for each row of the entropy given as uint32 ``columns``: one list
    per word. SeedSequence mixes the words into a pool of four, then hashes
    the pool out to eight uint32 words."""
    hashmix = _hashmixer(_INIT_A, _MULT_A)
    zeros = np.zeros_like(columns[0])
    pool = [hashmix(columns[i] if i < len(columns) else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for column in columns[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(column))
    hashmix = _hashmixer(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    return [(out[2 * i] | out[2 * i + 1] << np.uint64(32)).tolist() for i in range(_POOL_SIZE)]


def sample_states(seed: int, epoch: int, hashes) -> list[dict]:
    """The PCG64 state of each sample's stream in one epoch, derived at once.

    Entry i equals ``sample_rng(seed, epoch, id).bit_generator.state`` bit
    for bit, where ``hashes[i]`` is ``stable_hash(id)``; setting it on any
    PCG64 resumes that stream from its start. Keys are masked to 64 bits as
    in ``derive_rng``. The samples are grouped by their entropy's word
    count, each group mixed as uint32 columns, then PCG64's seeding step runs
    in Python integers.
    """
    prefix = _words(int(seed) & _MASK64) + _words(int(epoch) & _MASK64)
    h = np.array([int(x) & _MASK64 for x in hashes], dtype=np.uint64)
    low, high = (h & np.uint64(_MASK32)).astype(np.uint32), (h >> np.uint64(32)).astype(np.uint32)
    states = [None] * len(h)
    for rows, hash_columns in ((np.flatnonzero(high == 0), [low]),
                               (np.flatnonzero(high != 0), [low, high])):
        if not rows.size:
            continue
        columns = [np.full(rows.size, w, dtype=np.uint32) for w in prefix]
        columns += [c[rows] for c in hash_columns]
        for i, s0, s1, q0, q1 in zip(rows.tolist(), *_pcg64_seeds(columns)):
            # PCG64's seeding: inc = 2*seq + 1, then step, add the seed, step
            inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
            state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
            states[i] = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
    return states

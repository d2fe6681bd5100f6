"""Deterministic RNG substreams derived from one 64-bit seed and a tag tuple.

Every random draw in the package flows through a named substream, so any
draw is attributable to a named stream and replays bitwise given the same
seed, regardless of the order in which clients run.

Port contract (what an alternate-language port needs besides PCG64):

* Key. The seed is encoded as 8 signed big-endian bytes, each tag is
  appended as ``b"i" + 8 signed big-endian bytes`` for integers or
  ``b"s" + utf-8 bytes + b"\\x00"`` for strings, the whole buffer is hashed
  with SHA-256, and the first 16 digest bytes (big-endian unsigned) are the
  stream's key (:func:`derive_key`).
* Seeding. :func:`substream` is ``Generator(PCG64(key))``. numpy seeds it
  through ``SeedSequence(key).generate_state(4, uint64)``: the key's four
  little-endian 32-bit words (zero-padded) go through numpy's hashmix/mix
  pool, eight output words ``s0..s7`` pair up as ``w_i = s_2i | s_2i+1 << 32``,
  and with ``initstate = w0 << 64 | w1`` and
  ``inc = ((w2 << 64 | w3) << 1) | 1`` the 128-bit PCG64 state starts at
  ``((inc + initstate) * M + inc) mod 2**128``, M being PCG64's multiplier.
* Words. Bounded draws read 32-bit words: each 64-bit PCG64 output gives its
  low half, then its high half. A stream's words run on across consecutive
  draws of one generator.
* Bounded draw of [0, j] (Lemire): ``m = u * (j + 1)`` for the next word u;
  while ``m mod 2**32 < (2**32 - 1 - j) mod (j + 1)``, take the next word;
  the draw is ``m >> 32``. A bound of 0 reads no word.
* ``choice(pop, size, replace=False)``: Floyd's sampling (Bentley & Floyd,
  CACM 1987) for j = pop - size, ..., pop - 1: draw v in [0, j] and take v,
  or j if v was already taken; then a Fisher-Yates shuffle of those
  ``size`` entries: for i = size - 1, ..., 1, draw v in [0, i] and swap
  entries i and v. This holds while ``pop < 2**32`` and outside the tail
  regime ``pop > 10000 and size > pop // 50``, where numpy shuffles the tail
  of a full ``arange(pop)`` instead.

:func:`choices` draws whole-population minibatches (``pop == size``) of many
streams at once from this contract, bit for bit what ``Generator.choice``
gives.
"""

from __future__ import annotations

import hashlib

import numpy as np

Tag = int | str

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The multiplier sequence of n hashmix calls: entry t is XORed into the
    t-th input and entry t + 1 multiplies it."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): 4 + 12
# pool hashmix calls from INIT_A, 8 output words from INIT_B.
_POOL_CONSTS = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_STATE_CONSTS = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def derive_key(seed: int, *tags: Tag) -> int:
    """Map (seed, tags) to a 128-bit integer key. Pure function."""
    buf = bytearray(int(seed).to_bytes(8, "big", signed=True))
    for tag in tags:
        if isinstance(tag, bool):  # bool is an int subclass; reject ambiguity
            raise TypeError("bool tags are not allowed")
        if isinstance(tag, int):
            buf += b"i" + int(tag).to_bytes(8, "big", signed=True)
        elif isinstance(tag, str):
            buf += b"s" + tag.encode("utf-8") + b"\x00"
        else:
            raise TypeError(f"unsupported tag type: {type(tag).__name__}")
    digest = hashlib.sha256(bytes(buf)).digest()
    return int.from_bytes(digest[:16], "big", signed=False)


def substream(seed: int, *tags: Tag) -> np.random.Generator:
    """Return a fresh PCG64 generator for the named substream."""
    return np.random.Generator(np.random.PCG64(derive_key(seed, *tags)))


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's hashmix, one call per column, with the multipliers
    ``consts[t]``/``consts[t + 1]`` for column t (uint32 arithmetic wraps)."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _seed_words(keys: list[int]) -> np.ndarray:
    """``SeedSequence(key).generate_state(8, uint32)`` for every key, (S, 8)."""
    entropy = b"".join(k.to_bytes(16, "little") for k in keys)
    pool = _hashmix(np.frombuffer(entropy, "<u4").reshape(-1, 4), _POOL_CONSTS[:5])
    t = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        h = _hashmix(pool[:, [src] * 3], _POOL_CONSTS[t:t + 4])
        t += 3
        mixed = _MIX_L * pool[:, dst] - _MIX_R * h
        pool[:, dst] = mixed ^ (mixed >> 16)
    return _hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], _STATE_CONSTS)


def _words(keys: list[int], count: int) -> np.ndarray:
    """At least the first ``count`` 32-bit words of ``PCG64(key)`` per key,
    as (S, 2 * ceil(count / 2)) uint64, in the order ``next_uint32`` reads
    them."""
    bitgen = np.random.PCG64(0)  # its state is set per key below
    raw = np.empty((len(keys), (count + 1) // 2), dtype=np.uint64)
    for row, s in enumerate(_seed_words(keys).tolist()):
        initstate = s[1] << 96 | s[0] << 64 | s[3] << 32 | s[2]
        inc = ((s[5] << 96 | s[4] << 64 | s[7] << 32 | s[6]) << 1 | 1) & _MASK128
        state = ((inc + initstate) * _PCG64_MULT + inc) & _MASK128
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        raw[row] = bitgen.random_raw(raw.shape[1])
    return np.stack([raw & np.uint64(_MASK32), raw >> np.uint64(32)], axis=-1).reshape(len(keys), -1)


def _bounded(keys: list[int], bounds: np.ndarray) -> np.ndarray:
    """Lemire draws in [0, bounds[t]] for t in order from each key's PCG64
    words, (S, len(bounds)) int64."""
    excl = bounds + np.uint64(1)
    threshold = (np.uint64(_MASK32) - bounds) % excl
    rows = np.arange(len(keys))[:, None]
    words = _words(keys, len(bounds) + 8)  # room for a few rejections
    # at[s, t]: the word draw t of row s reads; every rejection moves the
    # draw and all later ones of that row on by one word.
    at = np.broadcast_to(np.arange(len(bounds)), (len(keys), len(bounds)))
    while True:
        if at.size and at[:, -1].max() >= words.shape[1]:  # rare: draw more words
            words = _words(keys, 2 * words.shape[1])
            continue
        m = words[rows, at] * excl
        rejected = (m & np.uint64(_MASK32)) < threshold
        if not rejected.any():
            return (m >> np.uint64(32)).astype(np.int64)
        at = at + (np.cumsum(rejected, axis=1) > 0)


def _shuffle(idx: np.ndarray, swaps: np.ndarray) -> np.ndarray:
    """Fisher-Yates per row: for i = n - 1, ..., 1 swap entries i and
    ``swaps[:, n - 1 - i]``. Works on flat positions, where a swap is three
    one-dimensional gathers and scatters."""
    S, n = idx.shape
    flat = idx.ravel()
    base = np.arange(S) * n
    other = (swaps + base[:, None]).T.copy()
    for t, i in enumerate(range(n - 1, 0, -1)):
        a, b = other[t], base + i
        held = flat[a]
        flat[a] = flat[b]
        flat[b] = held
    return flat.reshape(S, n)


def _per_stream(pop: int, size: int) -> bool:
    """Specs outside :func:`choices`' batched route, which covers
    ``pop == size <= 10000`` (above that lies the tail regime)."""
    return pop != size or pop > 10000


def choices(
    seed: int, streams: list[tuple[Tag, ...]], specs: list[tuple[int, int]]
) -> list[np.ndarray]:
    """One (S, size) int64 array per ``(pop, size)`` spec, for S tag tuples:
    row s equals ``substream(seed, *streams[s]).choice(pop, size,
    replace=False)``, called spec after spec on that one generator.

    When every spec draws a whole population (``pop == size``, outside the
    tail regime), all streams are seeded and drawn at once from the port
    contract above; Floyd's sample is then ``arange(size)`` and its draws
    only consume words. Any other spec list takes the per-stream
    ``Generator.choice`` route.
    """
    for pop, size in specs:
        if not 0 <= size <= pop:
            raise ValueError(f"cannot draw {size} of {pop} without replacement")
    if any(_per_stream(*spec) for spec in specs):
        gens = [substream(seed, *tags) for tags in streams]
        return [np.array([g.choice(pop, size, replace=False) for g in gens]).reshape(len(gens), size)
                for pop, size in specs]
    # Per spec: Floyd's draws for j = 1, ..., n - 1 (j = 0 reads no word),
    # then the shuffle's for i = n - 1, ..., 1.
    bounds = np.concatenate(
        [np.r_[np.arange(1, n), np.arange(n - 1, 0, -1)] for n, _ in specs]
    ).astype(np.uint64)
    drawn = _bounded([derive_key(seed, *tags) for tags in streams], bounds)
    out, end = [], 0
    for n, _ in specs:
        swaps = max(n - 1, 0)
        end += 2 * swaps
        out.append(_shuffle(np.tile(np.arange(n), (len(streams), 1)), drawn[:, end - swaps:end]))
    return out

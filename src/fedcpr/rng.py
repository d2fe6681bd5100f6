"""Deterministic RNG substreams derived from one 64-bit seed and a tag tuple.

Every random draw in the package flows through a named substream, so it
replays bitwise given the same seed, whatever order clients run in. Every
round-engine draw after the initial model is made here: :func:`batches`
draws the minibatches, and :func:`buffer_positions` the positions at which
clients read the aggregate, a ``permutation`` per full lap and a ``choice``
(below) for a last, partial lap.

Port contract (what an alternate-language port needs besides PCG64):

* Key. The seed and each integer tag, not a bool and in [-2**63, 2**63),
  are 8 signed big-endian bytes. After the seed's bytes, each tag appends
  ``b"i"`` and its bytes, or ``b"s" + utf-8 bytes + b"\\x00"`` for a string.
  The key is the first 16 bytes of the buffer's SHA-256 digest, read
  big-endian unsigned (:func:`derive_key`).
* Seeding. :func:`substream` is ``Generator(PCG64(key))``: numpy's
  ``SeedSequence(key).generate_state(4, uint64)`` mixes the key's four
  little-endian 32-bit words (zero-padded) in its hashmix/mix pool into
  eight words ``s0..s7``, paired as ``w_i = s_2i | s_2i+1 << 32``, and PCG64
  seeds itself from initstate ``w0 << 64 | w1`` and initseq ``w2 << 64 | w3``.
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

Batched seeding restates SeedSequence's mixing and nothing else, on (S, 4)
uint32 arrays of S streams' :func:`derive_key` digest bytes. numpy's own
``PCG64`` takes each stream's words through the public ``ISeedSequence``
interface (:class:`_SeedWords`) and seeds, steps and outputs as for
``PCG64(key)``. :func:`choices` runs Lemire, Floyd and Fisher-Yates on many
streams' words at once, bit for bit what ``Generator.choice`` gives.
"""

from __future__ import annotations

import functools
import hashlib
from numbers import Integral

import numpy as np
from numpy.random.bit_generator import ISeedSequence

Tag = int | str

_MASK32 = 0xFFFFFFFF
_U32, _32 = np.uint64(_MASK32), np.uint64(32)


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """Constants of n hashmix calls: call t XORs in entry t, then multiplies by entry t + 1."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): 4 + 12
# pool hashmix calls from INIT_A, 8 output words from INIT_B.
_POOL_CONSTS = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_STATE_CONSTS = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _int64_bytes(value: int, what: str) -> bytes:
    if -(2**63) <= value < 2**63:
        return value.to_bytes(8, "big", signed=True)
    raise ValueError(f"{what} {value} is outside [-2**63, 2**63)")


@functools.lru_cache(maxsize=None, typed=True)  # typed: True never gets 1's entry
def _tag_bytes(tag: Tag) -> bytes:
    if isinstance(tag, bool):  # bool is an int subclass; reject ambiguity
        raise TypeError("bool tags are not allowed")
    if isinstance(tag, int):
        return b"i" + _int64_bytes(int(tag), "tag")
    if isinstance(tag, str):
        return b"s" + tag.encode("utf-8") + b"\x00"
    raise TypeError(f"unsupported tag type: {type(tag).__name__}")


def _seed_bytes(seed: int) -> bytes:
    if isinstance(seed, bool) or not isinstance(seed, Integral):  # numpy ints pass
        raise TypeError(f"unsupported seed type: {type(seed).__name__}")
    return _int64_bytes(int(seed), "seed")


def _digest(head: bytes, tags: tuple[Tag, ...]) -> bytes:
    """SHA-256 of the Key step's bytes: ``head`` (:func:`_seed_bytes`), then the tags'."""
    try:
        body = b"".join(map(_tag_bytes, tags))
    except TypeError:  # an unhashable tag misses the memo; encoding it names it
        body = b"".join(map(_tag_bytes.__wrapped__, tags))
    return hashlib.sha256(head + body).digest()


def derive_key(seed: int, *tags: Tag) -> int:
    """Map (seed, tags) to a 128-bit integer key. Pure function."""
    return int.from_bytes(_digest(_seed_bytes(seed), tags)[:16], "big", signed=False)


def substream(seed: int, *tags: Tag) -> np.random.Generator:
    """Return a fresh PCG64 generator for the named substream."""
    return np.random.Generator(np.random.PCG64(derive_key(seed, *tags)))


def _keys(seed: int, streams: list[tuple[Tag, ...]]) -> np.ndarray:
    """``derive_key(seed, *tags)`` of every tag tuple, as (S, 4) uint32:
    each key's little-endian 32-bit words, from its 16 digest bytes reversed."""
    head = _seed_bytes(seed)
    keys = b"".join(_digest(head, tags)[15::-1] for tags in streams)
    return np.frombuffer(keys, "<u4").reshape(len(streams), 4)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's hashmix, one call per column, with the multipliers
    ``consts[t]``/``consts[t + 1]`` for column t (uint32 arithmetic wraps)."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _seed_words(keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, uint64)`` of every row of (S, 4)
    key words, C-ordered (S, 4) uint64: ``PCG64`` reads a row's buffer as is."""
    pool = _hashmix(keys, _POOL_CONSTS[:5])
    t = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        h = _hashmix(pool[:, [src] * 3], _POOL_CONSTS[t:t + 4])
        t += 3
        mixed = _MIX_L * pool[:, dst] - _MIX_R * h
        pool[:, dst] = mixed ^ (mixed >> 16)
    s = _hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], _STATE_CONSTS).astype(np.uint64)
    return np.ascontiguousarray(s[:, 0::2] | s[:, 1::2] << _32)


class _SeedWords(ISeedSequence):
    """One :func:`_seed_words` row, as the seed sequence ``PCG64`` asks for it."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 seed words, not {n_words} {np.dtype(dtype)}")
        return self.words


def _words(seeds: np.ndarray, count: int) -> np.ndarray:
    """At least the first ``count`` 32-bit words of the stream of every
    :func:`_seed_words` row, (S, 2 * ceil(count / 2)) uint64, in the order
    ``next_uint32`` reads them."""
    T = (count + 1) // 2
    raw = np.empty((len(seeds), T), dtype=np.uint64)
    for s, words in enumerate(seeds):
        raw[s] = np.random.PCG64(_SeedWords(words)).random_raw(T)
    return np.stack([raw & _U32, raw >> _32], axis=-1).reshape(len(seeds), 2 * T)


def _bounded(seeds: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Lemire draws in [0, bounds[t]] for t in order from the PCG64 words
    of every stream that ``seeds`` seeds, (S, len(bounds)) int64."""
    excl = bounds + np.uint64(1)
    threshold = (_U32 - bounds) % excl
    rows = np.arange(len(seeds))[:, None]
    words = _words(seeds, len(bounds) + 8)  # room for a few rejections
    # at[s, t]: the word draw t of row s reads; every rejection moves the
    # draw and all later ones of that row on by one word.
    at = np.broadcast_to(np.arange(len(bounds)), (len(seeds), len(bounds)))
    while True:
        if at.size and at[:, -1].max() >= words.shape[1]:  # rare: draw more words
            words = _words(seeds, 2 * words.shape[1])
            continue
        m = words[rows, at] * excl
        rejected = (m & _U32) < threshold
        if not rejected.any():
            return (m >> _32).astype(np.int64)
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
        flat[a], flat[b] = flat[b], flat[a]  # fancy indexing reads copies
    return flat.reshape(S, n)


def choices(
    seed: int, streams: list[tuple[Tag, ...]], specs: list[tuple[int, int]]
) -> list[np.ndarray]:
    """One (S, size) int64 array per ``(pop, size)`` spec, for S tag tuples:
    row s equals ``substream(seed, *streams[s]).choice(pop, size,
    replace=False)``, called spec after spec on that one generator.

    When every spec draws a whole population (``pop == size``, outside the
    tail regime), all streams' words are drawn at once and the port
    contract's steps run on them; Floyd's sample is then ``arange(size)``
    and its draws only consume words. Any other spec list takes the per-stream
    ``Generator.choice`` route.
    """
    for pop, size in specs:
        if not 0 <= size <= pop:
            raise ValueError(f"cannot draw {size} of {pop} without replacement")
    # The batched route covers pop == size <= 10000; above lies the tail regime.
    if any(pop != size or pop > 10000 for pop, size in specs):
        gens = [substream(seed, *tags) for tags in streams]
        return [np.array([g.choice(pop, size, replace=False) for g in gens],
                         dtype=np.int64).reshape(len(gens), size)
                for pop, size in specs]
    # Per spec: Floyd's draws for j = 1, ..., n - 1 (j = 0 reads no word),
    # then the shuffle's for i = n - 1, ..., 1.
    bounds = np.concatenate(
        [np.r_[np.arange(1, n), np.arange(n - 1, 0, -1)] for n, _ in specs]
    ).astype(np.uint64)
    drawn = _bounded(_seed_words(_keys(seed, streams)), bounds)
    out, end = [], 0
    for n, _ in specs:
        swaps = max(n - 1, 0)
        end += 2 * swaps
        out.append(_shuffle(np.tile(np.arange(n), (len(streams), 1)), drawn[:, end - swaps:end]))
    return out


def batches(
    seed: int, sizes: list[tuple[int, int]], K: int, N: int, purpose: str, *tags: Tag
) -> list[np.ndarray]:
    """Per ``(pop, batch)`` of ``sizes`` in turn, a (K, N, min(batch, pop))
    int64 array of positions drawn without replacement: row (k, i) from
    stream ``(purpose, i, *tags, k)``, the sizes drawn one after another on
    that stream (:func:`choices`)."""
    streams = [(purpose, i, *tags, k) for k in range(K) for i in range(N)]
    specs = [(pop, min(batch, pop)) for pop, batch in sizes]
    return [d.reshape(K, N, d.shape[1]) for d in choices(seed, streams, specs)]


def buffer_positions(
    seed: int, side: str, round_idx: int, N: int, size: int, K: int, n: int
) -> tuple[np.ndarray, int]:
    """The (K, N, n) int64 positions at which N clients read a received
    block of ``size`` records in round ``round_idx``, and the wraps.

    Client i reads K·n positions, in order, from laps of stream ``(side,
    i, round_idx)``, and they fill column i. Each full lap is the
    generator's next ``permutation(size)``; a last, partial lap of m
    positions is its ``choice(size, m, replace=False)``, so a client draws
    O(K·n), not O(size). Every lap past a client's first is a wrap. The N
    streams are seeded in one pass.
    """
    if size < 1:
        raise ValueError("cannot draw from an empty aggregate")
    count = K * n
    if count < 1:
        raise ValueError("K * n must be positive")
    at = np.empty((K, N, n), dtype=np.int64)
    row = np.empty(count, dtype=np.int64)
    seeds = _seed_words(_keys(seed, [(side, i, round_idx) for i in range(N)]))
    for i, words in enumerate(seeds):
        gen = np.random.Generator(np.random.PCG64(_SeedWords(words)))
        for done in range(0, count, size):
            m = count - done
            row[done:done + size] = (gen.permutation(size) if m >= size
                                     else gen.choice(size, m, replace=False))
        at[:, i] = row.reshape(K, n)
    return at, N * ((count - 1) // size)

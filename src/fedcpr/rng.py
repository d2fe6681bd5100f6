"""Deterministic RNG substreams derived from one 64-bit seed and a tag tuple.

Every random draw in the package flows through a named substream, so any
draw is attributable to a named stream and replays bitwise given the same
seed, regardless of the order in which clients run.

Every draw of the round engine after the initial model is made here:
:func:`batches` draws the minibatches, and :func:`buffer_positions` the
positions at which clients read the aggregate.

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

Batched seeding restates the Seeding step for S tag tuples at once and adds
nothing to the contract: the keys are :func:`derive_key`'s digest bytes, the
pool mixing runs on (S, 4) uint32 arrays, and 128-bit numbers are (high, low)
uint64 halves. All streams then advance together, one PCG64 step
``state * M + inc`` per 64-bit output, followed by its XSL-RR output.
:func:`buffer_positions` resets one shared generator to each stream's start,
and :func:`choices` draws whole-population minibatches (``pop == size``) of
many streams from those words, bit for bit what ``Generator.choice`` gives.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
# numpy 2.x imports numpy.random on first use; import it with the package,
# so that a run's first draw does not pay for it.
import numpy.random  # noqa: F401

Tag = int | str

_MASK32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U32, _32 = np.uint64(_MASK32), np.uint64(32)
# PCG64's multiplier: its high half, its low half and that half's 32-bit pieces.
_M_HI, _M_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & 0xFFFFFFFFFFFFFFFF)
_M0, _M1 = np.uint64(_PCG64_MULT & _MASK32), np.uint64(_PCG64_MULT >> 32 & _MASK32)


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


@functools.lru_cache(maxsize=None, typed=True)  # typed: True never gets 1's entry
def _tag_bytes(tag: Tag) -> bytes:
    if isinstance(tag, bool):  # bool is an int subclass; reject ambiguity
        raise TypeError("bool tags are not allowed")
    if isinstance(tag, int):
        return b"i" + int(tag).to_bytes(8, "big", signed=True)
    if isinstance(tag, str):
        return b"s" + tag.encode("utf-8") + b"\x00"
    raise TypeError(f"unsupported tag type: {type(tag).__name__}")


def _digest(seed: int, tags: tuple[Tag, ...]) -> bytes:
    """The SHA-256 digest of the Key step's bytes for (seed, tags)."""
    try:
        body = b"".join(map(_tag_bytes, tags))
    except TypeError:  # an unhashable tag misses the memo; encoding it names it
        body = b"".join(map(_tag_bytes.__wrapped__, tags))
    return hashlib.sha256(int(seed).to_bytes(8, "big", signed=True) + body).digest()


def derive_key(seed: int, *tags: Tag) -> int:
    """Map (seed, tags) to a 128-bit integer key. Pure function."""
    return int.from_bytes(_digest(seed, tags)[:16], "big", signed=False)


def substream(seed: int, *tags: Tag) -> np.random.Generator:
    """Return a fresh PCG64 generator for the named substream."""
    return np.random.Generator(np.random.PCG64(derive_key(seed, *tags)))


def _keys(seed: int, streams: list[tuple[Tag, ...]]) -> np.ndarray:
    """``derive_key(seed, *tags)`` of every tag tuple, as (S, 4) uint32:
    each key's little-endian 32-bit words, from its 16 digest bytes reversed."""
    keys = b"".join(_digest(seed, tags)[15::-1] for tags in streams)
    return np.frombuffer(keys, "<u4").reshape(len(streams), 4)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's hashmix, one call per column, with the multipliers
    ``consts[t]``/``consts[t + 1]`` for column t (uint32 arithmetic wraps)."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _seed_words(keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(8, uint32)`` for every row of
    (S, 4) key words, (S, 8)."""
    pool = _hashmix(keys, _POOL_CONSTS[:5])
    t = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        h = _hashmix(pool[:, [src] * 3], _POOL_CONSTS[t:t + 4])
        t += 3
        mixed = _MIX_L * pool[:, dst] - _MIX_R * h
        pool[:, dst] = mixed ^ (mixed >> 16)
    return _hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], _STATE_CONSTS)


def _add128(a_hi, a_lo, b_hi, b_lo):
    """``a + b mod 2**128`` on (high, low) uint64 halves."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _lcg(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One PCG64 step, ``state * M + inc mod 2**128``, on 64-bit halves. The
    low halves' full product is taken from 32-bit pieces; uint64 wraps."""
    l0, l1 = lo & _U32, lo >> _32
    p00, p01, p10 = l0 * _M0, l0 * _M1, l1 * _M0
    mid = (p00 >> _32) + (p01 & _U32) + (p10 & _U32)
    prod_hi = l1 * _M1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32) + hi * _M_LO + lo * _M_HI
    return _add128(prod_hi, mid << _32 | p00 & _U32, inc_hi, inc_lo)


def _start(keys: np.ndarray) -> np.ndarray:
    """The state of ``PCG64(key)`` for every row of (S, 4) key words, as
    (4, S) uint64 rows: state high and low half, inc high and low half."""
    s = _seed_words(keys).T.astype(np.uint64)
    init_hi, init_lo = s[1] << _32 | s[0], s[3] << _32 | s[2]
    seq_hi, seq_lo = s[5] << _32 | s[4], s[7] << _32 | s[6]
    inc_hi = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63)
    inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
    state = _lcg(*_add128(inc_hi, inc_lo, init_hi, init_lo), inc_hi, inc_lo)
    return np.array([*state, inc_hi, inc_lo])


def _words(start: np.ndarray, count: int) -> np.ndarray:
    """At least the first ``count`` 32-bit words of every stream that
    ``start`` (:func:`_start`) seeds, as (S, 2 * ceil(count / 2)) uint64, in
    the order ``next_uint32`` reads them. All streams advance together; the
    XSL-RR output is taken over the whole (T, S) block of states."""
    hi, lo, inc_hi, inc_lo = start
    T, S = (count + 1) // 2, start.shape[1]
    his, los = np.empty((T, S), dtype=np.uint64), np.empty((T, S), dtype=np.uint64)
    for t in range(T):
        hi, lo = _lcg(hi, lo, inc_hi, inc_lo)
        his[t], los[t] = hi, lo
    x, rot = his ^ los, his >> np.uint64(58)
    raw = (x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))).T
    return np.stack([raw & _U32, raw >> _32], axis=-1).reshape(S, 2 * T)


def _bounded(start: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Lemire draws in [0, bounds[t]] for t in order from the PCG64 words
    of every stream that ``start`` seeds, (S, len(bounds)) int64."""
    S = start.shape[1]
    excl = bounds + np.uint64(1)
    threshold = (_U32 - bounds) % excl
    rows = np.arange(S)[:, None]
    words = _words(start, len(bounds) + 8)  # room for a few rejections
    # at[s, t]: the word draw t of row s reads; every rejection moves the
    # draw and all later ones of that row on by one word.
    at = np.broadcast_to(np.arange(len(bounds)), (S, len(bounds)))
    while True:
        if at.size and at[:, -1].max() >= words.shape[1]:  # rare: draw more words
            words = _words(start, 2 * words.shape[1])
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
        held = flat[a]
        flat[a] = flat[b]
        flat[b] = held
    return flat.reshape(S, n)


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
    drawn = _bounded(_start(_keys(seed, streams)), bounds)
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

    Client i reads the laps of stream ``(side, i, round_idx)``, each the
    generator's next ``permutation(size)``, one after another; its first
    K·n positions, in order, fill column i. Every lap past a client's first
    is a wrap. The N streams are seeded in one pass, and one generator is
    reset to each stream's start in turn.
    """
    if size < 1:
        raise ValueError("cannot draw from an empty aggregate")
    count = K * n
    if count < 1:
        raise ValueError("K * n must be positive")
    bitgen = np.random.PCG64(0)  # its state is set per stream below
    gen = np.random.Generator(bitgen)
    at = np.empty((K, N, n), dtype=np.int64)
    row = np.empty(count, dtype=np.int64)
    starts = _start(_keys(seed, [(side, i, round_idx) for i in range(N)])).T.tolist()
    for i, (state_hi, state_lo, inc_hi, inc_lo) in enumerate(starts):
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
                        "has_uint32": 0, "uinteger": 0}
        for done in range(0, count, size):
            row[done:done + size] = gen.permutation(size)[:count - done]
        at[:, i] = row.reshape(K, n)
    return at, N * ((count - 1) // size)

"""The round draws (minibatches and buffer positions) against numpy's own
per-stream ``Generator`` calls, and the names they are kept out of."""

import ast
import enum
import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcpr import algorithms, federation, rng
from fedcpr.rng import batches, buffer_positions, choices, derive_key, substream


def _one_by_one(seed, streams, specs):
    """The draws as the port contract states them: per stream, one
    generator and its choice calls spec after spec."""
    out = [[] for _ in specs]
    for tags in streams:
        g = substream(seed, *tags)
        for col, (pop, size) in zip(out, specs):
            col.append(g.choice(pop, size, replace=False))
    return out


def _seeds(keys):
    """The batched PCG64 seed words of integer keys, as ``PCG64(key)`` asks
    SeedSequence for them."""
    entropy = b"".join(k.to_bytes(16, "little") for k in keys)
    return rng._seed_words(np.frombuffer(entropy, "<u4").reshape(len(keys), 4))


def _assert_same(seed, streams, specs):
    got = choices(seed, streams, specs)
    want = _one_by_one(seed, streams, specs)
    assert len(got) == len(specs)
    for (pop, size), batch, rows in zip(specs, got, want):
        assert batch.shape == (len(streams), size) and batch.dtype == np.int64
        for s, row in enumerate(rows):
            assert np.array_equal(batch[s], row), (streams[s], pop, size)


@st.composite
def _whole_population_specs(draw):
    """Spec lists on the batched route: pop == size, small and up to
    numpy's 10000 limit; now and then a pop > size spec, which sends the
    whole list to the per-stream route."""
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.one_of(st.integers(0, 64), st.integers(65, 10000)))
        size = draw(st.one_of(st.just(n), st.just(n), st.integers(0, n)))
        specs.append((n, size))
    return specs


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(-(2**63), 2**63 - 1), n_streams=st.integers(1, 6),
       specs=_whole_population_specs())
def test_batched_draws_equal_generator_choice(seed, n_streams, specs):
    _assert_same(seed, [("prop", i, 3) for i in range(n_streams)], specs)


def test_many_streams_of_a_fedx2_round():
    # One round of the default fedx2 config's four draws per client-step.
    streams = [("step", i, 2, k) for k in range(32) for i in range(16)]
    _assert_same(0, streams, [(4, 4), (20, 20), (4, 4), (20, 20)])


def test_lemire_rejections_and_running_out_of_words(monkeypatch):
    # A bound of 3 * 2**30 - 1 rejects a word with probability about 1/4,
    # so some of the 200 rows need more words than the first guess.
    # Generator.integers with dtype uint32 reads the same Lemire draws.
    j = 3 * 2**30 - 1
    keys = [derive_key(5, "reject", i) for i in range(200)]
    seeds = _seeds(keys)
    first = rng._words(seeds, 2)[:, 0]
    rejected = ((first * np.uint64(j + 1)) & np.uint64(0xFFFFFFFF)) < (2**32 - 1 - j) % (j + 1)
    assert 20 < rejected.sum() < 80
    counts = []
    words = rng._words
    monkeypatch.setattr(rng, "_words", lambda sw, n: counts.append(n) or words(sw, n))
    got = rng._bounded(seeds, np.full(12, j, dtype=np.uint64))
    assert len(counts) > 1
    for row, key in zip(got, keys):
        g = np.random.Generator(np.random.PCG64(key))
        assert np.array_equal(row, g.integers(0, j, endpoint=True, size=12, dtype=np.uint32))


@pytest.mark.parametrize("specs", [
    [(10000, 10000), (7, 7)],  # the largest batched spec
    [(10001, 10001), (7, 7)],  # numpy's tail-shuffle regime
    [(10001, 201), (7, 3)],  # tail regime, then a Floyd spec
    [(20, 20), (7, 3), (4, 4)],  # one pop > size spec routes the whole list
    [(2**32 + 5, 3), (7, 7)],  # 64-bit bounds
])
def test_route_boundaries(specs):
    _assert_same(11, [("route", i) for i in range(5)], specs)


@pytest.mark.parametrize("key", [0, 12345, 2**32 - 1, 2**40 + 17, 2**64 - 1,
                                 2**127, 2**128 - 1])
def test_batched_seeding_equals_pcg64(key):
    raw = np.random.PCG64(key).random_raw(5)
    want = np.stack([raw & np.uint64(0xFFFFFFFF), raw >> np.uint64(32)], axis=-1).reshape(-1)
    got = rng._words(_seeds([key, 3, key]), 10)
    assert got.shape == (3, 10)
    assert np.array_equal(got[0], want) and np.array_equal(got[2], want)


# Literal draws of substream(seed, *tags).choice, spec after spec, taken with
# numpy 2.4.6. If a numpy upgrade changes choice, both this test and the
# equality tests above fail; if only choices changes, only those fail.
GOLDEN = [
    (0, ("step", 0, 1, 0), [(4, 4), (20, 20), (4, 4), (20, 20)], [
        [0, 3, 1, 2],
        [12, 13, 18, 19, 1, 5, 2, 4, 9, 7, 11, 15, 17, 3, 16, 8, 6, 0, 14, 10],
        [2, 3, 1, 0],
        [9, 4, 15, 13, 17, 1, 18, 2, 16, 0, 5, 19, 8, 7, 12, 6, 14, 11, 3, 10],
    ]),
    (7, ("bootstrap", 3, 5), [(40, 9), (1000, 12)], [
        [22, 24, 36, 26, 16, 15, 10, 3, 2],
        [217, 52, 109, 180, 323, 140, 522, 459, 287, 87, 937, 849],
    ]),
    (-5, ("golden",), [(3 * 2**30, 2), (12, 5), (1, 1)], [
        [678904481, 738639259],
        [1, 0, 2, 9, 11],
        [0],
    ]),
]


@pytest.mark.parametrize("seed, tags, specs, want", GOLDEN)
def test_golden_draws(seed, tags, specs, want):
    got = choices(seed, [tags], specs)
    assert [row[0].tolist() for row in got] == want
    g = substream(seed, *tags)
    assert [g.choice(pop, size, replace=False).tolist() for pop, size in specs] == want


def test_size_above_population_rejected():
    with pytest.raises(ValueError, match="cannot draw 5 of 4"):
        choices(0, [("x",)], [(4, 5)])


@pytest.mark.parametrize("specs", [[(4, 4)], [(40, 4)], [(4, 4), (0, 0)]])
def test_no_streams(specs):
    # (4, 4) takes the batched route, (40, 4) the per-stream one.
    for (pop, size), got in zip(specs, choices(0, [], specs)):
        assert got.shape == (0, size) and got.dtype == np.int64


class _Side(enum.IntEnum):
    POS = 1
    NEG = -(2**63)


_tags = st.lists(st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([0, -1, 2**31, 2**32 - 1, 2**63 - 1, -(2**63), _Side.POS, _Side.NEG]),
    st.sampled_from(["", "step", "buffer-pos", "é", "ключ", "\x00", "🙂", np.str_("step")]),
    st.text(max_size=6),
), max_size=4).map(tuple)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(-(2**63), 2**63 - 1), streams=st.lists(_tags, max_size=5))
def test_batched_keys_are_derive_key_words(seed, streams):
    # Row s: derive_key's 16 bytes, read as four little-endian words.
    keys = rng._keys(seed, streams)
    assert keys.shape == (len(streams), 4) and keys.dtype == np.uint32
    for row, tags in zip(keys, streams):
        assert row.tobytes() == derive_key(seed, *tags).to_bytes(16, "little")


# derive_key's answers before the batched draws shared its digest.
KNOWN_KEYS = [
    (0, (), 0xaf5570f5a1810b7af78caf4bc70a660f),
    (0, ("init",), 0xacc01b0c2de23f1ae6df3bf807339e92),
    (-1, ("step", 3, 2, 7), 0x68f420deec89ba0d03cad0e5c368075d),
    (2**63 - 1, (-(2**63), "é🙂", 2**63 - 1), 0xc43bf0a7a4b2df4c501dcb8c6db16954),
    (7, ("bootstrap", 3, 5), 0xdf8b91186b58e43c4f871ba8e41b08d1),
    (-5, ("", 0, "\x00"), 0x5c18c25a47b4236749ac607a1352cc13),
]


@pytest.mark.parametrize("seed, tags, key", KNOWN_KEYS)
def test_derive_key_known_answers(seed, tags, key):
    assert derive_key(seed, *tags) == key
    assert rng._keys(seed, [tags]).tobytes() == key.to_bytes(16, "little")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(-(2**63), 2**63 - 1), streams=st.lists(_tags, min_size=1, max_size=5))
def test_batched_seeding_equals_substream(seed, streams):
    seeds = rng._seed_words(rng._keys(seed, streams))
    words = rng._words(seeds, 6)
    for s, tags in enumerate(streams):
        key = derive_key(seed, *tags)
        assert np.array_equal(seeds[s], np.random.SeedSequence(key).generate_state(4, np.uint64))
        want = substream(seed, *tags).bit_generator
        state = want.state["state"]
        start = np.random.PCG64(rng._SeedWords(seeds[s])).state["state"]
        assert start["state"] == state["state"]
        assert start["inc"] == state["inc"]
        raw = want.random_raw(3)
        low, high = raw & np.uint64(0xFFFFFFFF), raw >> np.uint64(32)
        assert np.array_equal(words[s], np.stack([low, high], axis=-1).reshape(-1))


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64),
                                             (8, np.uint64), (4, np.int64)])
def test_seed_words_refuse_other_requests(n_words, dtype):
    # PCG64 asks for (4, uint64); a request for anything else is not one
    # the held words answer.
    words = rng._seed_words(rng._keys(0, [("x",)]))[0]
    assert rng._SeedWords(words).generate_state(4, np.uint64) is words
    with pytest.raises(ValueError, match="holds 4 uint64 seed words"):
        rng._SeedWords(words).generate_state(n_words, dtype)


# Every public way a seed and an integer tag reach the Key step.
_ROUTES = [
    lambda seed, tag: derive_key(seed, "x", tag),
    lambda seed, tag: substream(seed, "x", tag).bit_generator.random_raw(2),
    lambda seed, tag: choices(seed, [("x", tag)], [(4, 4)])[0],
    lambda seed, tag: batches(seed, [(4, 4)], 1, 2, "x", tag)[0],
    lambda seed, tag: buffer_positions(seed, "x", tag, 2, 4, 1, 4)[0],
]


@pytest.mark.parametrize("bad", [True, False, 1.5, 1.0, np.float64(2.0), np.bool_(True), "1", None])
def test_bad_seeds_rejected(bad):
    # int() would make 1.5 and True the stream of seed 1.
    for route in _ROUTES:
        with pytest.raises(TypeError, match="unsupported seed type"):
            route(bad, 1)


@pytest.mark.parametrize("seed, tag, named", [
    (2**63, 1, "seed 9223372036854775808"),
    (-(2**63) - 1, 1, "seed -9223372036854775809"),
    (0, 2**63, "tag 9223372036854775808"),
    (0, -(2**63) - 1, "tag -9223372036854775809"),
])
def test_seed_and_int_tags_outside_int64_named(seed, tag, named):
    for route in _ROUTES:
        with pytest.raises(ValueError, match=re.escape(f"{named} is outside [-2**63, 2**63)")):
            route(seed, tag)


@pytest.mark.parametrize("seed", [np.int64(-5), np.uint32(7), np.int8(3), np.uint64(2**63 - 1),
                                  np.int64(-(2**63))])
def test_numpy_integer_seeds_are_their_int(seed):
    for route in _ROUTES:
        assert np.array_equal(route(seed, 2), route(int(seed), 2))


@pytest.mark.parametrize("bad", [True, 1.5, np.int64(3), [1]])
def test_bad_tags_rejected_like_derive_key(bad):
    derive_key(0, 1, 3)  # True == 1 and np.int64(3) == 3: the memo must not serve them
    with pytest.raises(TypeError) as err:
        derive_key(0, "ok", bad)
    msg = re.escape(str(err.value))
    with pytest.raises(TypeError, match=msg):
        choices(0, [("ok", 1), ("ok", bad)], [(4, 4)])
    with pytest.raises(TypeError, match=msg):
        batches(0, [(4, 4)], 1, 2, "ok", bad)
    for side, round_idx in ((bad, 1), ("ok", bad)):
        with pytest.raises(TypeError, match=msg):
            buffer_positions(0, side, round_idx, 2, 4, 1, 4)


@pytest.mark.parametrize("sizes", [[(10, 3), (6, 6), (7, 2)], [(4, 9), (5, 5)]])
def test_batches_equal_per_stream_choice(sizes):
    # pop > batch takes the per-stream route; a batch above its population
    # is clamped to it. Row (k, i) is stream ("step", i, 4, k).
    K, N = 3, 4
    got = batches(9, sizes, K, N, "step", 4)
    for k, i in np.ndindex(K, N):
        g = substream(9, "step", i, 4, k)
        for (pop, batch), drawn in zip(sizes, got):
            assert drawn.shape == (K, N, min(pop, batch))
            want = g.choice(pop, min(pop, batch), replace=False)
            assert np.array_equal(drawn[k, i], want), (k, i, pop, batch)


@pytest.mark.parametrize("module", [algorithms, federation])
def test_round_draws_stay_in_rng(module):
    # The engine and the exchange take every round draw from rng's
    # batches and buffer_positions; neither seeds nor draws on its own.
    forbidden = {"choices", "substreams", "substream", "permutation"}
    named = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
            named.add(ast.unparse(node))
        elif isinstance(node, ast.alias):
            named.add(node.name)
        elif isinstance(node, ast.ImportFrom):
            named.add(node.module or "")
    dotted = {name for name in named if name.split(".")[:2] in (["np", "random"],
                                                              ["numpy", "random"])}
    assert not (named & forbidden) and not dotted, sorted((named & forbidden) | dotted)

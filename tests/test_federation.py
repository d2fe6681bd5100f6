"""Aggregation, buffers, message accounting, and the round contract."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import Buffer, records_of

from fedcpr.algorithms import PROGRAMS, HyperParams, RunSettings
from fedcpr.data import DataConfig, build_dataset
from fedcpr.federation import (
    ProtocolError,
    Records,
    RoundUpload,
    comm_cost,
    comm_cost_ints,
    buffer_draw,
    server_aggregate,
    tree_mean,
)
from fedcpr.losses import IDENTITY_OUTER, PairwiseLossSpec
from fedcpr.model import ScorerSpec
from fedcpr.rng import substream, substreams


def _records(client, count, iteration=0):
    ids = np.arange(count)
    return records_of(client * 100.0 + ids, client, iteration, ids)


def _upload(client, model, k=2, momentum=None, u=None):
    return RoundUpload(
        client=client,
        model=np.asarray(model, dtype=float),
        h1=_records(client, k),
        h2=_records(client, k),
        momentum=momentum,
        u=u,
    )


def _rows(block, positions=None):
    """(value, client, iteration, sample_id) tuples of a block's rows."""
    if positions is None:
        positions = np.arange(len(block))
    return list(zip(block.value[positions], block.client[positions],
                    block.iteration[positions], block.sample_id[positions]))


class TestServerAggregate:
    def test_single_client_passthrough(self):
        down = server_aggregate([_upload(0, [1.0, 2.0])])
        np.testing.assert_array_equal(down.model, [1.0, 2.0])

    def test_two_client_mean(self):
        down = server_aggregate([_upload(0, [0.0, 0.0]), _upload(1, [2.0, 4.0])])
        np.testing.assert_array_equal(down.model, [1.0, 2.0])

    def test_history_union_size(self):
        k = 5
        down = server_aggregate([_upload(i, [0.0], k=k) for i in range(3)])
        assert len(down.r1) == 3 * k
        assert len(down.r2) == 3 * k

    def test_concatenation_in_client_index_order(self):
        down = server_aggregate([_upload(1, [0.0]), _upload(0, [0.0])])
        assert list(down.r1.client) == [0, 0, 1, 1]

    def test_arrival_order_invariance(self):
        uploads = [_upload(i, np.arange(4) * (i + 1)) for i in range(4)]
        a = server_aggregate(uploads)
        b = server_aggregate(list(reversed(uploads)))
        np.testing.assert_array_equal(a.model, b.model)
        assert _rows(a.r1) == _rows(b.r1)

    def test_momentum_mean_when_present(self):
        ups = [
            _upload(0, [0.0], momentum=np.array([1.0])),
            _upload(1, [2.0], momentum=np.array([3.0])),
        ]
        down = server_aggregate(ups)
        np.testing.assert_array_equal(down.momentum, [2.0])

    def test_rejects_bad_client_indices(self):
        with pytest.raises(ProtocolError):
            server_aggregate([_upload(0, [0.0]), _upload(2, [0.0])])
        with pytest.raises(ProtocolError):
            server_aggregate([_upload(0, [0.0]), _upload(0, [0.0])])

    def test_rejects_mismatched_model_lengths(self):
        with pytest.raises(ProtocolError):
            server_aggregate([_upload(0, [0.0]), _upload(1, [0.0, 1.0])])

    def test_rejects_partial_momentum(self):
        with pytest.raises(ProtocolError):
            server_aggregate(
                [_upload(0, [0.0], momentum=np.array([1.0])), _upload(1, [0.0])]
            )

    def test_tree_mean_matches_plain_mean(self):
        rng = np.random.default_rng(0)
        vecs = [rng.standard_normal(5) for _ in range(7)]
        np.testing.assert_allclose(tree_mean(vecs), np.mean(vecs, axis=0), rtol=1e-12)


class TestBuffer:
    def test_single_entry(self):
        drawn, wraps = buffer_draw(substream(0, "t"), 1, 1)
        assert list(drawn) == [0]
        assert wraps == 0

    def test_same_stream_same_permutation(self):
        a, _ = buffer_draw(substream(3, "perm"), 52, 52)
        b, _ = buffer_draw(substream(3, "perm"), 52, 52)
        np.testing.assert_array_equal(a, b)

    def test_entries_are_a_permutation(self):
        drawn, wraps = buffer_draw(substream(4, "perm"), 52, 52)
        assert sorted(drawn) == list(range(52))
        assert wraps == 0

    def test_sequential_draws_without_repeats(self):
        drawn, _ = buffer_draw(substream(5, "seq"), 5, 4)
        first, second = drawn[:2], drawn[2:]
        assert len(set(first) | set(second)) == 4

    def test_each_entry_exactly_once_over_k_draws(self):
        k = 9
        drawn, wraps = buffer_draw(substream(6, "k"), k, k)
        assert sorted(drawn) == list(range(k))
        assert wraps == 0

    def test_wraparound_reshuffles_and_continues(self):
        out, wraps = buffer_draw(substream(7, "wrap"), 3, 5)
        assert sorted(out[:3]) == [0, 1, 2]
        assert set(out[3:]) <= {0, 1, 2}
        assert wraps == 1

    def test_empty_refill_rejected(self):
        with pytest.raises(ProtocolError):
            buffer_draw(substream(8, "e"), 0, 1)

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            buffer_draw(substream(8, "c"), 3, 0)


class TestCommCost:
    def test_linear_algorithm_example(self):
        d, k = 10, 4
        up = _upload(0, np.zeros(d), k=k)
        down = server_aggregate([up, _upload(1, np.zeros(d), k=k)])
        assert comm_cost(up, down) == (d + 2 * k, d + 2 * (2 * k))  # (18, 26)

    def test_nonlinear_algorithm_example(self):
        d, k = 10, 4
        u = records_of(np.ones(k), 0, 0, np.arange(k))
        up = _upload(0, np.zeros(d), k=k, momentum=np.zeros(d), u=u)
        up2 = _upload(1, np.zeros(d), k=k, momentum=np.zeros(d), u=u)
        down = server_aggregate([up, up2])
        assert comm_cost(up, down)[0] == 2 * d + 3 * k  # 32
        assert comm_cost(up, down)[1] == 2 * d + 3 * (2 * k)

    def test_provenance_ints_counted_separately(self):
        d, k = 3, 2
        up = _upload(0, np.zeros(d), k=k)
        down = server_aggregate([up])
        assert comm_cost_ints(up, down) == (3 * 2 * k, 3 * 2 * k)


def _fedx1_fixture(n_clients=2, K=3, B=2, eta=0.05, seed=9):
    cfg = DataConfig(
        n_pos_per_client=5, n_neg_per_client=8, input_dim=3, n_clients=n_clients,
        hetero_var=0, hetero_base=0, hetero_step=0, seed=seed,
    )
    ds = build_dataset(cfg)
    hyper = HyperParams(eta=eta, K=K, R=2, B1=B, B2=B, seed=seed)
    settings = RunSettings(
        "fedx1", ScorerSpec("linear", 3), PairwiseLossSpec("square"),
        IDENTITY_OUTER, hyper,
    )
    return PROGRAMS["fedx1"](settings, ds), hyper


def _one_round(program, hyper, download, round_idx):
    """One round through the engine: (aggregate, uploads)."""
    program.begin_round(download, round_idx)
    for k in range(hyper.K):
        program.step(k, hyper.eta)
    uploads = program.uploads()
    return server_aggregate(uploads), uploads


class TestRoundContract:
    def test_history_partition_of_provenance(self):
        program, hyper = _fedx1_fixture()
        download = server_aggregate(program.bootstrap_uploads())
        download, uploads = _one_round(program, hyper, download, 1)
        n, k, b = program.n_clients, hyper.K, hyper.B1
        for hist in (download.r1, download.r2):
            assert len(hist) == n * k * b
            for client in range(n):
                mine = hist.client == client
                assert mine.sum() == k * b
                assert set(hist.iteration[mine]) == set(range(k))

    def test_lazy_records_are_exactly_one_round_stale(self):
        # One client, so the round's K*B lazy negatives are one full lap.
        program, hyper = _fedx1_fixture(n_clients=1)
        download0 = server_aggregate(program.bootstrap_uploads())
        # Round 1 draws its lazy records from exactly the round-0 aggregate,
        # so every draw is one round stale.
        wraps = program.begin_round(download0, 1)
        grp = program.groups[0]
        drained = grp.neg_at[:, 0].reshape(-1)
        assert sorted(_rows(download0.r2, drained)) == sorted(_rows(download0.r2))
        assert grp.lazy_neg[:, 0].reshape(-1).tobytes() == download0.r2.value[drained].tobytes()
        assert wraps == 0

    def test_zero_eta_keeps_models_at_global_model(self):
        program, hyper = _fedx1_fixture(eta=0.0)
        download = server_aggregate(program.bootstrap_uploads())
        w0 = download.model.copy()
        download, uploads = _one_round(program, hyper, download, 1)
        for up in uploads:
            np.testing.assert_array_equal(up.model, w0)
        np.testing.assert_array_equal(download.model, w0)

    def test_models_differ_before_aggregation_equal_after_download(self):
        program, hyper = _fedx1_fixture(eta=0.1)
        download = server_aggregate(program.bootstrap_uploads())
        download, uploads = _one_round(program, hyper, download, 1)
        assert not np.array_equal(uploads[0].model, uploads[1].model)
        np.testing.assert_array_equal(
            download.model, tree_mean([uploads[0].model, uploads[1].model])
        )
        program.begin_round(download, 2)
        models = program.models()
        np.testing.assert_array_equal(models[0], models[1])

    def test_barrier_requires_all_uploads(self):
        # The engine aggregates all N uploads at once; a set missing a
        # client is rejected.
        with pytest.raises(ProtocolError):
            server_aggregate([_upload(1, [0.0])])


_draw_plans = st.tuples(
    st.integers(1, 40),  # block length
    st.lists(st.integers(1, 50), min_size=1, max_size=12),  # draw sizes
    st.integers(0, 2**32),  # substream seed
)


class TestBufferProperties:
    @given(_draw_plans)
    def test_each_lap_is_a_permutation(self, plan):
        n, sizes, seed = plan
        drawn, _ = buffer_draw(substream(seed, "prop"), n, sum(sizes))
        for start in range(0, len(drawn), n):
            lap = drawn[start:start + n]
            assert len(set(lap)) == len(lap)  # no repeats within a lap
            if len(lap) == n:
                assert sorted(lap) == list(range(n))

    @given(_draw_plans)
    def test_wraps_count_the_laps_crossed(self, plan):
        n, sizes, seed = plan
        _, wraps = buffer_draw(substream(seed, "prop"), n, sum(sizes))
        assert wraps == math.ceil(sum(sizes) / n) - 1

    @given(_draw_plans)
    def test_same_substream_replays_the_same_positions(self, plan):
        # The reference buffers draw in the plan's chunks and one position
        # at a time: both must equal the one-call draw, wraps included.
        n, sizes, seed = plan
        drawn, wraps = buffer_draw(substream(seed, "prop"), n, sum(sizes))
        a, b = Buffer(), Buffer()
        a.refill(_records(0, n), substream(seed, "prop"))
        b.refill(_records(1, n), substream(seed, "prop"))
        chunks = []
        for c in sizes:
            chunks.append(a.draw(c))
            one_by_one = np.concatenate([b.draw(1) for _ in range(c)])
            np.testing.assert_array_equal(chunks[-1], one_by_one)
        assert a.wraps == b.wraps == wraps
        np.testing.assert_array_equal(np.concatenate(chunks), drawn)
        # Each lap is the substream's next permutation of the block.
        rng = substream(seed, "prop")
        laps = np.concatenate([rng.permutation(n) for _ in range(wraps + 1)])
        np.testing.assert_array_equal(drawn, laps[:sum(sizes)])


@st.composite
def _batched_plans(draw):
    """(size, count) with count below, at or above the block length (two or
    three laps), for a few clients of one side and round."""
    size = draw(st.integers(1, 60))
    count = draw(st.one_of(
        st.integers(1, size), st.just(size),
        st.integers(size + 1, 3 * size) if size > 1 else st.integers(2, 3),
    ))
    return size, count, draw(st.integers(1, 5)), draw(st.integers(-(2**63), 2**63 - 1))


class TestBatchedBufferDraws:
    @settings(max_examples=60, deadline=None)
    @given(_batched_plans(), st.sampled_from(["buffer-pos", "buffer-neg"]), st.integers(0, 99))
    def test_equal_substream_and_reference_buffer(self, plan, side, r):
        size, count, n_clients, seed = plan
        streams = [(side, i, r) for i in range(n_clients)]
        got = [buffer_draw(g, size, count) for g in substreams(seed, streams)]
        for (drawn, wraps), tags in zip(got, streams):
            want, want_wraps = buffer_draw(substream(seed, *tags), size, count)
            np.testing.assert_array_equal(drawn, want)
            assert wraps == want_wraps == math.ceil(count / size) - 1
            ref = Buffer()
            ref.refill(_records(0, size), substream(seed, *tags))
            np.testing.assert_array_equal(ref.draw(count), drawn)
            assert ref.wraps == wraps
            # The positions own their memory: no whole lap is kept alive.
            assert drawn.base is None and drawn.nbytes == count * drawn.itemsize


def _fed_uploads(n_clients, d, K, B1, B2, nonlinear, rng):
    """Uploads shaped like one round of fedx1 (or fedx2 when nonlinear)."""

    def block(client, b):
        return Records.concat([
            records_of(rng.standard_normal(b), client, k, rng.integers(0, 99, b))
            for k in range(K)
        ])

    return [
        RoundUpload(
            client=i,
            model=rng.standard_normal(d),
            h1=block(i, B1),
            h2=block(i, B2),
            momentum=rng.standard_normal(d) if nonlinear else None,
            u=block(i, B1) if nonlinear else None,
        )
        for i in range(n_clients)
    ]


class TestAggregateProperties:
    @settings(max_examples=50)
    @given(
        shape=st.tuples(
            st.integers(1, 6), st.integers(1, 4), st.integers(1, 3),
            st.integers(1, 3), st.integers(1, 3), st.booleans(),
        ),
        order_seed=st.integers(0, 2**32),
    )
    def test_order_invariance_and_accounting(self, shape, order_seed):
        n, d, K, B1, B2, nonlinear = shape
        uploads = _fed_uploads(n, d, K, B1, B2, nonlinear, np.random.default_rng(n))
        shuffled = [uploads[i] for i in np.random.default_rng(order_seed).permutation(n)]
        a, b = server_aggregate(uploads), server_aggregate(shuffled)
        assert a.model.tobytes() == b.model.tobytes()
        assert (a.momentum is None) == (b.momentum is None) == (not nonlinear)
        if nonlinear:
            assert a.momentum.tobytes() == b.momentum.tobytes()
        for x, y in ((a.r1, b.r1), (a.r2, b.r2), (a.p, b.p)):
            if x is not None:
                assert _rows(x) == _rows(y)
                assert list(x.client) == sorted(x.client)

        # README: per client and round the uplink carries d + K(B1+B2)
        # floats for fedx1 and 2d + K(2B1+B2) for fedx2; the downlink
        # carries the same with every client's records.
        rows = K * (2 * B1 + B2) if nonlinear else K * (B1 + B2)
        dims = 2 * d if nonlinear else d
        for up in uploads:
            assert comm_cost(up, a) == (dims + rows, dims + n * rows)
            assert comm_cost_ints(up, a) == (3 * rows, 3 * n * rows)

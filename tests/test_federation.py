"""Aggregation, the positions at which clients read the aggregate, message
accounting, and the round contract."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import Buffer, ClientUpload, emitted_ids, small_dataset, stack_uploads

from fedcpr.algorithms import PROGRAMS, HyperParams, RunSettings, simulate
from fedcpr.data import DataConfig, build_dataset
from fedcpr.federation import (
    ProtocolError,
    RoundUpload,
    comm_cost,
    server_aggregate,
    tree_mean,
)
from fedcpr.harness import parse_config
from fedcpr.losses import IDENTITY_OUTER, OuterFnSpec, PairwiseLossSpec
from fedcpr.model import ScorerSpec
from fedcpr.rng import buffer_positions, substream


def _block(n_clients, k=1):
    """k scores of each of ``n_clients`` clients at one iteration, (N, 1, k)."""
    return np.arange(n_clients * k, dtype=float).reshape(n_clients, 1, k)


def _table(models, k=2, momenta=None):
    """An upload table of one client per model row, each with k scores per
    side."""
    return RoundUpload(
        models=np.asarray(models, dtype=float),
        h1=_block(len(models), k),
        h2=_block(len(models), k),
        momenta=None if momenta is None else np.asarray(momenta, dtype=float),
    )


def _draw(seed, side, size, count):
    """One client's ``count`` positions into a block of ``size`` records,
    from stream (side, 0, 0), and the wraps."""
    at, wraps = buffer_positions(seed, side, 0, 1, size, 1, count)
    return at.reshape(-1), wraps


def _with_u(table):
    """The table with u-values on its positive-side scores."""
    return replace(table, h1_u=np.ones_like(table.h1))


class TestServerAggregate:
    def test_single_client_passthrough(self):
        down = server_aggregate(_table([[1.0, 2.0]]))
        np.testing.assert_array_equal(down.model, [1.0, 2.0])

    def test_two_client_mean(self):
        down = server_aggregate(_table([[0.0, 0.0], [2.0, 4.0]]))
        np.testing.assert_array_equal(down.model, [1.0, 2.0])

    def test_rejects_u_values_not_shaped_like_h1(self):
        # A u-value belongs to the score at the same position, so u-values
        # that are not one per score are rejected.
        table = _table([[0.0], [0.0]], k=2)
        for u in (np.ones((2, 1, 3)), np.ones((2, 2, 1)), np.ones((2, 2)), np.ones((1, 1, 2))):
            with pytest.raises(ProtocolError, match="^h1_u must"):
                server_aggregate(replace(table, h1_u=u))
        with pytest.raises(ProtocolError, match="^h1_u must be shaped like h1$"):
            server_aggregate(replace(table, h1_u=np.ones((2, 1, 3))))
        down = server_aggregate(_with_u(table))
        assert down.r1_u.tolist() == [1.0] * 4 and down.r1.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_history_union_size(self):
        k = 5
        down = server_aggregate(_table([[0.0]] * 3, k=k))
        assert len(down.r1) == 3 * k
        assert len(down.r2) == 3 * k

    def test_momentum_mean_when_present(self):
        down = server_aggregate(_table([[0.0], [2.0]], momenta=[[1.0], [3.0]]))
        np.testing.assert_array_equal(down.momentum, [2.0])

    def test_rejects_empty_table(self):
        with pytest.raises(ProtocolError, match="no uploads"):
            server_aggregate(RoundUpload(np.empty((0, 1)), _block(0), _block(0)))

    def test_rejects_block_without_one_row_per_client(self):
        # Scores of more or fewer clients than the table has model rows, or
        # without a client axis, on either side.
        table = _table([[0.0], [0.0]], k=1)
        for block in (_block(3), _block(1), np.zeros((2, 2)), np.zeros(2)):
            for side in ("h1", "h2"):
                with pytest.raises(ProtocolError, match=f"^{side} must hold one row per client"):
                    server_aggregate(replace(table, **{side: block}))

    def test_tree_mean_matches_plain_mean(self):
        rng = np.random.default_rng(0)
        vecs = [rng.standard_normal(5) for _ in range(7)]
        np.testing.assert_allclose(tree_mean(vecs), np.mean(vecs, axis=0), rtol=1e-12)
        # The rows of a stacked array sum in the same order as the list.
        assert tree_mean(np.stack(vecs)).tobytes() == tree_mean(vecs).tobytes()


class TestBuffer:
    def test_single_entry(self):
        drawn, wraps = _draw(0, "t", 1, 1)
        assert list(drawn) == [0]
        assert wraps == 0

    def test_same_stream_same_permutation(self):
        a, _ = _draw(3, "perm", 52, 52)
        b, _ = _draw(3, "perm", 52, 52)
        np.testing.assert_array_equal(a, b)

    def test_entries_are_a_permutation(self):
        drawn, wraps = _draw(4, "perm", 52, 52)
        assert sorted(drawn) == list(range(52))
        assert wraps == 0

    def test_sequential_draws_without_repeats(self):
        drawn, _ = _draw(5, "seq", 5, 4)
        first, second = drawn[:2], drawn[2:]
        assert len(set(first) | set(second)) == 4

    def test_each_entry_exactly_once_over_k_draws(self):
        k = 9
        at, wraps = buffer_positions(6, "k", 0, 1, k, k, 1)  # K = k steps of one
        assert sorted(at.ravel()) == list(range(k))
        assert wraps == 0

    def test_wraparound_reshuffles_and_continues(self):
        out, wraps = _draw(7, "wrap", 3, 5)
        assert sorted(out[:3]) == [0, 1, 2]
        assert set(out[3:]) <= {0, 1, 2}
        assert wraps == 1

    def test_empty_refill_rejected(self):
        with pytest.raises(ValueError, match="empty aggregate"):
            _draw(8, "e", 0, 1)

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            _draw(8, "c", 3, 0)


class TestCommCost:
    def test_linear_algorithm_example(self):
        d, k = 10, 4
        table = _table(np.zeros((2, d)), k=k)
        down = server_aggregate(table)
        assert comm_cost(table, down) == (d + 2 * k, d + 2 * (2 * k))  # (18, 26)

    def test_nonlinear_algorithm_example(self):
        d, k = 10, 4
        table = _table(np.zeros((2, d)), k=k, momenta=np.zeros((2, d)))
        table = _with_u(table)
        down = server_aggregate(table)
        assert comm_cost(table, down) == (2 * d + 3 * k, 2 * d + 3 * (2 * k))  # (32, 44)


# The default config (d = 8, N = 16, 4 positives and 20 negatives per
# client) at K = 2, so the effective batches are B1 = min(32, 4) = 4 and
# B2 = min(32, 20) = 20. Per client and round: (uplink, downlink) floats.
D, K2, N16, EB1, EB2 = 8, 2, 16, 4, 20
TRAFFIC = {
    ("local_sgd", "identity"): (D, D),  # (8, 8)
    ("local_pair", "identity"): (D, D),  # (8, 8)
    ("local_pair", "kl_log"): (2 * D, 2 * D),  # model and momentum: (16, 16)
    ("centralized", "identity"): (D, D),  # (8, 8)
    ("centralized", "kl_log"): (2 * D, 2 * D),  # (16, 16)
    # d + K(B1+B2) up; every client's records down: (56, 776)
    ("fedx1", "identity"): (D + K2 * (EB1 + EB2), D + N16 * K2 * (EB1 + EB2)),
    # 2d + K(2B1+B2) up, u-values riding with the positive scores: (72, 912)
    ("fedx2", "kl_log"): (2 * D + K2 * (2 * EB1 + EB2), 2 * D + N16 * K2 * (2 * EB1 + EB2)),
}


@pytest.mark.parametrize("algorithm,outer", list(TRAFFIC))
def test_every_algorithms_uplink_and_downlink(algorithm, outer):
    cfg = parse_config(f"algorithm = {algorithm}\nouter.kind = {outer}\nhyper.K = 2\nhyper.R = 1\n")
    trace = simulate(algorithm, build_dataset(cfg.data), cfg.scorer, cfg.loss, cfg.outer,
                     cfg.hyper, eval_every=0, oracle_every=0)
    up, down = TRAFFIC[algorithm, outer]
    assert [(r.uplink_floats, r.downlink_floats) for r in trace.rounds] == [(up, down)] * 2
    # centralized is one worker; every other program sends from N clients.
    senders = 1 if algorithm == "centralized" else N16
    assert trace.total_floats == 2 * senders * (up + down)


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
    """One round through the engine: (aggregate, upload table)."""
    program.begin_round(download, round_idx)
    for k in range(hyper.K):
        program.step(k, hyper.eta)
    table = program.uploads()
    return server_aggregate(table), table


class TestRoundContract:
    def test_history_partition_of_provenance(self):
        program, hyper = _fedx1_fixture()
        download = server_aggregate(program.bootstrap_uploads())
        download, table = _one_round(program, hyper, download, 1)
        n, k, b = program.n_clients, hyper.K, hyper.B1
        sides = ((table.h1, download.r1, program.pos_ids), (table.h2, download.r2, program.neg_ids))
        for (block, hist, own), ids in zip(sides, emitted_ids(program)):
            assert block.shape == ids.shape == (n, k, b) and len(hist) == n * k * b
            for client in range(n):
                # Row i holds client i's own samples, B of them per iteration.
                assert set(ids[client].ravel()) <= set(own[client])

    def test_lazy_records_are_exactly_one_round_stale(self):
        # One client, so the round's K*B lazy negatives are one full lap.
        program, hyper = _fedx1_fixture(n_clients=1)
        download0 = server_aggregate(program.bootstrap_uploads())
        # Round 1 draws its lazy records from exactly the round-0 aggregate,
        # so every draw is one round stale.
        ids = emitted_ids(program)[1].reshape(-1)
        wraps = program.begin_round(download0, 1)
        drained = program.neg_at[:, 0].reshape(-1)
        # Every round-0 score is read once, with the sample it scored.
        assert sorted(drained) == list(range(len(download0.r2)))
        assert sorted(ids[drained]) == sorted(ids)
        assert program.lazy_neg[:, 0].reshape(-1).tobytes() == download0.r2[drained].tobytes()
        assert wraps == 0

    def test_zero_eta_keeps_models_at_global_model(self):
        program, hyper = _fedx1_fixture(eta=0.0)
        download = server_aggregate(program.bootstrap_uploads())
        w0 = download.model.copy()
        download, table = _one_round(program, hyper, download, 1)
        for model in table.models:
            np.testing.assert_array_equal(model, w0)
        np.testing.assert_array_equal(download.model, w0)

    def test_models_differ_before_aggregation_equal_after_download(self):
        program, hyper = _fedx1_fixture(eta=0.1)
        download = server_aggregate(program.bootstrap_uploads())
        download, table = _one_round(program, hyper, download, 1)
        assert not np.array_equal(table.models[0], table.models[1])
        np.testing.assert_array_equal(
            download.model, tree_mean([table.models[0], table.models[1]])
        )
        program.begin_round(download, 2)
        models = program.model
        np.testing.assert_array_equal(models[0], models[1])

    def test_barrier_requires_all_uploads(self):
        # The engine aggregates all N uploads at once; a table missing a
        # client (scores of two clients, a model row for one client only) is
        # rejected.
        with pytest.raises(ProtocolError):
            server_aggregate(RoundUpload(np.zeros((1, 1)), _block(2, 2), _block(2, 2)))


_draw_plans = st.tuples(
    st.integers(1, 40),  # block length
    st.lists(st.integers(1, 50), min_size=1, max_size=12),  # draw sizes
    st.integers(0, 2**32),  # substream seed
)


class TestBufferProperties:
    @given(_draw_plans)
    def test_each_lap_is_a_permutation(self, plan):
        n, sizes, seed = plan
        drawn, _ = _draw(seed, "prop", n, sum(sizes))
        for start in range(0, len(drawn), n):
            lap = drawn[start:start + n]
            assert len(set(lap)) == len(lap)  # no repeats within a lap
            if len(lap) == n:
                assert sorted(lap) == list(range(n))

    @given(_draw_plans)
    def test_wraps_count_the_laps_crossed(self, plan):
        n, sizes, seed = plan
        _, wraps = _draw(seed, "prop", n, sum(sizes))
        assert wraps == math.ceil(sum(sizes) / n) - 1

    @given(_draw_plans)
    def test_same_substream_replays_the_same_positions(self, plan):
        # The reference buffers draw in the plan's chunks and one position
        # at a time: both must equal the one-call draw, wraps included.
        n, sizes, seed = plan
        drawn, wraps = _draw(seed, "prop", n, sum(sizes))
        a, b = Buffer(), Buffer()
        a.refill(np.zeros(n), substream(seed, "prop", 0, 0))
        b.refill(np.ones(n), substream(seed, "prop", 0, 0))
        chunks = []
        for c in sizes:
            chunks.append(a.draw(c))
            one_by_one = np.concatenate([b.draw(1) for _ in range(c)])
            np.testing.assert_array_equal(chunks[-1], one_by_one)
        assert a.wraps == b.wraps == wraps
        np.testing.assert_array_equal(np.concatenate(chunks), drawn)
        # Each lap is the substream's next permutation of the block.
        rng = substream(seed, "prop", 0, 0)
        laps = np.concatenate([rng.permutation(n) for _ in range(wraps + 1)])
        np.testing.assert_array_equal(drawn, laps[:sum(sizes)])


@st.composite
def _batched_plans(draw):
    """(size, K, n, N, seed) with K·n below, at or above the block length
    (up to three laps), for a few clients of one side and round."""
    size = draw(st.integers(1, 60))
    K = draw(st.integers(1, 4))
    n = draw(st.integers(1, max(1, 3 * size // K)))
    return size, K, n, draw(st.integers(1, 5)), draw(st.integers(-(2**63), 2**63 - 1))


class TestBatchedBufferDraws:
    @settings(max_examples=60, deadline=None)
    @given(_batched_plans(), st.sampled_from(["buffer-pos", "buffer-neg"]), st.integers(0, 99))
    def test_equal_substream_and_reference_buffer(self, plan, side, r):
        size, K, n, n_clients, seed = plan
        at, wraps = buffer_positions(seed, side, r, n_clients, size, K, n)
        assert at.shape == (K, n_clients, n) and at.dtype == np.int64
        assert at.base is None  # the positions own their memory, no lap outlives the call
        count = K * n
        assert wraps == n_clients * ((count - 1) // size)
        for i in range(n_clients):
            drawn = at[:, i].ravel()  # client i's positions, step after step
            for start in range(0, count, size):
                lap = drawn[start:start + size]
                assert len(set(lap)) == len(lap) and 0 <= lap.min() and lap.max() < size
            g = substream(seed, side, i, r)
            laps = np.concatenate([g.permutation(size) for _ in range(-(-count // size))])
            np.testing.assert_array_equal(drawn, laps[:count])
            # The reference buffer, drawn as the K steps draw: n at a time.
            ref = Buffer()
            ref.refill(np.zeros(size), substream(seed, side, i, r))
            np.testing.assert_array_equal(np.concatenate([ref.draw(n) for _ in range(K)]), drawn)
            assert ref.wraps == (count - 1) // size


def _fed_table(n_clients, d, K, B1, B2, nonlinear, rng):
    """An upload table shaped like one round of fedx1 (or fedx2 when
    nonlinear)."""

    uploads = [ClientUpload(
        model=rng.standard_normal(d),
        h1=rng.standard_normal((K, B1)),
        h2=rng.standard_normal((K, B2)),
        h1_u=rng.standard_normal((K, B1)) if nonlinear else None,
        momentum=rng.standard_normal(d) if nonlinear else None,
    ) for _ in range(n_clients)]
    return stack_uploads(uploads)[0]


class TestAggregateProperties:
    @settings(max_examples=50)
    @given(
        shape=st.tuples(
            st.integers(1, 6), st.integers(1, 4), st.integers(1, 3),
            st.integers(1, 3), st.integers(1, 3), st.booleans(),
        ),
    )
    def test_pass_through_and_accounting(self, shape):
        n, d, K, B1, B2, nonlinear = shape
        table = _fed_table(n, d, K, B1, B2, nonlinear, np.random.default_rng(n))
        down = server_aggregate(table)
        # The models' mean is the tree mean of the per-client list.
        assert down.model.tobytes() == tree_mean(list(table.models)).tobytes()
        assert (down.momentum is None) == (table.momenta is None) == (not nonlinear)
        if nonlinear:
            assert down.momentum.tobytes() == tree_mean(list(table.momenta)).tobytes()
        # Each block passes through flattened in client-major order.
        assert (table.h1.shape, table.h2.shape) == ((n, K, B1), (n, K, B2))
        assert (down.r1_u is None) == (table.h1_u is None) == (not nonlinear)
        for got, sent in ((down.r1, table.h1), (down.r2, table.h2), (down.r1_u, table.h1_u)):
            if sent is not None:
                assert got.tobytes() == sent.tobytes()

        # README: per client and round the uplink carries d + K(B1+B2)
        # floats for fedx1 and 2d + K(2B1+B2) for fedx2; the downlink
        # carries the same with every client's records.
        rows = K * (2 * B1 + B2) if nonlinear else K * (B1 + B2)
        dims = 2 * d if nonlinear else d
        assert comm_cost(table, down) == (dims + rows, dims + n * rows)


class TestRaggedAccounting:
    @settings(max_examples=30, deadline=None)
    @given(
        n_clients=st.integers(1, 4), n_pos=st.integers(1, 5), n_neg=st.integers(1, 5),
        hyper=st.builds(HyperParams, eta=st.just(0.01), K=st.integers(1, 3), R=st.just(1),
                        B1=st.integers(1, 4), B2=st.integers(1, 4), seed=st.integers(0, 99)),
        algorithm=st.sampled_from(["fedx1", "fedx2"]),
    )
    def test_uplink_of_every_client(self, n_clients, n_pos, n_neg, hyper, algorithm):
        # Each client's uplink counts the effective batch sizes, which
        # shrink to a side's size when the batch would exceed it.
        ds = small_dataset(n_clients, n_pos, n_neg, (3, 3), hyper.seed)
        fedx2 = algorithm == "fedx2"
        scorer = ScorerSpec("linear", 4)
        outer = OuterFnSpec("kl_log") if fedx2 else IDENTITY_OUTER
        program = PROGRAMS[algorithm](
            RunSettings(algorithm, scorer, PairwiseLossSpec("psm_sigmoid"), outer, hyper), ds)
        tables = [program.bootstrap_uploads()]
        _, table = _one_round(program, hyper, server_aggregate(tables[0]), 1)
        tables.append(table)
        dims = scorer.param_count * (2 if fedx2 else 1)
        for table in tables:
            down = server_aggregate(table)
            n1, n2 = min(hyper.B1, n_pos), min(hyper.B2, n_neg)
            assert (table.h1.shape, table.h2.shape) == ((n_clients, hyper.K, n1),
                                                        (n_clients, hyper.K, n2))
            assert (table.h1_u is not None) == fedx2
            rows = hyper.K * (2 * n1 + n2 if fedx2 else n1 + n2)
            assert comm_cost(table, down)[0] == dims + rows
